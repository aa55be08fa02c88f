import math
from fractions import Fraction

import numpy as np
import pytest

import robustdp as r
from conftest import DilemmaViolation, check_dilemma_conditions, per_action, row_counts
from robustdp.rssd import (
    PUBLIC_GOODS,
    SNOWDRIFT,
    STAG_HUNT,
    RssdParams,
    cooperator_counts,
    stage_payoffs,
    team_payoff,
    transition_row_candidates,
)


class TestParams:
    def test_defaults_valid(self):
        params = RssdParams()
        assert params.snowdrift_benefit == params.synergy

    def test_synergy_outside_dilemma_range_rejected(self):
        with pytest.raises(ValueError, match="synergy"):
            RssdParams(synergy=(0.5, 1.8, 2.2))
        with pytest.raises(ValueError, match="synergy"):
            RssdParams(synergy=(1.5, 3.0, 2.2))

    def test_threshold_range(self):
        with pytest.raises(ValueError, match="stag_threshold"):
            RssdParams(stag_threshold=0)
        with pytest.raises(ValueError, match="stag_threshold"):
            RssdParams(stag_threshold=4)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_players": 0}, "n_players must be positive"),
            ({"synergy": (1.5, 1.8)}, "synergy must give one factor per state"),
            ({"snowdrift_benefit": (1.5,)}, "snowdrift_benefit must give one value per state"),
            ({"mu_set": ()}, "mu_set must be nonempty"),
            ({"mu_set": (0.1, math.nan)},
             r"mu nan must satisfy 0 <= mu and mu \* n_players <= 1$"),
            ({"mu_set": (math.inf,)},
             r"mu inf must satisfy 0 <= mu and mu \* n_players <= 1$"),
            ({"snowdrift_benefit": (math.inf, 1.8, 2.2)},
             r"snowdrift_benefit \(inf, 1\.8, 2\.2\) must be finite$"),
            ({"snowdrift_benefit": (1.5, math.nan, 2.2)},
             r"snowdrift_benefit \(1\.5, nan, 2\.2\) must be finite$"),
            ({"stag_threshold": 2.5}, "stag_threshold must be an integer, got 2.5$"),
            ({"stag_threshold": True}, "stag_threshold must be an integer, got True$"),
            ({"n_players": 3.5, "mu_set": (0.1,)}, "n_players must be an integer, got 3.5$"),
        ],
        ids=repr,
    )
    def test_lengths_and_ranges_checked(self, kwargs, message):
        error = TypeError if "must be an integer" in message else ValueError
        with pytest.raises(error, match=f"^{message}"):
            RssdParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"cost": True}, "cost must be a real number, got True$"),
            ({"cost": "1"}, "cost must be a real number, got '1'$"),
            ({"mu_set": (False, 0.1)}, "mu_set entry must be a real number, got False$"),
            ({"synergy": (1.5, "1.8", 2.2)}, "synergy entry must be a real number, got '1.8'$"),
            ({"snowdrift_benefit": (1.5, np.True_, 2.2)},
             "snowdrift_benefit entry must be a real number, got .*True_?$"),
            ({"synergy": "1.5"}, "synergy must be a sequence of real numbers, got '1.5'$"),
            ({"mu_set": 0.1}, "mu_set must be a sequence of real numbers, got 0.1$"),
        ],
        ids=repr,
    )
    def test_float_fields_reject_bools_and_strings(self, kwargs, message):
        with pytest.raises(TypeError, match=f"^{message}"):
            RssdParams(**kwargs)

    def test_float_fields_are_stored_as_floats(self):
        params = RssdParams(cost=1, synergy=(2, 2, 2), mu_set=(0, Fraction(1, 10)))
        assert params.cost == 1.0 and type(params.cost) is float
        assert params.synergy == params.snowdrift_benefit == (2.0, 2.0, 2.0)
        assert params.mu_set == (0.0, 0.1)
        assert all(type(x) is float for x in params.synergy + params.mu_set)

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_players": 10**400}, {"n_players": 10**18, "mu_set": (1e-20,)},
         {"n_players": np.iinfo(np.intp).bits - 1, "mu_set": (1e-3,)}],
        ids=["400_digits", "10**18", "index_bits-1"],
    )
    def test_joint_actions_must_fit_numpys_index_type(self, kwargs):
        # Rejected before n_players meets a float or a power; these only
        # construct the parameters.
        with pytest.raises(ValueError, match="^n_players is too large: numpy cannot index"):
            RssdParams(**kwargs)

    def test_largest_indexable_player_count_constructs(self):
        n = np.iinfo(np.intp).bits - 2
        assert RssdParams(n_players=n, mu_set=(1e-3,)).n_players == n

    def test_mu_must_keep_rows_stochastic(self):
        with pytest.raises(ValueError, match="mu"):
            RssdParams(mu_set=(0.1, 0.4))


class TestStagePayoffs:
    def test_public_goods_full_cooperation(self):
        params = RssdParams()
        a, b = stage_payoffs(params, PUBLIC_GOODS, 3, 0)
        assert a == 3 * 1.5 * 1.0 / 3 - 1.0 == 0.5
        assert b == 1.5

    def test_stag_hunt_below_threshold(self):
        params = RssdParams()
        a, b = stage_payoffs(params, STAG_HUNT, 1, 2)
        assert (a, b) == (-1.0, 0.0)

    def test_stag_hunt_at_threshold_switches_to_public_goods_form(self):
        params = RssdParams()
        a, b = stage_payoffs(params, STAG_HUNT, 2, 1)
        assert a == 2 * 1.8 / 3 - 1.0
        assert b == 2 * 1.8 / 3

    def test_snowdrift_no_cooperators(self):
        params = RssdParams()
        assert stage_payoffs(params, SNOWDRIFT, 0, 0) == (0.0, 0.0)

    def test_snowdrift_cost_split(self):
        params = RssdParams()
        a, b = stage_payoffs(params, SNOWDRIFT, 2, 2)
        assert a == 2.2 - 0.5
        assert b == 2.2

    def test_out_of_range_cooperators_rejected(self):
        with pytest.raises(ValueError):
            stage_payoffs(RssdParams(), PUBLIC_GOODS, 4, 0)


class TestTransitionRows:
    def test_zero_cooperators_collapse_to_identity_row(self):
        rows = transition_row_candidates(RssdParams(), 0, 0)
        assert rows.shape == (1, 3)
        assert np.array_equal(rows[0], [1.0, 0.0, 0.0])

    def test_full_cooperation_strongest_uncertainty_row(self):
        rows = transition_row_candidates(RssdParams(), 0, 3)
        assert rows.shape == (3, 3)
        assert np.array_equal(rows[2], [0.1, 0.45, 0.45])

    def test_rows_sum_exactly_to_one(self):
        params = RssdParams()
        for state in range(3):
            for h in range(4):
                sums = transition_row_candidates(params, state, h).sum(axis=1)
                assert np.all(sums == 1.0)

    @pytest.mark.parametrize("n", [3, 8, 13, 20])
    def test_entries_are_the_nearest_floats_of_the_exact_values(self, n):
        mu_set = tuple(round(mu * 3 / n, 12) for mu in (0.1, 0.2, 0.3)) + (1 / (7 * n),)
        params = RssdParams(n_players=n, mu_set=mu_set)
        for state in range(3):
            for h in range(n + 1):
                expected = []
                for mu in mu_set:
                    leave = Fraction(str(mu)) * h
                    row = [float(1 - leave) if l == state else float(leave / 2)
                           for l in range(3)]
                    if row not in expected:
                        expected.append(row)
                got = transition_row_candidates(params, state, h)
                assert got.tolist() == expected


class TestBuild:
    def test_team_payoff_hand_example(self):
        # s1, two cooperators, destination s1: a2 = 0, b2 = 1 -> average 1/3
        params = RssdParams()
        assert team_payoff(params, PUBLIC_GOODS, 2, 0) == (2 * 0.0 + 1 * 1.0) / 3

    def test_build_passes_full_validation(self, rssd_game):
        reparsed = r.validate_game(r.game_to_dict(rssd_game))
        assert np.array_equal(
            per_action(reparsed, reparsed.group_payoff),
            per_action(rssd_game, rssd_game.group_payoff),
        )

    def test_cooperator_count_drives_rows(self, rssd_game):
        for a in range(rssd_game.n_joint_actions):
            h = rssd_game.action_names(a).count("C")
            expected = 3 if h > 0 else 1
            assert row_counts(rssd_game)[0, rssd_game.action_group[0, a]] == expected

    @pytest.mark.parametrize("n", [3, 8, 10])
    def test_one_group_per_cooperator_count(self, n):
        mu_set = tuple(round(mu * 3 / n, 12) for mu in (0.1, 0.2, 0.3))
        game = r.build_rssd(RssdParams(n_players=n, mu_set=mu_set))
        cooperators = [game.action_names(a).count("C") for a in range(2**n)]
        assert game.group_action.shape == (3, n + 1)
        for k in range(game.m):
            # actions share a group exactly when they share a cooperator count
            pairs = set(zip(cooperators, game.action_group[k].tolist()))
            assert len(pairs) == len({h for h, _ in pairs}) == n + 1
            assert len({g for _, g in pairs}) == n + 1

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_cooperator_counts_count_the_c_of_each_joint_action(self, n):
        per_player = np.unravel_index(np.arange(2**n), (2,) * n)
        assert np.array_equal(cooperator_counts(n), n - np.sum(per_player, axis=0))

    def test_r_max_computed(self, rssd_game):
        # largest magnitude payoff: snowdrift, all cooperate, theta=2.2
        assert rssd_game.r_max == pytest.approx(2.2 - 1.0 / 3, abs=1e-12)


class TestDilemmaConditions:
    def test_paper_defaults_pass(self):
        report = check_dilemma_conditions(RssdParams())
        assert report.ok
        assert report.violations == ()

    def test_public_goods_defector_margin_is_cost(self):
        params = RssdParams()
        for h in range(1, 3):
            a, b = stage_payoffs(params, PUBLIC_GOODS, h, 0)
            assert b - a == params.cost > 0

    def test_stag_hunt_just_below_threshold(self):
        params = RssdParams()
        a, b = stage_payoffs(params, STAG_HUNT, params.stag_threshold - 1, 0)
        assert a == -params.cost < b == 0.0

    def test_cooperation_beats_defection_in_public_goods(self):
        params = RssdParams()
        a_full, _ = stage_payoffs(params, PUBLIC_GOODS, 3, 0)
        _, b_none = stage_payoffs(params, PUBLIC_GOODS, 0, 0)
        assert a_full == 0.5 > b_none == 0.0

    def test_violations_report_state_count_and_destination(self):
        params = RssdParams(snowdrift_benefit=(0.4, 0.4, 0.4))
        report = check_dilemma_conditions(params)
        assert not report.ok
        assert all(isinstance(v, DilemmaViolation) for v in report.violations)
        snowdrift_monotone = [
            v
            for v in report.violations
            if v.state == SNOWDRIFT and v.condition == "monotone_a"
        ]
        assert snowdrift_monotone
        v = snowdrift_monotone[0]
        assert 0 <= v.next_state < 3 and 0 <= v.n_cooperators <= 3


class TestSolveability:
    def test_all_cooperate_in_dilemma_states(self, rssd_game, rssd_oracle):
        # team optimum: full cooperation in the public-goods and stag-hunt
        # states; snowdrift needs a single cooperator
        d = rssd_oracle.d_star
        assert rssd_game.action_names(d.joint_actions[0]) == ("C", "C", "C")
        assert rssd_game.action_names(d.joint_actions[1]) == ("C", "C", "C")
        assert rssd_game.action_names(d.joint_actions[2]).count("C") == 1
