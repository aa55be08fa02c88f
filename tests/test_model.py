import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustdp as r
from conftest import enumerate_policy_models, game_parts, singleton_game, two_state_chain
from robustdp.model import _clean_rows
from robustdp.random_games import random_game


def rows_game(rows, m):
    """Game with m states and one action whose every candidate set is
    ``rows``; raises GameValidationError when ``rows`` is rejected."""
    return r.build_game(1, [f"s{i + 1}" for i in range(m)], [["a0"]],
                        np.zeros((m, 1, m)), [[rows]] * m)


def minimal_raw(rows=((1.0,),)):
    return {
        "n_players": 1,
        "states": ["s1"],
        "player_actions": [["a0"]],
        "default_payoff": 0.0,
        "payoffs": [],
        "uncertainty": [{"s": "s1", "a": [0], "rows": [list(row) for row in rows]}],
    }


class TestValidation:
    def test_degenerate_singleton_game(self):
        game = r.validate_game(minimal_raw())
        assert game.m == 1
        assert game.n_joint_actions == 1
        assert game.r_max == 0.0

    def test_non_stochastic_row_lists_sum(self):
        raw = minimal_raw(rows=((0.5, 0.6),))
        raw["states"] = ["s1", "s2"]
        raw["uncertainty"].append({"s": "s2", "a": [0], "rows": [[0.5, 0.5]]})
        with pytest.raises(r.GameValidationError) as exc:
            r.validate_game(raw)
        message = str(exc.value)
        assert "sum" in message and "1.1" in message
        assert "s1" in message

    def test_missing_uncertainty_entry(self):
        raw = minimal_raw()
        raw["uncertainty"] = []
        with pytest.raises(r.GameValidationError, match="missing entry"):
            r.validate_game(raw)

    def test_empty_action_set(self):
        raw = minimal_raw()
        raw["player_actions"] = [[]]
        with pytest.raises(r.GameValidationError, match="empty action set"):
            r.validate_game(raw)

    def test_duplicate_states_rejected(self):
        raw = minimal_raw()
        raw["states"] = ["s1", "s1"]
        with pytest.raises(r.GameValidationError, match="duplicate"):
            r.validate_game(raw)

    def test_missing_payoffs_without_default(self):
        raw = minimal_raw()
        del raw["default_payoff"]
        with pytest.raises(r.GameValidationError, match="default_payoff"):
            r.validate_game(raw)

    def test_per_player_payoffs_averaged_at_load(self):
        raw = minimal_raw()
        raw["n_players"] = 2
        raw["player_actions"] = [["a0"], ["b0"]]
        raw["uncertainty"] = [{"s": "s1", "a": [0, 0], "rows": [[1.0]]}]
        raw["payoffs"] = [{"s": "s1", "a": [0, 0], "s_next": "s1", "r": [1.0, 3.0]}]
        game = r.validate_game(raw)
        assert game.payoff[0, 0, 0] == 2.0

    def test_duplicate_payoff_entry_rejected(self):
        raw = minimal_raw()
        raw["payoffs"] = [
            {"s": "s1", "a": [0], "s_next": "s1", "r": 1.0},
            {"s": "s1", "a": [0], "s_next": "s1", "r": 2.0},
        ]
        with pytest.raises(r.GameValidationError, match="duplicate"):
            r.validate_game(raw)

    @pytest.mark.parametrize(
        "r_max, message",
        [
            (1.0, "r_max 1.0 < max |payoff| 2.0"),
            (float("nan"), "r_max must be finite"),
            (float("inf"), "r_max must be finite"),
        ],
        ids=["1.0", "nan", "inf"],
    )
    def test_r_max_below_payoffs_rejected(self, r_max, message):
        raw = minimal_raw()
        raw["payoffs"] = [{"s": "s1", "a": [0], "s_next": "s1", "r": 2.0}]
        raw["r_max"] = r_max
        with pytest.raises(r.GameValidationError) as exc:
            r.validate_game(raw)
        assert exc.value.errors == [message]

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda raw: raw.update(n_players=True),
                         "n_players must be a positive integer", id="n_players"),
            pytest.param(lambda raw: raw.update(r_max=True),
                         "r_max must be a number", id="r_max"),
            pytest.param(lambda raw: raw.update(default_payoff=True),
                         "default_payoff must be a number", id="default_payoff"),
            pytest.param(lambda raw: raw["payoffs"][0].update(r=True),
                         "payoffs[0]: 'r' must be a number or per-player list",
                         id="r"),
            pytest.param(lambda raw: raw["payoffs"][0].update(r=[True]),
                         "payoffs[0]: 'r' list must give one payoff per player",
                         id="r_list"),
            pytest.param(lambda raw: raw["uncertainty"][1].update(a=[True]),
                         "uncertainty[1]: action index True out of range for player 0",
                         id="a"),
            pytest.param(lambda raw: raw["uncertainty"][1].update(rows=[[True]]),
                         "uncertainty[state='s1', action=(1,)]: "
                         "rows must hold numbers, not true/false",
                         id="rows"),
        ],
    )
    def test_json_true_is_not_a_number(self, edit, message):
        raw = minimal_raw()
        raw["player_actions"] = [["a0", "a1"]]
        raw["uncertainty"].append({"s": "s1", "a": [1], "rows": [[1.0]]})
        raw["payoffs"] = [{"s": "s1", "a": [0], "s_next": "s1", "r": 0.5}]
        r.validate_game(raw)
        edit(raw)
        with pytest.raises(r.GameValidationError) as exc:
            r.validate_game(raw)
        assert message in exc.value.errors

    @pytest.mark.parametrize("name", [["s1"], {"x": 1}], ids=["array", "object"])
    @pytest.mark.parametrize(
        "section, key", [("payoffs", "s"), ("payoffs", "s_next"), ("uncertainty", "s")]
    )
    def test_state_name_that_is_not_a_string_is_unknown(self, section, key, name):
        raw = minimal_raw()
        raw["payoffs"] = [{"s": "s1", "a": [0], "s_next": "s1", "r": 0.5}]
        raw[section][0][key] = name
        with pytest.raises(r.GameValidationError) as exc:
            r.validate_game(raw)
        assert f"{section}[0]: unknown state {name!r}" in exc.value.errors

    def test_all_errors_reported_together(self):
        raw = minimal_raw(rows=((0.4, 0.4),))
        raw["states"] = ["s1", "s2"]
        raw["r_max"] = "nope"
        with pytest.raises(r.GameValidationError) as exc:
            r.validate_game(raw)
        message = str(exc.value)
        assert "uncertainty[state='s1', action=(0,)]: row 0 sum 0.8" in message
        assert "uncertainty[state='s2', action=(0,)]: missing entry" in message
        assert "r_max must be a number" in message

    def test_malformed_header_fields_reported_together(self):
        raw = minimal_raw()
        raw["states"] = "s1"
        raw["player_actions"] = ["a0"]
        with pytest.raises(r.GameValidationError) as exc:
            r.validate_game(raw)
        assert exc.value.errors == [
            "states must be an array of state names",
            "player_actions must be an array of arrays of action names",
        ]

    def test_tiny_negative_entries_clamped(self):
        game = rows_game([[1.0 + 1e-16, -1e-16]], 2)
        assert game.candidates[0, 0, 0, 1] == 0.0

    def test_larger_negative_entry_rejected(self):
        with pytest.raises(r.GameValidationError, match="row 0 entry -0.1 is negative"):
            rows_game([[1.1, -0.1]], 2)

    def test_rssd_row_sets_have_three_candidates_collapsing_at_zero_cooperators(
        self, rssd_game
    ):
        all_defect = rssd_game.joint_index([1, 1, 1])
        all_coop = rssd_game.joint_index([0, 0, 0])
        for k in range(rssd_game.m):
            assert rssd_game.n_rows[k, all_defect] == 1
            assert rssd_game.n_rows[k, all_coop] == 3


@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.data())
@settings(max_examples=50, deadline=None)
def test_joint_action_encoding(sizes, data):
    """Joint-action indices follow ``itertools.product`` order over the
    per-player actions, ``action_names`` inverts ``joint_index``, and an
    out-of-range, negative or wrong-arity input raises."""
    actions = [[f"p{i}a{j}" for j in range(size)] for i, size in enumerate(sizes)]
    n_joint = math.prod(sizes)
    game = r.build_game(
        len(sizes), ["s1"], actions, np.zeros((1, n_joint, 1)), [[[[1.0]]] * n_joint]
    )
    reference = list(itertools.product(*map(range, sizes)))
    assert game.action_shape == tuple(sizes)
    assert game.n_players == len(sizes)
    assert game.n_joint_actions == len(reference)
    for a, per_player in enumerate(reference):
        assert game.joint_index(per_player) == a
        assert game.action_names(a) == tuple(
            acts[x] for acts, x in zip(actions, per_player)
        )
    per_player = list(data.draw(st.sampled_from(reference)))
    i = data.draw(st.integers(0, len(sizes) - 1))
    for bad in (sizes[i], -1):
        with pytest.raises(ValueError):
            game.joint_index(per_player[:i] + [bad] + per_player[i + 1:])
    for wrong_arity in (per_player + [0], per_player[:-1]):
        with pytest.raises(ValueError):
            game.joint_index(wrong_arity)
    for bad in (-1, n_joint):
        with pytest.raises(ValueError):
            game.action_names(bad)


class TestRowDistributionSet:
    """Checks that build_game makes on one candidate row set."""

    @given(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=5
        )
    )
    def test_normalised_rows_accepted(self, weights):
        row = np.array(weights) / np.sum(weights)
        game = rows_game([row], len(row))
        assert game.n_rows[0, 0] == 1
        assert abs(game.candidates[0, 0, 0].sum() - 1.0) <= 1e-12

    @given(st.floats(min_value=1e-9, max_value=0.5))
    def test_off_tolerance_sum_rejected(self, excess):
        with pytest.raises(
            r.GameValidationError, match=r"uncertainty\[state='s1', action=\(0,\)\]: row 0 sum"
        ):
            rows_game([[1.0 + excess]], 1)

    def test_within_tolerance_sum_renormalised(self):
        game = rows_game([[0.5, 0.5 + 1e-13]], 2)
        assert game.candidates[0, 0, 0].sum() == pytest.approx(1.0, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(r.GameValidationError, match="expected a nonempty list of rows"):
            rows_game([], 1)

    def test_wrong_row_length_rejected(self):
        with pytest.raises(r.GameValidationError, match="rows have length 3, expected 2"):
            rows_game([[0.5, 0.25, 0.25]], 2)

    def test_non_finite_rows_rejected(self):
        with pytest.raises(r.GameValidationError, match="rows must be finite"):
            rows_game([[np.nan, 1.0]], 2)

    def test_non_numeric_rows_rejected(self):
        with pytest.raises(r.GameValidationError, match="float"):
            rows_game({"x": 1.0}, 1)

    def test_ragged_sets_are_padded(self):
        rows = [[[[1.0, 0.0], [0.5, 0.5]]], [[[0.0, 1.0]]]]
        pay = np.arange(4.0).reshape(2, 1, 2)
        game = r.build_game(1, ["s1", "s2"], [["a0"]], pay, rows)
        assert game.candidates.shape == (2, 1, 2, 2)
        assert game.n_rows.tolist() == [[2], [1]]
        assert np.array_equal(game.candidates[1, 0, 1], [0.0, 0.0])
        assert game.payoff_exp.tolist() == [[[0.0, 0.5]], [[3.0, np.inf]]]
        for arr in (game.payoff, game.candidates, game.n_rows, game.payoff_exp,
                    game.action_group, game.group_action, game.group_payoff,
                    game.group_candidates, game.group_n_rows, game.group_payoff_exp):
            assert not arr.flags.writeable


class TestEnumeration:
    def test_rule_count_single_state_two_actions(self):
        game = r.build_game(
            1,
            ["s1"],
            [["a0", "a1"]],
            np.zeros((1, 2, 1)),
            [[[[1.0]], [[1.0]]]],
        )
        rules = list(r.enumerate_decision_rules(game))
        assert len(rules) == 2

    def test_rssd_has_512_rules(self, rssd_game):
        assert rssd_game.n_joint_actions ** rssd_game.m == 512
        assert len(list(r.enumerate_decision_rules(rssd_game))) == 512

    def test_lexicographic_order_two_states_three_actions(self):
        game = r.build_game(
            1,
            ["s1", "s2"],
            [["a0", "a1", "a2"]],
            np.zeros((2, 3, 2)),
            [[[[1.0, 0.0]]] * 3, [[[0.0, 1.0]]] * 3],
        )
        rules = list(r.enumerate_decision_rules(game))
        assert len(rules) == 9
        assert rules[0].joint_actions == (0, 0)
        assert rules[1].joint_actions == (0, 1)
        assert rules[-1].joint_actions == (2, 2)

    def test_rule_budget_exceeded_reports_count(self, rssd_game):
        with pytest.raises(r.BudgetExceededError) as exc:
            r.enumerate_decision_rules(rssd_game, budget=100)
        assert exc.value.required == 512

    def test_models_singleton_rows(self):
        game = singleton_game()
        models = list(enumerate_policy_models(game, r.TeamDecisionRule((0,))))
        assert len(models) == 1

    def test_models_two_by_two(self):
        game = two_state_chain()
        rows2 = [[[[1.0, 0.0], [0.5, 0.5]]], [[[0.0, 1.0], [1.0, 0.0]]]]
        game2 = r.build_game(1, ["s1", "s2"], [["a0"]], game.payoff, rows2)
        models = list(enumerate_policy_models(game2, r.TeamDecisionRule((0, 0))))
        assert len(models) == 4

    def test_rssd_all_defect_single_distinct_model(self, rssd_game):
        rule = r.TeamDecisionRule((rssd_game.joint_index([1, 1, 1]),) * 3)
        models = list(enumerate_policy_models(rssd_game, rule))
        assert len(models) == 1
        assert np.array_equal(models[0], np.eye(3))

    def test_model_count_matches_candidate_product(self):
        for seed in range(5):
            game = random_game(seed)
            rule = next(iter(r.enumerate_decision_rules(game)))
            count = sum(1 for _ in enumerate_policy_models(game, rule))
            assert count == math.prod(
                int(game.n_rows[k, a]) for k, a in enumerate(rule.joint_actions)
            )

    def test_model_budget_exceeded(self, rssd_game):
        rule = r.TeamDecisionRule((0, 0, 0))
        with pytest.raises(r.BudgetExceededError):
            enumerate_policy_models(rssd_game, rule, budget=2)


class TestJsonRoundTrip:
    def test_save_load_save_bit_identical(self, tmp_path, rssd_game):
        first = tmp_path / "game1.json"
        second = tmp_path / "game2.json"
        r.save_game(rssd_game, first)
        reloaded = r.load_game(first)
        r.save_game(reloaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_preserves_numbers(self, tmp_path):
        game = random_game(11)
        path = tmp_path / "game.json"
        r.save_game(game, path)
        back = r.load_game(path)
        assert np.array_equal(back.payoff, game.payoff)
        for k in range(game.m):
            for a in range(game.n_joint_actions):
                n = game.n_rows[k, a]
                assert back.n_rows[k, a] == n
                assert np.array_equal(
                    back.candidates[k, a, :n], game.candidates[k, a, :n]
                )

    def test_canonical_key_order(self, tmp_path, rssd_game):
        path = tmp_path / "game.json"
        r.save_game(rssd_game, path)
        raw = json.loads(path.read_text())
        assert list(raw) == [
            "n_players",
            "states",
            "player_actions",
            "default_payoff",
            "payoffs",
            "uncertainty",
            "r_max",
        ]


class TestGroups:
    @given(game_parts())
    @settings(max_examples=150, deadline=None)
    def test_groups_are_the_byte_identical_actions(self, parts):
        """Two actions of a state share a group exactly when their payoff and
        cleaned rows are the same bytes; groups are numbered by their lowest
        member, and the per-action views give back the inputs."""
        game = r.build_game(*parts)
        payoff, rows = parts[3], parts[4]
        m, n_joint = game.m, game.n_joint_actions
        assert np.array_equal(game.payoff, payoff)
        for k in range(m):
            cleaned = [_clean_rows(rows[k][a], m) for a in range(n_joint)]
            keys = [(payoff[k, a].tobytes(), cleaned[a].tobytes()) for a in range(n_joint)]
            first = {key: a for a, key in reversed(list(enumerate(keys)))}
            lowest = sorted(first.values())
            assert game.action_group[k].tolist() == [lowest.index(first[key]) for key in keys]
            n_groups = len(lowest)
            assert game.group_action[k, :n_groups].tolist() == lowest
            assert game.action_group[k, lowest].tolist() == list(range(n_groups))
            assert np.all(game.group_payoff_exp[k, n_groups:] == -np.inf)
            for a in range(n_joint):
                assert game.n_rows[k, a] == len(cleaned[a])
                assert np.array_equal(game.candidates[k, a, : len(cleaned[a])], cleaned[a])

    @pytest.mark.parametrize("seed", range(10))
    def test_random_games_have_one_action_per_group(self, seed):
        game = random_game(seed, max_states=6, max_actions=3)
        each_alone = np.broadcast_to(np.arange(game.n_joint_actions),
                                     (game.m, game.n_joint_actions))
        assert np.array_equal(game.action_group, each_alone)
        assert np.array_equal(game.group_action, each_alone)
