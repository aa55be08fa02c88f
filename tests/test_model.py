import copy
import dataclasses
import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import robustdp as r
from conftest import (
    entry_game_parts,
    enumerate_decision_rules,
    enumerate_policy_models,
    game_parts,
    games,
    per_action,
    per_pair_parts,
    random_game,
    rssd_per_pair,
    singleton_game,
    two_state_chain,
)
from robustdp import model
from robustdp.model import _clean_rows, _payoff_cells


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
        assert game.group_payoff[0, game.action_group[0, 0], 0] == 2.0

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

    @pytest.mark.parametrize("entry", ["1", " 1.0 ", "1e0"])
    def test_strings_in_rows_are_not_numbers(self, entry):
        # np.array(..., dtype=float) would read each as the row [1.0].
        with pytest.raises(r.GameValidationError) as exc:
            r.validate_game(minimal_raw(rows=((entry,),)))
        assert exc.value.errors == [
            "uncertainty[state='s1', action=(0,)]: rows must hold numbers, not strings"
        ]

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
        assert game.group_candidates[0, 0, 0, 1] == 0.0

    def test_larger_negative_entry_rejected(self):
        with pytest.raises(r.GameValidationError, match="row 0 entry -0.1 is negative"):
            rows_game([[1.1, -0.1]], 2)

    def test_rssd_row_sets_have_three_candidates_collapsing_at_zero_cooperators(
        self, rssd_game
    ):
        n_rows = per_action(rssd_game, rssd_game.group_n_rows)
        all_defect = np.ravel_multi_index((1, 1, 1), rssd_game.action_shape)
        all_coop = np.ravel_multi_index((0, 0, 0), rssd_game.action_shape)
        for k in range(rssd_game.m):
            assert n_rows[k, all_defect] == 1
            assert n_rows[k, all_coop] == 3


@given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_joint_action_encoding(sizes):
    """Joint-action indices follow ``itertools.product`` order over the
    per-player actions, and ``action_names`` raises for an index out of
    range."""
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
        assert game.action_names(a) == tuple(
            acts[x] for acts, x in zip(actions, per_player)
        )
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
        assert game.group_n_rows[0, 0] == 1
        assert abs(game.group_candidates[0, 0, 0].sum() - 1.0) <= 1e-12

    @given(st.floats(min_value=1e-9, max_value=0.5))
    def test_off_tolerance_sum_rejected(self, excess):
        with pytest.raises(
            r.GameValidationError, match=r"uncertainty\[state='s1', action=\(0,\)\]: row 0 sum"
        ):
            rows_game([[1.0 + excess]], 1)

    def test_within_tolerance_sum_renormalised(self):
        game = rows_game([[0.5, 0.5 + 1e-13]], 2)
        assert game.group_candidates[0, 0, 0].sum() == pytest.approx(1.0, abs=1e-15)

    def test_shared_invalid_set_reported_per_action(self):
        # Each object is checked once per state; each pair still gets its line.
        bad = np.array([[0.5, 0.6]])
        rows = [[bad, bad, [[0.5, 0.5]]], [[[1.0, 0.0]], None, None]]
        with pytest.raises(r.GameValidationError) as exc:
            r.build_game(1, ["s0", "s1"], [["a0", "a1", "a2"]], np.zeros((2, 3, 2)), rows)
        assert exc.value.errors == [
            "uncertainty[state='s0', action=(0,)]: row 0 sum 1.1 != 1",
            "uncertainty[state='s0', action=(1,)]: row 0 sum 1.1 != 1",
            "uncertainty[state='s1', action=(1,)]: missing entry",
            "uncertainty[state='s1', action=(2,)]: missing entry",
        ]

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
        assert game.group_candidates.shape == (2, 1, 2, 2)
        assert game.group_n_rows.tolist() == [[2], [1]]
        assert np.array_equal(game.group_candidates[1, 0, 1], [0.0, 0.0])
        assert game.group_payoff_exp.tolist() == [[[0.0, 0.5]], [[3.0, np.inf]]]
        for name in GROUP_ARRAYS:
            assert not getattr(game, name).flags.writeable


class TestEnumeration:
    def test_rule_count_single_state_two_actions(self):
        game = r.build_game(
            1,
            ["s1"],
            [["a0", "a1"]],
            np.zeros((1, 2, 1)),
            [[[[1.0]], [[1.0]]]],
        )
        rules = list(enumerate_decision_rules(game))
        assert len(rules) == 2

    def test_rssd_has_512_rules(self, rssd_game):
        assert rssd_game.n_joint_actions ** rssd_game.m == 512
        assert len(list(enumerate_decision_rules(rssd_game))) == 512

    def test_lexicographic_order_two_states_three_actions(self):
        game = r.build_game(
            1,
            ["s1", "s2"],
            [["a0", "a1", "a2"]],
            np.zeros((2, 3, 2)),
            [[[[1.0, 0.0]]] * 3, [[[0.0, 1.0]]] * 3],
        )
        rules = list(enumerate_decision_rules(game))
        assert len(rules) == 9
        assert rules[0].joint_actions == (0, 0)
        assert rules[1].joint_actions == (0, 1)
        assert rules[-1].joint_actions == (2, 2)

    def test_rule_budget_exceeded_reports_count(self, rssd_game):
        with pytest.raises(r.BudgetExceededError) as exc:
            enumerate_decision_rules(rssd_game, budget=100)
        assert exc.value.required == 512

    def test_models_singleton_rows(self):
        game = singleton_game()
        models = list(enumerate_policy_models(game, r.TeamDecisionRule((0,))))
        assert len(models) == 1

    def test_models_two_by_two(self):
        game = two_state_chain()
        rows2 = [[[[1.0, 0.0], [0.5, 0.5]]], [[[0.0, 1.0], [1.0, 0.0]]]]
        game2 = r.build_game(1, ["s1", "s2"], [["a0"]], per_action(game, game.group_payoff), rows2)
        models = list(enumerate_policy_models(game2, r.TeamDecisionRule((0, 0))))
        assert len(models) == 4

    def test_rssd_all_defect_single_distinct_model(self, rssd_game):
        rule = r.TeamDecisionRule((np.ravel_multi_index((1, 1, 1), rssd_game.action_shape),) * 3)
        models = list(enumerate_policy_models(rssd_game, rule))
        assert len(models) == 1
        assert np.array_equal(models[0], np.eye(3))

    def test_model_count_matches_candidate_product(self):
        for seed in range(5):
            game = random_game(seed)
            rule = next(iter(enumerate_decision_rules(game)))
            count = sum(1 for _ in enumerate_policy_models(game, rule))
            n_rows = per_action(game, game.group_n_rows)
            assert count == math.prod(
                int(n_rows[k, a]) for k, a in enumerate(rule.joint_actions)
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
        assert np.array_equal(
            per_action(back, back.group_payoff), per_action(game, game.group_payoff)
        )
        n_rows, back_n_rows = (per_action(g, g.group_n_rows) for g in (game, back))
        cand, back_cand = (per_action(g, g.group_candidates) for g in (game, back))
        for k in range(game.m):
            for a in range(game.n_joint_actions):
                n = n_rows[k, a]
                assert back_n_rows[k, a] == n
                assert np.array_equal(back_cand[k, a, :n], cand[k, a, :n])

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


GROUP_ARRAYS = ("action_group", "group_action", "group_payoff", "group_candidates",
                "group_n_rows", "group_payoff_exp")


def assert_same_arrays(game, other):
    for name in GROUP_ARRAYS:
        assert getattr(game, name).tobytes() == getattr(other, name).tobytes(), name


def copied_row_sets(rows):
    """``rows`` with every pair given its own copy of its set."""
    return [[copy.deepcopy(s) for s in per_state] for per_state in rows]


def shared_row_sets(rows):
    """``rows`` with each set replaced by the game's first set of the same
    bytes, so equal sets are passed as one object, within and across states."""
    first = {}
    return [[first.setdefault(np.asarray(s).tobytes(), s) for s in per_state]
            for per_state in rows]


class TestGroups:
    @given(game_parts())
    @settings(max_examples=150, deadline=None)
    def test_groups_are_the_byte_identical_actions(self, parts):
        """Two actions of a state share a group exactly when their payoff and
        cleaned rows are the same bytes; groups are numbered by their lowest
        member, and the arrays gathered per action give back the inputs."""
        game = r.build_game(*parts)
        payoff, rows = parts[3], parts[4]
        m, n_joint = game.m, game.n_joint_actions
        assert np.array_equal(per_action(game, game.group_payoff), payoff)
        n_rows = per_action(game, game.group_n_rows)
        candidates = per_action(game, game.group_candidates)
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
                assert n_rows[k, a] == len(cleaned[a])
                assert np.array_equal(candidates[k, a, : len(cleaned[a])], cleaned[a])

    @pytest.mark.parametrize("seed", range(10))
    def test_random_games_have_one_action_per_group(self, seed):
        game = random_game(seed, max_states=6, max_actions=3)
        each_alone = np.broadcast_to(np.arange(game.n_joint_actions),
                                     (game.m, game.n_joint_actions))
        assert np.array_equal(game.action_group, each_alone)
        assert np.array_equal(game.group_action, each_alone)

    @given(game_parts())
    @settings(max_examples=100, deadline=None)
    def test_shared_and_copied_row_sets_build_the_same_game(self, parts):
        *head, rows = parts
        shared = r.build_game(*head, shared_row_sets(rows))
        assert_same_arrays(shared, r.build_game(*head, copied_row_sets(rows)))

    def test_row_sets_handed_out_as_new_objects(self):
        # A freed object's id is soon given to the next one, so the builder
        # must hold each object it has checked, or a later set would be
        # taken for an earlier one.
        class NewCopies(list):
            def __iter__(self):
                return ([list(row) for row in s] for s in list.__iter__(self))

            def __getitem__(self, a):
                return [list(row) for row in list.__getitem__(self, a)]

        rng = np.random.default_rng(3)
        m, n_joint = 3, 4
        rows = rng.dirichlet(np.ones(m), size=(m, n_joint, 2)).tolist()
        args = (2, ["s0", "s1", "s2"], [["a0", "a1"]] * 2, rng.uniform(-1, 1, (m, n_joint, m)))
        game = r.build_game(*args, [NewCopies(per_state) for per_state in rows])
        assert_same_arrays(game, r.build_game(*args, rows))

    @pytest.mark.parametrize("n", [8, 10, 12, 16])
    def test_rssd_with_copied_row_sets_builds_the_same_game(self, n):
        params = r.RssdParams(n_players=n, mu_set=tuple(0.09 * i / n for i in (1, 2, 3)))
        game = r.build_rssd(params)
        # Cleaning a copy per pair takes 0.3 s at n = 12 and seconds at
        # n = 16, so there the pairs of a cooperator count share its
        # row-set object.
        reference = rssd_per_pair(params, copy_rows=n <= 10)
        assert_same_arrays(game, reference)
        assert game.r_max == reference.r_max


class TestArrayOwnership:
    def test_rssd_build_peak_memory(self):
        # At n = 16 the (3, 2**16) ``action_group`` is 1.5 MB.  The build
        # peaks while it and the provisional groups, a map of the same size,
        # are both alive: 2.1 times its size.  A copy of ``action_group``
        # took the peak to 3.1 times.
        mu_set = tuple(0.09 * i / 16 for i in (1, 2, 3))
        params = r.RssdParams(n_players=16, mu_set=mu_set)
        tracemalloc.start()
        try:
            game = r.build_rssd(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * game.action_group.nbytes

    def test_game_freezes_a_view_not_the_callers_array(self):
        game = random_game(7)
        mine = np.array(game.action_group)
        again = dataclasses.replace(game, action_group=mine)
        assert np.shares_memory(again.action_group, mine)
        assert not again.action_group.flags.writeable
        assert mine.flags.writeable

    def test_build_game_leaves_its_inputs_writable(self):
        payoff = np.zeros((2, 2, 2))
        rows = [[np.array([[1.0, 0.0]])] * 2, [np.array([[0.0, 1.0]])] * 2]
        action_entry = np.array([[0, 1], [1, 0]])
        r.build_game(
            1, ["s0", "s1"], [["a0", "a1"]], payoff, rows, action_entry=action_entry
        )
        assert payoff.flags.writeable and action_entry.flags.writeable
        assert all(cand.flags.writeable for per_state in rows for cand in per_state)


class TestActionEntry:
    """``build_game`` given payoffs and row sets per entry and a map from
    each (state, joint action) pair onto the entries of its state."""

    @given(entry_game_parts())
    @settings(max_examples=100, deadline=None)
    def test_entry_build_matches_per_pair_build(self, parts):
        """Building through the map gives the same arrays, or the same
        errors, as building from each pair's payoff and rows."""
        def build(*args, **kwargs):
            try:
                return r.build_game(*args, **kwargs)
            except r.GameValidationError as e:
                return e.errors

        *head, action_entry = parts
        by_entry = build(*head, action_entry=action_entry)
        by_pair = build(*per_pair_parts(parts))
        if isinstance(by_pair, list):
            assert by_entry == by_pair
        else:
            assert_same_arrays(by_entry, by_pair)
            assert by_entry.r_max == by_pair.r_max

    @staticmethod
    def build(action_entry, rows=None):
        """One state, three joint actions, two entries: entry 1 pays more."""
        payoff = np.array([[[0.0], [1.0]]])
        rows = rows or [[[[1.0]], [[1.0]]]]
        return r.build_game(1, ["s0"], [["a0", "a1", "a2"]], payoff, rows,
                            action_entry=action_entry)

    def test_groups_follow_the_map(self):
        game = self.build(np.array([[1, 0, 1]]))
        assert game.action_group.tolist() == [[0, 1, 0]]
        assert game.group_action.tolist() == [[0, 1]]
        assert game.group_payoff.tolist() == [[[1.0], [0.0]]]

    @pytest.mark.parametrize(
        "action_entry, message",
        [
            pytest.param([[0, 1]], "action_entry shape (1, 2) != (1, 3)", id="shape"),
            pytest.param(np.array([[False, True, True]]),
                         "action_entry must hold integers, not bool", id="bool"),
            pytest.param(np.array([[0.0, 1.0, 1.0]]),
                         "action_entry must hold integers, not float64", id="float"),
            pytest.param([[0, -1, 1]], "action_entry holds an entry outside [0, 2)",
                         id="negative"),
            pytest.param([[0, 2, 1]], "action_entry holds an entry outside [0, 2)",
                         id="too_large"),
            pytest.param([[0, 0, 0]], "action_entry[state='s0']: no joint action uses "
                         "entries [1]", id="unused"),
        ],
    )
    def test_bad_map_rejected(self, action_entry, message):
        with pytest.raises(r.GameValidationError) as exc:
            self.build(action_entry)
        assert exc.value.errors == [message]

    def test_bad_entries_reported_per_pair_in_action_order(self):
        with pytest.raises(r.GameValidationError) as exc:
            self.build([[1, 0, 1]], rows=[[[[1.1]], [[1.2]]]])
        assert exc.value.errors == [
            "uncertainty[state='s0', action=(0,)]: row 0 sum 1.2 != 1",
            "uncertainty[state='s0', action=(1,)]: row 0 sum 1.1 != 1",
            "uncertainty[state='s0', action=(2,)]: row 0 sum 1.2 != 1",
        ]

    def test_payoff_must_give_entries_of_every_state(self):
        with pytest.raises(r.GameValidationError) as exc:
            r.build_game(1, ["s0"], [["a0"]], np.zeros((1, 1)), [[[[1.0]]]],
                         action_entry=[[0]])
        assert exc.value.errors == ["payoff shape (1, 1) != (1, E, 1)"]


def with_action(e, p, ai):
    """Payoff entry ``e`` with player ``p``'s action index set to ``ai``."""
    return dict(e, a=e["a"][:p] + [ai] + e["a"][p + 1:])


#: Edits of one canonical payoff entry ``e``: ``EDITS[name](e, sizes, p,
#: key)`` returns the entries that replace it, given a player ``p`` and an
#: entry key ``key``.
EDITS = {
    "a_true": lambda e, sizes, p, key: [with_action(e, p, bool(e["a"][p]))],
    "a_float": lambda e, sizes, p, key: [with_action(e, p, float(e["a"][p]))],
    "a_negative": lambda e, sizes, p, key: [with_action(e, p, -1)],
    "a_too_large": lambda e, sizes, p, key: [with_action(e, p, sizes[p])],
    "a_beyond_int64": lambda e, sizes, p, key: [with_action(e, p, 2**64)],
    "a_not_a_list": lambda e, sizes, p, key: [dict(e, a=-1)],
    "a_too_short": lambda e, sizes, p, key: [dict(e, a=e["a"][:-1])],
    "a_too_long": lambda e, sizes, p, key: [dict(e, a=e["a"] + [0])],
    "s_unknown": lambda e, sizes, p, key: [dict(e, **{key: "nowhere"})],
    "s_array": lambda e, sizes, p, key: [dict(e, **{key: [e[key]]})],
    "r_true": lambda e, sizes, p, key: [dict(e, r=True)],
    "r_string": lambda e, sizes, p, key: [dict(e, r="1")],
    "r_per_player": lambda e, sizes, p, key: [dict(e, r=[e["r"]] * len(sizes))],
    "r_2_53_plus_1": lambda e, sizes, p, key: [dict(e, r=2**53 + 1)],
    "r_1e20": lambda e, sizes, p, key: [dict(e, r=10**20)],
    "r_beyond_double": lambda e, sizes, p, key: [dict(e, r=10**400)],
    "duplicate": lambda e, sizes, p, key: [e, e],
    "duplicate_other_r": lambda e, sizes, p, key: [e, dict(e, r=0.5)],
    "not_an_object": lambda e, sizes, p, key: [[e]],
    "missing_key": lambda e, sizes, p, key: [{k: v for k, v in e.items() if k != key}],
}
#: The edits the column pass reads; the per-entry loop reads these and the
#: per-player ``r`` list, and rejects every other edit.
COLUMN_EDITS = {"r_2_53_plus_1", "r_1e20"}
LOOP_EDITS = COLUMN_EDITS | {"r_per_player"}


class TestPayoffColumnPass:
    """``_payoff_cells`` against the per-entry loop of ``validate_game``,
    which runs when ``_payoff_cells`` declines the list."""

    @pytest.mark.parametrize("edit", EDITS)
    @given(games(), st.data())
    @settings(max_examples=5, deadline=None)
    def test_column_pass_agrees_with_per_entry_loop(self, edit, game, data):
        doc = r.game_to_dict(game)
        state_idx = {name: k for k, name in enumerate(game.states)}
        sizes = game.action_shape

        def cells():
            return _payoff_cells(doc["payoffs"], state_idx, sizes, game.m)

        # Canonical files keep the column pass.
        assert cells() is not None
        # r_max is left to the payoffs, so only the entries can be rejected.
        del doc["r_max"]
        assume(doc["payoffs"])
        i = data.draw(st.integers(0, len(doc["payoffs"]) - 1))
        p = data.draw(st.integers(0, len(sizes) - 1))
        key = data.draw(st.sampled_from(
            ["s", "a", "s_next", "r"] if edit == "missing_key" else ["s", "s_next"]
        ))
        doc["payoffs"][i : i + 1] = EDITS[edit](doc["payoffs"][i], sizes, p, key)
        fast = cells()
        with mock.patch.object(model, "_payoff_cells", return_value=None):
            try:
                slow = r.validate_game(doc)
            except r.GameValidationError as e:
                slow = e
        assert (fast is not None) == (edit in COLUMN_EDITS)
        assert isinstance(slow, r.TeamMarkovGame) == (edit in LOOP_EDITS), slow
        if fast is not None:
            assert_same_arrays(r.validate_game(doc), slow)
