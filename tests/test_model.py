import copy
import dataclasses
import gc
import itertools
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import robustdp as r
from conftest import (
    chain_game,
    clean_row_set,
    clean_row_sets,
    dirichlet_game,
    entry_game_parts,
    enumerate_decision_rules,
    enumerate_policy_models,
    game_parts,
    games,
    mdp_game,
    per_action,
    per_pair_parts,
    random_game,
    row_counts,
    rssd_per_pair,
    rssd_through_map,
    singleton_game,
    two_state_chain,
)
from robustdp import model
from robustdp.cli import main


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

    def test_row_whose_sum_overflows_is_one_error(self):
        """Finite entries whose sum overflows to inf are a bad sum, not a
        numpy warning: the suite turns every RuntimeWarning into an error."""
        raw = minimal_raw()
        raw["states"] = ["s1", "s2"]
        raw["uncertainty"][0]["rows"] = [[1.0, 0.0]]
        raw["uncertainty"].append({"s": "s2", "a": [0], "rows": [[1e308, 1e308]]})
        assert validated(raw) == ["uncertainty[state='s2', action=(0,)]: row 0 sum inf != 1"]

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

    @pytest.mark.parametrize("listed, unlisted", [
        (1, ["payoffs: 3 triples unlisted and no default_payoff set "
             "(first missing: s='s1', a=[0], s_next='s2')"]),
        (4, []),
    ], ids=["some_listed", "all_listed"])
    def test_listed_nan_payoff_is_non_finite_not_unlisted(self, listed, unlisted):
        """Python's JSON reader takes ``NaN``: a triple listed with it is listed,
        and its payoff is non-finite."""
        raw = minimal_raw()
        del raw["default_payoff"]
        raw["states"] = ["s1", "s2"]
        raw["uncertainty"] = [{"s": s, "a": [0], "rows": [[0.5, 0.5]]} for s in raw["states"]]
        raw["payoffs"] = [{"s": s, "a": [0], "s_next": s_next, "r": 1.0}
                          for s in raw["states"] for s_next in raw["states"]][:listed]
        raw = json.loads(json.dumps(raw).replace("1.0}", "NaN}", 1))
        assert math.isnan(raw["payoffs"][0]["r"])
        with pytest.raises(r.GameValidationError) as exc:
            r.validate_game(raw)
        assert exc.value.errors == unlisted + ["payoff contains non-finite entries"]

    @pytest.mark.parametrize("listed", [False, True], ids=["unlisted", "all_listed"])
    @pytest.mark.parametrize("default", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_default_payoff_is_named(self, default, listed):
        """A non-finite ``default_payoff`` is reported by name, whether or
        not some triple takes it, and not again as a non-finite payoff."""
        raw = minimal_raw()
        if listed:
            raw["payoffs"] = [{"s": "s1", "a": [0], "s_next": "s1", "r": 1.0}]
        raw = json.loads(json.dumps(raw).replace('"default_payoff": 0.0',
                                                 f'"default_payoff": {default}'))
        assert not math.isfinite(raw["default_payoff"])
        with pytest.raises(r.GameValidationError) as exc:
            r.validate_game(raw)
        assert exc.value.errors == ["default_payoff must be finite"]

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
            # numpy would read null as NaN; an object row is left to numpy,
            # not scanned by its keys.
            pytest.param(lambda raw: raw["uncertainty"][1].update(rows=[[None]]),
                         "uncertainty[state='s1', action=(1,)]: "
                         "rows must hold numbers, not null",
                         id="rows_null"),
            pytest.param(lambda raw: raw["uncertainty"][1].update(rows=[{"p": 1.0}]),
                         "uncertainty[state='s1', action=(1,)]: float() argument "
                         "must be a string or a real number, not 'dict'",
                         id="rows_object"),
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

    @pytest.mark.parametrize("entry", ["1", " 1.0 ", "1e0", "x"])
    def test_strings_in_rows_are_not_numbers(self, entry):
        # np.array(..., dtype=float) would read all but "x" as the row
        # [1.0]; "x" too gets this one line, not a second "could not
        # convert" one.
        with pytest.raises(r.GameValidationError) as exc:
            r.validate_game(minimal_raw(rows=((entry,),)))
        assert exc.value.errors == [
            "uncertainty[state='s1', action=(0,)]: rows must hold numbers, not strings"
        ]

    @pytest.mark.parametrize(
        "edit, errors",
        [
            pytest.param(lambda raw: [raw], ["top level must be a JSON object"],
                         id="top_level_array"),
            pytest.param(lambda raw: {**raw, "payoffs": {}},
                         ["payoffs must be an array of entries"], id="payoffs_object"),
            pytest.param(lambda raw: {**raw, "uncertainty": raw["uncertainty"] + [[0]]},
                         ["uncertainty[1]: entry must be an object"],
                         id="uncertainty_entry_array"),
            pytest.param(lambda raw: {**raw, "uncertainty": raw["uncertainty"] * 2},
                         ["uncertainty[1]: duplicate entry for this (s, a)"],
                         id="duplicate_uncertainty_entry"),
            pytest.param(lambda raw: {**raw, "player_actions": [["a0", "a0"]]},
                         ["player 0: duplicate action names"], id="duplicate_action_names"),
            # A flat row holds no rows to scan for bools, strings or null.
            pytest.param(lambda raw: {**raw, "uncertainty": [
                             {"s": "s1", "a": [0], "rows": [0.5, 0.25, 0.25]}]},
                         ["uncertainty[state='s1', action=(0,)]: "
                          "expected a nonempty list of rows"], id="flat_rows"),
        ],
    )
    def test_malformed_document_rejected(self, edit, errors):
        with pytest.raises(r.GameValidationError) as exc:
            r.validate_game(edit(minimal_raw()))
        assert exc.value.errors == errors

    @pytest.mark.parametrize(
        "payoff, rows, errors",
        [
            pytest.param(np.full((1, 1, 1), np.inf), [[[[1.0]]]],
                         ["payoff contains non-finite entries"], id="non_finite_payoff"),
            pytest.param(np.zeros((1, 1, 1)), [[[[1.0]], [[1.0]]]],
                         ["uncertainty must provide one row set per (state, joint action)"],
                         id="row_set_count"),
            pytest.param(np.zeros((1, 2, 1)), [[[[1.0]]]],
                         ["payoff shape (1, 2, 1) != (1, 1, 1)"], id="payoff_shape"),
        ],
    )
    def test_bad_parts_rejected(self, payoff, rows, errors):
        with pytest.raises(r.GameValidationError) as exc:
            r.build_game(1, ["s0"], [["a0"]], payoff, rows)
        assert exc.value.errors == errors

    @pytest.mark.parametrize(
        "payoff, what",
        [
            pytest.param([[["1.5"]]], "strings", id="str"),
            pytest.param([[[True]]], "true/false", id="bool"),
            pytest.param(np.array([[[True]]]), "true/false", id="bool_array"),
            pytest.param([np.array([["2"]])], "strings", id="nested_str_array"),
            pytest.param([[[None]]], "null", id="none"),
            pytest.param([[[1.0, None], ["0"]]], "strings or null", id="both"),
        ],
    )
    def test_payoff_must_hold_numbers(self, payoff, what):
        """A payoff given from Python is scanned for non-numbers as rows
        are, and gets one error line: numpy would read these as numbers, or
        ``None`` as NaN."""
        with pytest.raises(r.GameValidationError) as exc:
            r.build_game(1, ["s0"], [["a0"]], payoff, [[[[1.0]]]])
        assert exc.value.errors == [f"payoff must hold numbers, not {what}"]

    @pytest.mark.parametrize(
        "payoff, error",
        [
            pytest.param([[[10**400]]], "payoff holds a number beyond double range",
                         id="huge_int"),
            pytest.param([[[1.0], [1.0, 2.0]]], "payoff is not an array of numbers: ",
                         id="ragged"),
            pytest.param([[[{"x": 1.0}]]], "payoff is not an array of numbers: ",
                         id="object"),
        ],
    )
    def test_payoff_numpy_cannot_read_is_one_error(self, payoff, error):
        with pytest.raises(r.GameValidationError) as exc:
            r.build_game(1, ["s0"], [["a0"]], payoff, [[[[1.0]]]])
        assert len(exc.value.errors) == 1
        assert exc.value.errors[0].startswith(error)

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

    @pytest.mark.parametrize(
        "states, player_actions, errors",
        [
            pytest.param("ab", [["C", "D"]], ["states must be an array of state names"],
                         id="states_str"),
            pytest.param([1, 2], [["C", "D"]], ["states must be an array of state names"],
                         id="state_ints"),
            pytest.param(["s1", "s2"], ["CD"],
                         ["player_actions must be an array of arrays of action names"],
                         id="action_set_str"),
            pytest.param(["s1", "s2"], "CD",
                         ["player_actions must be an array of arrays of action names"],
                         id="action_sets_str"),
            pytest.param(["s1", "s2"], [[0, 1]],
                         ["player_actions must be an array of arrays of action names"],
                         id="action_ints"),
            pytest.param([b"s1", "s2"], ["CD"],
                         ["states must be an array of state names",
                          "player_actions must be an array of arrays of action names"],
                         id="both"),
        ],
    )
    def test_names_that_json_cannot_hold_rejected(self, states, player_actions, errors):
        """A name is a str, and a bare str is no sequence of names: its
        characters would become names.  The wording is ``validate_game``'s."""
        with pytest.raises(r.GameValidationError) as exc:
            r.build_game(1, states, player_actions, np.zeros((2, 2, 2)),
                         [[[[1.0, 0.0]]] * 2] * 2)
        assert exc.value.errors == errors

    @pytest.mark.parametrize(
        "states, player_actions, errors",
        [
            pytest.param({"s1", "s2"}, [["C", "D"]],
                         ["states must be an array of state names"], id="state_set"),
            pytest.param(["s1", "s2"], [{"C", "D"}],
                         ["player_actions must be an array of arrays of action names"],
                         id="action_set"),
            pytest.param(["s1", "s2"], {("C", "D")},
                         ["player_actions must be an array of arrays of action names"],
                         id="set_of_action_sets"),
        ],
    )
    def test_unordered_names_rejected(self, states, player_actions, errors):
        """The order of the names numbers the states and the joint actions,
        so a set, whose order is the hash order, is no list of names."""
        with pytest.raises(r.GameValidationError) as exc:
            r.build_game(1, states, player_actions, np.zeros((2, 2, 2)),
                         [[[[1.0, 0.0]]] * 2] * 2)
        assert exc.value.errors == errors

    @pytest.mark.parametrize("r_max", ["2", True, np.True_, [2.0], 2j], ids=repr)
    def test_r_max_must_be_a_number(self, r_max):
        with pytest.raises(r.GameValidationError) as exc:
            r.build_game(1, ["s1"], [["a0"]], np.ones((1, 1, 1)), [[[[1.0]]]], r_max)
        assert exc.value.errors == ["r_max must be a number"]

    def test_tiny_negative_entries_clamped(self):
        game = rows_game([[1.0 + 1e-16, -1e-16]], 2)
        assert game.group_candidates[0, 0, 0, 1] == 0.0

    def test_larger_negative_entry_rejected(self):
        with pytest.raises(r.GameValidationError, match="row 0 entry -0.1 is negative"):
            rows_game([[1.1, -0.1]], 2)

    def test_rssd_row_sets_have_three_candidates_collapsing_at_zero_cooperators(
        self, rssd_game
    ):
        n_rows = per_action(rssd_game, row_counts(rssd_game))
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


@pytest.mark.parametrize("bad", [0.9, 1.7, "2", np.float64(1.0), True, np.True_])
def test_decision_rule_rejects_non_integers(bad):
    with pytest.raises(TypeError):
        r.TeamDecisionRule((0, bad, 2))


def test_decision_rule_takes_numpy_integers_as_ints():
    rule = r.TeamDecisionRule(np.array([0, 3, 2]))
    assert rule.joint_actions == (0, 3, 2)
    assert all(type(a) is int for a in rule.joint_actions)
    assert r.TeamDecisionRule(a for a in (0, 3, 2)) == rule


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
        assert row_counts(game)[0, 0] == 1
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
        # One bad object given to two pairs is a bad set of each, and each
        # pair gets its line.
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

    @pytest.mark.parametrize(
        "rows, what",
        [
            pytest.param([[True, False]], "true/false", id="bool_list"),
            pytest.param(np.array([[True, False]]), "true/false", id="bool_array"),
            pytest.param(np.array([["1", "0"]]), "strings", id="str_array"),
            pytest.param([[True, "0"]], "true/false or strings", id="both"),
        ],
    )
    def test_bools_and_strings_rejected_as_in_json(self, rows, what):
        """``build_game`` rejects bools and strings in rows with the one line
        that the JSON reader gives for the same rows."""
        message = f"uncertainty[state='s1', action=(0,)]: rows must hold numbers, not {what}"
        with pytest.raises(r.GameValidationError) as exc:
            r.build_game(1, ["s1", "s2"], [["a0"]], np.zeros((2, 1, 2)),
                         [[rows], [[[0.0, 1.0]]]])
        assert exc.value.errors == [message]
        raw = minimal_raw()
        raw["states"] = ["s1", "s2"]
        raw["uncertainty"] = [
            {"s": "s1", "a": [0], "rows": np.asarray(rows, dtype=object).tolist()},
            {"s": "s2", "a": [0], "rows": [[0.0, 1.0]]},
        ]
        with pytest.raises(r.GameValidationError) as exc:
            r.validate_game(raw)
        assert exc.value.errors == [message]

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
        assert row_counts(game).tolist() == [[2], [1]]
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
        assert rules[0] == (0, 0)
        assert rules[1] == (0, 1)
        assert rules[-1] == (2, 2)

    def test_rule_budget_exceeded_reports_count(self, rssd_game):
        with pytest.raises(r.BudgetExceededError) as exc:
            enumerate_decision_rules(rssd_game, budget=100)
        assert exc.value.required == 512

    def test_models_singleton_rows(self):
        game = singleton_game()
        models = list(enumerate_policy_models(game, (0,)))
        assert len(models) == 1

    def test_models_two_by_two(self):
        game = two_state_chain()
        rows2 = [[[[1.0, 0.0], [0.5, 0.5]]], [[[0.0, 1.0], [1.0, 0.0]]]]
        game2 = r.build_game(1, ["s1", "s2"], [["a0"]], per_action(game, game.group_payoff), rows2)
        models = list(enumerate_policy_models(game2, (0, 0)))
        assert len(models) == 4

    def test_rssd_all_defect_single_distinct_model(self, rssd_game):
        rule = (np.ravel_multi_index((1, 1, 1), rssd_game.action_shape),) * 3
        models = list(enumerate_policy_models(rssd_game, rule))
        assert len(models) == 1
        assert np.array_equal(models[0], np.eye(3))

    def test_model_count_matches_candidate_product(self):
        for seed in range(5):
            game = random_game(seed)
            rule = next(iter(enumerate_decision_rules(game)))
            count = sum(1 for _ in enumerate_policy_models(game, rule))
            n_rows = per_action(game, row_counts(game))
            assert count == math.prod(
                int(n_rows[k, a]) for k, a in enumerate(rule)
            )

    def test_model_budget_exceeded(self, rssd_game):
        rule = (0, 0, 0)
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
        n_rows, back_n_rows = (per_action(g, row_counts(g)) for g in (game, back))
        cand, back_cand = (per_action(g, g.group_candidates) for g in (game, back))
        for k in range(game.m):
            for a in range(game.n_joint_actions):
                n = n_rows[k, a]
                assert back_n_rows[k, a] == n
                assert np.array_equal(back_cand[k, a, :n], cand[k, a, :n])

    def test_names_and_r_max_of_any_accepted_type_load_back(self, tmp_path):
        """Names given as numpy strings or tuples and a numpy ``r_max`` are
        stored as JSON can hold them, so the saved file loads."""
        game = r.build_game(
            1, np.array(["s1", "s2"]), (np.array(["C", "D"]),), np.ones((2, 2, 2)),
            [[[[0.5, 0.5]]] * 2] * 2, r_max=np.int64(3),
        )
        path = tmp_path / "game.json"
        r.save_game(game, path)
        back = r.load_game(path)
        assert (back.states, back.player_actions, back.r_max) == (
            ("s1", "s2"), (("C", "D"),), 3.0)
        assert type(back.r_max) is float
        assert_same_arrays(back, game)

    @given(games())
    @settings(max_examples=50, deadline=None)
    def test_every_built_game_loads_back(self, game):
        """What ``build_game`` accepts, ``validate_game`` accepts in its
        saved form: the same names, ``r_max``, groups and payoffs, and the
        same rows up to the renormalisation of the load."""
        back = r.validate_game(json.loads(json.dumps(r.game_to_dict(game))))
        assert (back.states, back.player_actions, back.r_max) == (
            game.states, game.player_actions, game.r_max)
        for name in ("action_group", "group_action", "group_payoff"):
            assert getattr(back, name).tobytes() == getattr(game, name).tobytes(), name
        assert np.allclose(back.group_candidates, game.group_candidates, rtol=0, atol=1e-15)

    def test_chain_game_loads_back_with_rows_within_ulps(self):
        """Save and load keep payoffs, names and groups byte for byte; the
        load renormalises the rows, which moves some of them by an ulp."""
        game = chain_game(20, 10)
        back = r.validate_game(json.loads(json.dumps(r.game_to_dict(game))))
        assert (back.n_players, back.states, back.player_actions, back.r_max) == (
            game.n_players, game.states, game.player_actions, game.r_max)
        for name in ("action_group", "group_action", "group_payoff"):
            assert getattr(back, name).tobytes() == getattr(game, name).tobytes(), name
        cand, back_cand = game.group_candidates, back.group_candidates
        assert np.all(np.abs(back_cand - cand) <= 2 * np.spacing(cand))
        assert not np.array_equal(back_cand, cand)

    def test_saved_bytes_read_back_as_the_same_document(self, tmp_path, rssd_game):
        path = tmp_path / "game.json"
        r.save_game(rssd_game, path)
        assert model.read_json(path) == model._entry_document(rssd_game)

    def test_canonical_key_order(self, tmp_path, rssd_game):
        path = tmp_path / "game.json"
        r.save_game(rssd_game, path)
        raw = json.loads(path.read_text())
        assert list(raw) == [
            "n_players",
            "states",
            "player_actions",
            "entries",
            "action_entry",
            "r_max",
        ]
        assert list(raw["entries"][0][0]) == ["r", "rows"]


def ragged_game():
    """Two states, two actions: state s0's actions are alike (one group),
    state s1's differ (two groups), and one of its sets repeats its row."""
    payoff = np.zeros((2, 2, 2))
    payoff[1, 1, 0] = 0.5
    rows = [[[[1.0, 0.0]], [[1.0, 0.0]]], [[[0.5, 0.5]], [[0.0, 1.0], [0.0, 1.0]]]]
    return r.build_game(1, ["s0", "s1"], [["a0", "a1"]], payoff, rows)


def negative_zero_game():
    """A game built from payoffs and rows that hold -0.0."""
    payoff = np.full((2, 2, 2), -0.0)
    payoff[0, 1, 0] = 1.0
    rows = [[[[1.0, -0.0]], [[-0.0, 1.0]]], [[[0.25, 0.75]], [[-0.0, 1.0]]]]
    return r.build_game(1, ["s0", "s1"], [["a0", "a1"]], payoff, rows)


#: Games whose saved entry form must load as their sparse document does.
ENTRY_FORM_GAMES = {
    "rssd_n3": r.build_rssd,
    "rssd_n8": lambda: r.build_rssd(r.RssdParams(n_players=8, mu_set=(0.0375, 0.075, 0.1125))),
    "chain": lambda: chain_game(20, 10),
    "dense": lambda: dirichlet_game(12),
    "ragged": ragged_game,
    "singleton_sets": mdp_game,
    "negative_zero": negative_zero_game,
}


def entry_doc_edit(path, value):
    """An edit of an entry-form document that sets the item at ``path``,
    a tuple of keys and indices, to ``value``."""
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


#: Faults of an entry-form ``rssd`` document (n = 3), each one line.
#: Entry 0 of state s1 is the group of joint action (0, 0, 0) alone, and
#: entry 1 the group of three joint actions.
ENTRY_FORM_FAULTS = {
    "r_too_short": (entry_doc_edit(("entries", 0, 1, "r"), [0.5, 0.5]),
                    "entries[state='s1'][1]: 'r' must list 3 payoffs, one per state"),
    "r_not_a_list": (entry_doc_edit(("entries", 2, 0, "r"), 0.5),
                     "entries[state='s3'][0]: 'r' must list 3 payoffs, one per state"),
    "r_true": (entry_doc_edit(("entries", 0, 0, "r", 1), True),
               "entries[state='s1'][0]: 'r' must hold numbers, not true/false"),
    "r_string": (entry_doc_edit(("entries", 0, 0, "r", 1), "0.5"),
                 "entries[state='s1'][0]: 'r' must hold numbers, not strings"),
    "r_huge": (entry_doc_edit(("entries", 1, 2, "r", 0), 10**400),
               "entries[state='s2'][2]: 'r' holds a number beyond double range"),
    "rows_true": (entry_doc_edit(("entries", 0, 0, "rows", 0, 0), True),
                  "entries[state='s1'][0]: 'rows': rows must hold numbers, not true/false"),
    "rows_string": (entry_doc_edit(("entries", 0, 0, "rows", 0, 0), "0.7"),
                    "entries[state='s1'][0]: 'rows': rows must hold numbers, not strings"),
    "rows_of_a_shared_entry": (entry_doc_edit(("entries", 0, 1, "rows", 0, 0), None),
                               "entries[state='s1'][1]: 'rows': rows must hold numbers, "
                               "not null"),
    "index_too_large": (entry_doc_edit(("action_entry", 1, 2), 4),
                        "action_entry holds an entry outside [0, 4)"),
    "index_negative": (entry_doc_edit(("action_entry", 1, 2), -1),
                       "action_entry holds an entry outside [0, 4)"),
    "index_true": (entry_doc_edit(("action_entry", 1, 0), True),
                   "action_entry must hold integers, not true/false"),
    "index_past_a_short_state": (lambda doc: doc["entries"][2].pop(),
                                 "action_entry[state='s3']: entries [3] have no row set"),
    "unused_entry": (entry_doc_edit(("action_entry", 0, 7), 2),
                     "action_entry[state='s1']: no joint action uses entries [3]"),
    "map_ragged": (lambda doc: doc["action_entry"][0].pop(),
                   "action_entry is not an array of shape (3, 8)"),
    "map_missing": (lambda doc: doc.pop("action_entry"),
                    "action_entry must map every (state, joint action) to an entry"),
    "entries_not_a_list": (entry_doc_edit(("entries",), {"s1": []}),
                           "entries must be an array of 3 nonempty arrays of entry "
                           "objects, one per state"),
    "state_without_entries": (entry_doc_edit(("entries", 1), []),
                              "entries must be an array of 3 nonempty arrays of entry "
                              "objects, one per state"),
}


class TestEntryForm:
    """The entry form that ``save_game`` writes: each state's groups once,
    and a map from each joint action to its entry."""

    @pytest.mark.parametrize("name", list(ENTRY_FORM_GAMES))
    def test_saved_game_loads_as_its_sparse_document(self, name, tmp_path):
        game = ENTRY_FORM_GAMES[name]()
        path = tmp_path / "game.json"
        r.save_game(game, path)
        assert "entries" in model.read_json(path)
        back, sparse = r.load_game(path), r.validate_game(r.game_to_dict(game))
        assert_same_arrays(back, sparse)
        assert (back.states, back.player_actions, back.r_max) == (
            sparse.states, sparse.player_actions, sparse.r_max)

    @given(games())
    @settings(max_examples=40, deadline=None)
    def test_every_built_game_loads_alike_from_either_form(self, game):
        """Games with many members per group, repeated rows and states of
        different group counts."""
        entry = r.validate_game(json.loads(json.dumps(model._entry_document(game))))
        sparse = r.validate_game(json.loads(json.dumps(r.game_to_dict(game))))
        assert_same_arrays(entry, sparse)
        assert entry.r_max == sparse.r_max

    def test_states_list_only_their_own_groups(self):
        doc = model._entry_document(ragged_game())
        assert [len(per) for per in doc["entries"]] == [1, 2]
        assert doc["action_entry"] == [[0, 0], [0, 1]]
        assert doc["entries"][1][1]["rows"] == [[0.0, 1.0], [0.0, 1.0]]

    @pytest.mark.parametrize(
        "key, form",
        [(key, "entry") for key in model.SPARSE_FORM_KEYS]
        + [(key, "sparse") for key in model.ENTRY_FORM_KEYS],
    )
    def test_a_document_of_both_forms_is_one_error(self, key, form, rssd_game):
        entry, sparse = model._entry_document(rssd_game), r.game_to_dict(rssd_game)
        doc, other = (entry, sparse) if form == "entry" else (sparse, entry)
        doc[key] = other[key]
        found = [k for k in (*model.ENTRY_FORM_KEYS, *model.SPARSE_FORM_KEYS) if k in doc]
        assert validated(doc) == [
            "a game gives entries and action_entry or payoffs, uncertainty and "
            f"default_payoff, not keys of both (found {', '.join(found)})"
        ]

    @pytest.mark.parametrize("fault", list(ENTRY_FORM_FAULTS))
    def test_each_fault_is_one_error(self, fault, rssd_game):
        edit, message = ENTRY_FORM_FAULTS[fault]
        doc = json.loads(json.dumps(model._entry_document(rssd_game)))
        edit(doc)
        assert validated(doc) == [message]

    def test_each_entry_at_fault_in_its_numbers_is_named(self, rssd_game):
        """Faults in the numbers of two entries' ``r`` give one line each,
        in entry order, each with its own fault."""
        doc = json.loads(json.dumps(model._entry_document(rssd_game)))
        doc["entries"][2][1]["r"][0] = None
        doc["entries"][0][3]["r"][2] = 10**400
        assert validated(doc) == [
            "entries[state='s1'][3]: 'r' holds a number beyond double range",
            "entries[state='s3'][1]: 'r' must hold numbers, not null",
        ]

    @pytest.mark.parametrize(
        "s3, s1",
        [(math.nan, math.inf), (-math.inf, math.nan)],
        ids=["nan_and_infinity", "minus_infinity_and_nan"],
    )
    def test_each_entry_with_a_non_finite_number_is_named(self, rssd_game, s3, s1):
        """Non-finite numbers in two entries' ``r`` give one line each, in
        entry order."""
        doc = json.loads(json.dumps(model._entry_document(rssd_game)))
        doc["entries"][2][1]["r"][0] = s3
        doc["entries"][0][3]["r"][2] = s1
        assert validated(doc) == [
            "entries[state='s1'][3]: 'r' contains non-finite entries",
            "entries[state='s3'][1]: 'r' contains non-finite entries",
        ]


GROUP_ARRAYS = ("action_group", "group_action", "group_payoff", "group_candidates",
                "group_payoff_exp")


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
        n_rows = per_action(game, row_counts(game))
        candidates = per_action(game, game.group_candidates)
        for k in range(m):
            cleaned = [clean_row_set(rows[k][a], m) for a in range(n_joint)]
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

    @pytest.mark.parametrize("part", ["payoff", "rows"])
    def test_negative_zero_groups_as_zero(self, part):
        """Two actions of state s0 alike but for a -0.0 where the other has
        0.0, in a payoff or a candidate row, form one group, as with 0.0
        there, and the game loads back from its document with the same
        groups, byte for byte."""
        payoff = np.zeros((2, 2, 2))
        rows = [[[[1.0, 0.0]], [[1.0, 0.0]]], [[[0.0, 1.0]], [[0.0, 1.0]]]]
        if part == "payoff":
            payoff[0, 1, 1] = -0.0
        else:
            rows[0][1] = [[1.0, -0.0]]
        game = r.build_game(1, ["s0", "s1"], [["a0", "a1"]], payoff, rows)
        assert [len(set(groups)) for groups in game.action_group.tolist()] == [1, 1]
        assert not np.signbit(game.group_payoff).any()
        assert not np.signbit(game.group_candidates).any()
        assert_same_arrays(r.validate_game(r.game_to_dict(game)), game)

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
        # Each lookup hands out a new list, which may reuse the id of a
        # freed one; each entry's set is cleaned on its own, so no set is
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
        # Cleaning a copy per pair takes 0.3 s at n = 12 and 5 s at n = 16,
        # so n = 16 is built from the n + 1 counts through a map computed
        # here, not by build_rssd.
        reference = rssd_per_pair(params) if n <= 12 else rssd_through_map(params)
        assert_same_arrays(game, reference)
        assert game.r_max == reference.r_max


class TestArrayOwnership:
    def test_rssd_build_peak_memory(self):
        # At n = 16 the (3, 2**16) ``action_group`` is 1.5 MB, and it is
        # the one (m, A) array the build makes: groups are numbered as they
        # form, so ``action_group`` is gathered once from the per-entry
        # groups, and the build peaks at 1.12 times its size.  A second map
        # of the same size alive beside it takes the peak above 2 times.
        mu_set = tuple(0.09 * i / 16 for i in (1, 2, 3))
        params = r.RssdParams(n_players=16, mu_set=mu_set)
        tracemalloc.start()
        try:
            game = r.build_rssd(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * game.action_group.nbytes

    # Every packed array but ``group_payoff_exp``, which the game computes.
    @pytest.mark.parametrize("name", GROUP_ARRAYS[:-1])
    def test_game_freezes_a_view_not_the_callers_array(self, name):
        game = random_game(7)
        mine = np.array(getattr(game, name))
        again = dataclasses.replace(game, **{name: mine})
        assert np.shares_memory(getattr(again, name), mine)
        assert not getattr(again, name).flags.writeable
        assert mine.flags.writeable
        assert_same_arrays(again, game)

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
        """Building through the map gives the same arrays as building from
        each pair's payoff and rows, or the same errors, worded once per
        bad entry instead of once per pair that maps to it."""
        def build(*args, **kwargs):
            try:
                return r.build_game(*args, **kwargs)
            except r.GameValidationError as e:
                return e.errors

        _, states, actions, *_, action_entry = parts
        by_entry = build(*parts[:-1], action_entry=action_entry)
        by_pair = build(*per_pair_parts(parts))
        if isinstance(by_pair, list):
            pairs = []
            for line in by_entry:
                s, e, fault = re.fullmatch(r"entries\[state='(\w+)'\]\[(\d+)\]: 'rows': (.*)",
                                           line).groups()
                k = states.index(s)
                pairs += [(k, a, fault) for a in np.flatnonzero(action_entry[k] == int(e))]
            shape = tuple(map(len, actions))
            assert by_pair == [
                f"uncertainty[state={states[k]!r}, "
                f"action={tuple(int(i) for i in np.unravel_index(a, shape))}]: {fault}"
                for k, a, fault in sorted(pairs)
            ]
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

    def test_bad_entries_reported_once_each_in_entry_order(self):
        """Entry 1, which two joint actions use, is named once, by its entry."""
        with pytest.raises(r.GameValidationError) as exc:
            self.build([[1, 0, 1]], rows=[[[[1.1]], [[1.2]]]])
        assert exc.value.errors == [
            "entries[state='s0'][0]: 'rows': row 0 sum 1.1 != 1",
            "entries[state='s0'][1]: 'rows': row 0 sum 1.2 != 1",
        ]

    def test_payoff_must_give_entries_of_every_state(self):
        with pytest.raises(r.GameValidationError) as exc:
            r.build_game(1, ["s0"], [["a0"]], np.zeros((1, 1)), [[[[1.0]]]],
                         action_entry=[[0]])
        assert exc.value.errors == ["payoff shape (1, 1) != (1, E, 1)"]

    def test_states_may_list_fewer_entries_than_payoff_has(self):
        """State s1 lists one row set of payoff's two entries: its payoff row
        past that, NaN and large here, is not read, and its actions form one
        group, padded as a short state's groups are."""
        payoff = np.array([[[0.0, 1.0], [2.0, 0.0]], [[0.5, 0.0], [np.nan, 9.0]]])
        rows = [[[[0.0, 1.0]], [[1.0, 0.0]]], [[[0.5, 0.5]]]]
        game = r.build_game(1, ["s0", "s1"], [["a0", "a1"]], payoff, rows,
                            action_entry=[[0, 1], [0, 0]])
        assert game.r_max == 2.0
        assert game.action_group.tolist() == [[0, 1], [0, 0]]
        assert game.group_payoff_exp[1].tolist() == [[0.25], [-np.inf]]
        with pytest.raises(r.GameValidationError) as exc:
            r.build_game(1, ["s0", "s1"], [["a0", "a1"]], payoff, rows,
                         action_entry=[[0, 1], [0, 1]])
        assert exc.value.errors == ["action_entry[state='s1']: entries [1] have no row set"]


def with_action(e, p, ai):
    """Entry ``e`` with player ``p``'s action index set to ``ai``."""
    return dict(e, a=e["a"][:p] + [ai] + e["a"][p + 1:])


#: Edits of one canonical payoff or uncertainty entry ``e``:
#: ``EDITS[name](e, sizes, p, key)`` returns the entries that replace it,
#: given a player ``p`` and an entry key ``key``.  An uncertainty entry has
#: no ``r``, so an ``r`` edit adds a key that its reader ignores.
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
    "r_per_player": lambda e, sizes, p, key: [dict(e, r=[e.get("r", 1.0)] * len(sizes))],
    "r_2_53_plus_1": lambda e, sizes, p, key: [dict(e, r=2**53 + 1)],
    "r_1e20": lambda e, sizes, p, key: [dict(e, r=10**20)],
    "r_beyond_double": lambda e, sizes, p, key: [dict(e, r=10**400)],
    "duplicate": lambda e, sizes, p, key: [e, e],
    "duplicate_other_r": lambda e, sizes, p, key: [e, dict(e, r=0.5)],
    "not_an_object": lambda e, sizes, p, key: [[e]],
    "missing_key": lambda e, sizes, p, key: [{k: v for k, v in e.items() if k != key}],
}
#: The payoff edits the per-entry loop reads: an integer ``r`` in double
#: range, however many digits it has, and a per-player ``r`` list.  It
#: rejects every other edit.
LOOP_EDITS = {"r_2_53_plus_1", "r_1e20", "r_per_player"}
#: The loop reads an uncertainty entry whatever its ``r``, and rejects
#: every other edit.
UNCERTAINTY_EDITS = {edit for edit in EDITS if edit.startswith("r_")}
KEYS = {"payoffs": ("s", "a", "s_next"), "uncertainty": ("s", "a")}


def validated(doc):
    """``validate_game(doc)``, or its list of errors."""
    try:
        return r.validate_game(doc)
    except r.GameValidationError as e:
        return e.errors


class TestPayoffColumnPass:
    """The per-entry loop of ``validate_game``, which reads both lists of
    the sparse form, on one edited entry: it reads the edits it accepts
    into the game and names the edited entry for every other.  The names
    recall a column-wise reader that once read plainly well-formed lists
    before the loop and was held to it here; the loop is now the one
    reader."""

    @pytest.mark.parametrize("edit", EDITS)
    @given(games(), st.data())
    @settings(max_examples=5, deadline=None)
    def test_column_pass_agrees_with_per_entry_loop(self, edit, game, data):
        self.check("payoffs", edit, game, data, LOOP_EDITS)

    @pytest.mark.parametrize("edit", EDITS)
    @given(games(), st.data())
    @settings(max_examples=5, deadline=None)
    def test_uncertainty_column_pass_agrees_with_per_entry_loop(self, edit, game, data):
        self.check("uncertainty", edit, game, data, UNCERTAINTY_EDITS)

    @staticmethod
    def check(section, edit, game, data, loop_edits):
        doc = r.game_to_dict(game)
        sizes = game.action_shape
        # r_max is left to the payoffs, so only the entries can be rejected.
        del doc["r_max"]
        assume(doc[section])
        i = data.draw(st.integers(0, len(doc[section]) - 1))
        p = data.draw(st.integers(0, len(sizes) - 1))
        states = [key for key in KEYS[section] if key != "a"]
        keys = [*KEYS[section], "r" if section == "payoffs" else "rows"]
        key = data.draw(st.sampled_from(keys if edit == "missing_key" else states))
        entries, ent = list(doc[section]), doc[section][i]
        doc[section][i : i + 1] = EDITS[edit](ent, sizes, p, key)
        loaded = validated(doc)
        assert isinstance(loaded, r.TeamMarkovGame) == (edit in loop_edits), loaded
        if section == "uncertainty" and edit in loop_edits:
            assert_same_arrays(loaded, validated(dict(doc, uncertainty=entries)))
        elif edit in loop_edits:
            # The edited triple holds the edited r, read as the team payoff.
            k, l = (game.states.index(ent[name]) for name in ("s", "s_next"))
            a = np.ravel_multi_index(ent["a"], sizes)
            payoff = loaded.group_payoff[k, loaded.action_group[k, a], l]
            assert payoff == pytest.approx(np.mean(doc[section][i]["r"]))
        elif key == "rows":
            # A missing row set is build_game's to report, by its pair.
            pair = f"uncertainty[state={ent['s']!r}, action={tuple(ent['a'])}]"
            assert f"{pair}: missing entry" in loaded
        else:
            # A duplicate is the second entry of its cell.
            where = f"{section}[{i + edit.startswith('duplicate')}]: "
            assert any(error.startswith(where) for error in loaded), loaded


def edited(row, j, value):
    return row[:j] + [value] + row[j + 1:]


#: Edits of one stochastic row ``row`` at index ``j``.
ROW_EDITS = {
    "none": lambda row, j: row,
    "ints": lambda row, j: edited([0] * len(row), j, 1),
    "true": lambda row, j: edited(row, j, True),
    "string": lambda row, j: edited(row, j, str(row[j])),
    "null": lambda row, j: edited(row, j, None),
    "object": lambda row, j: {str(i): x for i, x in enumerate(row)},
    "beyond_double": lambda row, j: edited(row, j, 10**400),
    "clamped": lambda row, j: edited(row, j, model.NEGATIVE_CLAMP / 2),
    "beyond_clamp": lambda row, j: edited(row, j, model.NEGATIVE_CLAMP * 2),
    "negative": lambda row, j: edited(row, j, -1e-3),
    "sum_inside": lambda row, j: edited(row, j, row[j] + model.STOCHASTIC_ATOL / 2),
    "sum_outside": lambda row, j: edited(row, j, row[j] + 2 * model.STOCHASTIC_ATOL),
    "nan": lambda row, j: edited(row, j, math.nan),
    "inf": lambda row, j: edited(row, j, math.inf),
    "short": lambda row, j: row[:-1],
}
#: Edits of a whole row set; None leaves the (state, action) pair unlisted.
SET_EDITS = {
    "none": lambda rows: rows,
    "empty": lambda rows: [],
    "scalar": lambda rows: 1.0,
    "object": lambda rows: {"rows": rows},
    "missing": lambda rows: None,
}


@st.composite
def row_sets(draw, m):
    """A row set of 1 to 3 rows of length ``m``; a row is edited one time
    in four, and the set one time in four."""
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        weights = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
        row = [w / sum(weights) for w in weights]
        edit = draw(st.sampled_from(["none"] * 3 * len(ROW_EDITS) + list(ROW_EDITS)))
        rows.append(ROW_EDITS[edit](row, draw(st.integers(0, m - 1))))
    return SET_EDITS[draw(st.sampled_from(["none"] * 15 + list(SET_EDITS)))](rows)


@st.composite
def typed_row_sets(draw, m):
    """A :func:`row_sets` set given as a list, a tuple or an array."""
    rows = draw(row_sets(m))
    kind = draw(st.sampled_from(["list", "tuple", "array"]))
    if kind == "tuple" and isinstance(rows, list):
        return tuple(rows)
    if kind == "array" and rows is not None:
        try:
            return np.array(rows)
        except ValueError:  # ragged rows
            pass
    return rows


def with_reference(build):
    """``build()`` with ``model._clean_rows`` as it is and patched to the
    set-by-set reference ``clean_row_sets``: each a game or its errors."""
    def run():
        try:
            return build()
        except r.GameValidationError as e:
            return e.errors

    fast = run()
    with mock.patch.object(model, "_clean_rows", clean_row_sets):
        return fast, run()


def grid_doc(grid):
    """A one-player document whose row set of (state k, action a) is
    ``grid[k][a]``, unlisted where that is None, parsed from its text."""
    states = [f"s{k}" for k in range(len(grid))]
    return json.loads(json.dumps({
        "n_players": 1, "states": states,
        "player_actions": [[f"a{a}" for a in range(len(grid[0]))]],
        "default_payoff": 0.0, "payoffs": [],
        "uncertainty": [
            {"s": states[k], "a": [a], "rows": rows}
            for k, per_state in enumerate(grid)
            for a, rows in enumerate(per_state) if rows is not None
        ],
    }))


def assert_same_game(fast, slow):
    if isinstance(slow, list):
        assert fast == slow
    else:
        assert_same_arrays(fast, slow)
    return slow


def assert_same_load(grid):
    """``validate_game`` of :func:`grid_doc` agrees with the reference."""
    return assert_same_game(*with_reference(lambda: r.validate_game(grid_doc(grid))))


def grid_game(grid):
    """``build_game`` of a one-player game whose row set of (state k,
    action a) is ``grid[k][a]`` as given, with zero payoffs."""
    m, n_actions = len(grid), len(grid[0])
    return r.build_game(1, [f"s{k}" for k in range(m)], [[f"a{a}" for a in range(n_actions)]],
                        np.zeros((m, n_actions, m)), grid)


def assert_same_build(grid):
    """:func:`grid_game` agrees with the reference."""
    return assert_same_game(*with_reference(lambda: grid_game(grid)))


def read_calls(load):
    """``load()`` and the number of ``model._read_rows`` calls it made."""
    with mock.patch.object(model, "_read_rows", side_effect=model._read_rows) as spy:
        result = load()
    return result, spy.call_count


def rows_of(k, n):
    """``n`` stochastic rows of length 3, different for each state ``k``."""
    return [[(k + j) % 3 / 4, 1 - (k + j) % 3 / 4, 0.0] for j in range(n)]


class TestRowStack:
    """``_clean_rows``, which checks a state's sets as one stack, against
    the set-by-set reference ``clean_row_sets``."""

    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_stack_agrees_with_per_set_cleaning(self, m, n_actions, data):
        assert_same_load(
            [[data.draw(row_sets(m)) for _ in range(n_actions)] for _ in range(m)]
        )

    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_lists_tuples_and_arrays_agree_with_per_set_cleaning(self, m, n_actions, data):
        assert_same_build(
            [[data.draw(typed_row_sets(m)) for _ in range(n_actions)] for _ in range(m)]
        )

    @pytest.mark.parametrize("edit", ROW_EDITS)
    def test_one_edited_row_in_a_stack(self, edit):
        """Each edit as the only fault of a document whose every set
        would stack; the edited entry was 0."""
        grid = [[[[0.5, 0.5, 0.0], [0.0, 0.25, 0.75]] for _ in range(2)] for _ in range(3)]
        grid[1][1][0] = ROW_EDITS[edit](grid[1][1][0], 2)
        loaded = assert_same_load(grid)
        ok = {"none", "ints", "clamped", "sum_inside"}
        assert isinstance(loaded, r.TeamMarkovGame) == (edit in ok), loaded

    @pytest.mark.parametrize("n", [3, 8])
    def test_rssd_gen_file_is_read_once_per_state(self, n, tmp_path):
        """Every state of an ``rssd-gen`` file has three-row sets and one
        one-row set (no cooperator), all read as one set."""
        path = tmp_path / "game.json"
        mu = [] if n == 3 else ["--mu", "0.0375,0.075,0.1125"]
        assert main(["rssd-gen", "--n", str(n), *mu, "--out", str(path)]) == 0
        game, calls = read_calls(lambda: r.load_game(path))
        assert calls == game.m == 3
        assert set(row_counts(game).ravel()) == {1, 3}

    def test_dense_file_is_read_once_per_state(self, tmp_path):
        """A seeded random game of four four-row sets per state, saved."""
        path = tmp_path / "game.json"
        r.save_game(dirichlet_game(6), path)
        game, calls = read_calls(lambda: r.load_game(path))
        assert calls == game.m == 6

    def test_sets_of_several_row_counts_are_read_as_one(self):
        grid = [[rows_of(k, 1 + (k + a) % 3) for a in range(3)] for k in range(3)]
        game, calls = read_calls(lambda: r.validate_game(grid_doc(grid)))
        assert calls == 3
        assert_same_load(grid)
        assert per_action(game, row_counts(game)).tolist() == [[1, 2, 3], [2, 3, 1], [3, 1, 2]]

    def test_one_bad_set_sends_only_its_state_set_by_set(self):
        grid = [[rows_of(k, 2) for _ in range(2)] for k in range(3)]
        grid[1][1] = [[True, False, 0.0], *rows_of(1, 1)]
        errors, calls = read_calls(lambda: validated(grid_doc(grid)))
        assert errors == [
            "uncertainty[state='s1', action=(1,)]: rows must hold numbers, not true/false"
        ]
        assert calls == 3 + 2  # one read per state, then each set of s1 alone
        assert_same_load(grid)

    def test_rows_of_another_length_are_reported_for_their_set_alone(self):
        grid = [[rows_of(k, 2) for _ in range(2)] for k in range(3)]
        grid[2][0] = [[0.5, 0.5]]
        assert assert_same_load(grid) == [
            "uncertainty[state='s2', action=(0,)]: rows have length 2, expected 3"
        ]

    def test_states_with_a_tuple_or_an_array_are_read_set_by_set(self):
        grid = [[rows_of(k, 2), rows_of(k, 1), rows_of(k, 3)] for k in range(3)]
        grid[0][1], grid[1][1] = tuple(grid[0][1]), np.array(grid[1][1])
        game, calls = read_calls(lambda: grid_game(grid))
        assert calls == 3 + 3 + 1
        assert_same_build(grid)
        assert per_action(game, row_counts(game)).tolist() == [[2, 1, 3]] * 3

    @pytest.mark.parametrize("rows, message", [
        ([[0.5, 0.6, 0.0], [1.5, -0.5, 0.0], [1.25, -0.25, 0.0]], "row 1 entry -0.5 is negative"),
        ([[1.5, -0.5, 0.0], [math.nan, 0.5, 0.5]], "rows must be finite"),
        ([[1.0, 0.0, 0.0], [0.5, 0.6, 0.0], [0.5, 0.7, 0.0]], "row 1 sum 1.1 != 1"),
    ], ids=["first_negative_row_before_sums", "finite_before_signs", "first_off_sum_row"])
    def test_a_bad_set_names_its_first_failure(self, rows, message):
        """A set fails on non-finite numbers first, then on its first row
        with a negative entry, then on its first row that does not sum to 1."""
        grid = [[rows, rows_of(k, 1)] for k in range(3)]
        assert assert_same_load(grid) == [
            f"uncertainty[state='s{k}', action=(0,)]: {message}" for k in range(3)
        ]


class TestCollectorPause:
    """``load_game`` pauses the cyclic collector while it parses and
    builds, and leaves it as the caller had it on every exit."""

    FILES = {
        "good": (json.dumps(minimal_raw()), None),
        "syntax_error": ("{", ValueError),
        "too_deep": ("[" * 200_000 + "]" * 200_000, ValueError),
        "invalid_game": (json.dumps(minimal_raw(rows=((0.5,),))), r.GameValidationError),
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("name", FILES)
    def test_collector_state_is_restored(self, name, enabled, tmp_path):
        text, error = self.FILES[name]
        path = tmp_path / "game.json"
        path.write_text(text)
        seen = []

        def validate(raw):
            seen.append(gc.isenabled())
            return r.validate_game(raw)

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with mock.patch.object(model, "validate_game", validate):
                if error is None:
                    model.load_game(path)
                else:
                    with pytest.raises(error):
                        model.load_game(path)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        # The game is built only from a file that parses.
        assert seen == ([False] if error in (None, r.GameValidationError) else [])


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: r.SolverParams(lam=0.9, epsilon=10**400), "epsilon"),
        (lambda: r.RssdParams(cost=10**400), "cost"),
        (lambda: r.PerturbationOracle("uniform_noise", 10**400), "bound"),
        (lambda: r.max_delta(0.9, 10**400), "epsilon"),
        (lambda: r.evaluate_policy_robust(singleton_game(), [[0]], 10**400), "lam"),
    ],
    ids=["SolverParams", "RssdParams", "PerturbationOracle", "max_delta",
         "evaluate_policy_robust"],
)
def test_integer_beyond_double_range_is_a_value_error(make, name):
    """A real number is read through ``model._real``: an int that no double
    holds is a ``ValueError`` that names it, never a bare ``OverflowError``."""
    with pytest.raises(ValueError, match=f"^{name} is beyond double range$"):
        make()
