import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import robustdp as r
from conftest import singleton_game, two_state_chain
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

    def test_r_max_below_payoffs_rejected(self):
        raw = minimal_raw()
        raw["payoffs"] = [{"s": "s1", "a": [0], "s_next": "s1", "r": 2.0}]
        raw["r_max"] = 1.0
        with pytest.raises(r.GameValidationError, match="r_max"):
            r.validate_game(raw)

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
        for arr in (game.payoff, game.candidates, game.n_rows, game.payoff_exp):
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
        assert r.count_decision_rules(rssd_game) == 512
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
        models = list(r.enumerate_policy_models(game, r.TeamDecisionRule((0,))))
        assert len(models) == 1

    def test_models_two_by_two(self):
        game = two_state_chain()
        rows2 = [[[[1.0, 0.0], [0.5, 0.5]]], [[[0.0, 1.0], [1.0, 0.0]]]]
        game2 = r.build_game(1, ["s1", "s2"], [["a0"]], game.payoff, rows2)
        models = list(r.enumerate_policy_models(game2, r.TeamDecisionRule((0, 0))))
        assert len(models) == 4

    def test_rssd_all_defect_single_distinct_model(self, rssd_game):
        rule = r.TeamDecisionRule((rssd_game.joint_index([1, 1, 1]),) * 3)
        models = list(r.enumerate_policy_models(rssd_game, rule))
        assert len(models) == 1
        assert np.array_equal(models[0], np.eye(3))

    def test_model_count_matches_candidate_product(self):
        for seed in range(5):
            game = random_game(seed)
            rule = next(iter(r.enumerate_decision_rules(game)))
            count = sum(1 for _ in r.enumerate_policy_models(game, rule))
            assert count == r.count_policy_models(game, rule)

    def test_model_budget_exceeded(self, rssd_game):
        rule = r.TeamDecisionRule((0, 0, 0))
        with pytest.raises(r.BudgetExceededError):
            r.enumerate_policy_models(rssd_game, rule, budget=2)


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
