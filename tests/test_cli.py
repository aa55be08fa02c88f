import csv
import json

import numpy as np
import pytest

import robustdp as r
from conftest import huge_payoff_game, singleton_game
from robustdp.cli import main


@pytest.fixture(scope="module")
def rssd_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("games") / "rssd.json"
    assert main(["rssd-gen", "--out", str(path)]) == 0
    return path


def run_solve(rssd_file, tmp_path, name, *extra):
    out = tmp_path / f"{name}.json"
    code = main(
        ["solve", "--game", str(rssd_file), "--out", str(out), *extra]
    )
    return code, out


def test_rssd_gen_output_validates(rssd_file):
    game = r.load_game(rssd_file)
    assert game.states == ("s1", "s2", "s3")
    assert game.n_joint_actions == 8


def test_rssd_gen_flags_honoured(tmp_path):
    path = tmp_path / "g.json"
    assert main(["rssd-gen", "--out", str(path), "--z", "3", "--mu", "0.1,0.2"]) == 0
    game = r.load_game(path)
    all_coop = game.joint_index([0, 0, 0])
    assert game.n_rows[0, all_coop] == 2


def test_solve_writes_result_and_trace(rssd_file, tmp_path):
    out = tmp_path / "res.json"
    trace = tmp_path / "trace.csv"
    code = main(
        [
            "solve", "--game", str(rssd_file), "--algo", "ratvi",
            "--lambda", "0.9", "--epsilon", "1e-4",
            "--out", str(out), "--trace", str(trace),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["terminated"]
    assert payload["config"]["algo"] == "ratvi"
    assert set(payload["policy"]) == {"s1", "s2", "s3"}
    assert len(payload["residuals"]) == payload["iterations"] + 1
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "algo", "state", "value"]
    assert len(rows) == 1 + 3 * (payload["iterations"] + 1)


def test_identical_invocations_byte_identical(rssd_file, tmp_path):
    args = ["--algo", "ratpi", "--lambda", "0.95", "--epsilon", "1e-4", "--mt", "10"]
    _, out1 = run_solve(rssd_file, tmp_path, "a", *args)
    _, out2 = run_solve(rssd_file, tmp_path, "b", *args)
    assert out1.read_bytes() == out2.read_bytes()


def test_uniform_noise_without_approx_seed(rssd_file, tmp_path):
    args = ["--lambda", "0.95", "--epsilon", "1e-4", "--approx-mode", "uniform_noise"]
    code1, out1 = run_solve(rssd_file, tmp_path, "noise1", *args)
    code2, out2 = run_solve(rssd_file, tmp_path, "noise2", *args)
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["config"]["approx_seed"] == 0


def test_overflowing_payoff_exits_1(tmp_path, capsys):
    path = tmp_path / "huge.json"
    r.save_game(huge_payoff_game(), path)
    assert main(["solve", "--game", str(path), "--lambda", "0.99"]) == 1
    err = capsys.readouterr().err
    assert "not finite" in err and len(err.strip().splitlines()) == 1


def test_mt_zero_matches_value_iteration_residuals(rssd_file, tmp_path):
    args = ["--lambda", "0.9", "--epsilon", "1e-4"]
    _, tpi = run_solve(rssd_file, tmp_path, "tpi", "--algo", "ratpi", "--mt", "0", *args)
    _, tvi = run_solve(rssd_file, tmp_path, "tvi", "--algo", "ratvi", *args)
    assert (
        json.loads(tpi.read_text())["residuals"]
        == json.loads(tvi.read_text())["residuals"]
    )


def test_solve_singleton_game(tmp_path):
    path = tmp_path / "one.json"
    r.save_game(singleton_game(payoff=1.0), path)
    out = tmp_path / "res.json"
    code = main(
        ["solve", "--game", str(path), "--algo", "ratvi", "--lambda", "0.5",
         "--epsilon", "1e-6", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["iterations"] <= 2
    assert payload["value"]["s1"] == pytest.approx(2.0, abs=1e-6)


def test_malformed_game_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n_players": 1,\n  "states": [oops]}')
    assert main(["solve", "--game", str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and ":2:" in err
    missing = tmp_path / "missing.json"
    assert main(["oracle", "--game", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err == f"{missing}: No such file or directory\n"


def test_invalid_game_content_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_players": 0, "states": [], "player_actions": []}))
    assert main(["solve", "--game", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"{path}: invalid game description: " in err
    assert "n_players must be a positive integer" in err
    assert "player_actions lists 0 action sets" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench-table1", "--v0", "bogus"],
        ["trace-fig1", "--delta", "1"],
        ["solve", "--algo", "rmpi", "--approx-mode", "uniform_noise"],
        ["solve", "--algo", "rvi", "--approx-mode", "adversarial_extremes"],
        ["oracle", "--lambda", "1.5"],
        ["oracle", "--lambda", "-0.5"],
        ["oracle", "--lambda", "nan"],
        ["oracle", "--lambda", "1"],
    ],
)
def test_unusable_flags_exit_1(argv, rssd_file, tmp_path, capsys):
    if argv[0] in ("solve", "oracle"):
        where = ["--game", str(rssd_file)]
    else:
        where = ["--out", str(tmp_path)]
    assert main([*argv, *where]) == 1
    out, err = capsys.readouterr()
    assert len(err.strip().splitlines()) == 1
    assert not out and not list(tmp_path.iterdir())
    if argv[0] == "oracle":
        assert err.startswith("lam must be in [0, 1), got ")


def test_trace_fig1_starts_from_v0_file(tmp_path):
    v0 = tmp_path / "v0.json"
    v0.write_text("[0.5, 1.0, 1.5]")
    out_dir = tmp_path / "fig"
    code = main(
        ["trace-fig1", "--out", str(out_dir), "--lambda", "0.9",
         "--epsilon", "1e-4", "--v0", f"file:{v0}"]
    )
    assert code == 0
    with open(out_dir / "trace_fig1.csv") as fh:
        rows = list(csv.DictReader(fh))
    for algo in ("ratvi", "ratpi"):
        first = [float(row["value"]) for row in rows
                 if row["algo"] == algo and row["t"] == "0"]
        assert first == [0.5, 1.0, 1.5]


def test_non_termination_exits_2(rssd_file, tmp_path):
    code, out = run_solve(
        rssd_file, tmp_path, "cap",
        "--algo", "rvi", "--lambda", "0.97", "--epsilon", "1e-6",
        "--max-iterations", "3",
    )
    assert code == 2
    assert json.loads(out.read_text())["terminated"] is False


def test_oracle_command(rssd_file, tmp_path):
    out = tmp_path / "oracle.json"
    code = main(
        ["oracle", "--game", str(rssd_file), "--lambda", "0.97", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["dominance_ok"] is True
    assert payload["d_star"]["s1"] == ["C", "C", "C"]
    assert payload["v_star"]["s3"] > payload["v_star"]["s1"]


def test_trace_fig1_formats_and_agreement(tmp_path):
    out_dir = tmp_path / "fig"
    code = main(
        ["trace-fig1", "--out", str(out_dir), "--lambda", "0.97",
         "--epsilon", "1e-5", "--mt", "50"]
    )
    assert code == 0
    with open(out_dir / "trace_fig1.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"t", "algo", "state", "value"}
    by_algo = {}
    for row in rows:
        by_algo.setdefault(row["algo"], {}).setdefault(row["state"], []).append(
            float(row["value"])
        )
    assert set(by_algo) == {"ratvi", "ratpi"}
    for state in ("s1", "s2", "s3"):
        # both converge to the same limit within twice the target gap
        assert abs(by_algo["ratvi"][state][-1] - by_algo["ratpi"][state][-1]) < 2e-5
        series = by_algo["ratpi"][state]
        assert all(b >= a - 1e-12 for a, b in zip(series, series[1:]))
    with open(out_dir / "trace_fig1_rho.csv") as fh:
        rho_rows = list(csv.DictReader(fh))
    assert set(rho_rows[0]) == {"algo", "state", "joint_action", "rho_final"}
    assert len(rho_rows) == 2 * 3 * 8


def test_bench_table1_reduced_grid(tmp_path):
    out_dir = tmp_path / "bench"
    code = main(
        ["bench-table1", "--out", str(out_dir), "--lambdas", "0.95",
         "--mt", "5,50", "--epsilon", "1e-5"]
    )
    assert code == 0
    with open(out_dir / "bench_table1.csv") as fh:
        rows = {
            (row["algo"], row["mt"]): row for row in csv.DictReader(fh)
        }
    assert int(rows[("ratvi", "0")]["iterations"]) < int(rows[("rvi", "0")]["iterations"])
    for mt in ("5", "50"):
        assert int(rows[("ratpi", mt)]["iterations"]) <= int(
            rows[("rmpi", mt)]["iterations"]
        )
    for row in rows.values():
        assert row["terminated"] == "True"
        assert float(row["oracle_gap"]) < 1e-5
    assert (out_dir / "bench_table1.txt").exists()


def test_bench_table1_lambda_zero(tmp_path):
    out_dir = tmp_path / "bench"
    code = main(
        ["bench-table1", "--out", str(out_dir), "--lambdas", "0", "--mt", "5"]
    )
    assert code == 0
    with open(out_dir / "bench_table1.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        assert float(row["delta"]) == 0.0
        assert row["terminated"] == "True"
