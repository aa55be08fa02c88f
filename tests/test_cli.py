import csv
import hashlib
import json
import platform
import shutil

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


def numeric_build() -> tuple[str, str, str]:
    """(numpy version, BLAS build, machine): what the golden hashes hold for."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return np.__version__, blas, platform.machine()


#: The build :data:`SOLVE_GOLDEN` was recorded under.  Another numpy or BLAS
#: may round a dot product differently and so move the bytes without any
#: change to the program, so elsewhere the golden test is skipped.
GOLDEN_BUILD = ("2.4.6", "scipy-openblas 0.3.31.188.0", "x86_64")

#: sha256 of ``solve``'s result JSON and trace CSV at default flags on the
#: ``rssd-gen`` game, run as ``solve --game rssd.json`` from the game's
#: directory (the result records the game path), under :data:`GOLDEN_BUILD`.
#: Keyed by (algo, approx mode, approx lock).
SOLVE_GOLDEN = {
    ("ratpi", None, False): (
        "179e06c0dc3ca00e0549403a68c33e9a1763f645660b8ea3c1b4a80ceb5f0de6",
        "80a880309e2527a1df3bf18c2ea52ea7d0a6eeab6e13f59117e57d8f2a82713f",
    ),
    ("ratvi", None, False): (
        "03483d64f741bf1daa97a03945b7caff5b872982e9ff6daca551ebd6b780ead9",
        "a73dac576c8f0088530b68e84a5bfaa84cb49879694eff5db3ac1ce21ba38c8f",
    ),
    ("rmpi", None, False): (
        "7426ff3ca5a59f7e9df6e67388d26fdb08232a2973c8a6bb411bc19e3350f323",
        "11464bf2a0f4e3f4d148212e4c2a8e08224b3baf332e47a06e9b7e7c420e573e",
    ),
    ("rvi", None, False): (
        "653f5e3d097a77040638975e9a0dffd86fbe2e8d2222851833f49fcae2656b0b",
        "f4ac13ed826824287c1d3b1a49f0071b7c1abedb471133f4a9e006dc6f08c936",
    ),
    ("ratpi", "uniform_noise", False): (
        "bcf7a56509c314366a1a300ee7ec290c95fd74099ebf94e30ec33abea242a289",
        "4fa30ab4c5ee323dc4deffe61b2bd433cd3d62978bec5193c1b757dee03c001e",
    ),
    ("ratpi", "uniform_noise", True): (
        "0cacf9924d3ca9a5b5b55726514c63d6ee24d778c0c669ed6fce3bdd2249d55f",
        "e9ed2d281636b5c155b0f72eb0f9d15ba07db918536a6e4a695a27cd3ac3ec24",
    ),
    ("ratpi", "adversarial_extremes", False): (
        "c932aeeaef7f47e35e371c02b1aeade91b45715e4665d869e6aea3dbaa46bdd5",
        "ca4db3e87753d563a57c15efab2efe55e084f51b6eb8a71ddadafd2f5104fb16",
    ),
    ("ratvi", "uniform_noise", False): (
        "bc217253bc2d01b86d208d4fd069d76da6d830093e480b5520154b18eed66f62",
        "33e04743143bfeffc5a1ea60e8d7d9782cab31496b66810b022de060da4e500f",
    ),
    ("ratvi", "uniform_noise", True): (
        "b44aa85f078d14c1060038cac0d36d5df19ad1913a6719c81c4aea0e53d04a5f",
        "a8c681bef0589608ade0ac48c4a3108d13112f7f7142048232367424d81f8e41",
    ),
    ("ratvi", "adversarial_extremes", False): (
        "09dd1eb49f16408cd3bbe83da49372829b60fb94eec665760703e323bcb90c9c",
        "f0eaef6af6151ff50138d9ec2ebf8f64bfab92777ae71905498d6a4a83e5cf15",
    ),
}


@pytest.mark.parametrize(("algo", "mode", "lock"), list(SOLVE_GOLDEN))
def test_solve_outputs_match_golden(algo, mode, lock, rssd_file, tmp_path, monkeypatch):
    """Result and trace bytes are pinned, so a change that moves any value,
    rule, row, residual or trace entry by one bit fails here."""
    if numeric_build() != GOLDEN_BUILD:
        pytest.skip(f"hashes recorded under {GOLDEN_BUILD}, this is {numeric_build()}")
    shutil.copy(rssd_file, tmp_path / "rssd.json")
    monkeypatch.chdir(tmp_path)
    argv = ["solve", "--game", "rssd.json", "--algo", algo,
            "--out", "res.json", "--trace", "trace.csv"]
    if mode is not None:
        argv += ["--approx-mode", mode] + (["--approx-lock"] if lock else [])
    assert main(argv) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("res.json", "trace.csv")
    )
    assert digests == SOLVE_GOLDEN[algo, mode, lock]


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
        ["solve", "--approx-mode", "uniform_noise", "--delta", "0"],
        ["solve", "--approx-mode", "adversarial_extremes", "--lambda", "0"],
        ["solve", "--approx-mode", "uniform_noise", "--approx-seed", str(2**63)],
        ["solve", "--approx-mode", "uniform_noise", "--approx-seed", str(-(2**63) - 1)],
        ["bench-table1", "--lambdas", ""],
        ["bench-table1", "--lambdas", ","],
        ["solve", "--approx-lock", "--approx-seed", "5"],
        ["solve", "--approx-seed", "0"],
        ["solve", "--algo", "rvi", "--approx-lock"],
        ["solve", "--algo", "rmpi", "--delta", "1e-9"],
        ["solve", "--algo", "rvi", "--delta", "0"],
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
    if "--approx-mode" in argv and argv[-2] in ("--delta", "--lambda"):
        assert "the perturbation bound lambda * delta is 0" in err
    if "--approx-seed" in argv and "--approx-mode" in argv:
        assert err.startswith("seed must be a signed 64-bit integer, got ")
    if argv[0] == "solve" and "--approx-mode" not in argv:
        assert err.startswith(("--approx-seed: ", "--approx-lock: ", "--delta "))
    if "--lambdas" in argv:
        assert err.startswith("--lambdas ")


@pytest.mark.parametrize("content", ['"123"', '[true, "2.5", 3]', '{"s1": 1.0}', "[1, null, 3]"])
def test_v0_file_must_hold_an_array_of_numbers(content, rssd_file, tmp_path, capsys):
    v0 = tmp_path / "v0.json"
    v0.write_text(content)
    out = tmp_path / "res.json"
    argv = ["solve", "--game", str(rssd_file), "--out", str(out), "--v0", f"file:{v0}"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"--v0 {v0}: expected a JSON array of numbers\n"
    assert not out.exists()


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
