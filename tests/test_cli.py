import csv
import hashlib
import json
import platform
import shutil

import numpy as np
import pytest

import robustdp as r
from conftest import huge_payoff_game, row_counts, singleton_game
from robustdp import cli, solvers
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
    all_coop = np.ravel_multi_index((0, 0, 0), game.action_shape)
    assert row_counts(game)[0, game.action_group[0, all_coop]] == 2


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
        "318237e607a9c839e1f96ea1bddde00312ec1e3426c2a4aa68c70796ce5fb525",
        "335c641e30495da08a00b10834bbed358ff777caf133616502147d934d96e1a9",
    ),
    ("ratvi", None, False): (
        "03483d64f741bf1daa97a03945b7caff5b872982e9ff6daca551ebd6b780ead9",
        "a73dac576c8f0088530b68e84a5bfaa84cb49879694eff5db3ac1ce21ba38c8f",
    ),
    ("rmpi", None, False): (
        "920ef518eb6f308aff79aecce9bd14553d34c0b3aa7397a38b12dfa1e8fcf0c3",
        "60ecec29fb495dc2e90e8257fb7a46f0cc65f0261ac4158568ff24088a25aa54",
    ),
    ("rvi", None, False): (
        "1c4d562d8e69a4ed43c4214bc8b3cf1cc92284a58c50fa1b306b374a03e4f70d",
        "f4ac13ed826824287c1d3b1a49f0071b7c1abedb471133f4a9e006dc6f08c936",
    ),
    ("ratpi", "uniform_noise", False): (
        "919e915ec0b03db6eb89415390491a113ecc1e4d227bfc8d966bc9c5c725dad9",
        "83c4533841e990b4188feae30555439919c96161e496c0e684114566c6d822af",
    ),
    ("ratpi", "uniform_noise", True): (
        "0bc8c65f667bb33af2e9effc474cee2d89cf4a6ceb9b212e490be57b68748ecb",
        "62fc16ac0dcf5deb361fc5c3e8f56f94b22fae1403cb03dea03868dd55c87326",
    ),
    ("ratpi", "adversarial_extremes", False): (
        "754617f2d0f1870880e5cb0e3c1fb4deef0e0d351d65716f502ef4409a9bfb90",
        "52385a7c540d00eb13de1090959f746c47652c61d5d4d0645958e8d80cad4032",
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


#: sha256 of the ``rssd-gen`` game JSON under :data:`GOLDEN_BUILD`, keyed
#: by the flags besides ``--out``.
RSSD_GEN_GOLDEN = {
    (): "f80eebefb33f63ddd84a0c2c47ce895460f1f6412a64fb8bcc06b9e542bdd3b1",
    ("--n", "8", "--mu", "0.05,0.1"):
        "e4e7d4baefa4e5484e22b4dea19738bd169e6770dbdbe17dce2ca4e2c9b1aed9",
}


@pytest.mark.parametrize("flags", list(RSSD_GEN_GOLDEN), ids=["default", "n8"])
def test_rssd_gen_output_matches_golden(flags, tmp_path):
    if numeric_build() != GOLDEN_BUILD:
        pytest.skip(f"hashes recorded under {GOLDEN_BUILD}, this is {numeric_build()}")
    path = tmp_path / "game.json"
    assert main(["rssd-gen", "--out", str(path), *flags]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RSSD_GEN_GOLDEN[flags]


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


HUGE = 10**400  # a JSON integer that float() cannot convert


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda doc: doc["payoffs"][0].update(r=HUGE),
                     "payoffs[0]: 'r' is beyond double range", id="r"),
        pytest.param(lambda doc: doc["payoffs"][0].update(r=[HUGE, 0.0, 0.0]),
                     "payoffs[0]: 'r' is beyond double range", id="r_list"),
        pytest.param(lambda doc: doc.update(default_payoff=HUGE),
                     "default_payoff is beyond double range", id="default_payoff"),
        pytest.param(lambda doc: doc.update(r_max=HUGE),
                     "r_max is beyond double range", id="r_max"),
        pytest.param(lambda doc: doc["uncertainty"][0]["rows"][0].__setitem__(0, HUGE),
                     "uncertainty[state='s1', action=(0, 0, 0)]: "
                     "rows hold a number beyond double range", id="rows"),
    ],
)
def test_integer_beyond_double_range_exits_1(rssd_file, tmp_path, capsys, edit, message):
    """In a file of the sparse form, written from ``game_to_dict``."""
    doc = r.game_to_dict(r.load_game(rssd_file))
    edit(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--game", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"{path}: invalid game description: {message}\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda doc: doc["entries"][0][0]["r"].__setitem__(0, HUGE),
                     "entries[state='s1'][0]: 'r' holds a number beyond double range",
                     id="r"),
        pytest.param(lambda doc: doc.update(r_max=HUGE),
                     "r_max is beyond double range", id="r_max"),
        pytest.param(lambda doc: doc["entries"][0][0]["rows"][0].__setitem__(0, HUGE),
                     "entries[state='s1'][0]: 'rows': rows hold a number beyond double range",
                     id="rows"),
        pytest.param(lambda doc: doc["action_entry"][0].__setitem__(0, HUGE),
                     "action_entry must hold integers, not object", id="action_entry"),
    ],
)
def test_integer_beyond_double_range_in_entry_form_exits_1(
    rssd_file, tmp_path, capsys, edit, message
):
    """In the ``rssd-gen`` file itself, which is in the entry form."""
    doc = json.loads(rssd_file.read_text())
    edit(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--game", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"{path}: invalid game description: {message}\n"


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


def test_game_too_large_for_memory_exits_1(tmp_path, capsys, monkeypatch):
    # What numpy raises for rssd-gen --n 40, without asking for the memory.
    def build_rssd(params):
        raise MemoryError("Unable to allocate 1.00 TiB for an array with shape "
                          "(1099511627776,) and data type uint8")

    monkeypatch.setattr(cli, "build_rssd", build_rssd)
    out = tmp_path / "g.json"
    assert main(["rssd-gen", "--n", "40", "--mu", "0.02,0.01", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "out of memory: Unable to allocate 1.00 TiB for an array with shape "
        "(1099511627776,) and data type uint8\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--theta", "1e308,1e308,1e308"],
         "invalid game description: "
         + "; ".join(f"entries[state='s3'][{h}]: 'r' contains non-finite entries"
                     for h in (1, 2, 3))),
        (["--theta", "inf,1,1"], "snowdrift_benefit (inf, 1.0, 1.0) must be finite"),
        (["--mu", "nan"], "mu nan must satisfy 0 <= mu and mu * n_players <= 1"),
    ],
    ids=["theta-overflow", "theta-inf", "mu-nan"],
)
def test_rssd_gen_errors_name_no_game_path(flags, message, tmp_path, capsys):
    # rssd-gen takes no --game, so its one line has no path prefix.
    out = tmp_path / "g.json"
    assert main(["rssd-gen", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"{message}\n"
    assert not out.exists()


def test_invalid_game_content_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_players": 0, "states": [], "player_actions": []}))
    assert main(["solve", "--game", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"{path}: invalid game description: " in err
    assert "n_players must be a positive integer" in err
    assert "player_actions lists 0 action sets" in err


HUGE_V0 = "file:<an array holding 10**400>"


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
        ["oracle", "--budget", "1"],
        ["solve", "--mt", "-1"],
        ["bench-table1", "--lambdas", "0.9,x"],
        ["solve", "--v0", "file:no-such-dir/v0.json"],
        ["solve", "--v0", HUGE_V0],
        ["trace-fig1", "--v0", HUGE_V0],
        ["rssd-gen", "--n", "1" + "0" * 400],
    ],
)
def test_unusable_flags_exit_1(argv, rssd_file, tmp_path, tmp_path_factory, capsys):
    if HUGE_V0 in argv:
        # An integer JSON can spell but a double cannot hold.
        path = tmp_path_factory.mktemp("v0") / "huge.json"
        path.write_text(f"[1{'0' * 400}, 0, 0]")
        argv = [f"file:{path}" if x == HUGE_V0 else x for x in argv]
    if argv[0] in ("solve", "oracle"):
        where = ["--game", str(rssd_file)]
    else:
        where = ["--out", str(tmp_path)]
    assert main([*argv, *where]) == 1
    out, err = capsys.readouterr()
    assert len(err.strip().splitlines()) == 1
    assert not out and not list(tmp_path.iterdir())
    if argv[0] == "oracle":
        assert err.startswith(
            "lam must be in [0, 1), got " if "--lambda" in argv
            else "enumeration needs 64 items, budget is 1"
        )
    if "--approx-mode" in argv and argv[-2] in ("--delta", "--lambda"):
        assert "the perturbation bound lambda * delta is 0" in err
    if "--approx-seed" in argv and "--approx-mode" in argv:
        assert err.startswith("seed must be a signed 64-bit integer, got ")
    if argv[0] == "solve" and "--approx-mode" not in argv:
        assert err.startswith(
            ("--approx-seed: ", "--approx-lock: ", "--delta ", "--mt ", "--v0 ")
        )
    if "--lambdas" in argv:
        assert err.startswith("--lambdas ")
    if argv[-1].endswith("huge.json"):
        assert err == f"--v0 {argv[-1][len('file:'):]}: a number is beyond double range\n"
    if argv[0] == "rssd-gen":
        assert err.startswith("n_players is too large: numpy cannot index")


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_result_goes_to_stdout_without_out(command, rssd_file, tmp_path, capsys):
    """Without ``--out`` a command prints the bytes it writes with it."""
    out = tmp_path / "result.json"
    argv = [command, "--game", str(rssd_file)]
    assert main([*argv, "--out", str(out)]) == 0
    assert not capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("content", ['"123"', '[true, "2.5", 3]', '{"s1": 1.0}', "[1, null, 3]"])
def test_v0_file_must_hold_an_array_of_numbers(content, rssd_file, tmp_path, capsys):
    v0 = tmp_path / "v0.json"
    v0.write_text(content)
    out = tmp_path / "res.json"
    argv = ["solve", "--game", str(rssd_file), "--out", str(out), "--v0", f"file:{v0}"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"--v0 {v0}: expected a JSON array of numbers\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "trace-fig1", "bench-table1"])
@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
def test_v0_file_numbers_must_be_finite(command, number, rssd_file, tmp_path, capsys):
    """Python's JSON reader takes ``NaN`` and ``Infinity``; ``--v0 file:``
    rejects them with one line that names the file."""
    v0 = tmp_path / "v0.json"
    v0.write_text(f"[{number}, 0, 0]")
    out = tmp_path / "out"
    argv = [command, "--v0", f"file:{v0}", "--out", str(out)]
    if command == "solve":
        argv += ["--game", str(rssd_file)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"--v0 {v0}: numbers must be finite\n"
    assert not out.exists()


#: JSON files no reader may turn into a traceback, with what the one
#: stderr line says after the path.
UNREADABLE_JSON = {
    "deep": ("[" * 200_000 + "]" * 200_000).encode(),
    "not_utf8": b'{"states": ["s\xff"]}',
    "syntax": b'{"n_players": 1,\n  "states": [oops]}',
}
UNREADABLE_REASON = {
    "deep": ": maximum recursion depth exceeded",
    "not_utf8": ": 'utf-8' codec can't decode byte 0xff in position 14",
    "syntax": ":2:14: Expecting value",
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE_JSON))
@pytest.mark.parametrize(
    "command", ["solve --game", "oracle --game", "solve --v0", "trace-fig1 --v0"]
)
def test_unreadable_json_file_is_one_input_error(
    command, kind, rssd_file, tmp_path, capsys
):
    """A file nested deeper than the parser allows, not UTF-8, or with a
    syntax error exits 1 with one stderr line that starts with its path
    (``--v0 path`` for ``--v0 file:``), and writes nothing."""
    path = tmp_path / f"{kind}.json"
    path.write_bytes(UNREADABLE_JSON[kind])
    name, flag = command.split()
    if flag == "--game":
        argv, where = [name, "--game", str(path)], str(path)
    else:
        argv, where = [name, "--v0", f"file:{path}"], f"--v0 {path}"
        if name == "solve":
            argv += ["--game", str(rssd_file)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert err.startswith(where + UNREADABLE_REASON[kind])
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not stdout and not out.exists()


def test_missing_v0_file_is_named_once(rssd_file, tmp_path, capsys):
    missing = tmp_path / "v0.json"
    assert main(["solve", "--game", str(rssd_file), "--v0", f"file:{missing}"]) == 1
    assert capsys.readouterr().err == f"--v0 {missing}: No such file or directory\n"


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


@pytest.mark.parametrize(
    ("argv", "outputs"),
    [
        (["solve", "--lambda", "0.9", "--epsilon", "1e-4", "--out", "res.json"],
         ["res.json"]),
        (["oracle", "--out", "oracle.json"], ["oracle.json"]),
        (["trace-fig1", "--lambda", "0.9", "--epsilon", "1e-4", "--out", "fig"],
         ["fig/trace_fig1.csv", "fig/trace_fig1_rho.csv"]),
        (["bench-table1", "--lambdas", "0.95", "--mt", "5", "--out", "bench"],
         ["bench/bench_table1.csv", "bench/bench_table1.txt"]),
    ],
    ids=["solve", "oracle", "trace-fig1", "bench-table1"],
)
def test_unsettled_robust_evaluation_exits_2(argv, outputs, rssd_file, tmp_path, monkeypatch):
    """Each command that writes a robust value exits 2 when a robust
    evaluation behind it does not settle, and still writes its files."""
    monkeypatch.setattr(solvers, "ROBUST_EVAL_MAX_ROUNDS", 1)
    monkeypatch.chdir(tmp_path)
    if argv[0] in ("solve", "oracle"):
        argv = [*argv, "--game", str(rssd_file)]
    assert main(argv) == 2
    assert all((tmp_path / name).exists() for name in outputs)
    if argv[0] == "solve":
        assert json.loads((tmp_path / "res.json").read_text())["terminated"] is True
    if argv[0] == "bench-table1":
        with open(tmp_path / "bench" / "bench_table1.csv") as fh:
            assert {row["terminated"] for row in csv.DictReader(fh)} == {"True"}


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


def test_oracle_on_eight_player_game(tmp_path):
    # 2**8 = 256 joint actions, so 256**3 rules, but 9 groups per state
    # (one per cooperator count), so 9**3 = 729 rules to evaluate.  The
    # magnitudes are the default ones times 3 / 8, which keeps mu * n.
    game_path = tmp_path / "rssd8.json"
    argv = ["rssd-gen", "--n", "8", "--mu", "0.0375,0.075,0.1125", "--out", str(game_path)]
    assert main(argv) == 0
    out = tmp_path / "oracle.json"
    code = main(
        ["oracle", "--game", str(game_path), "--lambda", "0.97", "--out", str(out)]
    )
    assert code == 0
    game = r.load_game(game_path)
    assert (game.action_group.max(axis=1) + 1).tolist() == [9, 9, 9]
    payload = json.loads(out.read_text())
    v_star = np.array([payload["v_star"][state] for state in game.states])
    params = r.SolverParams(lam=0.97, epsilon=1e-5, mt_schedule=5)
    for solve in (r.solve_ratpi, r.solve_rmpi):
        result = solve(game, params)
        assert result.terminated
        assert r.sup_norm(result.value - v_star) < params.epsilon


@pytest.mark.parametrize("algo", ["rmpi", "rvi"])
def test_jacobi_solve_records_delta_zero(algo, rssd_file, tmp_path):
    code, out = run_solve(
        rssd_file, tmp_path, algo, "--algo", algo, "--lambda", "0.9", "--epsilon", "1e-4"
    )
    assert code == 0
    assert json.loads(out.read_text())["config"]["delta"] == 0.0


@pytest.mark.parametrize("algo", ["ratvi", "rvi"])
@pytest.mark.parametrize("mt", ["3", "0", "5"])
def test_mt_without_evaluation_sweeps_exits_1(algo, mt, rssd_file, tmp_path, capsys):
    """ratvi and rvi run no evaluation sweeps, so an explicit --mt is an
    input error, even one that names the default."""
    code, out = run_solve(rssd_file, tmp_path, algo, "--algo", algo, "--mt", mt)
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err == (
        f"--mt {mt!r}: {algo} runs no evaluation sweeps; only ratpi and rmpi take --mt\n"
    )


@pytest.mark.parametrize("algo", ["ratpi", "rmpi"])
def test_mt_is_recorded_for_sweeping_solvers(algo, rssd_file, tmp_path):
    code, out = run_solve(
        rssd_file, tmp_path, algo, "--algo", algo, "--mt", "3",
        "--lambda", "0.9", "--epsilon", "1e-4",
    )
    assert code == 0
    assert json.loads(out.read_text())["config"]["mt"] == 3


@pytest.mark.parametrize("epsilon", ["inf", "nan", "0", "-1"])
def test_epsilon_must_be_positive_and_finite(epsilon, rssd_file, tmp_path, capsys):
    code, out = run_solve(rssd_file, tmp_path, "eps", "--epsilon", epsilon)
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        f"epsilon must be positive and finite, got {float(epsilon)!r}\n"
    )


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
    for (algo, _), row in rows.items():
        assert row["terminated"] == "True"
        assert float(row["oracle_gap"]) < 1e-5
        # The Jacobi baselines run at delta = 0, and record it.
        expected = 0.99 * r.max_delta(0.95, 1e-5) if algo in ("ratpi", "ratvi") else 0.0
        assert float(row["delta"]) == expected
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
