"""Command-line entry points.

Subcommands:

* ``solve``        - run one solver on a game file, write result JSON and an
                     optional per-iteration trace CSV.
* ``rssd-gen``     - write a social-dilemma benchmark instance as game JSON.
* ``bench-table1`` - run the benchmark grid (algorithms x discount factors)
                     on the default social-dilemma instance; CSV + text table.
                     A cell that raises stops the run with exit code 1.
* ``trace-fig1``   - export per-iteration value traces and the terminal
                     backup lattice for the two Gauss-Seidel solvers.
* ``oracle``       - exhaustive maximin value of a game file: one decision
                     rule per combination of per-state action groups, at
                     most ``--budget`` of them.

The ``--approx-*`` flags of ``solve`` apply only to ``ratpi`` and ``ratvi``;
``--approx-mode identity``, the default, runs exact, and so do the Jacobi
baselines, which reject any other mode.  ``--approx-seed`` and
``--approx-lock`` take effect only under a perturbed mode and are rejected
without one.  The perturbation bound is lambda * delta, so a perturbed mode
with ``--lambda 0`` or ``--delta 0`` is rejected too: it would run exact
backups under a perturbed label.  The Jacobi baselines terminate at the
delta = 0 threshold, so ``solve`` rejects ``--delta`` for them, and ``solve``
and ``bench-table1`` record their delta as 0.  ``ratvi`` and ``rvi`` run no
evaluation sweeps, so ``solve`` rejects ``--mt`` for them.

Exit codes: 0 on normal termination, 1 on input errors and on a game too
large for memory, and 2 when a value the command writes is unsettled: a
solver run (``solve``, either ``trace-fig1`` run, any ``bench-table1`` cell)
hit its iteration cap or the robust evaluation of its policy did not
settle, or the robust evaluation of an oracle rule (``oracle``,
``bench-table1``) did not settle.  The output files are written all the
same.
Set ROBUSTDP_LOG to a logging level name for diagnostics.  Result and trace
files contain no timestamps, so identical invocations produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys
import time
from pathlib import Path


from .model import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    GameValidationError,
    TeamMarkovGame,
    _fits_double,
    _is_number,
    load_game,
    read_json,
    save_game,
    sup_norm,
    write_json,
)
from .oracle import brute_force_maximin
from .perturb import MODES, PerturbationOracle
from .rssd import RssdParams, build_rssd
from .solvers import SOLVERS, SolverParams, SolverResult, max_delta
from .sweeps import backup_lattice, fixed_model_arrays

log = logging.getLogger("robustdp.cli")

DEFAULT_LAMBDAS = (0.95, 0.96, 0.97, 0.98, 0.99)
#: The solvers that take a delta and an approximation mode.
DELTA_ALGOS = ("ratpi", "ratvi")
#: The solvers that run evaluation sweeps, so take ``--mt``.
MT_ALGOS = ("ratpi", "rmpi")
#: Evaluation-sweep counts benchmarked per discount factor; the last entry
#: is the documented default for headline comparisons.
DEFAULT_BENCH_MT = (1, 3, 5, 10, 50)


class CliInputError(Exception):
    pass


def _parse_list(text: str, flag: str, kind=float) -> tuple:
    """The nonempty comma list ``text`` of ``kind`` values."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise CliInputError(f"{flag} {text!r}: expected a number or comma list")
    try:
        return tuple(map(kind, parts))
    except ValueError as e:
        raise CliInputError(f"{flag} {text!r}: {e}") from e


def _parse_mt(text: str):
    values = _parse_list(text, "--mt", int)
    if any(v < 0 for v in values):
        raise CliInputError(f"--mt {text!r}: entries must be nonnegative")
    return values[0] if len(values) == 1 else values


def _parse_v0(text: str):
    if text in ("remark1", "zeros"):
        return text
    if text.startswith("file:"):
        path = text[len("file:"):]
        try:
            values = read_json(path)
        except OSError as e:
            raise CliInputError(f"--v0 {path}: {e.strerror or e}") from e
        except ValueError as e:  # the message starts with the path
            raise CliInputError(f"--v0 {e}") from e
        if not isinstance(values, list) or not all(map(_is_number, values)):
            raise CliInputError(f"--v0 {path}: expected a JSON array of numbers")
        if not all(map(_fits_double, values)):
            raise CliInputError(f"--v0 {path}: a number is beyond double range")
        if not all(map(math.isfinite, values)):
            raise CliInputError(f"--v0 {path}: numbers must be finite")
        return tuple(map(float, values))
    raise CliInputError(f"--v0 {text!r}: expected remark1, zeros, or file:PATH")


def _default_delta(algo: str, lam: float, epsilon: float) -> float:
    """0.99 of delta's upper bound for ratpi and ratvi.  0 for the Jacobi
    baselines, which run at the delta = 0 threshold, and at lam 0, where
    the bound is inf."""
    if algo not in DELTA_ALGOS or lam == 0.0:
        return 0.0
    return 0.99 * max_delta(lam, epsilon)


def _solver_params(args, algo: str, **extra) -> SolverParams:
    """``SolverParams`` of ``algo`` from the flags that ``add_solver_flags``
    defines."""
    return SolverParams(
        lam=args.lam,
        epsilon=args.epsilon,
        delta=(
            _default_delta(algo, args.lam, args.epsilon)
            if args.delta is None else args.delta
        ),
        mt_schedule=_parse_mt(args.mt_default if args.mt is None else args.mt),
        v0_mode=_parse_v0(args.v0),
        **extra,
    )


def _result_payload(game: TeamMarkovGame, result: SolverResult, config: dict) -> dict:
    policy = {
        game.states[k]: list(game.action_names(a))
        for k, a in enumerate(result.policy.joint_actions)
    }
    P, _ = fixed_model_arrays(game, result.policy.joint_actions, result.worst_model)
    worst = [
        {"state": state, "row_index": int(j), "row": [float(x) for x in row]}
        for state, j, row in zip(game.states, result.worst_model, P)
    ]
    return {
        "config": config,
        "terminated": result.terminated,
        "iterations": result.iterations,
        "policy": policy,
        "value": {game.states[k]: float(x) for k, x in enumerate(result.value)},
        "worst_model": worst,
        "residuals": [float(r) for r in result.trace.residuals],
        "final_residual": float(result.trace.residuals[-1]),
    }


def _write_trace_csv(path, game: TeamMarkovGame, results: list[SolverResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "algo", "state", "value"])
        for result in results:
            for t, v in enumerate(result.trace.values):
                for k, state in enumerate(game.states):
                    writer.writerow([t, result.algo, state, repr(float(v[k]))])


def cmd_solve(args) -> int:
    if args.algo not in MT_ALGOS and args.mt is not None:
        raise CliInputError(
            f"--mt {args.mt!r}: {args.algo} runs no evaluation sweeps; "
            f"only {' and '.join(MT_ALGOS)} take --mt"
        )
    if args.algo not in DELTA_ALGOS:
        if args.approx_mode != "identity":
            raise CliInputError(
                f"--approx-mode {args.approx_mode}: {args.algo} runs exact backups; "
                "only ratpi and ratvi take an approximation mode"
            )
        if args.delta is not None:
            raise CliInputError(
                f"--delta {args.delta!r}: {args.algo} terminates at the delta = 0 "
                "threshold; only ratpi and ratvi take a delta"
            )
    if args.approx_mode == "identity":
        for flag, given in (("--approx-seed", args.approx_seed is not None),
                            ("--approx-lock", args.approx_lock)):
            if given:
                raise CliInputError(
                    f"{flag}: the run is exact; give a perturbed --approx-mode "
                    f"({' or '.join(MODES)})"
                )
    seed = 0 if args.approx_seed is None else args.approx_seed
    game = load_game(args.game)
    params = _solver_params(args, args.algo, max_iterations=args.max_iterations)
    if args.approx_mode == "identity":
        result = SOLVERS[args.algo](game, params)
    else:
        bound = params.lam * params.delta
        if bound == 0.0:
            raise CliInputError(
                f"--approx-mode {args.approx_mode}: the perturbation bound "
                f"lambda * delta is 0 (lambda={params.lam!r}, delta={params.delta!r}), "
                "so the run would be exact; give a positive --lambda and --delta"
            )
        approx = PerturbationOracle(
            mode=args.approx_mode,
            bound=bound,
            seed=seed,
            argmax_lock=args.approx_lock,
        )
        result = SOLVERS[args.algo](game, params, approx)
    mt = params.mt_schedule
    config = {
        "command": "solve",
        "game": args.game,
        "algo": args.algo,
        "lambda": args.lam,
        "epsilon": args.epsilon,
        "delta": params.delta,
        "mt": list(mt) if isinstance(mt, tuple) else mt,
        "v0": args.v0,
        "approx_mode": args.approx_mode,
        "approx_seed": seed,
        "approx_lock": args.approx_lock,
        "max_iterations": args.max_iterations,
    }
    write_json(args.out, _result_payload(game, result, config))
    if args.trace:
        _write_trace_csv(args.trace, game, [result])
    return 0 if result.terminated and result.settled else 2


def cmd_rssd_gen(args) -> int:
    params = RssdParams(
        n_players=args.n,
        cost=args.cost,
        synergy=_parse_list(args.synergy, "--synergy"),
        snowdrift_benefit=(
            _parse_list(args.theta, "--theta") if args.theta else None
        ),
        stag_threshold=args.z,
        mu_set=_parse_list(args.mu, "--mu"),
    )
    game = build_rssd(params)
    save_game(game, args.out)
    log.info("wrote %s", args.out)
    return 0


def _bench_cell(game, algo, lam, epsilon, mt, v0) -> tuple[dict, bool]:
    """One grid cell's CSV row, and whether its run terminated with a
    settled robust value."""
    delta = _default_delta(algo, lam, epsilon)
    params = SolverParams(
        lam=lam, epsilon=epsilon, delta=delta, mt_schedule=mt, v0_mode=v0
    )
    tick = time.perf_counter()
    result = SOLVERS[algo](game, params)
    wall = time.perf_counter() - tick
    return {
        "algo": algo,
        "lambda": lam,
        "mt": mt,
        "delta": delta,
        "iterations": result.iterations,
        "terminated": result.terminated,
        "final_residual": result.trace.residuals[-1],
        "value": result.value,
        "wall_time_s": wall,
    }, result.terminated and result.settled


def cmd_bench_table1(args) -> int:
    params = RssdParams(stag_threshold=args.z)
    game = build_rssd(params)
    lambdas = _parse_list(args.lambdas, "--lambdas")
    mt_values = _parse_mt(args.mt)
    if isinstance(mt_values, int):
        mt_values = (mt_values,)
    v0 = _parse_v0(args.v0)
    cells = []
    for lam in lambdas:
        cells.append(_bench_cell(game, "rvi", lam, args.epsilon, 0, v0))
        cells.append(_bench_cell(game, "ratvi", lam, args.epsilon, 0, v0))
        for mt in mt_values:
            cells.append(_bench_cell(game, "rmpi", lam, args.epsilon, mt, v0))
            cells.append(_bench_cell(game, "ratpi", lam, args.epsilon, mt, v0))
    rows = [row for row, _ in cells]

    oracles = {lam: brute_force_maximin(game, lam) for lam in lambdas}
    settled = all(ok for _, ok in cells) and all(o.settled for o in oracles.values())
    for row in rows:
        row["oracle_gap"] = sup_norm(row.pop("value") - oracles[row["lambda"]].v_star)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    order = {"rvi": 0, "ratvi": 1, "rmpi": 2, "ratpi": 3}
    rows.sort(key=lambda r: (order[r["algo"]], r["mt"], r["lambda"]))
    columns = [
        "algo", "lambda", "mt", "v0_mode", "stag_threshold", "epsilon", "delta",
        "iterations", "terminated", "final_residual", "oracle_gap", "wall_time_s",
    ]
    csv_path = out_dir / "bench_table1.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {**row, "v0_mode": args.v0, "stag_threshold": args.z,
                 "epsilon": args.epsilon}
            )

    lines = ["Iterations to termination on the default benchmark instance", ""]
    header = f"{'algorithm':<16}" + "".join(f"{lam:>9}" for lam in lambdas)
    lines.append(header)
    iterations = {(r["algo"], r["mt"], r["lambda"]): r["iterations"] for r in rows}

    def table_line(label, algo, mt):
        return f"{label:<16}" + "".join(
            f"{iterations[algo, mt, lam]:>9}" for lam in lambdas
        )

    lines.append(table_line("rvi", "rvi", 0))
    lines.append(table_line("ratvi", "ratvi", 0))
    for mt in mt_values:
        lines.append(table_line(f"rmpi[mt={mt}]", "rmpi", mt))
        lines.append(table_line(f"ratpi[mt={mt}]", "ratpi", mt))
    lines.append("")
    lines.append(
        f"config: epsilon={args.epsilon} delta=0.99*bound (0 for rvi, rmpi) "
        f"v0={args.v0} Z={args.z}"
    )
    (out_dir / "bench_table1.txt").write_text("\n".join(lines) + "\n")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if settled else 2


def cmd_trace_fig1(args) -> int:
    game = build_rssd(RssdParams(stag_threshold=args.z))
    results = [
        SOLVERS[algo](game, _solver_params(args, algo)) for algo in ("ratvi", "ratpi")
    ]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_trace_csv(out_dir / "trace_fig1.csv", game, results)
    with open(out_dir / "trace_fig1_rho.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algo", "state", "joint_action", "rho_final"])
        for result in results:
            lattice = backup_lattice(game, result.trace.values[-1], args.lam)
            for k, state in enumerate(game.states):
                for a in range(game.n_joint_actions):
                    writer.writerow(
                        [
                            result.algo,
                            state,
                            "|".join(game.action_names(a)),
                            repr(float(lattice[k, a])),
                        ]
                    )
    return 0 if all(res.terminated and res.settled for res in results) else 2


def cmd_oracle(args) -> int:
    game = load_game(args.game)
    try:
        orc = brute_force_maximin(game, args.lam, budget=args.budget)
    except BudgetExceededError as e:
        raise CliInputError(str(e)) from e
    payload = {
        "config": {
            "command": "oracle",
            "game": args.game,
            "lambda": args.lam,
            "budget": args.budget,
        },
        "v_star": {game.states[k]: float(x) for k, x in enumerate(orc.v_star)},
        "d_star": {
            game.states[k]: list(game.action_names(a))
            for k, a in enumerate(orc.d_star.joint_actions)
        },
        "dominance_ok": orc.dominance_ok,
        "max_dominance_gap": orc.max_dominance_gap,
    }
    write_json(args.out, payload)
    return 0 if orc.settled else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustdp",
        description="Solvers for team Markov games with rectangular transition uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p, mt_default="5"):
        p.add_argument("--lambda", dest="lam", type=float, default=0.97,
                       help="discount factor in [0, 1)")
        p.add_argument("--epsilon", type=float, default=1e-5,
                       help="target optimality gap")
        p.add_argument("--delta", type=float, default=None,
                       help="approximation tolerance parameter "
                            "(default 0.99 of its upper bound)")
        p.add_argument("--mt", default=None,
                       help="evaluation sweeps per step: integer or comma list "
                            f"(default {mt_default})")
        p.set_defaults(mt_default=mt_default)
        p.add_argument("--v0", default="remark1",
                       help="initial value: remark1 | zeros | file:PATH")

    p = sub.add_parser("solve", help="solve a game file")
    p.add_argument("--game", required=True, help="game JSON file")
    p.add_argument("--algo", choices=sorted(SOLVERS), default="ratpi")
    add_solver_flags(p)
    p.add_argument("--approx-mode", default="identity",
                   choices=("identity", *MODES))
    p.add_argument("--approx-seed", type=int, default=None,
                   help="noise seed of a perturbed mode (default 0)")
    p.add_argument("--approx-lock", action="store_true",
                   help="perturb only after action selection")
    p.add_argument("--max-iterations", type=int, default=1_000_000)
    p.add_argument("--trace", default=None, help="per-iteration trace CSV path")
    p.add_argument("--out", default=None, help="result JSON path (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("rssd-gen", help="write a social-dilemma benchmark instance")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=3, help="number of players")
    p.add_argument("--cost", type=float, default=1.0)
    p.add_argument("--synergy", default="1.5,1.8,2.2")
    p.add_argument("--theta", default=None,
                   help="snowdrift benefits (default: synergy factors)")
    p.add_argument("--z", type=int, default=2, help="stag-hunt threshold")
    p.add_argument("--mu", default="0.1,0.2,0.3")
    p.set_defaults(func=cmd_rssd_gen)

    p = sub.add_parser("bench-table1", help="benchmark grid on the default instance")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--lambdas", default=",".join(str(x) for x in DEFAULT_LAMBDAS))
    p.add_argument("--mt", default=",".join(str(x) for x in DEFAULT_BENCH_MT))
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--z", type=int, default=2)
    p.add_argument("--v0", default="remark1")
    p.set_defaults(func=cmd_bench_table1)

    p = sub.add_parser("trace-fig1", help="export iteration traces and the "
                                          "terminal backup lattice")
    p.add_argument("--out", required=True, help="output directory")
    add_solver_flags(p, mt_default="50")
    p.add_argument("--z", type=int, default=2)
    p.set_defaults(func=cmd_trace_fig1)

    p = sub.add_parser("oracle", help="exhaustive maximin value of a game file")
    p.add_argument("--game", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.97)
    p.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET,
                   help="most decision rules to evaluate: one per combination "
                        "of per-state action groups (default %(default)s)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("ROBUSTDP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliInputError, OSError, ValueError, MemoryError) as e:
        print(_error_message(e, getattr(args, "game", None)), file=sys.stderr)
        return 1


def _error_message(e: Exception, game_path: str | None) -> str:
    """One message for an input error; an invalid ``--game`` file is named
    here, and the errors of reading one already start with its path."""
    if isinstance(e, GameValidationError):
        where = f"{game_path}: " if game_path else ""
        return f"{where}invalid game description: {'; '.join(e.errors)}"
    if isinstance(e, OSError) and e.filename:
        return f"{e.filename}: {e.strerror or e}"
    if isinstance(e, MemoryError):
        # A game too large to build: rssd-gen with too many players, say.
        return f"out of memory: {e}" if str(e) else "out of memory"
    return str(e)


if __name__ == "__main__":
    sys.exit(main())
