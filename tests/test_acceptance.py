"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  Criteria cover solver optimality against
the exhaustive oracle, the operator contraction and splitting-norm bounds,
monotone convergence, the exact-vs-perturbed sandwich, benchmark iteration
trends, per-step convergence rate, benchmark-instance correctness, and CLI
determinism.
"""

import json
import time

import numpy as np

import robustdp as r
from robustdp.cli import main
from robustdp.random_games import random_game
from robustdp.rssd import RssdParams, transition_row_candidates
from robustdp.solvers import initial_value

# iteration counts reported for the reference benchmark configuration; the
# initial value, stag-hunt threshold, and evaluation-sweep count behind them
# are unreported, so runs are held to the same order of magnitude (factor 2)
REFERENCE_ITERATIONS = {
    "rvi": {0.95: 298, 0.96: 380, 0.97: 519, 0.98: 802, 0.99: 1679},
    "ratvi": {0.95: 258, 0.96: 328, 0.97: 446, 0.98: 690, 0.99: 1442},
    "rmpi": {0.95: 7, 0.96: 9, 0.97: 12, 0.98: 17, 0.99: 34},
    "ratpi": {0.95: 7, 0.96: 8, 0.97: 10, 0.98: 15, 0.99: 30},
}
BENCH_MT = 50  # documented bench default, matched across rmpi/ratpi


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def contraction_games():
    # small instances so the exhaustive multistep operator stays cheap
    lams = (0.8, 0.85, 0.9, 0.95)
    return [
        (random_game(1000 + i, max_states=3, max_rows=2), lams[i % len(lams)], i)
        for i in range(10)
    ]


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    lam, eps = 0.9, 1e-6
    worst = -np.inf
    for seed in range(100):
        game = random_game(seed)
        orc = r.brute_force_maximin(game, lam)
        for solve, mt in ((r.solve_ratvi, 0), (r.solve_ratpi, 5)):
            params = r.SolverParams(lam=lam, epsilon=eps, delta=0.0, mt_schedule=mt)
            res = solve(game, params)
            ok, rep = r.verify_epsilon_optimal(game, res.policy, lam, eps, orc)
            worst = max(worst, rep["max_violation"])
            if not (res.terminated and ok):
                report(
                    "1 (oracle equivalence)",
                    False,
                    f"seed {seed} {res.algo}: violation {rep['max_violation']:.2e}",
                )
    elapsed = time.perf_counter() - start
    report(
        "1 (oracle equivalence)",
        elapsed < 60.0,
        f"100 games, worst shortfall {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_contraction_suite():
    worst_y = worst_u = -np.inf
    for game, lam, index in contraction_games():
        rng = np.random.default_rng(4000 + index)
        pairs = [
            (rng.uniform(-25, 25, game.m), rng.uniform(-25, 25, game.m))
            for _ in range(200)
        ]
        for u, v in pairs:
            yu = r.improvement_sweep(game, u, lam).u0
            yv = r.improvement_sweep(game, v, lam).u0
            gap = r.sup_norm(yu - yv) - lam * r.sup_norm(u - v)
            worst_y = max(worst_y, gap)
        for msteps in (0, 2, 5):
            rate = lam ** (msteps + 1)
            for u, v in pairs:
                du = r.best_case_multistep(game, u, msteps, lam)
                dv = r.best_case_multistep(game, v, msteps, lam)
                gap = r.sup_norm(du - dv) - rate * r.sup_norm(u - v)
                worst_u = max(worst_u, gap)
    ok = worst_y <= 1e-12 and worst_u <= 1e-12
    report(
        "2 (contraction suite)",
        ok,
        f"max excess: update {worst_y:.2e}, multistep {worst_u:.2e}",
    )


def test_criterion_3_splitting_norms():
    worst = -np.inf
    checked = 0
    for game, lam, _ in contraction_games():
        for rule in r.enumerate_decision_rules(game):
            for P in r.enumerate_policy_models(game, rule):
                Q, R = r.gs_splitting(P, lam)
                norm = float(np.abs(np.linalg.solve(Q, R)).sum(axis=1).max())
                worst = max(worst, norm - lam)
                checked += 1
    report(
        "3 (splitting norms)",
        worst <= 1e-12,
        f"{checked} splittings, max norm excess {worst:.2e}",
    )


def test_criterion_4_monotone_convergence():
    runs = [(r.build_rssd(), 0.97, 1e-5)]
    runs += [(random_game(2000 + i), 0.9, 1e-6) for i in range(20)]
    worst_step = np.inf
    worst_residual = np.inf
    for game, lam, eps in runs:
        params = r.SolverParams(lam=lam, epsilon=eps, delta=0.0, mt_schedule=5)
        res = r.solve_ratpi(game, params)
        assert res.terminated
        for prev, cur in zip(res.trace.values, res.trace.values[1:]):
            worst_step = min(worst_step, float(np.min(cur - prev)))
        for v in res.trace.values:
            worst_residual = min(
                worst_residual, float(np.min(r.gs_bellman_residual(game, v, lam)))
            )
    ok = worst_step >= -1e-12 and worst_residual >= -1e-10
    report(
        "4 (monotone convergence)",
        ok,
        f"min step {worst_step:.2e}, min update residual {worst_residual:.2e}",
    )


def test_criterion_5_sandwich_bound():
    game = r.build_rssd()
    eps = 1e-5
    worst_ratio = -np.inf
    for lam in (0.9, 0.97):
        delta = 0.9 * r.max_delta(lam, eps)
        theta = lam * delta / (1.0 - lam)
        oracle = r.PerturbationOracle(
            mode="adversarial_extremes",
            bound=lam * delta,
            seed=7,
            argmax_lock=True,
        )
        for mt in (0, 5):
            exact = r.solve_ratpi(
                game, r.SolverParams(lam=lam, epsilon=eps, delta=0.0, mt_schedule=mt)
            )
            noisy = r.solve_ratpi(
                game,
                r.SolverParams(lam=lam, epsilon=eps, delta=delta, mt_schedule=mt),
                oracle,
            )
            prefix = min(len(exact.trace.values), len(noisy.trace.values))
            assert prefix >= 10
            diff = max(
                r.sup_norm(exact.trace.values[t] - noisy.trace.values[t])
                for t in range(prefix)
            )
            worst_ratio = max(worst_ratio, (diff - 1e-12) / theta)
            if diff > theta + 1e-12:
                report(
                    "5 (sandwich bound)",
                    False,
                    f"lam={lam} mt={mt}: drift {diff:.2e} > theta {theta:.2e}",
                )
    report(
        "5 (sandwich bound)",
        True,
        f"max drift/theta ratio {worst_ratio:.3f}",
    )


def test_criterion_6_benchmark_iteration_trends():
    game = r.build_rssd()
    eps = 1e-5
    counts: dict[str, dict[float, int]] = {a: {} for a in REFERENCE_ITERATIONS}
    for lam in (0.95, 0.96, 0.97, 0.98, 0.99):
        delta = 0.99 * r.max_delta(lam, eps)
        base = r.SolverParams(lam=lam, epsilon=eps, delta=delta, mt_schedule=BENCH_MT)
        for algo, solve in (
            ("rvi", r.solve_rvi),
            ("ratvi", r.solve_ratvi),
            ("rmpi", r.solve_rmpi),
            ("ratpi", r.solve_ratpi),
        ):
            res = solve(game, base)
            assert res.terminated, (algo, lam)
            counts[algo][lam] = res.iterations
    problems = []
    for lam in (0.95, 0.96, 0.97, 0.98, 0.99):
        if not counts["ratvi"][lam] < counts["rvi"][lam]:
            problems.append(f"ratvi !< rvi at {lam}")
        if not counts["ratpi"][lam] <= counts["rmpi"][lam]:
            problems.append(f"ratpi !<= rmpi at {lam}")
        for algo, ref_row in REFERENCE_ITERATIONS.items():
            got, ref = counts[algo][lam], ref_row[lam]
            if not ref / 2 <= got <= ref * 2:
                problems.append(f"{algo}@{lam}: {got} vs reference {ref}")
    detail = "; ".join(
        f"{algo} {[counts[algo][l] for l in (0.95, 0.96, 0.97, 0.98, 0.99)]}"
        for algo in ("rvi", "ratvi", "rmpi", "ratpi")
    )
    report(
        "6 (benchmark trends)",
        not problems,
        "; ".join(problems) if problems else f"mt={BENCH_MT}; {detail}",
    )


def test_criterion_7_rate_bound():
    runs = [(r.build_rssd(), 0.97, 1e-5)]
    runs += [(random_game(3000 + i), 0.9, 1e-6) for i in range(10)]
    worst = -np.inf
    for game, lam, eps in runs:
        orc = r.brute_force_maximin(game, lam)
        params = r.SolverParams(lam=lam, epsilon=eps, delta=0.0)
        res = r.solve_ratvi(game, params)
        dists = [r.sup_norm(v - orc.v_star) for v in res.trace.values]
        for prev, cur in zip(dists, dists[1:]):
            worst = max(worst, cur / prev - lam)
    report(
        "7 (rate bound)",
        worst <= 1e-6,
        f"max ratio excess over discount {worst:.2e}",
    )


def test_criterion_8_benchmark_instance_correctness():
    params = RssdParams()
    game = r.build_rssd(params)
    reparsed = r.validate_game(r.game_to_dict(game))
    dilemma = r.check_dilemma_conditions(params)
    from robustdp.rssd import PUBLIC_GOODS, stage_payoffs

    a3, b3 = stage_payoffs(params, PUBLIC_GOODS, 3, 0)
    row = transition_row_candidates(params, 0, 3)[2]
    ok = (
        np.array_equal(reparsed.payoff, game.payoff)
        and dilemma.ok
        and a3 == 0.5
        and b3 == 1.5
        and np.array_equal(row, [0.1, 0.45, 0.45])
    )
    report(
        "8 (benchmark instance)",
        ok,
        f"dilemma ok={dilemma.ok}, a3={a3}, row={row.tolist()}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    game_path = tmp_path / "rssd.json"
    assert main(["rssd-gen", "--out", str(game_path)]) == 0
    outputs = []
    for tag in ("x", "y"):
        out = tmp_path / f"res_{tag}.json"
        trace = tmp_path / f"trace_{tag}.csv"
        code = main(
            [
                "solve", "--game", str(game_path), "--algo", "ratpi",
                "--lambda", "0.97", "--epsilon", "1e-4", "--mt", "10",
                "--out", str(out), "--trace", str(trace),
            ]
        )
        assert code == 0
        outputs.append((out.read_bytes(), trace.read_bytes()))
    gen_twice = []
    for tag in ("p", "q"):
        path = tmp_path / f"rssd_{tag}.json"
        assert main(["rssd-gen", "--out", str(path)]) == 0
        gen_twice.append(path.read_bytes())
    ok = outputs[0] == outputs[1] and gen_twice[0] == gen_twice[1]
    iters = json.loads(outputs[0][0])["iterations"]
    report("9 (determinism)", ok, f"byte-identical result+trace, {iters} iterations")
