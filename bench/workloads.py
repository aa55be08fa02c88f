"""The benchmark's three workloads: inputs, solver cells and correctness checks.

Every timed phase runs a fixed list of solver cells (game x algorithm x
discount factor x evaluation sweeps x approximation mode).  The workloads
stress different layers, so that each optimisation has one workload that
exercises its mechanism and one that bypasses it:

* ``paper`` - the paper's instance (``build_rssd()``, m=3, 8 joint actions):
  thousands of tiny iterations, where the solver loop, per-action Python
  backups and the perturbation oracle dominate.
* ``wide``  - ``build_rssd`` with 8 and 10 players (256 and 1024 joint
  actions, m=3): the improvement sweep does almost all the work, and only
  9 (n=8) or 11 (n=10) joint actions per state are distinct.
* ``dense`` - a seeded random game with m=150 states, 4 joint actions and
  4 candidate rows each, loaded from canonical JSON: evaluation sweeps, the
  Jacobi matvec, JSON load and validation and the terminal dense solve.

Functions of the program are looked up through their modules at call time,
so the wrappers of a traced run see these calls.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import robustdp
from robustdp import model, oracle, rssd

EPSILON = 1e-5
#: Slack for floating-point error in a robust value of size up to ~300.
VALUE_ATOL = 1e-8
PAPER_LAMBDAS = (0.95, 0.96, 0.97, 0.98, 0.99)
PAPER_MT = (1, 3, 5, 10, 50)
PERTURBED_LAMBDAS = (0.97, 0.99)
#: (mode, argmax_lock) of the perturbed cells on the paper instance.
PERTURBATIONS = (
    ("uniform_noise", False),
    ("uniform_noise", True),
    ("adversarial_extremes", False),
)
WIDE_PLAYERS = (8, 10)
DENSE_STATES = 150
DENSE_ROWS = 4
#: ``--smoke`` keeps one cell per workload and shrinks the dense game.
SMOKE_DENSE_STATES = 20


@dataclass(frozen=True)
class Cell:
    """One solver run: which game, which solver and with which parameters."""

    game: str
    algo: str
    lam: float
    mt: int = 0
    approx: tuple[str, bool] | None = None

    @property
    def label(self) -> str:
        text = f"{self.game}/{self.algo}/lam={self.lam}/mt={self.mt}"
        if self.approx is not None:
            mode, lock = self.approx
            text += f"/{mode}" + ("+lock" if lock else "")
        return text


@dataclass
class Setup:
    """What a workload's timed set-up produces: the games, and for the paper
    instance the oracle value ``v_star`` at each discount factor.

    ``max_iterations`` caps every solver run at 3-10x the most iterations
    any cell of the workload needs, so a solver that stops converging fails its
    cell within seconds instead of running for hours.
    """

    games: dict
    max_iterations: int
    references: dict = field(default_factory=dict)


def delta_for(lam: float) -> float:
    """The approximation parameter ``bench-table1`` uses: 0.99 of its bound."""
    return 0.99 * robustdp.max_delta(lam, EPSILON)


def run_cell(setup: Setup, cell: Cell, seed: int):
    """Run one cell's solver and return its ``SolverResult``."""
    params = robustdp.SolverParams(
        lam=cell.lam,
        epsilon=EPSILON,
        delta=delta_for(cell.lam),
        mt_schedule=cell.mt,
        max_iterations=setup.max_iterations,
    )
    solver = getattr(robustdp, "solve_" + cell.algo)
    game = setup.games[cell.game]
    if cell.approx is None:
        return solver(game, params)
    mode, lock = cell.approx
    approx = robustdp.PerturbationOracle(
        mode=mode, bound=cell.lam * params.delta, seed=seed, argmax_lock=lock
    )
    return solver(game, params, approx)


def digest(result) -> str:
    """Short hash of a result's policy and worst-case rows."""
    text = repr((result.policy.joint_actions, tuple(result.worst_model)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def model_arrays(game) -> tuple[np.ndarray, list]:
    """Payoff tensor r(s, a, s') and candidate rows ``rows[k][a]`` of a game,
    read from its canonical JSON form, which does not depend on how the
    program stores a game in memory."""
    doc = model.game_to_dict(game)
    states = {name: k for k, name in enumerate(doc["states"])}
    sizes = [len(acts) for acts in doc["player_actions"]]
    n_joint = math.prod(sizes)

    def joint(per_player):
        index = 0
        for size, a in zip(sizes, per_player):
            index = index * size + a
        return index

    m = len(states)
    payoff = np.full((m, n_joint, m), float(doc["default_payoff"]))
    for entry in doc["payoffs"]:
        payoff[states[entry["s"]], joint(entry["a"]), states[entry["s_next"]]] = (
            entry["r"])
    rows = [[None] * n_joint for _ in range(m)]
    for entry in doc["uncertainty"]:
        rows[states[entry["s"]]][joint(entry["a"])] = np.array(entry["rows"])
    return payoff, rows


def robust_backups(arrays, v: np.ndarray, lam: float) -> np.ndarray:
    """(m, n_joint) worst-case one-step backups min_row row @ (r + lam * v)."""
    payoff, rows = arrays
    m, n_joint, _ = payoff.shape
    out = np.empty((m, n_joint))
    for k in range(m):
        target = payoff[k] + lam * v
        for a in range(n_joint):
            out[k, a] = (rows[k][a] @ target[a]).min()
    return out


class Checker:
    """Per-cell verdicts on the results of one pass over a workload's cells.

    A cell fails when its solver raised (result ``None``), did not
    terminate, or returned a value that is not its policy's robust value
    (a fixed point of the policy's worst-case backup) or that one robust
    Bellman step would raise by more than epsilon, which no
    epsilon-optimal policy allows.  With references (the paper instance)
    every value must also lie within epsilon of the oracle's ``v_star``.
    Without them, the cells of one (game, lam) group must agree within
    epsilon, as both solvers' guarantees imply; a group that disagrees, or
    in which a cell failed, fails as a whole.
    """

    def __init__(self):
        self.arrays: dict = {}

    def cell_ok(self, setup: Setup, cell: Cell, result) -> bool:
        if result is None or not result.terminated:
            return False
        if cell.game not in self.arrays:
            self.arrays[cell.game] = model_arrays(setup.games[cell.game])
        v = np.asarray(result.value)
        backups = robust_backups(self.arrays[cell.game], v, cell.lam)
        policy_step = backups[np.arange(len(v)), list(result.policy.joint_actions)]
        gain = backups.max(axis=1) - v
        if not (np.abs(policy_step - v).max() <= VALUE_ATOL
                and gain.min() >= -VALUE_ATOL and gain.max() <= EPSILON + VALUE_ATOL):
            return False
        if setup.references:
            return robustdp.sup_norm(v - setup.references[cell.lam]) <= EPSILON
        return True

    def check_pass(self, setup: Setup, cells, results) -> list[bool]:
        ok = [self.cell_ok(setup, c, r) for c, r in zip(cells, results)]
        if setup.references:
            return ok
        groups: dict[tuple, list[int]] = {}
        for i, cell in enumerate(cells):
            groups.setdefault((cell.game, cell.lam), []).append(i)
        for members in groups.values():
            agree = all(ok[i] for i in members) and all(
                robustdp.sup_norm(results[i].value - results[members[0]].value)
                <= EPSILON
                for i in members
            )
            for i in members:
                ok[i] = agree
        return ok


class Workload:
    """A named set-up plus a fixed list of solver cells.

    ``input_path`` names the file a workload reads, if any; ``write_input``
    generates it from the seed, outside the timed phases.  ``setup`` is the
    timed set-up.  With ``smoke`` only the first cell is kept.
    """

    name = ""

    def __init__(self, smoke: bool = False):
        cells = self.make_cells()
        self.cells = cells[:1] if smoke else cells

    def make_cells(self) -> list[Cell]:
        raise NotImplementedError

    def input_path(self, seed: int, workdir: Path) -> Path | None:
        return None

    def write_input(self, seed: int, path: Path) -> None:
        raise NotImplementedError

    def setup(self, path: Path | None) -> Setup:
        raise NotImplementedError


class Paper(Workload):
    """The paper's instance: the full ``bench-table1`` grid plus perturbed
    Gauss-Seidel cells; set-up includes the exhaustive oracle, as in
    ``bench-table1``."""

    name = "paper"

    def make_cells(self):
        cells = []
        for lam in PAPER_LAMBDAS:
            cells.append(Cell("rssd3", "rvi", lam))
            cells.append(Cell("rssd3", "ratvi", lam))
            for mt in PAPER_MT:
                cells.append(Cell("rssd3", "rmpi", lam, mt))
                cells.append(Cell("rssd3", "ratpi", lam, mt))
        for lam in PERTURBED_LAMBDAS:
            for approx in PERTURBATIONS:
                cells.append(Cell("rssd3", "ratpi", lam, 5, approx))
                cells.append(Cell("rssd3", "ratvi", lam, 0, approx))
        return cells

    def setup(self, path):
        game = rssd.build_rssd()
        references = {
            lam: oracle.brute_force_maximin(game, lam).v_star
            for lam in PAPER_LAMBDAS
        }
        return Setup({"rssd3": game}, 5_000, references)


def wide_params(n_players: int):
    """``RssdParams`` for n players with mu * n kept at the paper's values."""
    mu_set = tuple(round(mu * 3 / n_players, 12) for mu in (0.1, 0.2, 0.3))
    return rssd.RssdParams(n_players=n_players, mu_set=mu_set)


class Wide(Workload):
    """Many-player social dilemmas: 256 and 1024 joint actions per state."""

    name = "wide"

    def make_cells(self):
        return [
            Cell(f"rssd{n}", algo, 0.97, 5)
            for n in WIDE_PLAYERS
            for algo in ("ratpi", "rmpi")
        ]

    def setup(self, path):
        return Setup(
            {f"rssd{n}": rssd.build_rssd(wide_params(n)) for n in WIDE_PLAYERS},
            1_000,
        )


def dense_game(seed: int, m: int = DENSE_STATES, rows: int = DENSE_ROWS):
    """Seeded random game: 2 players x 2 actions, ``rows`` Dirichlet candidate
    rows per (state, joint action), payoffs uniform on [-1, 1]."""
    rng = np.random.default_rng(seed)
    n_joint = 4
    payoff = rng.uniform(-1.0, 1.0, size=(m, n_joint, m))
    cand = rng.dirichlet(np.ones(m), size=(m, n_joint, rows))
    return model.build_game(
        2,
        [f"s{k}" for k in range(m)],
        [["a0", "a1"], ["a0", "a1"]],
        payoff,
        [[cand[k, a] for a in range(n_joint)] for k in range(m)],
    )


class Dense(Workload):
    """Many states, few actions, no duplicate actions; the game is read from
    its canonical JSON file, so set-up is the JSON load and validation."""

    name = "dense"

    def __init__(self, smoke: bool = False):
        self.m = SMOKE_DENSE_STATES if smoke else DENSE_STATES
        super().__init__(smoke)

    def make_cells(self):
        return [
            Cell("dense", algo, lam, 10)
            for lam in (0.97, 0.99)
            for algo in ("ratpi", "rmpi")
        ]

    def input_path(self, seed, workdir):
        return workdir / f"dense-m{self.m}-seed{seed}.json"

    def write_input(self, seed, path):
        model.save_game(dense_game(seed, self.m), path)

    def setup(self, path):
        return Setup({"dense": model.load_game(path)}, 2_000)


WORKLOADS = {w.name: w for w in (Paper, Wide, Dense)}


def write_input(name: str, smoke: str, seed: str, path: str) -> None:
    """Command-line form of ``Workload.write_input`` for a child process."""
    WORKLOADS[name](smoke == "1").write_input(int(seed), Path(path))
