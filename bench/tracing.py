"""Layer spans for the traced benchmark run.

Wrappers are installed at the names their callers look up, so a call from
``robustdp.solvers._run`` to ``improvement_sweep`` goes through the wrapper
installed at ``robustdp.solvers.improvement_sweep``.  Each wrapper opens a
span whose parent is the innermost open span (in the solve phase the
benchmark's own cell span is the root), and closes it into per-layer
aggregates: self time (duration minus the time covered by child spans) and
call count.  Spans are folded into these aggregates as they close instead of
being kept, so a traced pass with ~10^5 spans costs no memory.

A name that no longer exists in the program is skipped, and the metrics of
its layer are left out of the report.  The untraced run never imports this
module.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from statistics import median
from time import perf_counter

#: (layer, module, attribute path) of every wrapped name.  Solve-phase
#: layers first, then set-up-phase layers.
WRAP_POINTS = (
    ("sweeps.improvement", "robustdp.solvers", "improvement_sweep"),
    ("sweeps.jacobi_improvement", "robustdp.solvers", "jacobi_improvement_sweep"),
    ("sweeps.evaluation", "robustdp.solvers", "evaluation_sweep"),
    ("sweeps.fixed_model_arrays", "robustdp.solvers", "fixed_model_arrays"),
    ("solvers.robust_eval", "robustdp.solvers", "evaluate_policy_robust"),
    ("perturb", "robustdp.perturb", "PerturbationOracle.perturb"),
    ("model.load", "robustdp.model", "load_game"),
    ("model.build", "robustdp.model", "build_game"),
    ("model.build", "robustdp.rssd", "build_game"),
    ("rssd.build", "robustdp.rssd", "build_rssd"),
    ("oracle", "robustdp.oracle", "brute_force_maximin"),
    ("oracle.robust_eval", "robustdp.oracle", "evaluate_policy_robust"),
)

#: Layers whose calls add m * n_joint_actions nominal backups (the game is
#: their first argument).
BACKUP_LAYERS = ("sweeps.improvement", "sweeps.jacobi_improvement")

#: The span the benchmark opens around each solver call.
CELL_LAYER = "solvers"


class Tracer:
    """Per-layer self time and call counts of the spans closed since the
    last :meth:`take`, plus the nominal backups of improvement sweeps."""

    def __init__(self):
        self.layers: set[str] = {CELL_LAYER}
        self._stack: list[float] = []
        self._reset()

    def _reset(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.nominal_backups = 0

    def take(self) -> dict:
        """Return and clear the aggregates: ``{layer: (self_s, calls)}`` for
        every installed layer, and ``nominal_backups``."""
        out = {
            "layers": {
                layer: (self.self_s[layer], self.calls[layer])
                for layer in self.layers
            },
            "nominal_backups": self.nominal_backups,
        }
        self._reset()
        return out

    def wrap(self, layer: str, fn):
        """``fn`` with every call recorded as a span of ``layer``."""
        stack = self._stack
        count_backups = layer in BACKUP_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_backups:
                game = args[0]
                self.nominal_backups += game.m * game.n_joint_actions
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = stack.pop()
                self.self_s[layer] += duration - children
                self.calls[layer] += 1
                if stack:
                    stack[-1] += duration

        return traced

    def install(self) -> list[str]:
        """Install a wrapper at every wrap point that exists.  Returns the
        wrap points that were missing; their layers report nothing."""
        missing = []
        for layer, module_name, path in WRAP_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(layer, original))
            self.layers.add(layer)
        return missing


#: layer -> (self-time metric, call-count metric or None).
LAYER_METRICS = {
    "sweeps.improvement": ("sweeps.improvement_s", "sweeps.improvement_calls"),
    "sweeps.jacobi_improvement": (
        "sweeps.jacobi_improvement_s", "sweeps.jacobi_improvement_calls"),
    "sweeps.evaluation": ("sweeps.evaluation_s", "sweeps.evaluation_calls"),
    "sweeps.fixed_model_arrays": ("sweeps.fixed_model_arrays_s", None),
    "solvers.robust_eval": ("solvers.robust_eval_s", "solvers.robust_eval_calls"),
    CELL_LAYER: ("solvers.self_s", None),
    "perturb": ("perturb.s", "perturb.queries"),
    "model.load": ("model.load_s", None),
    "model.build": ("model.build_s", None),
    "rssd.build": ("rssd.build_s", None),
    "oracle": ("oracle.s", "oracle.calls"),
    "oracle.robust_eval": ("oracle.robust_eval_s", "oracle.robust_eval_calls"),
}
#: Layers reported per set-up repetition; all others per solve pass.
SETUP_LAYERS = frozenset(
    ("model.load", "model.build", "rssd.build", "oracle", "oracle.robust_eval")
)


def layer_metrics(setup_takes: list[dict], pass_takes: list[dict]) -> dict:
    """``{metric: (value, unit)}``: for every installed layer, the median
    over set-up repetitions (set-up layers) or traced passes (solve layers)
    of its self time and call count, and the nominal backups of the
    improvement sweeps with the self time per backup."""
    out: dict[str, tuple[float, str]] = {}
    installed = pass_takes[0]["layers"]
    for layer, (time_name, calls_name) in LAYER_METRICS.items():
        if layer not in installed:
            continue
        takes = setup_takes if layer in SETUP_LAYERS else pass_takes
        out[time_name] = (median([t["layers"][layer][0] for t in takes]), "s")
        if calls_name:
            out[calls_name] = (median([t["layers"][layer][1] for t in takes]), "count")
    backup_layers = [layer for layer in BACKUP_LAYERS if layer in installed]
    if backup_layers:
        backups = median([t["nominal_backups"] for t in pass_takes])
        out["sweeps.nominal_backups"] = (backups, "count")
        improvement_s = median([
            sum(t["layers"][layer][0] for layer in backup_layers) for t in pass_takes
        ])
        out["sweeps.us_per_backup"] = (1e6 * improvement_s / max(backups, 1), "us")
    return out
