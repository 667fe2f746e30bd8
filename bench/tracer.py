"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces each traced public function in every
`oplattice` module namespace that bound it by name (and
`LogicalState.value` on its class) with a wrapper that records a span:
name, start, end, parent span and op id. Calls made through those names
are traced; references held elsewhere, such as the CLI's verb table, are
not. Spans stay in memory until `write` saves them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# <module>.<function> for every traced layer boundary, in report order.
TRACED = (
    "algebra.commutant",
    "algebra.center",
    "algebra.baire_envelope",
    "algebra.close",
    "algebra.same_span",
    "algebra.is_commutative",
    "algebra.contains",
    "numerics.null_space",
    "numerics.ensure_projector",
    "numerics.operator_norm",
    "numerics.rank_of",
    "sectors.block_decomposition",
    "sectors.minimal_central_projectors",
    "sectors.mvn_dimension",
    "sectors.is_factor",
    "logic.lattice_report",
    "logic.meet",
    "logic.join",
    "logic.orthocomplement",
    "logic.leq",
    "logic.random_projector",
    "logic.orthomodularity_residual",
    "logic.distributivity_residual",
    "states.sigma_orthoadditivity_residuals",
    "states.random_orthogonal_family",
    "states.LogicalState.value",
    "states.is_pure",
    "states.restrict_logical",
    "states.dirac_characters",
    "states.is_separating",
    "scenarios.run_scenario",
    "cli.main",
    "seeding.derive_seed",
)


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_ms"] = "ms/op"
    units["numerics.null_space.max_input_mb"] = "MB_computed"
    units["numerics.ensure_projector.per_meet"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name index, start, end, parent index, op id)
        self.op_id = -1
        self.max_null_space_input_mb = 0.0
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, index: int, fn):
        spans, stack = self.spans, self._stack
        measure_input = TRACED[index] == "numerics.null_space"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if measure_input:
                rows, cols = np.shape(args[0])
                self.max_null_space_input_mb = max(
                    self.max_null_space_input_mb, rows * cols * 16 / 1e6)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.op_id)

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "oplattice" or name.startswith("oplattice.")]
        for index, name in enumerate(TRACED):
            module_name, _, attr = name.partition(".")
            owner = importlib.import_module(f"oplattice.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(index, original))
                self._restore.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound, wrapper)
                        self._restore.append((module, bound, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self, ops: int) -> dict[str, float]:
        """Calls and self time per op for every traced name.

        Self time is a span's duration minus the time its direct
        children cover.
        """
        child_time = defaultdict(float)
        for index, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = [0] * len(TRACED)
        self_s = [0.0] * len(TRACED)
        for slot, (index, start, end, _, _) in enumerate(self.spans):
            calls[index] += 1
            self_s[index] += (end - start) - child_time[slot]
        out = {}
        for index, name in enumerate(TRACED):
            out[f"{name}.calls"] = calls[index] / ops
            out[f"{name}.self_ms"] = 1e3 * self_s[index] / ops
        out["numerics.null_space.max_input_mb"] = self.max_null_space_input_mb
        meets = out["logic.meet.calls"]
        out["numerics.ensure_projector.per_meet"] = (
            out["numerics.ensure_projector.calls"] / meets if meets else 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(TRACED),
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
