"""Spans and counters around calls into sada's modules, attached from outside the package.

``Tracer.installed`` rebinds each traced function in every ``sada`` module
that holds a reference to it (``sada.cli``, ``sada.simulate`` and
``sada.estimators`` each import their own ``solve_score_root`` and friends),
and in the module-level dicts of those modules, so calls made between modules
are seen too.  It puts the originals back on exit, and nothing under
``src/`` is edited.  Score models returned by the traced model factories, or
passed through ``Tracer.wrap_model``, count the rows their
``score``/``jacobian`` callables evaluate.

Spans stay in memory as ``[op, parent, name, start, end]`` records and are
written out once, by ``Tracer.dump``.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: Functions wrapped in a span, by the sada module that defines them.  A name
#: that no longer exists there is reported in ``Tracer.missing``, since its
#: metrics would otherwise read 0 and look like a gain.
TRACED = {
    "io": (
        "load_dataset_csv",
        "write_estimate_reports",
        "write_compare_table",
        "write_sim_table",
        "write_efficiency_svg",
    ),
    "data": ("validate_dataset", "stacked_score_matrix"),
    "models": ("solve_score_root", "solve_estimating_equation", "mean_model", "ols_model"),
    "weighting": ("moment_estimates", "estimate_general_weights"),
    "estimators": (
        "naive_estimate",
        "ppi_estimate",
        "ppi_pp_estimate",
        "sada_estimate",
        "solve_weighted",
    ),
    "inference": ("attach_inference",),
    "simulate": ("generate_synthetic", "run_replications", "efficiency_curve"),
    "cli": ("main",),
}

_ESTIMATORS = {f"estimators.{name}" for name in TRACED["estimators"]} - {"estimators.solve_weighted"}
_MODEL_FACTORIES = {"models.mean_model", "models.ols_model"}
_FALLBACK_KEYS = ("weight_fallback", "degenerate")


class Tracer:
    """In-memory span store plus per-op counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._op = 0
        self.missing: set[str] = set()

    @contextmanager
    def installed(self, op: int):
        """Trace every call into sada made inside the block, attributed to ``op``."""
        self._op = op
        modules = [m for name, m in list(sys.modules.items()) if name == "sada" or name.startswith("sada.")]
        patches = []
        for short, names in TRACED.items():
            home = sys.modules.get(f"sada.{short}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    self.missing.add(f"sada.{short}.{fname}")
                    continue
                wrapper = self._span(f"{short}.{fname}", original)
                for module in modules:
                    namespace = vars(module)
                    # Module-level tables of functions, such as simulate's study
                    # dispatch, hold references too.
                    tables = [namespace] + [v for v in namespace.values() if type(v) is dict]
                    for table in tables:
                        for key, value in list(table.items()):
                            if value is original:
                                table[key] = wrapper
                                patches.append((table, key, original))
        try:
            yield
        finally:
            for table, key, original in reversed(patches):
                table[key] = original

    def wrap_model(self, model):
        """A copy of ``model`` whose score and Jacobian count evaluated rows."""
        p = model.p
        counts = self.counts

        def score(x, y, theta):
            out = model.score(x, y, theta)
            counts[self._op]["score_rows"] += _rows(out, 2)
            return out

        def jacobian(x, y, theta):
            out = model.jacobian(x, y, theta)
            rows = _rows(out, 3)
            counts[self._op]["jacobian_rows"] += rows
            counts[self._op]["jacobian_bytes"] += rows * p * p * 8
            return out

        return dataclasses.replace(model, score=score, jacobian=jacobian)

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [self._op, stack[-1] if stack else -1, name, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
            return self._observe(name, out)

        return wrapper

    def _observe(self, name: str, out):
        counts = self.counts[self._op]
        if name == "models.solve_estimating_equation":
            counts["newton_iterations"] += int(out[1])
        elif name in _ESTIMATORS:
            if any(key in out.diagnostics for key in _FALLBACK_KEYS):
                counts["fallbacks"] += 1
        elif name in _MODEL_FACTORIES:
            return self.wrap_model(out)
        return out

    def summary(self, op: int) -> "OpSummary":
        """Calls, inclusive time and self time per span name for one op."""
        child_time: Counter = Counter()
        for record in self.spans:
            if record[0] == op and record[1] >= 0:
                child_time[record[1]] += record[4] - record[3]
        calls: Counter = Counter()
        total: Counter = Counter()
        self_time: Counter = Counter()
        for index, (span_op, _, name, start, end) in enumerate(self.spans):
            if span_op != op:
                continue
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child_time[index]
        return OpSummary(calls, total, self_time, Counter(self.counts[op]))

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: op, id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for index, (op, parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps([op, index, parent, name, start, end]) + "\n")


@dataclasses.dataclass(frozen=True)
class OpSummary:
    calls: Counter
    total: Counter
    self_time: Counter
    counts: Counter


def _rows(out, batch_ndim: int) -> int:
    return int(np.shape(out)[0]) if np.ndim(out) == batch_ndim else 1
