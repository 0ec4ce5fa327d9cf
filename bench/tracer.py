"""Span tracer that instruments noisebound from outside the package.

Each layer's public functions are wrapped where they are *called*: the
package modules use ``from .mpo import compress``, so a call from
``trace_dual`` resolves ``noisebound.trace_dual.compress`` and patching
``noisebound.mpo.compress`` alone would miss it.  :data:`PROBES` lists every
(module, attribute) binding that is wrapped and the layer span it feeds.

Spans are kept in memory as ``(name, start, end, parent)`` tuples and
written out once, at the end of the run.  A layer's self time is its span
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import time
from collections import defaultdict


def _compress_in(tracer, args, kwargs):
    a = args[0]
    tracer.count("mpo.compress.bytes_in", sum(t.nbytes for t in a.tensors))
    tracer.maximum("mpo.compress.max_bond_in", max(a.bond_dims, default=1))
    return args, kwargs


def _compress_out(tracer, out):
    err = float(out[1])
    tracer.count("mpo.compress.discarded_sum", err)
    tracer.count("mpo.compress.lossless", err < LOSSLESS_TOL)


def _lambda_search_in(tracer, args, kwargs):
    f = args[0]

    def counted(x):
        tracer.count("info_dual.lambda_search.f_evals", 1)
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs


def _sweep_failures(tracer, out):
    tracer.count("sweep.failed_points", len(out[1]))


def _csv_size(tracer, out, args):
    tracer.count("report.write_csv.bytes", os.path.getsize(args[0]))


# A compression whose discarded weight is below this is counted lossless.
LOSSLESS_TOL = 1e-12

# (module, attribute, span name, hooks).  Hooks: "pre" sees and may replace
# the arguments, "post" sees the result, "post_args" sees result and args.
PROBES = [
    ("noisebound.trace_dual", "apply_gate_adjoint", "mpo.gate_adjoint", {}),
    ("noisebound.mpo", "apply_gate_adjoint", "mpo.gate_adjoint", {}),
    ("noisebound.trace_dual", "compress", "mpo.compress",
     {"pre": _compress_in, "post": _compress_out}),
    ("noisebound.circuits", "compress", "mpo.compress",
     {"pre": _compress_in, "post": _compress_out}),
    ("noisebound.trace_dual", "apply_depolarizing_adjoint", "mpo.noise_adjoint", {}),
    ("noisebound.trace_dual", "apply_site_superop_adjoint", "mpo.noise_adjoint", {}),
    ("noisebound.trace_dual", "symmetrize", "mpo.symmetrize", {}),
    ("noisebound.trace_dual", "expectation_product_state", "mpo.expectation", {}),
    ("noisebound.mpo", "mpo_hs_inner", "mpo.hs_inner", {}),
    ("noisebound.trace_dual", "apply_layer_adjoint", "trace_dual.layer_adjoint", {}),
    ("noisebound.trace_dual", "heisenberg_tebd", "trace_dual.tebd", {}),
    ("noisebound.trace_dual", "dual_value_trace", "trace_dual.evaluate", {}),
    ("noisebound.trace_dual", "tebd_error_bound", "trace_dual.evaluate", {}),
    ("noisebound.trace_dual", "dual_value_nonunital", "trace_dual.evaluate", {}),
    ("noisebound.trace_dual", "defect_mpos", "trace_dual.defect_mpos", {}),
    ("noisebound.info_dual", "defect_mpos", "trace_dual.defect_mpos", {}),
    ("noisebound.fermion", "canonical_form", "fermion.canonical_form", {}),
    ("noisebound.fermion", "heisenberg_quadratic_step", "fermion.layer_map", {}),
    ("noisebound.fermion", "covariance_layer_step", "fermion.layer_map", {}),
    ("noisebound.fermion", "evolve_covariance_depolarizing", "fermion.depolarize", {}),
    ("noisebound.fermion", "_dual_value_parts", "fermion.dual_eval", {}),
    ("noisebound.fermion", "optimize_fermionic_dual", "fermion.optimizer", {}),
    ("noisebound.fermion", "golden_section_max", "info_dual.lambda_search",
     {"pre": _lambda_search_in}),
    ("noisebound.info_dual", "golden_section_max", "info_dual.lambda_search",
     {"pre": _lambda_search_in}),
    ("noisebound.exact", "dense_simulate", "exact.dense_simulate", {}),
    ("noisebound.exact", "min_energy_at_purity", "exact.min_energy_at_purity", {}),
    ("noisebound.sweep", "run_point", "sweep.point", {}),
    ("noisebound.sweep", "run_experiment", "sweep.run", {"post": _sweep_failures}),
    ("noisebound.sweep", "purity_schedule", "noise.schedule", {}),
    ("noisebound.sweep", "info_schedule", "noise.schedule", {}),
    ("noisebound.sweep", "relative_entropy_schedule", "noise.schedule", {}),
    ("noisebound.noise", "purity_schedule", "noise.schedule", {}),
    ("noisebound.noise", "info_schedule", "noise.schedule", {}),
    ("noisebound.circuits", "brickwall_1d", "circuits.build", {}),
    ("noisebound.fermion", "fermion_brickwall_1d", "circuits.build", {}),
    ("noisebound.cli", "load_config", "config.load", {}),
    ("noisebound.sweep", "write_csv", "report.write_csv", {"post_args": _csv_size}),
    ("noisebound.cli", "oracle_check", "cli.oracle_check", {}),
]


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._names: list[str] = []
        self._saved: list = []

    # -- counters ---------------------------------------------------------

    def count(self, key: str, amount: float) -> None:
        self.counters[key] += amount

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters[key], value)

    # -- spans ------------------------------------------------------------

    def span(self, name: str):
        """Context manager recording one span (used for the root spans)."""
        return _Span(self, name)

    def _open(self, name: str) -> tuple[int, float]:
        sid = len(self.spans)
        self.spans.append(None)
        self._names.append(name)
        self._stack.append(sid)
        return sid, time.perf_counter()

    def _close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, start, end, parent)

    def wrap(self, name: str, fn, hooks: dict):
        pre, post, post_args = hooks.get("pre"), hooks.get("post"), hooks.get("post_args")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a binding reached through another wrapped binding of the same
            # layer (e.g. mpo.apply_gate -> apply_gate_adjoint) is one span
            if self._stack and self._names[self._stack[-1]] == name:
                return fn(*args, **kwargs)
            if pre is not None:
                args, kwargs = pre(self, args, kwargs)
            sid, start = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid, name, start)
            if post is not None:
                post(self, out)
            if post_args is not None:
                post_args(self, out, args)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every binding in :data:`PROBES`."""
        for module_name, attr, name, hooks in PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, hooks))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), c in zip(self.spans, child):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - c
        return out

    def write(self, path: str, meta: dict) -> None:
        """Write the metadata and every span as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent]) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.sid, self.start = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.name, self.start)
        return False
