"""noisebound benchmark: time to a certified bound, end to end and per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload chain16 --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and ``bench/README.md``): ``chain16``,
``fermion48`` and ``sweep8``.  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` a separate traced run prints the
per-layer metrics.  ``--size tiny`` runs every workload at toy size, for
the harness self-check in ``test_bench.py``.

Standard output carries one ``{"meta": ...}`` line with the run metadata
and, as its last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  Human-readable detail
goes to standard error.  The run exits non-zero without a result when the
package cannot be imported or no solve succeeds.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("chain16", "fermion48", "sweep8")
# Workloads timed with one OpenBLAS thread: with the inherited default their
# solve time swings by more than the largest bound with the host's load on
# the second core (README.md, "Thread setting").  The count is set before
# the package is imported, so a thread policy the package sets wins.
SINGLE_THREADED = ("chain16", "sweep8")

# Fresh interpreters timed for setup_s; the reported value is their median.
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120
# Each half of the pool probe (1 worker, then nproc workers) is cut here.
POOL_TIMEOUT_S = 60

# Fresh-interpreter set-up: import the package and generate the inputs.
_SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workloads
wl = workloads.WORKLOADS[sys.argv[2]](sys.argv[4])
with workloads.scratch_dir() as tmp:
    wl.setup(int(sys.argv[3]), tmp)
    elapsed = time.perf_counter() - start
print(elapsed)
"""

# One sweep grid through `noisebound run --workers W`, timed after import.
_POOL_CHILD = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
from noisebound import cli
workers, paths = sys.argv[2], sys.argv[3:]
start = time.perf_counter()
codes = [cli.main(["run", p, "--workers", workers]) for p in paths]
print(json.dumps({"seconds": time.perf_counter() - start, "codes": codes}))
"""

END_TO_END = {
    "setup_s": "s", "solve_s": "s", "points_per_s": "1/s",
    "bound_gap": "energy", "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run.  Names ending in .calls, .self_s or
# .total_s come from the spans of that layer; the rest are computed in
# `traced_run`.
PER_LAYER = {
    "mpo.gate_adjoint.calls": "count", "mpo.gate_adjoint.self_s": "s",
    "mpo.compress.calls": "count", "mpo.compress.self_s": "s",
    "mpo.compress.bytes_in": "bytes", "mpo.compress.max_bond_in": "count",
    "mpo.compress.lossless_frac": "ratio", "mpo.compress.discarded_sum": "norm",
    "mpo.noise_adjoint.calls": "count", "mpo.noise_adjoint.self_s": "s",
    "mpo.symmetrize.self_s": "s", "mpo.expectation.self_s": "s",
    "mpo.hs_inner.calls": "count", "mpo.hs_inner.self_s": "s",
    "trace_dual.layer_adjoint.calls": "count", "trace_dual.layer_adjoint.self_s": "s",
    "trace_dual.tebd.total_s": "s", "trace_dual.evaluate.total_s": "s",
    "trace_dual.defect_mpos.total_s": "s",
    "fermion.canonical_form.calls": "count", "fermion.canonical_form.self_s": "s",
    "fermion.layer_map.calls": "count", "fermion.layer_map.self_s": "s",
    "fermion.depolarize.calls": "count", "fermion.depolarize.self_s": "s",
    "fermion.dual_eval.calls": "count", "fermion.dual_eval.total_s": "s",
    "fermion.optimizer.evals": "count",
    "info_dual.lambda_search.calls": "count", "info_dual.lambda_search.self_s": "s",
    "info_dual.lambda_search.f_evals": "count",
    "exact.dense_simulate.calls": "count", "exact.dense_simulate.total_s": "s",
    "exact.min_energy_at_purity.total_s": "s",
    "sweep.point.calls": "count", "sweep.point.total_s": "s",
    "sweep.failed_points": "count",
    "sweep.pool_s": "s", "sweep.pool_speedup": "ratio", "sweep.pool_failed": "count",
    "noise.schedule.total_s": "s", "circuits.build.total_s": "s",
    "config.load.total_s": "s",
    "report.write_csv.total_s": "s", "report.write_csv.bytes": "bytes",
    "cli.oracle_check.total_s": "s",
    "blas.default_solve_s": "s", "blas.single_solve_s": "s",
    "trace.solve_s": "s", "trace.overhead": "ratio", "fail_rate": "ratio",
}


class Gate:
    """Counts operations and correctness checks, attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def solve(self, wl, inst):
        """Run one timed solve; returns (result or None, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            res = wl.solve(inst)
        except Exception:  # noqa: BLE001 - a failed solve is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{wl.name}: solve raised")
            return None, time.perf_counter() - start
        return res, time.perf_counter() - start

    def check(self, wl, inst, ref, res) -> None:
        for label, ok in wl.check(inst, ref, res):
            self.record(f"{wl.name}: {label}", ok)

    def result(self, metrics: dict) -> dict:
        for label in self.failures:
            print(f"FAILED {label}", file=sys.stderr)
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures), "metrics": metrics}


def _openblas():
    """numpy's bundled OpenBLAS, or None when numpy links another BLAS."""
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*"))
    return ctypes.CDLL(str(libs[0])) if libs else None


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, read through ctypes."""
    lib = _openblas()
    if lib is None:
        return None
    fn = lib.scipy_openblas_get_num_threads64_
    fn.argtypes, fn.restype = [], ctypes.c_int
    return int(fn())


def set_openblas_threads(n: int) -> None:
    """Set the thread count of numpy's bundled OpenBLAS for this process."""
    lib = _openblas()
    if lib is None:
        return
    fn = lib.scipy_openblas_set_num_threads64_
    fn.argtypes, fn.restype = [ctypes.c_int], None
    fn(n)


def git_revision() -> str | None:
    """HEAD of the checkout's own .git, or None when it is not a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(args, inherited_threads: int | None) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "openblas_threads": inherited_threads,
        "solve_openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "NOISEBOUND_WORKERS": os.environ.get("NOISEBOUND_WORKERS"),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "git_rev": git_revision(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(args) -> float:
    """Median set-up time (import plus input generation) over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(BENCH_DIR), args.workload,
             str(args.seed), args.size],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def timed_run(wl, args, tmp: str) -> dict | None:
    """End-to-end metrics: solve instances round-robin for ``--seconds``."""
    gate = Gate()
    insts = wl.setup(args.seed, tmp)
    refs = [wl.reference(inst) for inst in insts]
    setup_s = setup_seconds(args)
    times: list[float] = []
    gaps: dict[int, float] = {}
    start = time.perf_counter()
    k = 0
    # every instance once, then more rounds while another solve still fits
    while k < len(insts) or (
            times and time.perf_counter() - start
            + statistics.median(times) <= args.seconds):
        i = k % len(insts)
        res, dt = gate.solve(wl, insts[i])
        k += 1
        if res is None:
            continue
        times.append(dt)
        gate.check(wl, insts[i], refs[i], res)
        if i not in gaps:
            gaps[i] = wl.gap(insts[i], refs[i], res)
        wl.clean(insts[i])
    if not times:
        return None
    solve_s = statistics.median(times)
    print(f"{wl.name}: {len(times)} solves, seconds {[round(t, 3) for t in times]}, "
          f"gaps {[gaps[i] for i in sorted(gaps)]}", file=sys.stderr)
    values = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "points_per_s": wl.points / solve_s,
        # mean over the run's instances: the per-instance gap varies with
        # the circuit drawn, and the mean of a few is steadier than one
        "bound_gap": statistics.fmean(gaps.values()),
        "peak_rss_mb": peak_rss_mb(),
    }
    return gate.result({k: {"value": v, "unit": END_TO_END[k]}
                        for k, v in values.items()})


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill what is left of a child started in its own session, and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def pool_probe(wl, args, tmp: str) -> dict:
    """Run the sweep grid (oracle off) with 1 and with nproc workers.

    Not gated: a timeout is recorded as a failed probe and the run goes on.
    """
    workers = max(2, os.cpu_count() or 1)
    seconds, failed = {}, 0
    for w in (1, workers):
        paths = wl.write_configs(args.seed, tmp, oracle=False, tag=f"-pool{w}")
        proc = subprocess.Popen(
            [sys.executable, "-c", _POOL_CHILD, str(ROOT / "src"), str(w), *paths],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            start_new_session=True)
        try:
            out = proc.communicate(timeout=POOL_TIMEOUT_S)[0]
        except subprocess.TimeoutExpired:
            out = ""
        finally:
            _kill_group(proc)
        try:
            rec = json.loads(out.strip().splitlines()[-1])
            seconds[w] = float(rec["seconds"])
            failed += any(rec["codes"])
        except (ValueError, IndexError, KeyError):
            seconds[w] = float(POOL_TIMEOUT_S)
            failed += 1
    print(f"pool probe: {seconds} (workers: seconds), failed {failed}", file=sys.stderr)
    return {"sweep.pool_s": seconds[workers],
            "sweep.pool_speedup": seconds[1] / seconds[workers],
            "sweep.pool_failed": failed}


def layer_metrics(tracer, special: dict) -> dict:
    totals = tracer.layer_totals()
    out = {}
    for name, unit in PER_LAYER.items():
        layer, _, suffix = name.rpartition(".")
        if name in special:
            value = special[name]
        elif suffix in ("calls", "self_s", "total_s"):
            value = totals[layer][suffix] if layer in totals else 0
        else:
            raise KeyError(f"no source for per-layer metric {name}")
        out[name] = {"value": value, "unit": unit}
    return out


def traced_run(wl, args, tmp: str, meta: dict,
               inherited_threads: int | None) -> dict | None:
    """Per-layer metrics from a traced set-up and a traced solve of instance 0."""
    from tracer import Tracer

    gate = Gate()
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            insts = wl.setup(args.seed, tmp)
    finally:
        tracer.uninstall()
    inst = insts[0]
    ref = wl.reference(inst)
    # untraced, traced, untraced: the overhead is taken against the mean of
    # the two untraced solves, so a first-solve warm-up does not hide it
    plain, traced_s = [], 0.0
    for traced in (False, True, False):
        if traced:
            tracer.install()
        try:
            with tracer.span("solve") if traced else contextlib.nullcontext():
                res, seconds = gate.solve(wl, inst)
        finally:
            tracer.uninstall()
        if res is None:
            return None
        gate.check(wl, inst, ref, res)
        wl.clean(inst)
        if traced:
            traced_s = seconds
        else:
            plain.append(seconds)
    # one more untraced solve with the other OpenBLAS thread setting, so the
    # effect of the program's thread policy shows on every workload
    single = wl.name in SINGLE_THREADED
    solve_threads = openblas_threads()
    set_openblas_threads(inherited_threads if single else 1)
    try:
        res, other_s = gate.solve(wl, inst)
    finally:
        set_openblas_threads(solve_threads)
    if res is None:
        return None
    gate.check(wl, inst, ref, res)
    wl.clean(inst)
    default_s, single_s = ((other_s, statistics.fmean(plain)) if single
                           else (statistics.fmean(plain), other_s))

    c = tracer.counters
    compress_calls = tracer.layer_totals().get("mpo.compress", {}).get("calls", 0)
    evals = sum(1 for (name, _, _, parent) in tracer.spans
                if name == "fermion.dual_eval" and parent >= 0
                and tracer.spans[parent][0] == "fermion.optimizer")
    special = {
        "mpo.compress.bytes_in": c["mpo.compress.bytes_in"],
        "mpo.compress.max_bond_in": c["mpo.compress.max_bond_in"],
        "mpo.compress.lossless_frac": (c["mpo.compress.lossless"] / compress_calls
                                       if compress_calls else 0.0),
        "mpo.compress.discarded_sum": c["mpo.compress.discarded_sum"],
        "fermion.optimizer.evals": evals,
        "info_dual.lambda_search.f_evals": c["info_dual.lambda_search.f_evals"],
        "sweep.failed_points": c["sweep.failed_points"],
        "report.write_csv.bytes": c["report.write_csv.bytes"],
        "sweep.pool_s": 0.0, "sweep.pool_speedup": 0.0, "sweep.pool_failed": 0,
        "blas.default_solve_s": default_s,
        "blas.single_solve_s": single_s,
        "trace.solve_s": traced_s,
        "trace.overhead": traced_s / statistics.fmean(plain),
    }
    if wl.name == "sweep8":
        special.update(pool_probe(wl, args, tmp))
    special["fail_rate"] = len(gate.failures) / gate.attempted

    out_dir = ROOT / ".bench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{wl.name}-seed{args.seed}-{args.size}.spans.jsonl.gz"
    tracer.write(str(path), meta)
    print(f"{len(tracer.spans)} spans written to {path}", file=sys.stderr)
    return gate.result(layer_metrics(tracer, special))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long to keep solving (at least one solve per instance)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    inherited_threads = openblas_threads()
    if args.workload in SINGLE_THREADED:
        set_openblas_threads(1)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.size)
    meta = run_metadata(args, inherited_threads)
    print(json.dumps({"meta": meta}), flush=True)
    with workloads.scratch_dir() as tmp:
        if args.trace:
            result = traced_run(wl, args, tmp, meta, inherited_threads)
        else:
            result = timed_run(wl, args, tmp)
    if result is None:
        print("error: no solve succeeded", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
