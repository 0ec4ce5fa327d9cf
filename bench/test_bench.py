"""Self-check of the benchmark harness at toy sizes.

Run from the root of the repository:

    python -m pytest bench/test_bench.py -q

Every workload runs at ``--size tiny`` with tracing off and on, so each
metric, the correctness gate and the tracer are exercised in seconds.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def tiny_result(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[0])["meta"]
    return meta, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    meta, result = tiny_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name
    for key in ("nproc", "openblas_threads", "solve_openblas_threads",
                "OPENBLAS_NUM_THREADS", "NOISEBOUND_WORKERS", "numpy", "scipy",
                "git_rev", "seed"):
        assert key in meta
    assert meta["seed"] == 3


def test_traced_runs_show_the_stated_zeros():
    _, chain = tiny_result("chain16", 1)
    m = {k: v["value"] for k, v in chain["metrics"].items()}
    assert m["mpo.gate_adjoint.calls"] > 0 and m["mpo.compress.calls"] > 0
    assert all(v == 0 for k, v in m.items()
               if k.startswith(("fermion.", "info_dual.")))
    _, ferm = tiny_result("fermion48", 1)
    m = {k: v["value"] for k, v in ferm["metrics"].items()}
    assert m["fermion.dual_eval.calls"] > 0 and m["fermion.optimizer.evals"] > 0
    assert all(v == 0 for k, v in m.items() if k.startswith("mpo."))


def test_gate_catches_unsound_bounds(tmp_path):
    chain = workloads.Chain16("tiny")
    inst = chain.setup(1, str(tmp_path))[0]
    res = chain.solve(inst)
    assert all(ok for _, ok in chain.check(inst, None, res))
    swapped = {d: (te, tr) for d, (tr, te) in res.items()}
    assert not all(ok for _, ok in chain.check(inst, None, swapped))

    ferm = workloads.Fermion48("tiny")
    inst = ferm.setup(1, str(tmp_path))[0]
    res = ferm.solve(inst)
    energy = ferm.reference(inst)
    assert all(ok for _, ok in ferm.check(inst, energy, res))
    assert not all(ok for _, ok in ferm.check(inst, min(r.bound for r in res.values())
                                              - 1.0, res))

    sweep = workloads.Sweep8("tiny")
    inst = sweep.setup(1, str(tmp_path))[0]
    res = sweep.solve(inst)
    energies = sweep.reference(inst)
    assert all(ok for _, ok in sweep.check(inst, energies, res))
    lowered = {p: {k: -1e3 for k in e} for p, e in energies.items()}
    assert not all(ok for _, ok in sweep.check(inst, lowered, res))


def test_same_seed_same_inputs(tmp_path):
    a = workloads.Chain16("tiny").setup(5, str(tmp_path))
    b = workloads.Chain16("tiny").setup(5, str(tmp_path))
    c = workloads.Chain16("tiny").setup(6, str(tmp_path))
    gates = [[g.matrix for layer in circ.layers for g in layer.gates] for circ, _ in (a[0], b[0], c[0])]
    assert all((x == y).all() for x, y in zip(gates[0], gates[1]))
    assert not all((x == y).all() for x, y in zip(gates[0], gates[2]))


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    with tr.span("outer"):
        time.sleep(0.02)
        with tr.span("inner"):
            time.sleep(0.03)
    totals = tr.layer_totals()
    assert totals["outer"]["calls"] == 1
    assert totals["outer"]["total_s"] >= 0.05
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["total_s"] - totals["inner"]["total_s"])
    assert totals["inner"]["self_s"] == totals["inner"]["total_s"]


def test_fails_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    proc = run_bench("--workload", "chain16", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
