"""Grid expansion and batch execution of bound computations.

A grid point is one (depth, theta, p) combination; each point yields one
CSV row per requested method (and per ansatz resource for methods that use
one).  Points run concurrently with a bounded worker count taken from the
``NOISEBOUND_WORKERS`` environment variable (each worker lowers its BLAS
thread counts to its share of the cores), results are flushed to the
output file as they complete, and the final file is rewritten in a sorted,
deterministic order.  Per-point RNG streams are keyed by (master seed,
point index) so results are independent of execution order.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import circuits, exact, fermion, info_dual, trace_dual
from ._blas import limit_threads
from .config import _MPO_METHODS, ExperimentConfig
from .mpo import _DENSE_SITE_CAP, MPO
from .noise import (BoundSchedule, NoiseModel, biased_tau, depolarizing,
                    info_schedule, max_replacement_fraction, purity_schedule,
                    relative_entropy_schedule, relent_product_state,
                    unital_pauli, unital_rate)
from .report import CSV_COLUMNS, BoundReport, write_csv

WORKERS_ENV = "NOISEBOUND_WORKERS"


@dataclass(frozen=True)
class GridPoint:
    index: int
    depth: int
    theta: float
    p: float


def expand_grid(cfg: ExperimentConfig) -> list[GridPoint]:
    combos = itertools.product(cfg.depths, cfg.thetas, cfg.ps)
    return [GridPoint(i, d, th, p) for i, (d, th, p) in enumerate(combos)]


def point_seed(master_seed: int, index: int) -> int:
    """Independent per-point seed keyed by (master seed, grid index)."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _noise_model(cfg: ExperimentConfig, p: float) -> NoiseModel:
    if cfg.noise_model == "depolarizing" or p == 0.0:
        return depolarizing(p)
    if cfg.noise_model == "unital_pauli":
        w = np.asarray(cfg.pauli_rates, dtype=float)
        rates = p * w / w.sum()
        return unital_pauli(*rates)
    # nonunital: replacement toward a biased fixed point
    from .noise import replacement
    return replacement(p, biased_tau(cfg.eps))


def build_circuit(cfg: ExperimentConfig, pt: GridPoint):
    """Instantiate the circuit family at one grid point.

    Returns (circuit, target, coords) where coords is the fermion
    circuit's mode-coordinate list, ``circuit.coords`` (None for qubit
    families).  The circuit carries its coords, so run_point ignores the
    third value; bench/workloads.py unpacks it.
    """
    seed = point_seed(cfg.seed, pt.index)
    model = _noise_model(cfg, pt.p)
    if cfg.family == "single_qubit":
        circ, target = circuits.single_qubit_circuit(pt.theta, pt.p)
        return circ, target, None
    if cfg.family == "brickwall_1d":
        entangler = circuits.zz_gate if cfg.noise_model == "nonunital" else circuits.xx_gate
        circ, target = circuits.brickwall_1d(
            cfg.n, pt.depth, pt.theta, pt.p, seed, noise=model,
            entangler=entangler)
        return circ, target, None
    if cfg.family == "brickwall_2d":
        lx, ly = cfg.lattice
        circ, target = circuits.brickwall_2d_snake(
            lx, ly, pt.depth, pt.theta, pt.p, seed, noise=model)
        return circ, target, None
    if cfg.family == "clifford":
        circ, target = circuits.clifford_entangle_unentangle(
            cfg.n, pt.depth, pt.p, seed, noise=model)
        return circ, target, None
    if cfg.family == "fermion_1d":
        circ, target = fermion.fermion_brickwall_1d(cfg.n, pt.depth, pt.p, seed)
        return circ, target, circ.coords
    if cfg.family == "fermion_2d":
        lx, ly = cfg.lattice
        circ, target = fermion.fermion_brickwall_2d(lx, ly, pt.depth, pt.p, seed)
        return circ, target, circ.coords
    raise ValueError(f"unknown family {cfg.family!r}")


def _target_modes(cfg: ExperimentConfig, target) -> info_dual.TwoLevelModes | None:
    """Analytic spectrum descriptor for families that have one."""
    if cfg.family == "brickwall_1d":
        return info_dual.chain_benchmark_modes(cfg.n)
    if cfg.family == "clifford":
        return info_dual.TwoLevelModes(np.full(cfg.n, 2.0), -float(cfg.n))
    if cfg.family in ("fermion_1d", "fermion_2d"):
        return fermion.two_level_modes(target)
    return None


def _target_spectrum(cfg: ExperimentConfig, target) -> np.ndarray:
    modes = _target_modes(cfg, target)
    if modes is not None:
        return modes.spectrum()
    if isinstance(target, MPO):
        if target.n_sites > _DENSE_SITE_CAP:
            raise ValueError(
                "purity_only needs the target spectrum; not available for "
                f"this family at n = {target.n_sites}")
        return info_dual._spectrum(target, target.n_sites)
    raise ValueError("no spectrum access for this target")


def _report(cfg: ExperimentConfig, pt: GridPoint, method: str, resource: int,
            bound: float, boundary: float, penalty: float,
            wall: float) -> BoundReport:
    return BoundReport(
        method=method, n_sites=cfg.n, depth=pt.depth, resource=resource,
        p=pt.p, theta=pt.theta, seed=cfg.seed, bound=bound,
        boundary_term=boundary, penalty_sum=penalty,
        wall_time_s=wall if cfg.timings else 0.0)


def _mpo_schedule(cfg: ExperimentConfig, method: str, circuit) -> BoundSchedule:
    """The caps an MPO method charges its defects against (all ones for
    the noise-blind ``tebd_error``)."""
    n, d = circuit.n_sites, circuit.depth
    if method == "trace_dual":
        return purity_schedule(n, d, unital_rate(circuit.layers[0].noise))
    if method == "tebd_error":
        return purity_schedule(n, d, 0.0)
    tau = biased_tau(cfg.eps)
    q = max_replacement_fraction(circuit.layers[0].noise, tau)
    rho0 = relent_product_state(circuit.initial_state, tau)
    return relative_entropy_schedule(circuit, tau, q, rho0)


def run_point(cfg: ExperimentConfig, pt: GridPoint) -> list[BoundReport]:
    """Compute every requested method at one grid point.

    MPO methods at the same bond dimension share a single Heisenberg TEBD
    sweep (building the dual dominates the cost, evaluating it is cheap).
    """
    circuit, target, _ = build_circuit(cfg, pt)
    n, d = cfg.n, pt.depth
    rows: list[BoundReport] = []

    schedules = [(m, _mpo_schedule(cfg, m, circuit))
                 for m in cfg.methods if m in _MPO_METHODS]
    if schedules:
        for bond in cfg.bond_dims:
            t0 = time.perf_counter()
            dual = trace_dual.heisenberg_tebd(circuit, target, bond)
            t_build = time.perf_counter() - t0
            for method, sched in schedules:
                t1 = time.perf_counter()
                dv = trace_dual.dual_value(circuit, dual, target, sched)
                wall = t_build + (time.perf_counter() - t1)
                rows.append(_report(cfg, pt, method, bond, dv.bound, dv.boundary,
                                    float(np.sum(dv.penalties)), wall))

    if "fermion_dual" in cfg.methods:
        sched = info_schedule(n, d, pt.p)
        init = None
        for r in sorted(cfg.radii):
            t0 = time.perf_counter()
            s_list, _, dv = fermion.optimize_fermionic_dual(
                circuit, target, r, sched, init_s_list=init)
            init = s_list
            rows.append(_report(cfg, pt, "fermion_dual", r, dv.bound, dv.boundary,
                                float(np.sum(dv.penalties)),
                                time.perf_counter() - t0))

    if "info_only" in cfg.methods:
        t0 = time.perf_counter()
        modes = _target_modes(cfg, target)
        rep = info_dual.info_bound(modes if modes is not None else target,
                                   n, pt.p, d)
        rows.append(replace(
            rep, n_sites=n, depth=d, p=pt.p, theta=pt.theta, seed=cfg.seed,
            wall_time_s=(time.perf_counter() - t0) if cfg.timings else 0.0,
            extra={}))

    if "purity_only" in cfg.methods:
        t0 = time.perf_counter()
        spec = _target_spectrum(cfg, target)
        if cfg.family == "single_qubit":
            # depth-1 product circuit: the output purity is exact, not
            # just the generic schedule cap
            cap = pt.p**2 / 4.0 + (1.0 - pt.p / 2.0) ** 2
        else:
            rate = unital_rate(circuit.layers[0].noise)
            cap = purity_schedule(n, d, rate).values[-1]
        val = exact.min_energy_at_purity(spec, cap)
        rows.append(_report(cfg, pt, "purity_only", 0, val, val, 0.0,
                            time.perf_counter() - t0))

    return rows


def _sort_key(rep: BoundReport):
    return (rep.method, rep.depth, rep.p, rep.theta, rep.resource)


def worker_count(explicit: int | None = None) -> int:
    if explicit is not None:
        return max(1, explicit)
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_experiment(cfg: ExperimentConfig, workers: int | None = None
                   ) -> tuple[list[BoundReport], list[str]]:
    """Run the full grid, streaming partial results to ``cfg.output``.

    Rows are appended as each grid point completes (so an interrupted run
    keeps everything but the in-flight point) and the file is rewritten in
    sorted order at the end.  Failed points are skipped, recorded in the
    returned failure list, and mirrored to ``<output>.failures.txt``.
    """
    pts = expand_grid(cfg)
    nworkers = worker_count(workers)
    reports: list[BoundReport] = []
    failures: list[str] = []

    with open(cfg.output, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.flush()
        if nworkers == 1:
            for pt in pts:
                _collect(cfg, pt, run_point_safe(cfg, pt), reports, failures, fh)
        else:
            with _pool(nworkers) as pool:
                futures = {pool.submit(run_point_safe, cfg, pt): pt for pt in pts}
                for fut in concurrent.futures.as_completed(futures):
                    _collect(cfg, futures[fut], fut.result(), reports, failures, fh)

    reports.sort(key=_sort_key)
    write_csv(cfg.output, reports, timings=cfg.timings)
    if failures:
        with open(cfg.output + ".failures.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(failures) + "\n")
    return reports, failures


def _pool(nworkers: int) -> concurrent.futures.ProcessPoolExecutor:
    """A process pool whose workers share the cores: each worker lowers its
    BLAS thread counts to cores // workers (at least 1)."""
    share = max(1, (os.cpu_count() or 1) // nworkers)
    return concurrent.futures.ProcessPoolExecutor(
        nworkers, initializer=limit_threads, initargs=(share, share))


def run_point_safe(cfg: ExperimentConfig, pt: GridPoint):
    try:
        return run_point(cfg, pt)
    except Exception as exc:  # noqa: BLE001 - failed points must not kill the run
        return f"point {pt.index} (d={pt.depth}, theta={pt.theta}, p={pt.p}): {exc}"


def _collect(cfg, pt, result, reports, failures, fh):
    if isinstance(result, str):
        failures.append(result)
        return
    reports.extend(result)
    for rep in result:
        fh.write(",".join(rep.csv_row(timings=cfg.timings)) + "\n")
    fh.flush()
