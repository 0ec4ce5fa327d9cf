"""Grid expansion and batch execution of bound computations.

A grid point is one (depth, theta, p) combination; each point yields one
CSV row per requested method (and per ansatz resource for methods that use
one).  With the oracle on, each point also computes its exact output
energy from the circuit and target its bounds used (dense for qubit
families, covariance for fermion ones) and stores it in every row it
returns.  Points run in-process with one worker, else in a process pool of
min(workers, grid points) workers, the count taken from ``--workers`` or
the ``NOISEBOUND_WORKERS`` environment variable (each worker lowers its
BLAS thread counts to its share of the cores).  Rows are streamed to the
output file as points complete and rewritten in a sorted, deterministic
order at the end, both through ``csv.writer``.  A point whose pool worker
dies is run again alone in a fresh one-worker pool, so only a point that
kills its own worker fails.
Per-point RNG streams are keyed by (master seed, point index) so results
are independent of execution order.  Circuits and target spectra come from
the family table ``config.FAMILIES``.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import itertools
import os
import time
from dataclasses import dataclass

import numpy as np

from . import exact, fermion, info_dual, trace_dual
from ._blas import limit_threads
from .config import _MPO_METHODS, FAMILIES, ExperimentConfig
from .mpo import MPO
from .noise import (BoundSchedule, NoiseModel, biased_tau, depolarizing,
                    info_schedule, max_replacement_fraction, purity_schedule,
                    relative_entropy_schedule, relent_product_state,
                    replacement, unital_pauli, unital_rate)
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
    return replacement(p, biased_tau(cfg.eps))


def build_circuit(cfg: ExperimentConfig, pt: GridPoint):
    """The family's (circuit, target, coords) at one grid point; coords are
    a fermion circuit's mode coordinates (None for qubit families), which
    run_point ignores and bench/workloads.py unpacks."""
    circ, target = FAMILIES[cfg.family].build(
        cfg, pt, point_seed(cfg.seed, pt.index), _noise_model(cfg, pt.p))
    return circ, target, getattr(circ, "coords", None)


def _target_spectrum(cfg: ExperimentConfig, target):
    """The family's closed-form target spectrum, else the target itself,
    which the spectrum methods diagonalize (the config caps it at n <= 12)."""
    modes = FAMILIES[cfg.family].modes
    return target if modes is None else modes(cfg, target)


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
    """Compute every requested method at one grid point, and with the
    oracle on, store the point's exact output energy in each row.

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
        val = info_dual.info_bound(_target_spectrum(cfg, target), n, pt.p, d).bound
        rows.append(_report(cfg, pt, "info_only", 0, val, val, 0.0,
                            time.perf_counter() - t0))

    if "purity_only" in cfg.methods:
        t0 = time.perf_counter()
        spec = info_dual._spectrum(_target_spectrum(cfg, target), n)
        if isinstance(spec, info_dual.TwoLevelModes):
            spec = spec.spectrum()
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

    if cfg.oracle:
        if isinstance(target, MPO):
            energy = exact.dense_simulate(circuit, hamiltonian=target).energy
        else:
            _, energy = fermion.simulate_covariance(circuit, target)
        for rep in rows:
            rep.exact_energy = energy
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
    keeps everything but the in-flight points) and the file is rewritten in
    sorted order at the end.  Failed points are skipped, recorded in the
    returned failure list, and mirrored to ``<output>.failures.txt``, which
    a run without failures removes.
    """
    reports: list[BoundReport] = []
    failures: list[str] = []
    with open(cfg.output, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(CSV_COLUMNS)
        fh.flush()
        for result in _results(cfg, expand_grid(cfg), worker_count(workers)):
            if isinstance(result, str):
                failures.append(result)
                continue
            reports.extend(result)
            out.writerows(rep.csv_row(timings=cfg.timings) for rep in result)
            fh.flush()

    reports.sort(key=_sort_key)
    write_csv(cfg.output, reports, timings=cfg.timings)
    failures_path = cfg.output + ".failures.txt"
    if failures:
        with open(failures_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(failures) + "\n")
    else:
        with contextlib.suppress(FileNotFoundError):
            os.remove(failures_path)
    return reports, failures


def _results(cfg: ExperimentConfig, pts: list[GridPoint], nworkers: int):
    """Yield each point's rows, or its failure message, as the point
    completes: in this process for one worker, else from a pool of at most
    one worker per point, running each point whose pool broke again alone."""
    nworkers = min(nworkers, len(pts))
    if nworkers <= 1:
        for pt in pts:
            yield run_point_safe(cfg, pt)
        return
    orphans = []
    with _pool(nworkers) as pool:
        futures = {pool.submit(run_point_safe, cfg, pt): pt for pt in pts}
        for fut in concurrent.futures.as_completed(futures):
            try:
                yield fut.result()
            except concurrent.futures.BrokenExecutor:
                orphans.append(futures[fut])
    for pt in orphans:
        yield _run_alone(cfg, pt)


def _pool(nworkers: int) -> concurrent.futures.ProcessPoolExecutor:
    """A process pool whose workers share the cores: each worker lowers its
    BLAS thread counts to cores // workers (at least 1)."""
    share = max(1, (os.cpu_count() or 1) // nworkers)
    return concurrent.futures.ProcessPoolExecutor(
        nworkers, initializer=limit_threads, initargs=(share, share))


def _run_alone(cfg: ExperimentConfig, pt: GridPoint):
    """Run a point whose pool broke again in a one-worker pool of its own, so
    that only a point that kills its own worker fails.  BrokenExecutor is the
    base of BrokenProcessPool that loads without importing multiprocessing."""
    with _pool(1) as pool:
        try:
            return pool.submit(run_point_safe, cfg, pt).result()
        except concurrent.futures.BrokenExecutor:
            return _failure(pt, "worker died")


def _failure(pt: GridPoint, reason) -> str:
    return f"point {pt.index} (d={pt.depth}, theta={pt.theta}, p={pt.p}): {reason}"


def run_point_safe(cfg: ExperimentConfig, pt: GridPoint):
    try:
        return run_point(cfg, pt)
    except Exception as exc:  # noqa: BLE001 - failed points must not kill the run
        return _failure(pt, exc)

