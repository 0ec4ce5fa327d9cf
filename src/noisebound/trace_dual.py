"""Heisenberg-picture dual ansatzes in MPO form and the lower bounds they
certify on the output energy of a noisy circuit.

The central object is a sequence of Hermitian operators sigma_1 .. sigma_d
(one per circuit layer, stored as MPOs).  Weak duality turns any such
sequence into a certified lower bound on Tr(H rho_d):

    h(sigma) = -Tr[rho_0 E_1^dag(sigma_1)] - sum_t penalty_t(H_t)

with defect operators H_d = H + sigma_d, H_t = sigma_t - E_{t+1}^dag(sigma_{t+1});
the noise cap after step t only decides the penalty (:func:`dual_value`).
Bigger defects or looser caps only make the bound weaker, never unsound,
which is what lets the whole computation run at modest bond dimension.

The TEBD ansatz back-propagates -H through the adjoint circuit, compressing
to a fixed bond dimension once after every layer; the compression errors
are exactly the defect norms, so no separate defect evaluation is needed.
Every MPO is a real Pauli-basis operator, Hermitian by construction, so no
step has to restore Hermiticity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import blas_threads
from .circuits import CircuitSpec, Layer, circuit_rng
from .mpo import (MPO, _site_coeffs, apply_depolarizing_adjoint,
                  apply_gate_adjoint, apply_gate_adjoint_longrange,
                  apply_site_superop_adjoint, compress,
                  expectation_product_state, frobenius_norm, identity_mpo,
                  mpo_add, mpo_scale)
from .noise import BoundSchedule, purity_schedule, superop_matrix

# (A + A^dag)/2 is A for every MPO; the name is kept only because the
# benchmark tracer (bench/tracer.py) probes ``trace_dual.symmetrize``.
symmetrize = MPO.copy


def apply_layer_adjoint(a: MPO, layer: Layer) -> MPO:
    """Exact Heisenberg update A -> E^dag(A) for one circuit layer.

    A layer acts as rho -> N^xN(U rho U^dag), so the adjoint applies the
    noise adjoint to every site first, then the gate adjoints in reverse
    order, each as a real Pauli transfer matrix.  A two-site gate of
    operator-Schmidt rank r multiplies its bond by r^2 (r <= 2 for XX, ZZ,
    CZ, CNOT), capped at 4 min(D_left, D_right) by an SVD re-split;
    non-adjacent gates run through swap chains.  Only PTM factors and, in
    the SVD re-split, singular values below the relative floor
    ``SVAL_FLOOR`` are dropped, uncharged.
    """
    n = a.n_sites
    if layer.noise.kind == "depolarizing":
        for site in range(n):
            a = apply_depolarizing_adjoint(a, layer.noise.p, site)
    else:
        k = superop_matrix(layer.noise)
        for site in range(n):
            a = apply_site_superop_adjoint(a, k, site)
    for g in reversed(layer.gates):
        if len(g.sites) == 2 and (g.sites[1] != g.sites[0] + 1):
            a = apply_gate_adjoint_longrange(a, g.matrix, g.sites)
        else:
            a = apply_gate_adjoint(a, g.matrix, g.sites)
    return a


@dataclass
class TebdDual:
    """TEBD-generated dual sequence plus its per-step defect norms.

    ``sigmas[t-1]`` is sigma_t; ``step_defects[t-1]`` upper-bounds
    ||sigma_t - E_{t+1}^dag(sigma_{t+1})||_F (and ||H + sigma_d||_F for the
    last step, which vanishes identically because sigma_d is built as an
    exact copy of -H).  ``max_bond`` is the bond dimension the sequence
    was compressed to.
    """

    sigmas: list[MPO]
    step_defects: np.ndarray
    max_bond: int


def heisenberg_tebd(circuit: CircuitSpec, target: MPO, max_bond: int) -> TebdDual:
    """Back-propagate -H through the adjoint circuit at fixed bond dimension.

    sigma_d = -H exactly; sigma_t = Pi_D [E_{t+1}^dag(sigma_{t+1})] for
    t = d-1 .. 1, where Pi_D is one SVD compression to bond ``max_bond``.
    The recorded defect norms are the exact compression errors.  Gate
    adjoints are exact up to the 1e-14 relative floor ``SVAL_FLOOR``: they
    drop PTM factors below it and, in the SVD re-split at chain ends and
    for rank-4 gates, singular values below it.  Neither is charged; both
    are far below every tolerance used downstream.

    Runs with numpy's OpenBLAS pool lowered to one thread (restored on
    exit): on a 2-core machine a second thread was up to 1.6x slower at
    D = 16 .. 64 on a 16-site chain and no faster at D = 128 (README,
    "BLAS threads").
    """
    if target.n_sites != circuit.n_sites:
        raise ValueError("target must act on the circuit's sites")
    d = circuit.depth
    if d < 1:
        raise ValueError("circuit must have at least one layer")
    sigmas: list[MPO | None] = [None] * d
    defects = np.zeros(d)
    sigmas[d - 1] = mpo_scale(target, -1.0)
    with blas_threads(numpy=1):
        for t in range(d - 1, 0, -1):
            b = apply_layer_adjoint(sigmas[t], circuit.layers[t])
            sigmas[t - 1], defects[t - 1] = compress(b, max_bond)
    return TebdDual(sigmas, defects, int(max_bond))


def boundary_term(circuit: CircuitSpec, sigma1: MPO) -> float:
    """-Tr[rho_0 E_1^dag(sigma_1)], evaluated without compression."""
    b = apply_layer_adjoint(sigma1, circuit.layers[0])
    return -expectation_product_state(b, circuit.initial_state)


def defect_mpos(circuit: CircuitSpec, sigmas: list[MPO], target: MPO) -> list[MPO]:
    """Explicit defect operators H_1 .. H_d for an arbitrary dual sequence.

    H_t = sigma_t - E_{t+1}^dag(sigma_{t+1}) and H_d = H + sigma_d, built
    by exact MPO subtraction (bond dimensions add).
    """
    d = circuit.depth
    if len(sigmas) != d:
        raise ValueError("need one dual variable per circuit layer")
    out = []
    for t in range(1, d):
        b = apply_layer_adjoint(sigmas[t], circuit.layers[t])
        out.append(mpo_add(sigmas[t - 1], mpo_scale(b, -1.0)))
    out.append(mpo_add(target, sigmas[d - 1]))
    return out


def explicit_defect_norms(circuit: CircuitSpec, sigmas: list[MPO],
                          target: MPO) -> np.ndarray:
    """Frobenius norms of the explicit defect operators."""
    return np.array([frobenius_norm(h) for h in defect_mpos(circuit, sigmas, target)])


@dataclass
class DualValue:
    """A certified lower bound split as ``bound = boundary - penalties``."""

    bound: float
    boundary: float
    penalties: np.ndarray


def dual_value(circuit: CircuitSpec, dual: "TebdDual | list[MPO]",
               target: MPO, schedule: BoundSchedule,
               lambdas: list[float] | None = None) -> DualValue:
    """Certified bound -Tr[rho_0 E_1^dag(sigma_1)] - sum_t penalty_t, the
    penalty on each defect H_t chosen by the schedule's kind:

    - ``purity`` caps P_t: sqrt(P_t) ||H_t||_F;
    - ``frobenius_distance`` caps d_t: d_t ||H_t||_F - Tr(H_t tau^xN);
    - ``info`` caps I_t (bits, n <= 10): -max_lambda [lambda ln2 (N - I_t)
      - lambda ln Tr exp(-H_t / lambda)], or its value at ``lambdas[t]``.

    Defects are built at most once.  A :class:`TebdDual` supplies its
    recorded compression errors as the norms ||H_t||_F (upper bounds, so
    still certified), and under a purity schedule needs no defect at all.
    Runs with numpy's OpenBLAS pool at one thread, as
    :func:`heisenberg_tebd` does.
    """
    kind, caps, n = schedule.kind, schedule.values, circuit.n_sites
    if kind not in ("purity", "frobenius_distance", "info"):
        raise ValueError(f"unknown schedule kind {kind!r}")
    if caps.size != circuit.depth:
        raise ValueError("schedule length must equal circuit depth")
    if kind == "info" and n > 10:
        raise ValueError("the info dual uses dense free energies, capped at n=10")
    recorded = isinstance(dual, TebdDual)
    sigmas = dual.sigmas if recorded else dual
    with blas_threads(numpy=1):
        hs = None if recorded and kind == "purity" else defect_mpos(circuit, sigmas, target)
        boundary = boundary_term(circuit, sigmas[0])
        if kind == "info":
            # function-local: info_dual imports this module
            from .info_dual import LN2, _spectrum, free_energy_term
            penalties = -np.array([
                free_energy_term(_spectrum(h, n), LN2 * (n - float(cap)),
                                 None if lambdas is None else lambdas[t])[0]
                for t, (h, cap) in enumerate(zip(hs, caps))])
        else:
            norms = (dual.step_defects if recorded
                     else np.array([frobenius_norm(h) for h in hs]))
            if kind == "purity":
                penalties = np.sqrt(caps) * norms
            else:
                taus = [schedule.tau] * n
                penalties = caps * norms - np.array(
                    [expectation_product_state(h, taus) for h in hs])
    return DualValue(boundary - float(np.sum(penalties)), boundary, penalties)


# bench/tracer.py probes these names and bench/workloads.py calls the
# first; both are dual_value.
dual_value_trace = dual_value
dual_value_nonunital = dual_value


def tebd_error_bound(circuit: CircuitSpec, dual: "TebdDual | list[MPO]",
                     target: MPO) -> DualValue:
    """Naive truncation-error bound: the purity dual with every cap 1, what
    plain Heisenberg TEBD error accounting gives without noise information.
    The purity dual dominates it term by term."""
    return dual_value(circuit, dual, target,
                      purity_schedule(circuit.n_sites, circuit.depth, 0.0))


def architecture_free_bound_nonunital(target_tau_energy: float,
                                      target_norm: float,
                                      schedule: BoundSchedule) -> float:
    """Circuit-independent comparison bound for non-unital noise:

        Tr(H tau^xN) - ||H|| sqrt(D_d / 2)

    where D_d is the final-step relative-entropy cap (in bits) implied by
    the distance schedule (d_d = (2 D_d)^(1/4)).  This ignores everything
    about the circuit except the noise, and is the curve the duality
    bounds should beat.
    """
    if schedule.kind != "frobenius_distance":
        raise ValueError(
            f"expected a frobenius_distance schedule, got {schedule.kind!r}")
    d_final = float(schedule.values[-1])
    return target_tau_energy - target_norm * d_final**2 / 2.0


# ---------------------------------------------------------------------------
# local refinement of a dual sequence


def _hermitian_direction(n: int, site: int, rng: np.random.Generator) -> MPO:
    """Bond-1 Hermitian MPO supported on one site (identity elsewhere)."""
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = 0.5 * (g + g.conj().T)
    h /= max(np.linalg.norm(h), 1e-12)
    tensors = list(identity_mpo(n).tensors)
    tensors[site] = _site_coeffs(h).reshape(1, 4, 1)
    return MPO(tensors)


# refine_dual's central-difference step and first line-search step
_FD_STEP = 1e-4
_INIT_STEP = 0.05


def refine_dual(circuit: CircuitSpec, dual: TebdDual, target: MPO,
                schedule: BoundSchedule, *, rounds: int = 20,
                seed: int = 0) -> tuple[TebdDual, list[float]]:
    """Greedy local improvement of a TEBD dual sequence.

    Each round picks a random (layer, site) pair and a random Hermitian
    single-site direction, estimates the directional derivative of the
    dual value under ``schedule`` by central finite differences (step
    ``_FD_STEP``), and line-searches along the ascent direction with
    halving steps from ``_INIT_STEP``.  A candidate replaces
    the current sequence only if its (explicitly re-evaluated) dual value
    strictly improves, so the returned value history is non-decreasing.

    Candidates are compressed back to the original bond dimension before
    evaluation; the stored defect norms are recomputed explicitly since the
    TEBD error bookkeeping no longer applies to a perturbed sequence.
    """
    rng = circuit_rng(seed)
    n, d = circuit.n_sites, circuit.depth

    def evaluate(sigmas: list[MPO]) -> float:
        return dual_value(circuit, sigmas, target, schedule).bound

    sigmas = [s.copy() for s in dual.sigmas]
    best = evaluate(sigmas)
    history = [best]
    for _ in range(rounds):
        t = int(rng.integers(d))
        site = int(rng.integers(n))
        direction = _hermitian_direction(n, site, rng)

        def shifted(eps: float) -> list[MPO]:
            cand = list(sigmas)
            moved = mpo_add(sigmas[t], mpo_scale(direction, eps))
            moved, _ = compress(moved, dual.max_bond)
            cand[t] = moved
            return cand

        g = (evaluate(shifted(_FD_STEP)) - evaluate(shifted(-_FD_STEP))) / (2 * _FD_STEP)
        if abs(g) < 1e-12:
            history.append(best)
            continue
        step = _INIT_STEP * np.sign(g)
        for _ in range(6):
            cand = shifted(step)
            val = evaluate(cand)
            if val > best:
                sigmas, best = cand, val
                break
            step *= 0.5
        history.append(best)
    out = TebdDual([s.copy() for s in sigmas],
                   explicit_defect_norms(circuit, sigmas, target),
                   dual.max_bond)
    return out, history
