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

One backward pass (:func:`_backward`) builds the records of every dual:
it walks -H down through the adjoint circuit, applying each layer adjoint
once, while a step function picks each sigma_t and bounds ||H_t||_F.  The
TEBD ansatz compresses to a fixed bond dimension after every layer, so its
compression errors are the defect norms; a given sequence takes explicit
norms.  The same pass records the boundary term and each Tr(H_t tau^xN),
so a TEBD dual under a purity or distance schedule needs no defect
operator.  A layer adjoint is one pass over the sites, planned by the gate
walk of :mod:`noisebound.mpo` that every gate adjoint takes: one-site noise
and gate maps fold into the factor pairs of the two-site gates.
Every MPO is a real Pauli-basis operator, Hermitian by construction, so no
step has to restore Hermiticity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import blas_threads
from .circuits import CircuitSpec, Layer, circuit_rng
from .mpo import (MPO, _product_trace, _site_coeffs, _state_coeffs, _superop_ptm,
                  adjoint_ops, apply_ops, compress, expectation_product_state,
                  frobenius_norm, identity_mpo, mpo_add, mpo_scale)
from .noise import BoundSchedule, check_density_matrix, purity_schedule, superop_matrix

# Probe-only: bench/tracer.py wraps these three names here, which the layer
# path does not call, and ``trace_dual.symmetrize``; (A + A^dag)/2 is A
# for every MPO.
from .mpo import (apply_depolarizing_adjoint, apply_gate_adjoint,  # noqa: F401
                  apply_site_superop_adjoint)

symmetrize = MPO.copy


def apply_layer_adjoint(a: MPO, layer: Layer) -> MPO:
    """Exact Heisenberg update A -> E^dag(A) for one circuit layer.

    A layer acts as rho -> N^xN(U rho U^dag), so the adjoint applies the
    noise adjoint to every site first, then the gate adjoints in reverse
    order.  Each call plans the layer with
    :func:`noisebound.mpo.adjoint_ops`, the gate walk of every gate
    adjoint, with each site's noise PTM pending, so the noise and
    single-qubit PTMs fold into the factor pairs of the next two-site gate;
    :func:`noisebound.mpo.apply_ops` runs the plan and builds one MPO.
    Only PTM factors and, in the SVD re-split, singular values below the
    relative floor ``SVAL_FLOOR`` are dropped, uncharged.
    """
    nm = layer.noise
    noise = (np.diag([1.0] + [1.0 - nm.p] * 3) if nm.kind == "depolarizing"
             else _superop_ptm(superop_matrix(nm)))
    ops = adjoint_ops([(g.matrix, g.sites) for g in layer.gates], [noise] * a.n_sites)
    return apply_ops(a, ops)


@dataclass
class TebdDual:
    """TEBD-generated dual sequence, its per-step defect norms, and the
    terms of the bound that need no defect operator, for the frozen
    ``circuit`` and ``target`` it was built from.

    ``sigmas[t-1]`` is sigma_t; ``step_defects[t-1]`` upper-bounds
    ||sigma_t - E_{t+1}^dag(sigma_{t+1})||_F (and ||H + sigma_d||_F for the
    last step, which vanishes identically because sigma_d is built as an
    exact copy of -H).  ``max_bond`` is the bond dimension the sequence
    was compressed to.  ``boundary`` records -Tr[rho_0 E_1^dag(sigma_1)]
    and ``tau_traces[t-1]`` records Tr(H_t tau^xN) for the single-site
    state ``tau``, the fixed point of the circuit's noise (see
    :func:`_noise_fixed_point`; both None when there is none).
    """

    sigmas: list[MPO]
    step_defects: np.ndarray
    max_bond: int
    boundary: float
    tau: np.ndarray | None
    tau_traces: np.ndarray | None
    circuit: CircuitSpec
    target: MPO


def _noise_fixed_point(circuit: CircuitSpec) -> np.ndarray | None:
    """The single-site fixed point tau shared by the noise of every layer:
    the replacement state, or I/2 for unital noise.  None for a general
    channel, or when layers disagree."""
    tau = None
    for layer in circuit.layers:
        nm = layer.noise
        if nm.kind == "replacement":
            t = nm.tau
        elif nm.kind in ("depolarizing", "unital_pauli"):
            t = np.eye(2, dtype=complex) / 2.0
        else:
            return None
        if tau is None:
            tau = t
        elif not np.array_equal(t, tau):
            return None
    return tau


def _backward(circuit: CircuitSpec, target: MPO, tau: np.ndarray | None, step):
    """The backward pass that builds a dual's records.

    From b = -H, for t = d .. 1, ``step(t, b)`` returns sigma_t and a bound
    on ||H_t||_F = ||sigma_t - b||_F, then b becomes E_t^dag(sigma_t); the
    last image gives the boundary -Tr[rho_0 E_1^dag(sigma_1)].  With
    ``tau`` given, it records Tr(H_t tau^xN) = Tr(sigma_t tau^xN) -
    Tr(b tau^xN).  Returns (sigmas, norms, boundary, traces or None).
    Runs with numpy's OpenBLAS pool at one thread: on 2 cores a second
    thread was up to 1.6x slower (README, "BLAS threads").
    """
    d = circuit.depth
    taus = (None if tau is None
            else [_state_coeffs(check_density_matrix(tau))] * circuit.n_sites)
    sigmas, norms, traces = [None] * d, np.zeros(d), np.zeros(d)
    b = mpo_scale(target, -1.0)
    with blas_threads(numpy=1):
        for t in range(d, 0, -1):
            sigma, norms[t - 1] = step(t, b)
            if taus is not None:
                traces[t - 1] = _product_trace(sigma, taus) - _product_trace(b, taus)
            sigmas[t - 1] = sigma
            del b  # the largest operand: free it before the next is built
            b = apply_layer_adjoint(sigma, circuit.layers[t - 1])
        boundary = -expectation_product_state(b, circuit.initial_state)
    return sigmas, norms, boundary, None if taus is None else traces


def _given(circuit: CircuitSpec, sigmas: list[MPO], defects: list | None = None):
    """:func:`_backward`'s step for a given sequence: sigma_t and the norm
    of H_t = sigma_t - b, built by exact MPO subtraction (bond dimensions
    add) and put in ``defects`` if that is a list."""
    if len(sigmas) != circuit.depth:
        raise ValueError("need one dual variable per circuit layer")

    def step(t, b):
        h = mpo_add(sigmas[t - 1], mpo_scale(b, -1.0))
        if defects is not None:
            defects.insert(0, h)
        return sigmas[t - 1], frobenius_norm(h)

    return step


def heisenberg_tebd(circuit: CircuitSpec, target: MPO, max_bond: int) -> TebdDual:
    """Back-propagate -H through the adjoint circuit at fixed bond dimension.

    sigma_d = -H exactly; sigma_t = Pi_D [E_{t+1}^dag(sigma_{t+1})] for
    t = d-1 .. 1, where Pi_D is one SVD compression to bond ``max_bond``.
    The recorded defect norms are the exact compression errors.  Gate
    adjoints are exact up to the 1e-14 relative floor ``SVAL_FLOOR``: they
    drop PTM factors below it and, in the SVD re-split at chain ends and
    for rank-4 gates, singular values below it.  Neither is charged; both
    are far below every tolerance used downstream.  The sequence is one
    :func:`_backward` pass, which also records the boundary term and each
    Tr(H_t tau^xN) against the noise's fixed point tau.
    """
    if isinstance(max_bond, bool) or not isinstance(max_bond, (int, np.integer)) \
            or max_bond < 1:
        raise ValueError(f"max_bond must be a positive int, got {max_bond!r}")
    if target.n_sites != circuit.n_sites:
        raise ValueError("target must act on the circuit's sites")
    d = circuit.depth
    if d < 1:
        raise ValueError("circuit must have at least one layer")
    tau = _noise_fixed_point(circuit)
    sigmas, defects, boundary, traces = _backward(
        circuit, target, tau, lambda t, b: (b, 0.0) if t == d else compress(b, max_bond))
    return TebdDual(sigmas, defects, int(max_bond), boundary, tau, traces,
                    circuit, target)


def boundary_term(circuit: CircuitSpec, sigma1: MPO) -> float:
    """-Tr[rho_0 E_1^dag(sigma_1)], evaluated without compression."""
    b = apply_layer_adjoint(sigma1, circuit.layers[0])
    return -expectation_product_state(b, circuit.initial_state)


def defect_mpos(circuit: CircuitSpec, sigmas: list[MPO], target: MPO) -> list[MPO]:
    """Explicit defect operators H_1 .. H_d for an arbitrary dual sequence:
    H_t = sigma_t - E_{t+1}^dag(sigma_{t+1}) and H_d = H + sigma_d."""
    hs: list[MPO] = []
    _backward(circuit, target, None, _given(circuit, sigmas, hs))
    return hs


def explicit_defect_norms(circuit: CircuitSpec, sigmas: list[MPO],
                          target: MPO) -> np.ndarray:
    """Frobenius norms of the explicit defect operators."""
    return _backward(circuit, target, None, _given(circuit, sigmas))[1]


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

    A :class:`TebdDual` built from this very ``circuit`` and ``target``
    (both frozen, so identity is content) supplies its boundary term and
    compression errors, the latter as the norms ||H_t||_F (upper
    bounds, so still certified).  It needs no layer adjoint under a purity
    schedule, nor under a distance schedule with the tau of its recorded
    traces Tr(H_t tau^xN); under another tau one :func:`_backward` pass
    records the traces.  Any other dual is one pass over its sigmas, which
    builds each H_t once.  Runs with numpy's OpenBLAS pool at one thread.
    """
    kind, caps, n = schedule.kind, schedule.values, circuit.n_sites
    if kind not in ("purity", "frobenius_distance", "info"):
        raise ValueError(f"unknown schedule kind {kind!r}")
    if caps.size != circuit.depth:
        raise ValueError("schedule length must equal circuit depth")
    if kind == "info" and n > 10:
        raise ValueError("the info dual uses dense free energies, capped at n=10")
    recorded = isinstance(dual, TebdDual) and dual.circuit is circuit and dual.target is target
    sigmas = dual.sigmas if isinstance(dual, TebdDual) else dual
    tau = schedule.tau if kind == "frobenius_distance" else None
    hs: list[MPO] | None = [] if kind == "info" else None
    with blas_threads(numpy=1):
        if recorded and (kind == "purity" or (
                tau is not None and np.array_equal(dual.tau, tau))):
            boundary, norms, traces = dual.boundary, dual.step_defects, dual.tau_traces
        else:
            # a recorded dual under another tau keeps its norms
            step = ((lambda t, b: (sigmas[t - 1], dual.step_defects[t - 1]))
                    if recorded and hs is None else _given(circuit, sigmas, hs))
            _, norms, boundary, traces = _backward(circuit, target, tau, step)
        if kind == "info":
            # function-local: info_dual imports this module
            from .info_dual import LN2, _spectrum, free_energy_term
            penalties = -np.array([
                free_energy_term(_spectrum(h, n), LN2 * (n - float(cap)),
                                 None if lambdas is None else lambdas[t])[0]
                for t, (h, cap) in enumerate(zip(hs, caps))])
        else:
            penalties = np.sqrt(caps) * norms if kind == "purity" else caps * norms - traces
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
    evaluation; the returned dual's records (explicit defect norms,
    boundary term and fixed-point traces) come from one :func:`_backward`
    pass over the refined sequence, since the TEBD bookkeeping no longer
    applies to a perturbed sequence.
    """
    rng = circuit_rng(seed)
    n, d = circuit.n_sites, circuit.depth

    def evaluate(sigmas: list[MPO]) -> float:
        return dual_value(circuit, sigmas, target, schedule).bound

    sigmas = list(dual.sigmas)
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
    tau = _noise_fixed_point(circuit)
    sigmas, norms, boundary, traces = _backward(circuit, target, tau,
                                                _given(circuit, sigmas))
    return TebdDual(sigmas, norms, dual.max_bond, boundary, tau, traces,
                    circuit, target), history
