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
The same pass records the boundary term and each Tr(H_t tau^xN) against the
noise's fixed point tau, so each layer adjoint is applied once per dual,
and evaluating a TEBD dual under a purity or distance schedule builds no
defect operator.  A layer adjoint is one pass over the sites: one-site
noise and gate maps fold into the factor pairs of the two-site gates.
Every MPO is a real Pauli-basis operator, Hermitian by construction, so no
step has to restore Hermiticity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import blas_threads
from .circuits import CircuitSpec, Layer, circuit_rng
from .mpo import (MPO, SWAP, _gate_key, _pair_update, _product_trace, _ptm,
                  _ptm_factors, _site_coeffs, _state_coeffs, _superop_ptm,
                  compress, expectation_product_state, frobenius_norm,
                  identity_mpo, mpo_add, mpo_scale)
from .noise import BoundSchedule, check_density_matrix, purity_schedule, superop_matrix

# Probe-only: bench/tracer.py wraps these three names here, which the layer
# path does not call, and ``trace_dual.symmetrize``; (A + A^dag)/2 is A
# for every MPO.
from .mpo import (apply_depolarizing_adjoint, apply_gate_adjoint,  # noqa: F401
                  apply_site_superop_adjoint)

symmetrize = MPO.copy

_SWAP_KEY = _gate_key(SWAP, 4)


def apply_layer_adjoint(a: MPO, layer: Layer) -> MPO:
    """Exact Heisenberg update A -> E^dag(A) for one circuit layer.

    A layer acts as rho -> N^xN(U rho U^dag), so the adjoint applies the
    noise adjoint to every site first, then the gate adjoints in reverse
    order, each as a real Pauli transfer matrix (PTM).  The layer is
    compiled once (see :func:`_compile_layer`) into one op per two-site
    gate, with the noise and single-qubit PTMs before it folded into its
    factor pairs, plus one 4x4 product per site where one-site maps are
    left over.  The ops update a list of site tensors, and one MPO is
    built at the end.  A two-site gate of operator-Schmidt rank r
    multiplies its bond by r^2 (r <= 2 for XX, ZZ, CZ, CNOT), capped at
    4 min(D_left, D_right) by an SVD re-split; non-adjacent gates run
    through swap chains.  Only PTM factors and, in the SVD re-split,
    singular values below the relative floor ``SVAL_FLOOR`` are dropped,
    uncharged.
    """
    tensors = list(a.tensors)
    for op in _layer_plan(layer, a.n_sites):
        if len(op) == 2:
            site, r = op
            tensors[site] = r @ tensors[site]
        else:
            i = op[0]
            tensors[i], tensors[i + 1] = _pair_update(tensors[i], tensors[i + 1],
                                                      *op[1:])
    return MPO(tensors)


def _layer_plan(layer: Layer, n: int) -> list[tuple]:
    """The compiled adjoint of ``layer`` on ``n`` sites, cached on the layer
    and compiled again whenever its gates, noise or ``n`` differ from those
    the cached plan was compiled from."""
    nm = layer.noise
    key = (n, nm.kind, nm.p, nm.pauli_rates, nm.q,
           *(None if x is None else x.tobytes() for x in (nm.u, nm.v, nm.tau, nm.choi)),
           *((g.sites, g.matrix.tobytes()) for g in layer.gates))
    cached = layer._adjoint_plan
    if cached is None or cached[0] != key:
        cached = layer._adjoint_plan = (key, _compile_layer(layer, n))
    return cached[1]


def _compile_layer(layer: Layer, n: int) -> list[tuple]:
    """The ops of :func:`apply_layer_adjoint`, in order: ``(site, P)``
    applies the 4x4 PTM P to one site, and ``(i, fa, fb, R, P_i, P_j)``
    applies R (P_i (x) P_j) to sites (i, i+1), where R = sum_k fa[k] (x)
    fb[k] and P_i, P_j are one-site PTMs (None for the identity), through
    :func:`noisebound.mpo._pair_update`.

    Each site starts with its noise PTM pending.  Walking the gates in
    reverse, a single-qubit gate multiplies its site's pending PTM, and an
    adjacent two-site gate takes the pending PTMs of its sites along as
    P_i, P_j.  A non-adjacent gate first flushes the pending PTMs of every
    site its swap chain crosses.  What is pending at the end becomes one
    op per site.
    """
    for g in layer.gates:
        for s in g.sites:
            if not 0 <= s < n:
                raise ValueError(f"site {s} out of range for n={n}")
    nm = layer.noise
    if nm.kind == "depolarizing":
        noise = np.diag([1.0] + [1.0 - nm.p] * 3)
    else:
        noise = _superop_ptm(superop_matrix(nm))
    pending: list[np.ndarray | None] = [noise] * n
    ops: list[tuple] = []

    def flush(site: int) -> None:
        if pending[site] is not None:
            ops.append((site, pending[site]))
            pending[site] = None

    for g in reversed(layer.gates):
        if len(g.sites) == 1:
            (s,) = g.sites
            r = _ptm(_gate_key(g.matrix, 2))
            pending[s] = r if pending[s] is None else r @ pending[s]
            continue
        i, j = g.sites
        gate = g.matrix
        if i > j:
            # reorder the gate to match (min, max) site order
            gate = gate.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
            i, j = j, i
        key = _gate_key(gate, 4)
        fa, fb = _ptm_factors(key)
        r = _ptm(key)
        if j == i + 1:
            ops.append((i, fa, fb, r, pending[i], pending[j]))
            pending[i] = pending[j] = None
            continue
        for s in range(i, j + 1):
            flush(s)
        swap = (*_ptm_factors(_SWAP_KEY), _ptm(_SWAP_KEY), None, None)
        ops.extend((k, *swap) for k in range(j - 1, i, -1))
        ops.append((i, fa, fb, r, None, None))
        ops.extend((k, *swap) for k in range(i + 1, j))
    for s in range(n):
        flush(s)
    return ops


@dataclass
class TebdDual:
    """TEBD-generated dual sequence, its per-step defect norms, and the
    terms of the bound that need no defect operator.

    ``sigmas[t-1]`` is sigma_t; ``step_defects[t-1]`` upper-bounds
    ||sigma_t - E_{t+1}^dag(sigma_{t+1})||_F (and ||H + sigma_d||_F for the
    last step, which vanishes identically because sigma_d is built as an
    exact copy of -H).  ``max_bond`` is the bond dimension the sequence
    was compressed to.  ``boundary`` records -Tr[rho_0 E_1^dag(sigma_1)]
    and ``tau_traces[t-1]`` records Tr(H_t tau^xN) for the single-site
    state ``tau``, the fixed point of the circuit's noise (see
    :func:`_noise_fixed_point`; both None when there is none);
    :func:`dual_value` reads them instead of building defects.
    """

    sigmas: list[MPO]
    step_defects: np.ndarray
    max_bond: int
    boundary: float
    tau: np.ndarray | None
    tau_traces: np.ndarray | None


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


def heisenberg_tebd(circuit: CircuitSpec, target: MPO, max_bond: int) -> TebdDual:
    """Back-propagate -H through the adjoint circuit at fixed bond dimension.

    sigma_d = -H exactly; sigma_t = Pi_D [E_{t+1}^dag(sigma_{t+1})] for
    t = d-1 .. 1, where Pi_D is one SVD compression to bond ``max_bond``.
    The recorded defect norms are the exact compression errors.  Gate
    adjoints are exact up to the 1e-14 relative floor ``SVAL_FLOOR``: they
    drop PTM factors below it and, in the SVD re-split at chain ends and
    for rank-4 gates, singular values below it.  Neither is charged; both
    are far below every tolerance used downstream.

    Each layer adjoint is applied once: the result also records the
    boundary term and, against the noise's fixed point tau, each
    Tr(H_t tau^xN) = Tr(sigma_t tau^xN) - Tr(b_t tau^xN), b_t the
    uncompressed image whose compression is sigma_t.

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
    tau = _noise_fixed_point(circuit)
    taus = (None if tau is None
            else [_state_coeffs(check_density_matrix(tau))] * circuit.n_sites)
    sigmas: list[MPO | None] = [None] * d
    defects = np.zeros(d)
    traces = np.zeros(d)
    sigmas[d - 1] = mpo_scale(target, -1.0)
    with blas_threads(numpy=1):
        if taus is not None:
            traces[d - 1] = _product_trace(mpo_add(target, sigmas[d - 1]), taus)
        for t in range(d - 1, 0, -1):
            b = apply_layer_adjoint(sigmas[t], circuit.layers[t])
            sigmas[t - 1], defects[t - 1] = compress(b, max_bond)
            if taus is not None:
                traces[t - 1] = (_product_trace(sigmas[t - 1], taus)
                                 - _product_trace(b, taus))
            # the uncompressed image is the largest operand: drop it before
            # the next layer (or the boundary term) builds another
            del b
        boundary = boundary_term(circuit, sigmas[0])
    return TebdDual(sigmas, defects, int(max_bond), boundary, tau,
                    None if tau is None else traces)


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
    recorded boundary term and compression errors, the latter as the norms
    ||H_t||_F (upper bounds, so still certified).  It needs no defect at
    all under a purity schedule, nor under a distance schedule whose tau
    equals the one its traces Tr(H_t tau^xN) were recorded against.
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
    # a TebdDual's recorded fixed-point traces serve a distance schedule
    # with the same tau; the purity kind needs no trace at all
    traced = (recorded and kind == "frobenius_distance" and dual.tau is not None
              and np.array_equal(dual.tau, schedule.tau))
    with blas_threads(numpy=1):
        hs = (None if recorded and (kind == "purity" or traced)
              else defect_mpos(circuit, sigmas, target))
        boundary = dual.boundary if recorded else boundary_term(circuit, sigmas[0])
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
            elif traced:
                penalties = caps * norms - dual.tau_traces
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
    evaluation; the returned dual's defect norms, boundary term and
    fixed-point traces are recomputed explicitly, since the TEBD
    bookkeeping no longer applies to a perturbed sequence.
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
    hs = defect_mpos(circuit, sigmas, target)
    tau = _noise_fixed_point(circuit)
    traces = (None if tau is None else np.array(
        [expectation_product_state(h, [tau] * n) for h in hs]))
    out = TebdDual([s.copy() for s in sigmas],
                   np.array([frobenius_norm(h) for h in hs]), dual.max_bond,
                   boundary_term(circuit, sigmas[0]), tau, traces)
    return out, history
