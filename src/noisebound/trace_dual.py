"""Heisenberg-picture dual ansatzes in MPO form and the lower bounds they
certify on the output energy of a noisy circuit.

The central object is a sequence of Hermitian operators sigma_1 .. sigma_d
(one per circuit layer, stored as MPOs).  Weak duality turns any such
sequence into a certified lower bound on Tr(H rho_d):

    h(sigma) = -Tr[rho_0 E_1^dag(sigma_1)] - sum_t sqrt(P_t Tr(H_t^2))

with defect operators H_d = H + sigma_d, H_t = sigma_t - E_{t+1}^dag(sigma_{t+1})
and P_t the certified purity cap after step t.  Bigger defects or looser
purity caps only make the bound weaker, never unsound, which is what lets
the whole computation run at modest bond dimension.

The TEBD ansatz back-propagates -H through the adjoint circuit, compressing
to a fixed bond dimension after every layer; the compression errors are
exactly the defect norms, so no separate defect evaluation is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import CircuitSpec, Layer
from .mpo import (MPO, apply_depolarizing_adjoint, apply_gate_adjoint,
                  apply_gate_adjoint_longrange, apply_site_superop_adjoint,
                  compress, conj_transpose, expectation_product_state,
                  frobenius_norm, mpo_add, mpo_scale, symmetrize)
from .noise import BoundSchedule, superop_matrix


def apply_layer_adjoint(a: MPO, layer: Layer) -> MPO:
    """Exact Heisenberg update A -> E^dag(A) for one circuit layer.

    A layer acts as rho -> N^xN(U rho U^dag), so the adjoint applies the
    noise adjoint to every site first, then the gate adjoints in reverse
    order.  A two-site gate of operator-Schmidt rank r multiplies its bond
    by r^2 (r <= 2 for XX, ZZ, CZ, CNOT), capped at 4 min(D_left, D_right)
    by an SVD re-split; non-adjacent gates run through swap chains.  Only
    gate factors and, in the SVD re-split, singular values below the
    relative floor ``SVAL_FLOOR`` are dropped, uncharged.
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
    exact copy of -H).
    """

    sigmas: list[MPO]
    step_defects: np.ndarray
    meta: dict = field(default_factory=dict)


def _recompress_hermitian(a: MPO, max_bond: int) -> tuple[MPO, float]:
    """Compress, restore Hermiticity by averaging with the adjoint, and
    compress once more.  Returns the result and the total defect incurred.

    Averaging with the adjoint is a Frobenius projection, so it cannot move
    the result further from the (Hermitian) exact operator; the second
    compression is near-lossless because the kept singular subspaces are
    already adjoint-closed up to roundoff.
    """
    b, e1 = compress(a, max_bond)
    b = symmetrize(b)
    b, e2 = compress(b, max_bond)
    b.hermitian = True
    return b, e1 + e2


def heisenberg_tebd(circuit: CircuitSpec, target: MPO, max_bond: int) -> TebdDual:
    """Back-propagate -H through the adjoint circuit at fixed bond dimension.

    sigma_d = -H exactly; sigma_t = Pi_D [E_{t+1}^dag(sigma_{t+1})] for
    t = d-1 .. 1, where Pi_D is SVD compression to bond ``max_bond``
    followed by Hermitian symmetrization.  The recorded defect norms are
    the exact compression errors (symmetrization cannot increase them).
    Gate adjoints are exact up to the 1e-14 relative floor ``SVAL_FLOOR``:
    they drop gate factors below it and, in the SVD re-split at chain ends
    and for rank-4 gates, singular values below it.  Neither is charged;
    both are far below every tolerance used downstream.
    """
    if target.n_sites != circuit.n_sites:
        raise ValueError("target must act on the circuit's sites")
    if not target.hermitian:
        raise ValueError("target must be flagged Hermitian")
    d = circuit.depth
    if d < 1:
        raise ValueError("circuit must have at least one layer")
    sigmas: list[MPO | None] = [None] * d
    defects = np.zeros(d)
    sigmas[d - 1] = mpo_scale(target, -1.0)
    for t in range(d - 1, 0, -1):
        b = apply_layer_adjoint(sigmas[t], circuit.layers[t])
        sigmas[t - 1], defects[t - 1] = _recompress_hermitian(b, max_bond)
    return TebdDual(sigmas, defects, meta={"max_bond": int(max_bond)})


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


def _defect_norms(circuit: CircuitSpec, dual: "TebdDual | list[MPO]",
                  target: MPO) -> tuple[list[MPO], np.ndarray]:
    if isinstance(dual, TebdDual):
        return dual.sigmas, dual.step_defects
    return dual, explicit_defect_norms(circuit, dual, target)


@dataclass
class DualValue:
    """A certified lower bound split as ``bound = boundary - penalties``."""

    bound: float
    boundary: float
    penalties: np.ndarray


def dual_value_trace(circuit: CircuitSpec, dual: "TebdDual | list[MPO]",
                     target: MPO, schedule: BoundSchedule) -> DualValue:
    """Trace-purity dual bound for a purity schedule P_1 .. P_d.

    penalty_t = sqrt(P_t) * ||H_t||_F; passing a :class:`TebdDual` reuses
    the recorded compression errors as the defect norms, which
    upper-bound the true norms and therefore keep the bound certified.
    """
    if schedule.kind != "purity":
        raise ValueError(f"expected a purity schedule, got {schedule.kind!r}")
    if schedule.values.size != circuit.depth:
        raise ValueError("schedule length must equal circuit depth")
    sigmas, norms = _defect_norms(circuit, dual, target)
    boundary = boundary_term(circuit, sigmas[0])
    penalties = np.sqrt(schedule.values) * norms
    return DualValue(boundary - float(np.sum(penalties)), boundary, penalties)


def tebd_error_bound(circuit: CircuitSpec, dual: "TebdDual | list[MPO]",
                     target: MPO) -> DualValue:
    """Naive truncation-error bound: the trace-purity dual with every
    purity cap replaced by 1.

    Each penalty is then sqrt(P_t) <= 1 times the corresponding
    trace-purity penalty, so this bound is dominated by
    :func:`dual_value_trace` term by term; it is what plain
    Heisenberg TEBD error accounting would give without any noise
    information.
    """
    sigmas, norms = _defect_norms(circuit, dual, target)
    boundary = boundary_term(circuit, sigmas[0])
    penalties = norms.astype(float).copy()
    return DualValue(boundary - float(np.sum(penalties)), boundary, penalties)


def dual_value_nonunital(circuit: CircuitSpec, dual: "TebdDual | list[MPO]",
                         target: MPO, schedule: BoundSchedule) -> DualValue:
    """Dual bound for non-unital noise with fixed point tau.

    Uses Frobenius-distance caps d_t >= ||rho_t - tau^xN||_F:

        h = -Tr[rho_0 E_1^dag(sigma_1)]
            + sum_t [ Tr(H_t tau^xN) - d_t ||H_t||_F ]

    The tau expectations are evaluated exactly on the explicit defect
    operators; for a :class:`TebdDual` the norms come from the recorded
    compression errors (an upper bound, hence still certified).
    """
    if schedule.kind != "frobenius_distance":
        raise ValueError(
            f"expected a frobenius_distance schedule, got {schedule.kind!r}")
    if schedule.values.size != circuit.depth:
        raise ValueError("schedule length must equal circuit depth")
    tau = schedule.meta["tau"]
    sigmas, norms = _defect_norms(circuit, dual, target)
    hs = defect_mpos(circuit, sigmas, target)
    taus = [tau] * circuit.n_sites
    tau_terms = np.array([expectation_product_state(h, taus) for h in hs])
    boundary = boundary_term(circuit, sigmas[0])
    penalties = schedule.values * norms - tau_terms
    return DualValue(boundary - float(np.sum(penalties)), boundary, penalties)


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
    tensors = [np.eye(2, dtype=complex).reshape(1, 2, 2, 1) for _ in range(n)]
    tensors[site] = h.astype(complex).reshape(1, 2, 2, 1)
    return MPO(tensors, hermitian=True)


def refine_dual(circuit: CircuitSpec, dual: TebdDual, target: MPO,
                schedule: BoundSchedule, *, rounds: int = 20,
                fd_step: float = 1e-4, init_step: float = 0.05,
                seed: int = 0) -> tuple[TebdDual, list[float]]:
    """Greedy local improvement of a TEBD dual sequence.

    Each round picks a random (layer, site) pair and a random Hermitian
    single-site direction, estimates the directional derivative of the
    trace-purity dual value by central finite differences, and line-searches
    along the ascent direction with halving steps.  A candidate replaces
    the current sequence only if its (explicitly re-evaluated) dual value
    strictly improves, so the returned value history is non-decreasing.

    Candidates are compressed back to the original bond dimension before
    evaluation; the stored defect norms are recomputed explicitly since the
    TEBD error bookkeeping no longer applies to a perturbed sequence.
    """
    if schedule.kind != "purity":
        raise ValueError(f"expected a purity schedule, got {schedule.kind!r}")
    max_bond = int(dual.meta.get("max_bond", max(
        max(s.bond_dims) if s.bond_dims else 1 for s in dual.sigmas)))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    n, d = circuit.n_sites, circuit.depth

    def evaluate(sigmas: list[MPO]) -> float:
        return dual_value_trace(circuit, sigmas, target, schedule).bound

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
            moved, _ = _recompress_hermitian(moved, max_bond)
            cand[t] = moved
            return cand

        g = (evaluate(shifted(fd_step)) - evaluate(shifted(-fd_step))) / (2 * fd_step)
        if abs(g) < 1e-12:
            history.append(best)
            continue
        step = init_step * np.sign(g)
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
                   meta=dict(dual.meta))
    return out, history
