"""Heisenberg-TEBD dual sequences and the trace-purity / distance bounds.

Soundness is the load-bearing property: every DualValue must sit at or
below the exact output energy computed densely, for any dual sequence,
compressed or not.  Exactness at full bond dimension pins the chain rule
sigma_t = E^dag_{t+1}(sigma_{t+1}).
"""

import numpy as np
import pytest

from noisebound.circuits import brickwall_1d, zz_gate
from noisebound.exact import dense_simulate
from noisebound.mpo import MPO, random_mpo
from noisebound.noise import (
    biased_tau,
    max_replacement_fraction,
    purity_schedule,
    relative_entropy_schedule,
    relent_product_state,
    replacement,
    superop_matrix,
)
from noisebound.trace_dual import (
    apply_layer_adjoint,
    architecture_free_bound_nonunital,
    boundary_term,
    defect_mpos,
    dual_value,
    explicit_defect_norms,
    heisenberg_tebd,
    refine_dual,
    tebd_error_bound,
)

_KET0 = np.diag([1.0, 0.0]).astype(complex)


def random_dual(circuit, bond, seed) -> list[MPO]:
    rng = np.random.default_rng(seed)
    return [random_mpo(circuit.n_sites, bond, rng)
            for _ in range(circuit.depth)]


# ---------------------------------------------------------------------------
# exact chain rule


def test_exact_chain_is_tight():
    """At unbounded bond dimension the dual recovers the exact energy."""
    n, d, p = 4, 5, 0.1
    circ, target = brickwall_1d(n, d, 0.3, p, 0)
    dual = heisenberg_tebd(circ, target, max_bond=4**n)
    assert np.all(dual.step_defects < 1e-10)
    val = dual_value(circ, dual, target, purity_schedule(n, d, p))
    energy = dense_simulate(circ, hamiltonian=target).energy
    assert abs(val.bound - energy) < 1e-9
    # tight means the penalties vanished, not that they cancelled
    assert np.sum(val.penalties) < 1e-9


def test_last_dual_is_minus_target():
    circ, target = brickwall_1d(4, 3, 0.2, 0.05, 1)
    dual = heisenberg_tebd(circ, target, max_bond=8)
    got = dual.sigmas[-1].to_dense()
    assert np.abs(got + target.to_dense()).max() < 1e-12


def test_layer_adjoint_matches_dense():
    """E^dag applied in MPO form equals the dense adjoint channel."""
    n = 3
    circ, target = brickwall_1d(n, 3, 0.4, 0.13, 2)
    rng = np.random.default_rng(3)
    a = random_mpo(n, 3, rng)
    layer = circ.layers[1]
    got = apply_layer_adjoint(a, layer).to_dense()

    want = a.to_dense()
    k_adj = superop_matrix(layer.noise).conj().T
    t = want.reshape((2,) * (2 * n))
    for site in range(n):
        axes = (site, n + site)
        t = np.moveaxis(t, axes, (2 * n - 2, 2 * n - 1))
        flat = t.reshape(-1, 4) @ k_adj.T
        t = np.moveaxis(flat.reshape(t.shape), (2 * n - 2, 2 * n - 1), axes)
    want = t.reshape(2**n, 2**n)
    u = np.eye(2**n, dtype=complex)
    for g in layer.gates:
        left = np.eye(2 ** g.sites[0])
        right = np.eye(2 ** (n - g.sites[-1] - 1))
        u = np.kron(np.kron(left, g.matrix), right) @ u
    want = u.conj().T @ want @ u
    assert np.abs(got - want).max() < 1e-11


def test_boundary_term_vs_dense():
    """-Tr[rho_0 E_1^dag(sigma_1)] = -Tr[rho_1 sigma_1]."""
    circ, target = brickwall_1d(4, 3, 0.3, 0.2, 4)
    rng = np.random.default_rng(5)
    sigma1 = random_mpo(4, 3, rng)
    got = boundary_term(circ, sigma1)
    rho1 = dense_simulate(
        type(circ)(circ.n_sites, circ.layers[:1], circ.initial_state)).rho
    want = -float(np.trace(rho1 @ sigma1.to_dense()).real)
    assert abs(got - want) < 1e-10


# ---------------------------------------------------------------------------
# defect accounting


def test_recorded_defects_dominate_true_norms():
    """Compression-error bookkeeping upper-bounds the explicit defects."""
    circ, target = brickwall_1d(4, 5, 0.3, 0.1, 6)
    dual = heisenberg_tebd(circ, target, max_bond=3)
    true_norms = explicit_defect_norms(circ, dual.sigmas, target)
    assert np.all(dual.step_defects >= true_norms - 1e-9)


def test_defect_mpos_shapes_and_last_term():
    circ, target = brickwall_1d(3, 3, 0.2, 0.1, 7)
    sigmas = random_dual(circ, 2, 8)
    hs = defect_mpos(circ, sigmas, target)
    assert len(hs) == circ.depth
    want = target.to_dense() + sigmas[-1].to_dense()
    assert np.abs(hs[-1].to_dense() - want).max() < 1e-11


def test_dual_value_decomposition():
    """bound = boundary - sum(penalties), reproducible bit for bit."""
    n, d, p = 4, 5, 0.15
    circ, target = brickwall_1d(n, d, 0.25, p, 9)
    dual = heisenberg_tebd(circ, target, max_bond=4)
    val = dual_value(circ, dual, target, purity_schedule(n, d, p))
    assert val.bound == val.boundary - float(np.sum(val.penalties))
    assert np.all(val.penalties >= 0.0)


# ---------------------------------------------------------------------------
# soundness (weak duality)


@pytest.mark.parametrize("seed", range(6))
def test_trace_bound_sound_for_random_duals(seed):
    """Any Hermitian dual sequence gives a valid lower bound."""
    n, d, p = 4, 5, 0.12
    circ, target = brickwall_1d(n, d, 0.3, p, 100 + seed)
    energy = dense_simulate(circ, hamiltonian=target).energy
    sched = purity_schedule(n, d, p)
    sigmas = random_dual(circ, 3, seed)
    val = dual_value(circ, sigmas, target, sched)
    assert val.bound <= energy + 1e-8


@pytest.mark.parametrize("bond", [2, 4, 8])
def test_tebd_bound_sound_and_improves_with_bond(bond):
    n, d, p = 5, 5, 0.08
    circ, target = brickwall_1d(n, d, 0.25, p, 42)
    energy = dense_simulate(circ, hamiltonian=target).energy
    dual = heisenberg_tebd(circ, target, max_bond=bond)
    val = dual_value(circ, dual, target, purity_schedule(n, d, p))
    assert val.bound <= energy + 1e-8


def test_tebd_error_dominated_termwise():
    """The noise-blind error bound never beats the trace-purity dual:
    identical boundary, each penalty at least as large."""
    n, d, p = 4, 7, 0.1
    circ, target = brickwall_1d(n, d, 0.2, p, 11)
    dual = heisenberg_tebd(circ, target, max_bond=3)
    tr = dual_value(circ, dual, target, purity_schedule(n, d, p))
    te = tebd_error_bound(circ, dual, target)
    assert te.boundary == tr.boundary
    assert np.all(te.penalties >= tr.penalties)
    assert te.bound <= tr.bound


# ---------------------------------------------------------------------------
# non-unital distance bound


def nonunital_setup(seed, n=4, d=5, p=0.15, eps=0.1):
    tau = biased_tau(eps)
    model = replacement(p, tau)
    circ, target = brickwall_1d(n, d, 0.3, p, seed, noise=model,
                                entangler=zz_gate)
    q = max_replacement_fraction(model, tau)
    sched = relative_entropy_schedule(
        circ, tau, q, relent_product_state([_KET0] * n, tau))
    return circ, target, tau, sched


@pytest.mark.parametrize("seed", range(4))
def test_nonunital_bound_sound(seed):
    circ, target, tau, sched = nonunital_setup(seed)
    energy = dense_simulate(circ, hamiltonian=target).energy
    dual = heisenberg_tebd(circ, target, max_bond=4)
    val = dual_value(circ, dual, target, sched)
    assert val.bound <= energy + 1e-8
    sigmas = random_dual(circ, 2, seed)
    val2 = dual_value(circ, sigmas, target, sched)
    assert val2.bound <= energy + 1e-8


def test_nonunital_exact_chain_dominates_architecture_free():
    circ, target, tau, sched = nonunital_setup(3)
    dual = heisenberg_tebd(circ, target, max_bond=4**4)
    val = dual_value(circ, dual, target, sched)
    taus = [tau] * circ.n_sites
    from noisebound.mpo import expectation_product_state
    tau_energy = expectation_product_state(target, taus)
    hnorm = float(np.linalg.norm(np.linalg.eigvalsh(target.to_dense()), np.inf))
    free = architecture_free_bound_nonunital(tau_energy, hnorm, sched)
    energy = dense_simulate(circ, hamiltonian=target).energy
    assert free <= energy + 1e-8
    assert val.bound <= energy + 1e-8


def test_architecture_free_formula():
    sched = relative_entropy_schedule(
        brickwall_1d(3, 3, 0.0, 0.1, 0,
                     noise=replacement(0.1, biased_tau(0.1)),
                     entangler=zz_gate)[0],
        biased_tau(0.1), 0.1, 2.0)
    got = architecture_free_bound_nonunital(0.8, 1.0, sched)
    assert got == pytest.approx(0.8 - sched.values[-1] ** 2 / 2.0)


def test_schedule_kind_mismatch_raises():
    """An unknown kind and a schedule of the wrong length are refused by
    dual_value, and the architecture-free non-unital bound refuses any
    kind but frobenius_distance."""
    from noisebound.noise import BoundSchedule
    n, d, p = 3, 3, 0.1
    circ, target = brickwall_1d(n, d, 0.2, p, 12)
    dual = heisenberg_tebd(circ, target, max_bond=2)
    with pytest.raises(ValueError, match="unknown schedule kind"):
        dual_value(circ, dual, target, BoundSchedule("entropy", np.ones(d)))
    with pytest.raises(ValueError, match="schedule length"):
        dual_value(circ, dual, target, purity_schedule(n, d + 1, p))
    with pytest.raises(ValueError, match="frobenius_distance"):
        architecture_free_bound_nonunital(0.8, 1.0, purity_schedule(n, d, p))


def test_defects_built_once(monkeypatch):
    """A list dual under a distance schedule builds its defects once, for
    both the norms and the fixed-point terms; a TEBD dual under a purity
    schedule needs none."""
    import noisebound.trace_dual as td
    circ, target, tau, sched = nonunital_setup(0)
    calls = []

    def counted(*args):
        calls.append(1)
        return defect_mpos(*args)

    monkeypatch.setattr(td, "defect_mpos", counted)
    dual_value(circ, random_dual(circ, 2, 0), target, sched)
    assert len(calls) == 1
    calls.clear()
    dual = heisenberg_tebd(circ, target, max_bond=2)
    dual_value(circ, dual, target, purity_schedule(circ.n_sites, circ.depth, 0.1))
    assert calls == []


# ---------------------------------------------------------------------------
# refinement


def test_refine_dual_monotone_and_sound():
    n, d, p = 3, 3, 0.15
    circ, target = brickwall_1d(n, d, 0.3, p, 13)
    sched = purity_schedule(n, d, p)
    dual = heisenberg_tebd(circ, target, max_bond=2)
    start = dual_value(circ, dual, target, sched).bound
    refined, history = refine_dual(circ, dual, target, sched, rounds=10, seed=0)
    assert history[0] == pytest.approx(start)
    assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
    end = dual_value(circ, refined, target, sched).bound
    assert end == pytest.approx(history[-1])
    assert end >= start - 1e-12
    energy = dense_simulate(circ, hamiltonian=target).energy
    assert end <= energy + 1e-8


def test_one_compression_is_the_whole_defect():
    """With one compression per step, its discarded weight is the defect:
    the recorded norms match the explicit ||sigma_t - E^dag(sigma_{t+1})||_F
    at D = 2, where they are far above the cancellation floor of explicit
    norms, and the last step (sigma_d = -H exactly) records 0."""
    circ, target = brickwall_1d(6, 5, 0.1, 0.1, 7)
    dual = heisenberg_tebd(circ, target, max_bond=2)
    explicit = explicit_defect_norms(circ, dual.sigmas, target)
    recorded = dual.step_defects
    assert np.all(recorded[:-1] > 0.1)
    assert np.allclose(recorded[:-1], explicit[:-1], rtol=1e-9, atol=0.0)
    assert recorded[-1] == 0.0
    assert explicit[-1] <= 1e-12
