"""Noise channels and the certified per-step constraint schedules.

Channel representations (Choi / superoperator) are checked against the
defining action on random states; the purity, information, and distance
schedules are checked against closed forms and against dense simulation
of small circuits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisebound.circuits import GateOp, Layer, CircuitSpec, zz_gate, brickwall_1d
from noisebound.exact import dense_simulate, product_density_matrix, purity_and_info
from noisebound.noise import (
    biased_tau,
    choi_matrix,
    depolarizing,
    dinf_term,
    general_channel,
    info_schedule,
    max_replacement_fraction,
    purity_schedule,
    relative_entropy_schedule,
    relent_product_state,
    replacement,
    superop_matrix,
    unital_pauli,
    unital_rate,
)

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_density(rng) -> np.ndarray:
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def apply_superop(k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return (k @ rho.reshape(-1)).reshape(2, 2)


# ---------------------------------------------------------------------------
# channel representations


def test_depolarizing_action():
    rng = np.random.default_rng(0)
    rho = random_density(rng)
    p = 0.3
    got = apply_superop(superop_matrix(depolarizing(p)), rho)
    want = (1 - p) * rho + p * _I / 2
    assert np.abs(got - want).max() < 1e-12


def test_unital_pauli_action():
    rng = np.random.default_rng(1)
    rho = random_density(rng)
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    v = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    px, py, pz = 0.05, 0.1, 0.15
    model = unital_pauli(px, py, pz, u, v)
    got = apply_superop(superop_matrix(model), rho)
    conj = u @ rho @ u.conj().T
    mixed = px * _X @ conj @ _X + py * _Y @ conj @ _Y + pz * _Z @ conj @ _Z
    want = (1 - px - py - pz) * rho + v @ mixed @ v.conj().T
    assert np.abs(got - want).max() < 1e-12


def test_replacement_action():
    rng = np.random.default_rng(2)
    rho = random_density(rng)
    tau = biased_tau(0.2)
    q = 0.4
    got = apply_superop(superop_matrix(replacement(q, tau)), rho)
    assert np.abs(got - ((1 - q) * rho + q * tau)).max() < 1e-12


def test_choi_of_identity_has_trace_two():
    choi = choi_matrix(depolarizing(0.0))
    assert abs(np.trace(choi) - 2.0) < 1e-12
    omega = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            omega[2 * i + i, 2 * j + j] = 1.0
    assert np.abs(choi - omega).max() < 1e-12


@pytest.mark.parametrize("model", [
    depolarizing(0.17),
    unital_pauli(0.04, 0.07, 0.12),
    replacement(0.3, biased_tau(0.15)),
])
def test_choi_invariants(model):
    """Hermitian, PSD, and trace-preserving (input marginal = identity)."""
    choi = choi_matrix(model)
    assert np.abs(choi - choi.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(choi).min() > -1e-10
    # partial trace over the output leg (index order: in, out, in, out)
    marg = np.trace(choi.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    assert np.abs(marg - np.eye(2)).max() < 1e-10


def test_choi_superop_consistency():
    """The two representations agree on a basis of inputs."""
    rng = np.random.default_rng(3)
    model = unital_pauli(0.1, 0.05, 0.2)
    k = superop_matrix(model)
    choi = choi_matrix(model)
    for _ in range(4):
        rho = random_density(rng)
        via_superop = apply_superop(k, rho)
        via_choi = np.einsum("ij,iajb->ab", rho, choi.reshape(2, 2, 2, 2))
        assert np.abs(via_superop - via_choi).max() < 1e-11


def test_general_channel_round_trip():
    base = replacement(0.25, biased_tau(0.1))
    model = general_channel(choi_matrix(base))
    assert np.abs(superop_matrix(model) - superop_matrix(base)).max() < 1e-11


def test_biased_tau():
    tau = biased_tau(0.3)
    assert np.abs(tau - (_I / 2 + 0.3 * _Z)).max() < 1e-14
    with pytest.raises(ValueError):
        biased_tau(0.5)


def test_parameter_validation():
    with pytest.raises(ValueError):
        depolarizing(1.2)
    with pytest.raises(ValueError):
        unital_pauli(0.0, 0.1, 0.1)       # full Kraus rank required
    with pytest.raises(ValueError):
        unital_pauli(0.5, 0.4, 0.3)       # rates sum past one
    with pytest.raises(ValueError):
        replacement(0.2, np.diag([1.0, 1.0]))   # not unit trace


# ---------------------------------------------------------------------------
# mixing schedules


def test_purity_schedule_closed_form():
    n, d, p = 5, 7, 0.1
    sched = purity_schedule(n, d, p)
    assert sched.kind == "purity"
    t = np.arange(1, d + 1)
    assert np.abs(sched.values - 2.0 ** (-n * (1 - (1 - p) ** t))).max() < 1e-14
    assert np.all(sched.values > 0) and np.all(sched.values <= 1)
    assert np.all(np.diff(sched.values) < 0)    # strictly mixing


def test_info_schedule_closed_form():
    n, d, p = 6, 9, 0.2
    sched = info_schedule(n, d, p)
    assert sched.kind == "info"
    t = np.arange(1, d + 1)
    assert np.abs(sched.values - n * (1 - p) ** t).max() < 1e-14
    assert np.all(sched.values >= 0) and np.all(sched.values <= n)


def test_unital_rate():
    assert unital_rate(depolarizing(0.07)) == pytest.approx(0.07)
    assert unital_rate(unital_pauli(0.02, 0.05, 0.01)) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        unital_rate(replacement(0.1, biased_tau(0.0)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5000), st.floats(0.01, 0.5), st.integers(1, 4))
def test_purity_schedule_dominates_dense(seed, p, depth):
    """Lemma-style soundness: the purity cap is never undercut by an actual
    depolarized brick-wall evolution."""
    n = 4
    circ, _ = brickwall_1d(n, 2 * depth - 1, 0.4, p, seed)
    run = dense_simulate(circ, keep_states=True)
    sched = purity_schedule(n, circ.depth, p)
    for t, rho in enumerate(run.states):
        pur, _ = purity_and_info(rho)
        assert pur <= sched.values[t] + 1e-10


def test_info_schedule_dominates_dense():
    for seed in range(5):
        n, p = 4, 0.15
        circ, _ = brickwall_1d(n, 5, 0.3, p, seed)
        run = dense_simulate(circ, keep_states=True)
        sched = info_schedule(n, circ.depth, p)
        for t, rho in enumerate(run.states):
            _, info = purity_and_info(rho)
            assert info <= sched.values[t] + 1e-10


# ---------------------------------------------------------------------------
# replacement fraction (Choi program)


@pytest.mark.parametrize("q0", [0.01, 0.05, 0.3])
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.3])
def test_replacement_fraction_recovery(q0, eps):
    tau = biased_tau(eps)
    q = max_replacement_fraction(replacement(q0, tau), tau)
    assert abs(q - q0) < 1e-7


@pytest.mark.parametrize("q0", [0.05, 0.3, 0.9])
@pytest.mark.parametrize("eps", [-0.3, 0.0, 0.2])
def test_replacement_fraction_never_exceeds_exact(q0, eps):
    """The returned q is a sound replacement fraction: the rounding of the
    eigenvalue solver never lifts it above the exact q0."""
    tau = biased_tau(eps)
    q = max_replacement_fraction(replacement(q0, tau), tau)
    assert q0 - 1e-12 <= q <= q0


def test_replacement_fraction_of_depolarizing():
    """Full depolarizing is replacement with tau = I/2 at the same rate."""
    q = max_replacement_fraction(depolarizing(0.2), biased_tau(0.0))
    assert abs(q - 0.2) < 1e-7


def test_identity_channel_rejected():
    with pytest.raises(ValueError, match="no replacement component"):
        max_replacement_fraction(depolarizing(0.0), biased_tau(0.1))


def test_rank_deficient_tau_rejected():
    with pytest.raises(ValueError):
        max_replacement_fraction(replacement(0.3, np.diag([1.0, 0.0]).astype(complex)),
                                 np.diag([1.0, 0.0]).astype(complex))


# ---------------------------------------------------------------------------
# relative-entropy machinery (nonunital distance schedule)


def test_dinf_term_invariant_state():
    # X swaps the populations of I/2, leaving it fixed: zero increment
    assert dinf_term(_X, biased_tau(0.0)) < 1e-12


def test_dinf_term_bit_flip_on_biased_state():
    eps = 0.2
    tau = biased_tau(eps)
    # X maps diag(1/2+eps, 1/2-eps) -> diag(1/2-eps, 1/2+eps); the largest
    # eigenvalue of tau^-1/2 XtauX tau^-1/2 is (1/2+eps)/(1/2-eps)
    want = np.log2((0.5 + eps) / (0.5 - eps))
    assert abs(dinf_term(_X, tau) - want) < 1e-12


def test_dinf_term_diagonal_gate_is_free():
    tau = biased_tau(0.25)
    rz = np.diag([1.0, np.exp(0.7j)])
    assert dinf_term(rz, tau) < 1e-12


def test_relent_product_state_closed_form():
    eps = 0.1
    tau = biased_tau(eps)
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    got = relent_product_state([ket0] * 3, tau)
    assert abs(got - 3 * (-np.log2(0.5 + eps))) < 1e-12
    # a state equal to tau has zero relative entropy
    assert abs(relent_product_state([tau], tau)) < 1e-12


def test_distance_schedule_dominates_dense():
    """d_t caps hold for an actual replacement-noise circuit whose
    entanglers are diagonal (commute with tau (x) tau)."""
    n, d, p, eps = 4, 5, 0.15, 0.1
    tau = biased_tau(eps)
    model = replacement(p, tau)
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    taun = product_density_matrix([tau] * n)
    for seed in range(3):
        circ, _ = brickwall_1d(n, d, 0.3, p, seed, noise=model, entangler=zz_gate)
        q = max_replacement_fraction(model, tau)
        sched = relative_entropy_schedule(
            circ, tau, q, relent_product_state([ket0] * n, tau))
        assert sched.kind == "frobenius_distance"
        run = dense_simulate(circ, keep_states=True)
        for t, rho in enumerate(run.states):
            assert np.linalg.norm(rho - taun) <= sched.values[t] + 1e-12


def test_distance_schedule_rejects_noncommuting_entangler():
    """XX entanglers do not commute with tau (x) tau at eps != 0."""
    tau = biased_tau(0.1)
    circ, _ = brickwall_1d(4, 3, 0.3, 0.1, 0, noise=replacement(0.1, tau))
    with pytest.raises(ValueError, match="commute"):
        relative_entropy_schedule(circ, tau, 0.1, 1.0)
