"""Benchmark circuit generators: gate conventions, mirror structure, targets.

The mirror families are validated by dense simulation at p = 0 (the output
must be the designated ground state) and the commuting targets by explicit
spectra.
"""

from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from noisebound import mpo
from noisebound.circuits import (
    CircuitSpec,
    GateOp,
    Layer,
    brickwall_1d,
    brickwall_2d_snake,
    circuit_rng,
    clifford_entangle_unentangle,
    haar_single_qubit,
    random_two_site_clifford,
    rotation_y,
    single_qubit_circuit,
    snake_index,
    two_site_clifford_table,
    xx_gate,
    zz_gate,
)
from noisebound.exact import SignedPauli, dense_simulate, stabilizer_heisenberg
from noisebound.noise import (biased_tau, choi_matrix, depolarizing, general_channel,
                              replacement, unital_pauli)

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI2 = [np.kron(a, b) for a in (_I, _X, _Y, _Z) for b in (_I, _X, _Y, _Z)]


def is_signed_pauli(m: np.ndarray) -> bool:
    """True when m equals +P or -P for a two-qubit Pauli string."""
    for p in _PAULI2:
        for sign in (1.0, -1.0):
            if np.abs(m - sign * p).max() < 1e-8:
                return True
    return False


def all_gates(circ: CircuitSpec):
    for layer in circ.layers:
        yield from layer.gates


# ---------------------------------------------------------------------------
# elementary gates


def test_xx_gate_matrix():
    theta = 0.37
    want = np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * np.kron(_X, _X)
    assert np.abs(xx_gate(theta) - want).max() < 1e-14


def test_zz_gate_diagonal():
    g = zz_gate(0.51)
    assert np.abs(g - np.diag(np.diag(g))).max() == 0.0
    want = np.cos(0.51) * np.eye(4) - 1j * np.sin(0.51) * np.kron(_Z, _Z)
    assert np.abs(g - want).max() < 1e-14


def test_rotation_y_matrix():
    theta = 0.8
    from scipy.linalg import expm
    assert np.abs(rotation_y(theta) - expm(-1j * theta * _Y)).max() < 1e-12


def test_haar_sampler_unitary_and_deterministic():
    u1 = haar_single_qubit(circuit_rng(42))
    u2 = haar_single_qubit(circuit_rng(42))
    assert np.array_equal(u1, u2)
    assert np.abs(u1.conj().T @ u1 - _I).max() < 1e-12


def test_haar_moment():
    """E |U_00|^2 = 1/2, and the distribution is left-invariant."""
    rng = circuit_rng(7)
    draws = np.array([np.abs(haar_single_qubit(rng)[0, 0]) ** 2
                      for _ in range(10_000)])
    assert abs(draws.mean() - 0.5) < 0.02
    v = rotation_y(0.9)
    rng = circuit_rng(7)
    shifted = np.array([np.abs((v @ haar_single_qubit(rng))[0, 0]) ** 2
                        for _ in range(10_000)])
    assert abs(shifted.mean() - 0.5) < 0.02


# ---------------------------------------------------------------------------
# Clifford machinery


def test_clifford_table_size():
    table = two_site_clifford_table()
    assert len(table) == 11520


def test_clifford_table_normalizes_paulis():
    table = two_site_clifford_table()
    rng = np.random.default_rng(0)
    for idx in rng.choice(len(table), size=20, replace=False):
        u = table[idx]
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10
        for p in (_PAULI2[4], _PAULI2[1], _PAULI2[12]):   # XI, IX, ZI
            assert is_signed_pauli(u @ p @ u.conj().T)


def test_random_clifford_conjugates_pauli():
    rng = circuit_rng(3)
    for _ in range(10):
        u = random_two_site_clifford(rng)
        assert is_signed_pauli(u @ np.kron(_X, _I) @ u.conj().T)


# ---------------------------------------------------------------------------
# single-qubit benchmark


@pytest.mark.parametrize("theta,p", [(0.0, 0.0), (0.4, 0.1), (1.1, 0.3)])
def test_single_qubit_energy_formula(theta, p):
    delta = 0.7
    circ, target = single_qubit_circuit(theta, p, delta=delta)
    run = dense_simulate(circ, hamiltonian=target)
    assert abs(run.energy - delta * (1 - p) * np.cos(2 * theta)) < 1e-12


# ---------------------------------------------------------------------------
# 1D brick wall


def test_brickwall_1d_rejects_even_depth():
    with pytest.raises(ValueError):
        brickwall_1d(4, 4, 0.1, 0.0, 0)
    with pytest.raises(ValueError):
        brickwall_1d(1, 3, 0.1, 0.0, 0)


def test_brickwall_1d_gates_unitary():
    circ, _ = brickwall_1d(5, 5, 0.3, 0.1, 11)
    assert circ.depth == 5
    for g in all_gates(circ):
        d = g.matrix.shape[0]
        assert np.abs(g.matrix.conj().T @ g.matrix - np.eye(d)).max() < 1e-10


def test_brickwall_1d_mirror_ground_state():
    """p = 0: the circuit prepares the exact ground state of its target."""
    for seed in (0, 1):
        circ, target = brickwall_1d(4, 5, 0.3, 0.0, seed)
        run = dense_simulate(circ, hamiltonian=target)
        assert abs(run.energy) < 1e-9


def test_brickwall_1d_target_spectrum_unit_interval():
    circ, target = brickwall_1d(4, 3, 0.25, 0.1, 5)
    ev = np.linalg.eigvalsh(target.to_dense())
    assert abs(ev.min()) < 1e-9
    assert abs(ev.max() - 1.0) < 1e-9


def test_brickwall_1d_theta_zero_is_single_qubit_dressing():
    """theta = 0 turns every entangler into the identity."""
    circ, _ = brickwall_1d(4, 3, 0.0, 0.0, 9)
    for g in all_gates(circ):
        if g.matrix.shape[0] == 4:
            assert np.abs(g.matrix - np.eye(4)).max() < 1e-12


def test_brickwall_1d_seed_determinism():
    a, _ = brickwall_1d(5, 5, 0.2, 0.05, 77)
    b, _ = brickwall_1d(5, 5, 0.2, 0.05, 77)
    c, _ = brickwall_1d(5, 5, 0.2, 0.05, 78)
    ga, gb = list(all_gates(a)), list(all_gates(b))
    assert len(ga) == len(gb)
    assert all(np.array_equal(x.matrix, y.matrix) and x.sites == y.sites
               for x, y in zip(ga, gb))
    assert any(not np.array_equal(x.matrix, y.matrix)
               for x, y in zip(ga, list(all_gates(c))))


def test_brickwall_1d_odd_n_runs():
    circ, target = brickwall_1d(5, 3, 0.2, 0.0, 4)
    run = dense_simulate(circ, hamiltonian=target)
    assert abs(run.energy) < 1e-9


def _kron_embed(g: GateOp, n: int) -> np.ndarray:
    """The 2^n x 2^n matrix of a gate on one site or on a bond (i, i+1),
    site 0 the leftmost factor."""
    i = g.sites[0]
    assert g.sites == tuple(range(i, i + len(g.sites)))
    return np.kron(np.kron(np.eye(2**i), g.matrix),
                   np.eye(2 ** (n - i - len(g.sites))))


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("theta", [0.1, 0.7])
def test_brickwall_1d_target_matches_a_kron_reference(n, theta, monkeypatch):
    """The target is U_h (sum_i -Z_i / 2n + 1/2) U_h^dag with U_h the first
    layer's gates in order, rebuilt here from kron products alone.  With
    the MPO transfer matrices broken while the reference is built, a fault
    in them cannot enter both sides of the comparison."""
    circ, target = brickwall_1d(n, 3, theta, 0.1, 5)
    got = target.to_dense()

    def broken(*args, **kwargs):
        raise AssertionError("the reference used the MPO transfer matrices")

    monkeypatch.setattr(mpo, "_ptm", broken)
    monkeypatch.setattr(mpo, "_ptm_factors", broken)
    h0 = 0.5 * np.eye(2**n, dtype=complex)
    for i in range(n):
        h0 -= _kron_embed(GateOp(_Z, (i,)), n) / (2.0 * n)
    u_h = np.eye(2**n, dtype=complex)
    for g in circ.layers[0].gates:
        u_h = _kron_embed(g, n) @ u_h
    want = u_h @ h0 @ u_h.conj().T
    assert np.abs(got - want).max() < 1e-12


# ---------------------------------------------------------------------------
# 2D snake


def test_snake_index_layout():
    idx = snake_index(3, 2)       # 3 columns, 2 rows
    # row 0 runs left-to-right, row 1 returns right-to-left
    assert idx[(0, 0)] == 0 and idx[(0, 2)] == 2
    assert idx[(1, 2)] == 3 and idx[(1, 0)] == 5


def test_brickwall_2d_rejects_odd_depth():
    with pytest.raises(ValueError):
        brickwall_2d_snake(2, 2, 3, 0.1, 0.0, 0)


def test_brickwall_2d_mirror_ground_state():
    circ, target = brickwall_2d_snake(2, 2, 4, 0.3, 0.0, 1)
    run = dense_simulate(circ, hamiltonian=target)
    assert abs(run.energy) < 1e-9


def test_brickwall_2d_target_spectrum_unit_interval():
    _, target = brickwall_2d_snake(3, 2, 2, 0.2, 0.0, 2)
    ev = np.linalg.eigvalsh(target.to_dense())
    assert abs(ev.min()) < 1e-9
    assert abs(ev.max() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# Clifford mirror family


def test_clifford_rejects_odd_depth():
    with pytest.raises(ValueError):
        clifford_entangle_unentangle(4, 3, 0.1, 0)


def test_clifford_mirror_output():
    """Perfect mirror at p = 0: output |0...0>, energy -n."""
    n = 4
    circ, target = clifford_entangle_unentangle(n, 4, 0.0, 3)
    run = dense_simulate(circ, hamiltonian=target)
    assert abs(run.energy - (-n)) < 1e-9


def test_clifford_images_are_single_paulis():
    """Every Heisenberg image of Z_i through the circuit is one signed
    Pauli string (damped by the noise)."""
    n = 5
    circ, _ = clifford_entangle_unentangle(n, 6, 0.05, 8)
    for i in range(n):
        s = "I" * i + "Z" + "I" * (n - i - 1)
        img = stabilizer_heisenberg(circ, SignedPauli(1, s))
        assert img.sign in (-1, 1)
        assert set(img.letters) <= set("IXYZ")
        assert 0.0 < img.damping <= 1.0


def test_layer_inverse_round_trip():
    rng = circuit_rng(5)
    layer = Layer([GateOp(xx_gate(0.4), (0, 1)),
                   GateOp(haar_single_qubit(rng), (0,))], depolarizing(0.0))
    circ = CircuitSpec(2, [layer, layer.inverse()])
    run = dense_simulate(circ)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    assert np.abs(run.rho - rho0).max() < 1e-12


# ---------------------------------------------------------------------------
# frozen circuits, MPOs and noise models


def test_circuits_mpos_and_noise_models_cannot_change():
    """Assigning to any field of a GateOp, Layer, CircuitSpec, MPO or
    NoiseModel raises, and so does writing into any array they hold."""
    circ, target = brickwall_1d(4, 3, 0.3, 0.1, 1)
    layer = circ.layers[0]
    gate = layer.gates[0]
    tau = biased_tau(0.1)
    models = [layer.noise, replacement(0.2, tau), general_channel(choi_matrix(
        replacement(0.2, tau))), unital_pauli(0.1, 0.1, 0.1, u=_X, v=_Z)]
    for obj in [gate, layer, circ, target, *models]:
        for f in fields(obj):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
    arrays = [gate.matrix, *circ.initial_state, *target.tensors,
              *(getattr(m, f) for m in models for f in ("u", "v", "tau", "choi")
                if getattr(m, f) is not None)]
    assert len(arrays) == 1 + 4 + 4 + 4
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    with pytest.raises(TypeError):
        circ.layers[0] = layer


@pytest.mark.parametrize("via_view", [False, True])
def test_frozen_objects_alias_no_caller_array(via_view):
    """After construction, writing through the array the caller passed in,
    or through the writable base of a read-only view it passed in, leaves
    the GateOp, CircuitSpec, MPO and NoiseModel as built."""
    rng = np.random.default_rng(0)
    want = {"u": haar_single_qubit(rng), "rho": np.diag([0.25, 0.75]).astype(complex),
            "t": rng.standard_normal((1, 4, 1)), "tau": biased_tau(0.2)}
    passed, writable = {}, {}
    for key, a in want.items():
        if via_view:
            writable[key] = np.stack([a, a])
            passed[key] = writable[key][1]
            passed[key].flags.writeable = False
        else:
            passed[key] = writable[key] = a.copy()
    gate = GateOp(passed["u"], (0,))
    circ = CircuitSpec(1, [Layer([gate], depolarizing(0.1))], [passed["rho"]])
    op = mpo.MPO([passed["t"]])
    model = replacement(0.3, passed["tau"])
    for w in writable.values():
        w[...] = 0.0
    assert np.array_equal(gate.matrix, want["u"])
    assert np.array_equal(circ.initial_state[0], want["rho"])
    assert np.array_equal(op.tensors[0], want["t"])
    assert np.array_equal(model.tau, want["tau"])


def test_non_finite_gates_states_and_angles_raise():
    """NaN passes every ``x > tol`` check, so non-finite input is rejected
    by name before it reaches an SVD."""
    nan = float("nan")
    with pytest.raises(ValueError, match="gate matrix is not a finite unitary"):
        GateOp(np.full((2, 2), nan), (0,))
    with pytest.raises(ValueError, match=r"initial_state\[1\] must be finite"):
        CircuitSpec(2, [], [_I / 2, np.full((2, 2), nan)])
    with pytest.raises(ValueError, match=r"initial_state\[0\] must have unit trace"):
        CircuitSpec(1, [], [_I])
    with pytest.raises(ValueError, match="theta"):
        brickwall_1d(4, 3, nan, 0.1, 1)
    with pytest.raises(ValueError, match="theta"):
        brickwall_2d_snake(2, 2, 2, float("inf"), 0.1, 1)
