"""The exact oracles themselves: dense channel simulation, the purity-floor
solver, signed-Pauli Heisenberg propagation, and Jordan-Wigner helpers.

These are the reference implementations everything else is tested against,
so they get their own independent checks (closed forms, brute force, and
cross-validation between unrelated code paths).
"""

import numpy as np
import pytest
import scipy.optimize

from noisebound import mpo, sweep
from noisebound.circuits import (
    GateOp,
    Layer,
    CircuitSpec,
    brickwall_1d,
    brickwall_2d_snake,
    clifford_entangle_unentangle,
    single_qubit_circuit,
)
from noisebound.config import FAMILIES, ExperimentConfig
from noisebound.exact import (
    SignedPauli,
    dense_simulate,
    fermion_depolarizing_kraus,
    jordan_wigner_majoranas,
    majorana_quadratic_dense,
    min_energy_at_purity,
    product_density_matrix,
    purity_and_info,
    stabilizer_energy,
    stabilizer_heisenberg,
)
from noisebound.noise import (NoiseModel, biased_tau, depolarizing, replacement,
                              unital_pauli)

_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                 dtype=complex)


# ---------------------------------------------------------------------------
# dense simulation


def test_purity_and_info_extremes():
    n = 3
    mixed = np.eye(2**n) / 2**n
    pur, info = purity_and_info(mixed)
    assert abs(pur - 2.0**-n) < 1e-12
    assert abs(info) < 1e-10
    pure = np.zeros((2**n, 2**n), dtype=complex)
    pure[0, 0] = 1.0
    pur, info = purity_and_info(pure)
    assert abs(pur - 1.0) < 1e-12
    assert abs(info - n) < 1e-10


def test_single_layer_purity_formula():
    """One depolarizing layer on a pure qubit: P = p^2/4 + (1 - p/2)^2."""
    for p in (0.05, 0.1, 0.3):
        circ, _ = single_qubit_circuit(0.4, p)
        run = dense_simulate(circ, keep_states=True)
        pur, _ = purity_and_info(run.states[0])
        assert abs(pur - (p**2 / 4 + (1 - p / 2) ** 2)) < 1e-12


def test_dense_state_invariants():
    circ, _ = brickwall_1d(4, 5, 0.3, 0.1, 6)
    run = dense_simulate(circ, keep_states=True)
    for rho in run.states:
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-10
    # depolarizing noise only mixes: purity never increases across layers
    # for this family's mirror second half either
    purities = [purity_and_info(rho)[0] for rho in run.states]
    assert purities[-1] <= purities[0] + 1e-10


def _haar(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_state(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _embed(m, sites, n):
    """m on ``sites`` (first site = most significant index of m), identity
    elsewhere, as a 2^n x 2^n matrix: kron with the identity, then the
    qubit axes permuted into place."""
    rest = [s for s in range(n) if s not in sites]
    full = np.kron(m, np.eye(2 ** len(rest))).reshape((2,) * (2 * n))
    order = list(sites) + rest             # the qubit held by each axis
    perm = [order.index(q) for q in range(n)]
    return full.transpose(perm + [n + a for a in perm]).reshape(2**n, 2**n)


def _kraus(model):
    """Kraus operators written out from the channel's definition."""
    if model.kind == "depolarizing":
        p = model.p
        paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                  np.diag([1.0, -1.0])]
        return [np.sqrt(1 - 0.75 * p) * np.eye(2)] + [np.sqrt(p / 4) * s for s in paulis]
    # replacement: (1 - q) rho + q Tr(rho) tau, tau = sum_i t_i |e_i><e_i|
    t, e = np.linalg.eigh(model.tau)
    return [np.sqrt(1 - model.q) * np.eye(2)] + [
        np.sqrt(model.q * t[i]) * np.outer(e[:, i], np.eye(2)[j])
        for i in range(2) for j in range(2)]


def _naive_run(circ, hmat):
    n = circ.n_sites
    rho = np.array([[1.0 + 0j]])
    for loc in circ.initial_state:
        rho = np.kron(rho, loc)
    states = []
    for layer in circ.layers:
        for g in layer.gates:
            u = _embed(g.matrix, g.sites, n)
            rho = u @ rho @ u.conj().T
        for s in range(n):
            ks = [_embed(k, (s,), n) for k in _kraus(layer.noise)]
            rho = sum(k @ rho @ k.conj().T for k in ks)
        states.append(rho)
    return states, float(np.trace(hmat @ rho).real)


def _random_layer(rng, n, noise):
    gates = []
    for _ in range(rng.integers(0, 7)):
        if rng.random() < 0.5:
            gates.append(GateOp(_haar(rng, 2), (int(rng.integers(n)),)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(GateOp(_haar(rng, 4), (int(a), int(b))))
    return Layer(gates, noise)


def test_dense_simulate_matches_naive_full_space_reference():
    """Every layer state and the energy agree with kron-embedded unitaries
    and Kraus channels on the full space; the layers cover reversed and
    non-adjacent site pairs, single-site gates before and after two-site
    gates, overlapping two-site gates, an empty layer and non-unital noise."""
    rng = np.random.default_rng(14)
    tau = _random_state(rng)
    for n in (3, 4, 5):
        sites = [(2,), (2, 0), (0, n - 1), (0,), (1, 0), (n - 1,), (1,)]
        fixed = Layer([GateOp(_haar(rng, 2 ** len(st)), st) for st in sites],
                      replacement(0.3, tau))
        noises = [depolarizing(0.15), replacement(0.2, tau)]
        layers = [fixed, Layer([], depolarizing(0.1))] + [
            _random_layer(rng, n, noises[t % 2]) for t in range(4)]
        circ = CircuitSpec(n, layers, initial_state=[_random_state(rng)
                                                     for _ in range(n)])
        h = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        hmat = h + h.conj().T
        want_states, want_energy = _naive_run(circ, hmat)
        run = dense_simulate(circ, hamiltonian=hmat, keep_states=True)
        assert len(run.states) == len(layers)
        for got, want in zip(run.states, want_states):
            assert np.abs(got - want).max() < 1e-12
        assert np.abs(run.rho - want_states[-1]).max() < 1e-12
        assert abs(run.energy - want_energy) < 1e-12


def _oracle_circuits():
    """brickwall_1d and brickwall_2d circuits (the latter with reversed and
    non-adjacent pairs) under depolarizing, unital_pauli and replacement
    noise, with their MPO targets."""
    noises = [depolarizing(0.1), unital_pauli(0.02, 0.05, 0.03),
              replacement(0.1, biased_tau(0.2))]
    return ([brickwall_1d(5, 5, 0.3, 0.0, 3, noise=nm) for nm in noises]
            + [brickwall_2d_snake(2, 3, 4, 0.3, 0.0, 4, noise=nm) for nm in noises])


def test_dense_simulate_is_independent_of_the_mpo_transfer_matrices(monkeypatch):
    """The oracle builds its own transfer matrices, so a fault in those of
    the MPO path cannot cancel out of the check: with them broken, every
    energy is the same to the last bit.  (The builders use the MPO path
    for the targets, so the circuits are built first.)"""
    cases = _oracle_circuits()
    want = [dense_simulate(c, hamiltonian=t).energy for c, t in cases]

    def broken(*args, **kwargs):
        raise AssertionError("the dense oracle used the MPO transfer matrices")

    monkeypatch.setattr(mpo, "_ptm", broken)
    monkeypatch.setattr(mpo, "_ptm_factors", broken)
    got = [dense_simulate(c, hamiltonian=t).energy for c, t in cases]
    assert got == want


@pytest.mark.parametrize("family", [f for f, fam in FAMILIES.items()
                                    if "fermion_dual" not in fam.methods])
def test_mpo_and_dense_targets_give_the_same_energy(family):
    """The state's Pauli basis and the MPO's storage convention agree: for
    each qubit family and noise model it builds, the energy against the MPO
    target equals the energy against its dense matrix."""
    fam = FAMILIES[family]
    depth = {"odd": 5, "even": 4, "1": 1}[fam.depth]
    for model in fam.noise_models:
        cfg = ExperimentConfig(
            family=family, n=1 if fam.depth == "1" else 6, depths=[depth],
            methods=[], seed=7, output="", thetas=[0.4], ps=[0.1],
            noise_model=model, eps=0.2, pauli_rates=[0.2, 0.3, 0.1],
            lattice=[2, 3] if fam.lattice else None)
        circ, target, _ = sweep.build_circuit(cfg, sweep.expand_grid(cfg)[0])
        via_mpo = dense_simulate(circ, hamiltonian=target).energy
        via_dense = dense_simulate(circ, hamiltonian=target.to_dense()).energy
        assert abs(via_mpo - via_dense) < 1e-12, model


def test_dense_simulate_rejects_a_map_that_breaks_hermiticity():
    """A noise channel whose transfer matrix is not real is refused."""
    choi = np.zeros((4, 4), dtype=complex)
    choi[0, 3] = 1j   # not Hermitian, so not Hermiticity-preserving
    circ = CircuitSpec(2, [Layer([], NoiseModel("general", choi=choi))])
    with pytest.raises(ValueError, match="Hermiticity"):
        dense_simulate(circ)


def test_dense_rejects_large_n():
    circ = CircuitSpec(13, [Layer([], depolarizing(0.0))])
    with pytest.raises(ValueError):
        dense_simulate(circ)


# ---------------------------------------------------------------------------
# purity-constrained energy floor


def test_purity_floor_pure_cap_is_ground():
    e = np.array([-1.5, 0.2, 0.9])
    assert min_energy_at_purity(e, 1.0) == pytest.approx(-1.5)


def test_purity_floor_mixed_cap_is_mean():
    e = np.array([-1.0, 0.0, 2.0, 3.0])
    assert min_energy_at_purity(e, 1.0 / e.size) == pytest.approx(e.mean())


def test_purity_floor_two_level_closed_form():
    """Spectrum {-d, d} with cap P: floor = -d sqrt(2P - 1)."""
    delta = 0.7
    for cap in (0.55, 0.8, 0.95):
        got = min_energy_at_purity(np.array([-delta, delta]), cap)
        assert abs(got - (-delta * np.sqrt(2 * cap - 1))) < 1e-12


def test_purity_floor_single_qubit_depolarized():
    """With the exact one-layer purity, the floor reproduces -(1-p)."""
    for p in (0.05, 0.2):
        cap = p**2 / 4 + (1 - p / 2) ** 2
        got = min_energy_at_purity(np.array([-1.0, 1.0]), cap)
        assert abs(got - (-(1 - p))) < 1e-12


def test_purity_floor_infeasible_cap():
    with pytest.raises(ValueError):
        min_energy_at_purity(np.array([0.0, 1.0]), 0.3)


def test_purity_floor_monotone_in_cap():
    rng = np.random.default_rng(4)
    e = np.sort(rng.normal(size=16))
    caps = np.linspace(1.0 / 16 + 1e-6, 1.0, 30)
    vals = [min_energy_at_purity(e, c) for c in caps]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_purity_floor_vs_constrained_solver():
    """Brute-force oracle: SLSQP over the probability simplex."""
    rng = np.random.default_rng(5)
    for trial in range(8):
        e = np.sort(rng.normal(size=5))
        cap = rng.uniform(1 / 5 + 0.01, 0.99)
        got = min_energy_at_purity(e, cap)

        res = scipy.optimize.minimize(
            lambda q: float(e @ q), np.full(5, 0.2), method="SLSQP",
            bounds=[(0.0, 1.0)] * 5,
            constraints=[
                {"type": "eq", "fun": lambda q: q.sum() - 1.0},
                {"type": "ineq", "fun": lambda q: cap - q @ q},
            ],
            options={"ftol": 1e-12, "maxiter": 200})
        # don't trust res.success (at ftol=1e-12 SLSQP may stop with
        # status 8 after converging); check the witness is feasible instead
        assert abs(res.x.sum() - 1.0) < 1e-8
        assert res.x.min() > -1e-9
        # a nearly-feasible witness can undershoot the exact floor by its
        # purity-constraint slack, never by more
        slack = max(0.0, float(res.x @ res.x) - cap)
        assert got <= res.fun + 10.0 * slack + 1e-9
        assert abs(got - res.fun) < 1e-6


def test_purity_floor_degenerate_levels():
    e = np.array([0.0, 0.0, 1.0, 1.0])
    # cap 1/2 admits the uniform mixture of the two ground levels
    assert min_energy_at_purity(e, 0.5) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# signed-Pauli propagation


def pauli_string_dense(s: str) -> np.ndarray:
    mats = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
            "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
    out = np.array([[1.0 + 0j]])
    for ch in s:
        out = np.kron(out, mats[ch])
    return out


def test_cnot_conjugation_table():
    circ = CircuitSpec(2, [Layer([GateOp(_CNOT, (0, 1))], depolarizing(0.0))])
    img = stabilizer_heisenberg(circ, SignedPauli(1, "IZ"))
    assert (img.sign, img.letters) == (1, "ZZ")
    img = stabilizer_heisenberg(circ, SignedPauli(1, "XI"))
    assert (img.sign, img.letters) == (1, "XX")
    img = stabilizer_heisenberg(circ, SignedPauli(1, "ZI"))
    assert (img.sign, img.letters) == (1, "ZI")


def test_stabilizer_image_matches_dense_conjugation():
    """U^dag P U computed densely equals sign * letters * damping (p=0)."""
    circ, _ = clifford_entangle_unentangle(4, 4, 0.0, 13)
    u = np.eye(16, dtype=complex)
    for layer in circ.layers:
        for g in layer.gates:
            m = np.eye(16, dtype=complex)
            # embed on adjacent sites
            left = np.eye(2 ** g.sites[0])
            right = np.eye(2 ** (4 - g.sites[-1] - 1))
            m = np.kron(np.kron(left, g.matrix), right)
            u = m @ u
    for s in ("ZIII", "IZII", "IXYZ"):
        img = stabilizer_heisenberg(circ, SignedPauli(1, s))
        got = u.conj().T @ pauli_string_dense(s) @ u
        want = img.sign * img.damping * pauli_string_dense(img.letters)
        assert np.abs(got - want).max() < 1e-10


def test_stabilizer_energy_matches_dense():
    n = 6
    circ, target = clifford_entangle_unentangle(n, 6, 0.05, 21)
    terms = [("I" * i + "Z" + "I" * (n - i - 1), -1.0) for i in range(n)]
    via_stab = stabilizer_energy(circ, terms)
    via_dense = dense_simulate(circ, hamiltonian=target).energy
    assert abs(via_stab - via_dense) < 1e-10


def test_stabilizer_rejects_non_clifford():
    circ, _ = brickwall_1d(4, 3, 0.3, 0.0, 2)
    with pytest.raises(ValueError):
        stabilizer_heisenberg(circ, SignedPauli(1, "ZIII"))


# ---------------------------------------------------------------------------
# Jordan-Wigner helpers


def test_majorana_anticommutation():
    n = 3
    c = jordan_wigner_majoranas(n)
    dim = 2**n
    for a in range(2 * n):
        for b in range(2 * n):
            anti = c[a] @ c[b] + c[b] @ c[a]
            want = np.eye(dim) if a == b else np.zeros((dim, dim))
            assert np.abs(anti - want).max() < 1e-12


def test_majoranas_hermitian():
    for m in jordan_wigner_majoranas(2):
        assert np.abs(m - m.conj().T).max() < 1e-12


def test_vacuum_pairing():
    """i <0| [c1_x, c2_x] |0> = +1 for every site."""
    n = 3
    c = jordan_wigner_majoranas(n)
    vac = np.zeros(2**n, dtype=complex)
    vac[0] = 1.0
    for x in range(n):
        comm = c[x] @ c[n + x] - c[n + x] @ c[x]
        assert abs(1j * (vac.conj() @ comm @ vac) - 1.0) < 1e-12


def test_quadratic_dense_hermitian():
    rng = np.random.default_rng(6)
    n = 3
    m = rng.normal(size=(2 * n, 2 * n))
    m = (m - m.T) / 2
    h = majorana_quadratic_dense(m, jordan_wigner_majoranas(n), constant=0.3)
    assert np.abs(h - h.conj().T).max() < 1e-12
    assert abs(np.trace(h) / 2**n - 0.3) < 1e-12   # traceless quadratic part


def test_fermion_depolarizing_kraus_complete():
    n, site, p = 3, 1, 0.23
    ks = fermion_depolarizing_kraus(n, site, p)
    total = sum(k.conj().T @ k for k in ks)
    assert np.abs(total - np.eye(2**n)).max() < 1e-12


def test_fermion_depolarizing_fixes_other_sites():
    """The channel only touches the chosen site: a Fock state diagonal in
    the other sites keeps its occupations."""
    n, p = 2, 0.5
    c = jordan_wigner_majoranas(n)
    num0 = c[0].conj().T @ c[0]  # not a number operator, but site-0 local
    ks = fermion_depolarizing_kraus(n, 1, p)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    out = sum(k @ rho @ k.conj().T for k in ks)
    # site-0 reduced state (trace out site 1) unchanged
    red = np.trace(out.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    assert np.abs(red - np.diag([1.0, 0.0])).max() < 1e-12
