"""Gaussian-fermion machinery against the dense Jordan-Wigner oracle.

Every covariance-level primitive (Hamiltonians, canonical forms, ground and
thermal states, unitary and depolarizing evolution, the Heisenberg adjoint)
is cross-checked in full Fock space at small mode number; the dual bound is
then checked for soundness and its analytic gradient against finite
differences.
"""

import hashlib

import numpy as np
import pytest
import scipy.linalg

from noisebound.exact import (
    fermion_depolarizing_kraus,
    jordan_wigner_majoranas,
    majorana_quadratic_dense,
)
from noisebound.fermion import (
    FermionCircuit,
    FermionLayer,
    QuadraticOp,
    canonical_form,
    chain_coords,
    check_covariance,
    covariance_layer_step,
    default_fermion_initial_duals,
    energy_from_covariance,
    evolve_covariance_depolarizing,
    evolve_covariance_unitary,
    fermion_brickwall_1d,
    fermion_brickwall_2d,
    fermionic_dual_value,
    fermionic_free_energy,
    grid_coords,
    ground_state_covariance,
    ground_state_energy,
    heisenberg_quadratic_step,
    hopping_to_majorana,
    locality_mask,
    mode_energies,
    optimize_fermionic_dual,
    project_local,
    quadratic_zero,
    scaled_to_unit_interval,
    simulate_covariance,
    ssh_hamiltonian_1d,
    ssh_hamiltonian_2d,
    thermal_covariance,
    two_level_modes,
    vacuum_covariance,
)
from noisebound.info_dual import LN2, info_bound
from noisebound.noise import info_schedule


def random_antisym(n2: int, rng) -> np.ndarray:
    m = rng.normal(size=(n2, n2))
    return (m - m.T) / 2


def random_op(n: int, seed: int, constant: float = 0.0) -> QuadraticOp:
    rng = np.random.default_rng(seed)
    return QuadraticOp(random_antisym(2 * n, rng), constant)


def dense_covariance(rho: np.ndarray, c_ops) -> np.ndarray:
    """gamma_ab = i Tr(rho [c_a, c_b]) from a dense state."""
    m = len(c_ops)
    g = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            comm = c_ops[a] @ c_ops[b] - c_ops[b] @ c_ops[a]
            g[a, b] = float(np.real(1j * np.trace(rho @ comm)))
    return g


def dense_vacuum(n: int) -> np.ndarray:
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


# ---------------------------------------------------------------------------
# quadratic operators


def test_quadratic_op_validation_and_snap():
    rng = np.random.default_rng(0)
    m = random_antisym(4, rng)
    op = QuadraticOp(m + 1e-12 * np.eye(4), 0.1)   # tiny symmetric part: snapped
    assert np.abs(op.matrix + op.matrix.T).max() == 0.0
    with pytest.raises(ValueError):
        QuadraticOp(np.eye(4))


def test_quadratic_op_arithmetic():
    a, b = random_op(3, 1, 0.2), random_op(3, 2, -0.1)
    s = a + b
    assert np.abs(s.matrix - (a.matrix + b.matrix)).max() < 1e-14
    assert s.constant == pytest.approx(0.1)
    d = a - b
    assert np.abs(d.matrix - (a.matrix - b.matrix)).max() < 1e-14
    neg = -a
    assert np.abs(neg.matrix + a.matrix).max() == 0.0
    assert neg.constant == pytest.approx(-0.2)


def test_hopping_to_majorana_vs_fock():
    """sum_ij A_ij a_i^dag a_j maps to i c^T h c + TrA/2 exactly."""
    n = 3
    rng = np.random.default_rng(3)
    a_mat = rng.normal(size=(n, n))
    a_mat = (a_mat + a_mat.T) / 2
    op = hopping_to_majorana(a_mat)
    c = jordan_wigner_majoranas(n)
    ann = [(c[x] - 1j * c[n + x]) / np.sqrt(2) for x in range(n)]
    want = sum(a_mat[i, j] * ann[i].conj().T @ ann[j]
               for i in range(n) for j in range(n))
    got = majorana_quadratic_dense(op.matrix, c, op.constant)
    assert np.abs(got - want).max() < 1e-12


def test_canonical_form_reconstruction():
    from noisebound.fermion import _interleaved_blocks
    rng = np.random.default_rng(4)
    m = random_antisym(8, rng)
    eps, q = canonical_form(m)
    assert np.all(eps >= 0.0)
    assert np.abs(q @ q.T - np.eye(8)).max() < 1e-10
    recon = q @ _interleaved_blocks(eps, np.ones_like(eps)) @ q.T
    assert np.abs(recon - m).max() < 1e-10


def test_canonical_form_zero_modes():
    """Decoupled zero modes, even interleaved with coupled ones, are paired
    and parked at eps = 0."""
    m = np.zeros((6, 6))
    m[0, 3] = 0.7
    m[3, 0] = -0.7
    eps, q = canonical_form(m)
    assert np.abs(np.sort(eps) - np.array([0.0, 0.0, 0.7])).max() < 1e-12
    assert np.abs(q @ q.T - np.eye(6)).max() < 1e-10


def test_spectrum_matches_fock_oracle():
    """Full many-body spectrum from mode energies equals dense JW spectrum."""
    n = 4
    op = random_op(n, 5, constant=0.3)
    got = two_level_modes(op).spectrum()
    dense = majorana_quadratic_dense(op.matrix, jordan_wigner_majoranas(n),
                                     op.constant)
    want = np.linalg.eigvalsh(dense)
    assert np.abs(got - want).max() < 1e-9


def test_ground_state_energy_vs_fock():
    n = 4
    op = random_op(n, 6, constant=-0.2)
    dense = majorana_quadratic_dense(op.matrix, jordan_wigner_majoranas(n),
                                     op.constant)
    assert abs(ground_state_energy(op) - np.linalg.eigvalsh(dense)[0]) < 1e-9


def test_scaled_to_unit_interval():
    op = scaled_to_unit_interval(random_op(4, 7))
    spec = two_level_modes(op).spectrum()
    assert abs(spec.min()) < 1e-10
    assert abs(spec.max() - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# covariance states


def test_vacuum_covariance_structure():
    n = 3
    g = vacuum_covariance(n)
    check_covariance(g)
    c = jordan_wigner_majoranas(n)
    assert np.abs(g - dense_covariance(dense_vacuum(n), c)).max() < 1e-10


def test_ground_covariance_energy():
    n = 4
    op = random_op(n, 8, constant=0.1)
    g = ground_state_covariance(op)
    check_covariance(g)
    assert abs(energy_from_covariance(g, op) - ground_state_energy(op)) < 1e-10


def test_thermal_covariance_vs_fock():
    n = 3
    op = random_op(n, 9)
    c = jordan_wigner_majoranas(n)
    dense = majorana_quadratic_dense(op.matrix, c, op.constant)
    for lam in (0.3, 1.0, 5.0):
        rho = scipy.linalg.expm(-dense / lam)
        rho /= np.trace(rho)
        want_energy = float(np.trace(dense @ rho).real)
        g = thermal_covariance(op, lam)
        check_covariance(g)
        assert abs(energy_from_covariance(g, op) - want_energy) < 1e-9
        assert np.abs(g - dense_covariance(rho, c)).max() < 1e-9


def test_energy_from_covariance_vs_fock():
    n = 3
    op = random_op(n, 10, constant=0.4)
    c = jordan_wigner_majoranas(n)
    dense = majorana_quadratic_dense(op.matrix, c, op.constant)
    rho = dense_vacuum(n)
    got = energy_from_covariance(dense_covariance(rho, c), op)
    assert abs(got - float(np.trace(dense @ rho).real)) < 1e-10


def test_free_energy_vs_fock():
    n = 3
    op = random_op(n, 11, constant=-0.3)
    dense = majorana_quadratic_dense(op.matrix, jordan_wigner_majoranas(n),
                                     op.constant)
    ev = np.linalg.eigvalsh(dense)
    for lam in (0.2, 1.7):
        want = float(np.log(np.sum(np.exp(-ev / lam))))
        assert abs(fermionic_free_energy(op, lam) - want) < 1e-9


# ---------------------------------------------------------------------------
# evolution, both pictures


def test_unitary_evolution_vs_fock():
    n = 3
    gen = random_op(n, 12)
    c = jordan_wigner_majoranas(n)
    u = scipy.linalg.expm(-1j * majorana_quadratic_dense(gen.matrix, c))
    rho = u @ dense_vacuum(n) @ u.conj().T
    got = evolve_covariance_unitary(vacuum_covariance(n), gen)
    check_covariance(got)
    assert np.abs(got - dense_covariance(rho, c)).max() < 1e-10


def test_depolarizing_evolution_vs_fock():
    n, site, p = 3, 1, 0.35
    gen = random_op(n, 13)
    g0 = evolve_covariance_unitary(vacuum_covariance(n), gen)  # entangled input
    c = jordan_wigner_majoranas(n)
    u = scipy.linalg.expm(-1j * majorana_quadratic_dense(gen.matrix, c))
    rho = u @ dense_vacuum(n) @ u.conj().T
    ks = fermion_depolarizing_kraus(n, site, p)
    rho_out = sum(k @ rho @ k.conj().T for k in ks)
    got = evolve_covariance_depolarizing(g0, p, site)
    assert np.abs(got - dense_covariance(rho_out, c)).max() < 1e-10


def test_heisenberg_step_vs_fock():
    """The adjoint step reproduces E^dag(H) = N^dag(U^dag H U) in Fock space."""
    n, p, site = 3, 0.25, 0
    gen = random_op(n, 14)
    op = random_op(n, 15, constant=0.2)
    layer = FermionLayer(gen, p=p, depolarized_sites=(site,))
    got_op = heisenberg_quadratic_step(op, layer)
    c = jordan_wigner_majoranas(n)
    u = scipy.linalg.expm(-1j * majorana_quadratic_dense(gen.matrix, c))
    h = majorana_quadratic_dense(op.matrix, c, op.constant)
    ks = fermion_depolarizing_kraus(n, site, p)
    noise_adj = sum(k.conj().T @ h @ k for k in ks)
    want = u.conj().T @ noise_adj @ u
    got = majorana_quadratic_dense(got_op.matrix, c, got_op.constant)
    assert np.abs(got - want).max() < 1e-10


def test_heisenberg_step_is_pairing_adjoint():
    """<E(gamma), H> = <gamma, E^dag(H)>: forward covariance step and
    adjoint operator step give the same energy."""
    n = 4
    rng = np.random.default_rng(16)
    gen = random_op(n, 17)
    op = random_op(n, 18, constant=-0.4)
    layer = FermionLayer(gen, p=0.15, depolarized_sites=tuple(range(n)))
    gamma = ground_state_covariance(random_op(n, 19))
    forward = energy_from_covariance(covariance_layer_step(gamma, layer), op)
    backward = energy_from_covariance(gamma, heisenberg_quadratic_step(op, layer))
    assert abs(forward - backward) < 1e-11


def per_site_depolarizing(g: np.ndarray, p: float, sites) -> np.ndarray:
    for site in sites:
        g = evolve_covariance_depolarizing(g, p, site)
    return g


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("sites", [None, (), (2,), (0, 3, 4), (1, 1, 4),
                                   (0, 1, 2, 3, 4)])
def test_noise_multiplier_matches_per_site_composition(p, sites):
    """One entrywise multiplier per layer equals depolarizing one site at a
    time, in both the forward and the adjoint step."""
    from noisebound.fermion import _noise_multiplier
    n = 5
    rng = np.random.default_rng(40)
    layer = FermionLayer(random_op(n, 41), p=p, depolarized_sites=sites)
    listed = layer.sites(n)
    g = random_antisym(2 * n, rng)
    want = per_site_depolarizing(g, p, listed)
    assert np.abs(_noise_multiplier(n, p, listed) * g - want).max() < 1e-14

    r = scipy.linalg.expm(2.0 * layer.generator.matrix)
    forward = per_site_depolarizing(r @ g @ r.T, p, listed)
    assert np.abs(covariance_layer_step(g, layer) - forward).max() < 1e-13
    op = QuadraticOp(g, 0.3)
    backward = r.T @ per_site_depolarizing(g, p, listed) @ r
    got = heisenberg_quadratic_step(op, layer)
    assert np.abs(got.matrix - backward).max() < 1e-13
    assert got.constant == 0.3


def test_noise_multiplier_random_subsets_and_bad_site():
    from noisebound.fermion import _noise_multiplier
    rng = np.random.default_rng(42)
    n = 7
    g = random_antisym(2 * n, rng)
    for _ in range(10):
        size = int(rng.integers(0, n + 1))
        sites = tuple(int(x) for x in rng.choice(n, size=size, replace=False))
        p = float(rng.uniform())
        want = per_site_depolarizing(g, p, sites)
        assert np.abs(_noise_multiplier(n, p, sites) * g - want).max() < 1e-14
    with pytest.raises(ValueError):
        covariance_layer_step(g, FermionLayer(random_op(n, 43), 0.1, (n,)))


def test_layer_map_is_cached_orthogonal_expm():
    """The layer's R equals expm(2 m) for dense and bond-local generators,
    is orthogonal, and is built once."""
    circ, _ = fermion_brickwall_1d(8, 4, 0.1, 44)
    layers = circ.layers + [FermionLayer(random_op(8, 45), 0.1),
                            FermionLayer(quadratic_zero(8), 0.1)]
    for layer in layers:
        r = layer.orthogonal_map()
        want = scipy.linalg.expm(2.0 * layer.generator.matrix)
        assert np.abs(r - want).max() < 1e-12
        assert np.abs(r @ r.T - np.eye(16)).max() < 1e-12
        assert layer.orthogonal_map() is r


def test_layer_map_never_stale():
    """Replacing the generator, editing its matrix in place, or replacing
    the layer all rebuild R."""
    import dataclasses
    n = 4
    gamma = ground_state_covariance(random_op(n, 46))
    layer = FermionLayer(random_op(n, 47), 0.2)
    covariance_layer_step(gamma, layer)

    def check():
        r = scipy.linalg.expm(2.0 * layer.generator.matrix)
        assert np.abs(layer.orthogonal_map() - r).max() < 1e-12
        want = per_site_depolarizing(r @ gamma @ r.T, 0.2, range(n))
        assert np.abs(covariance_layer_step(gamma, layer) - want).max() < 1e-13

    layer.generator = random_op(n, 48)
    check()
    layer.generator.matrix[0, 5] += 0.4
    layer.generator.matrix[5, 0] -= 0.4
    check()
    layer = dataclasses.replace(layer, generator=random_op(n, 49))
    check()


# ---------------------------------------------------------------------------
# SSH targets and mirror circuits


def test_ssh_1d_spectrum_unit_interval():
    op = ssh_hamiltonian_1d(8)
    assert abs(ground_state_energy(op)) < 1e-10
    assert abs(two_level_modes(op).spectrum().max() - 1.0) < 1e-10


def test_ssh_1d_dimerized_limit():
    """w = 0 decouples the chain into identical two-site dimers: all mode
    energies equal."""
    op = ssh_hamiltonian_1d(6, v=1.0, w=0.0)
    eps = mode_energies(op)
    assert np.abs(eps - eps[0]).max() < 1e-10


def test_ssh_2d_shapes_and_spectrum():
    op = ssh_hamiltonian_2d(3, 2)
    assert op.n_modes == 6
    assert abs(ground_state_energy(op)) < 1e-10
    assert abs(two_level_modes(op).spectrum().max() - 1.0) < 1e-10
    assert grid_coords(3, 2) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert chain_coords(3) == [(0,), (1,), (2,)]


def test_fermion_mirror_noiseless():
    """p = 0 mirror circuits end in the target's ground state."""
    circ, target = fermion_brickwall_1d(8, 6, 0.0, 21)
    gamma, energy = simulate_covariance(circ, target)
    check_covariance(gamma)
    assert abs(energy) < 1e-9
    circ2, target2 = fermion_brickwall_2d(3, 2, 4, 0.0, 22)
    _, energy2 = simulate_covariance(circ2, target2)
    assert abs(energy2) < 1e-9


def generator_digest(circ: FermionCircuit) -> str:
    h = hashlib.sha256()
    for layer in circ.layers:
        h.update(np.ascontiguousarray(layer.generator.matrix).tobytes())
    return h.hexdigest()


def test_brickwall_generators_pinned():
    """Layer generators are bitwise those of the bond groups the fermion
    module used to build itself (sha256 of every generator matrix)."""
    circ1, _ = fermion_brickwall_1d(9, 6, 0.05, 3)
    assert generator_digest(circ1) == (
        "7e37a7109c2ce88b649852fbf044ac61f39da45bb319e81df4748e1e08084c7c")
    circ2, _ = fermion_brickwall_2d(3, 4, 10, 0.05, 5)
    assert generator_digest(circ2) == (
        "47240a87da8e5dd0bdd0cff0cdf61124616bc79a6258e49e1f9bd0cc4e00b84a")


def test_fermion_circuit_determinism_and_parity():
    a, _ = fermion_brickwall_1d(6, 4, 0.1, 30)
    b, _ = fermion_brickwall_1d(6, 4, 0.1, 30)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.generator.matrix, lb.generator.matrix)
    with pytest.raises(ValueError):
        fermion_brickwall_1d(6, 5, 0.1, 0)


def test_noisy_output_energy_above_floor():
    circ, target = fermion_brickwall_1d(10, 6, 0.1, 23)
    _, energy = simulate_covariance(circ, target)
    assert energy > 0.0
    assert energy < 1.0


# ---------------------------------------------------------------------------
# locality projection


def test_locality_mask_and_projection():
    n = 6
    coords = chain_coords(n)
    mask = locality_mask(n, 1, coords)
    assert mask.shape == (2 * n, 2 * n)
    assert mask[0, 1] and mask[0, n]          # neighbors and partner blocks
    assert not mask[0, 3]                      # distance 3 > radius 1
    op = random_op(n, 24)
    proj = project_local(op, 1, coords)
    assert np.abs(proj.matrix[~mask]).max() == 0.0
    untouched = project_local(op, None, coords)
    assert np.abs(untouched.matrix - op.matrix).max() == 0.0


# ---------------------------------------------------------------------------
# fermionic dual bound


def fermion_setup(n=6, depth=4, p=0.08, seed=25):
    circ, target = fermion_brickwall_1d(n, depth, p, seed)
    sched = info_schedule(n, depth, p)
    _, energy = simulate_covariance(circ, target)
    return circ, target, sched, energy


def canonical_step_term(ht: QuadraticOp, c_nats: float, lam: float) -> float:
    """The step term from the paired mode energies of the canonical form."""
    eps, _ = canonical_form(ht.matrix)
    return float(ht.constant - np.sum(eps)
                 - lam * np.sum(np.log1p(np.exp(-2.0 * eps / lam)))
                 + lam * c_nats)


def ops_with_zero_modes(n: int, seed: int) -> list[QuadraticOp]:
    """Random operators, some supported on a subset of modes or of
    Majoranas (so with exact zero modes), plus the zero operator."""
    rng = np.random.default_rng(seed)
    ops = [QuadraticOp(random_antisym(2 * n, rng), 0.4),
           quadratic_zero(n)]
    for keep in (1, 2, n - 1):
        mask = np.zeros(n, bool)
        mask[rng.choice(n, size=keep, replace=False)] = True
        sub = np.tile(mask, 2)
        ops.append(QuadraticOp(np.where(np.outer(sub, sub),
                                        random_antisym(2 * n, rng), 0.0), -0.2))
    odd = np.zeros(2 * n, bool)
    odd[[0, 3, n + 1]] = True
    ops.append(QuadraticOp(np.where(np.outer(odd, odd),
                                    random_antisym(2 * n, rng), 0.0)))
    return ops


def test_spectral_step_term_matches_canonical_form():
    from noisebound.fermion import _gibbs_covariance, _step_term_fermion
    for op in ops_with_zero_modes(5, 50):
        for lam in (1e-8, 1e-3, 0.05, 0.7, 3.0, 1e4):
            term, got_lam, spectrum = _step_term_fermion(op, 0.9, lam)
            assert got_lam == lam
            want = canonical_step_term(op, 0.9, lam)
            assert abs(term - want) < 1e-12 * max(1.0, abs(want))
            gibbs = _gibbs_covariance(spectrum, lam)
            assert np.abs(gibbs - thermal_covariance(op, lam)).max() < 1e-9
        e = np.sort(spectrum[0])
        assert np.abs(e[::2] - e[1::2]).max() < 1e-12
        assert np.abs(e[::2] - np.sort(mode_energies(op))).max() < 1e-12


def test_dual_value_gibbs_matches_thermal_covariance():
    """Each Gibbs matrix of the dual evaluation is the thermal covariance of
    its defect operator at the chosen lambda, including defects with zero
    modes."""
    from noisebound.fermion import _defect_ops, _dual_value_parts
    circ, target, sched, _ = fermion_setup()
    n = circ.n_modes
    candidates = [
        [random_op(n, 60 + t).scaled(0.3) for t in range(circ.depth)],
        [quadratic_zero(n) for _ in range(circ.depth)],
        ops_with_zero_modes(n, 61)[2:2 + circ.depth - 1] + [-target],
    ]
    for s_list in candidates:
        _, lams, gibbs = _dual_value_parts(s_list, circ, target, sched)
        for ht, lam, g in zip(_defect_ops(s_list, circ, target), lams, gibbs):
            assert np.abs(g - thermal_covariance(ht, lam)).max() < 1e-9


def test_fixed_dual_value_pinned_at_scale():
    """The seed-dual bound of the 48-mode, depth-24 chain at radius 1, as
    computed by the canonical-form evaluation."""
    circ, target = fermion_brickwall_1d(48, 24, 0.05, 97)
    sched = info_schedule(48, 24, 0.05)
    s_list = default_fermion_initial_duals(circ, target, 1, circ.meta["coords"])
    got = fermionic_dual_value(s_list, circ, target, sched).bound
    assert abs(got - (-0.15906885933480863)) < 1e-9


def test_lambda_search_stable_under_rescale():
    """A one-ulp rescale of every seed defect moves each searched lambda_t
    by at most 1e-12 relative: the search solves S(lambda) = c instead of
    comparing objective values in a flat region."""
    from noisebound.fermion import _defect_ops, _step_term_fermion
    n, depth, p = 12, 8, 0.05
    circ, target = fermion_brickwall_1d(n, depth, p, 97)
    sched = info_schedule(n, depth, p)
    s_list = default_fermion_initial_duals(circ, target, 1, circ.meta["coords"])
    for t, ht in enumerate(_defect_ops(s_list, circ, target)):
        c_nats = LN2 * (n - float(sched.values[t]))
        _, lam, _ = _step_term_fermion(ht, c_nats, None)
        _, lam_scaled, _ = _step_term_fermion(ht.scaled(1.0 + 3e-16), c_nats,
                                              None)
        assert abs(lam_scaled - lam) <= 1e-12 * lam


def test_dual_value_sound_random_duals():
    circ, target, sched, energy = fermion_setup()
    for seed in range(5):
        s_list = [random_op(circ.n_modes, 100 + seed * 10 + t).scaled(0.3)
                  for t in range(circ.depth)]
        val = fermionic_dual_value(s_list, circ, target, sched)
        assert val.bound <= energy + 1e-8


def test_dual_value_zero_duals_reduce_to_info_floor():
    """All-zero duals leave only the final free-energy term, which is the
    architecture-free information bound (with a wider lambda range)."""
    circ, target, sched, energy = fermion_setup()
    zeros = [quadratic_zero(circ.n_modes) for _ in range(circ.depth)]
    val = fermionic_dual_value(zeros, circ, target, sched)
    assert val.bound <= energy + 1e-8
    floor = info_bound(two_level_modes(target), circ.n_modes, 0.08,
                       circ.depth).bound
    assert val.bound >= floor - 1e-5


def test_dual_value_seed_duals_nearly_tight_noiseless():
    n, depth = 6, 4
    circ, target = fermion_brickwall_1d(n, depth, 0.0, 26)
    sched = info_schedule(n, depth, 0.0)
    s_list = default_fermion_initial_duals(circ, target, None)
    val = fermionic_dual_value(s_list, circ, target, sched)
    _, energy = simulate_covariance(circ, target)
    assert val.bound <= energy + 1e-8
    assert abs(val.bound - energy) < 1e-5


def test_dual_gradient_matches_finite_differences():
    from noisebound.fermion import _dual_value_parts, _pack, _unpack
    circ, target, sched, _ = fermion_setup(n=6, depth=4, seed=27)
    n = circ.n_modes
    mask = locality_mask(n, 1, chain_coords(n))
    rows, cols = np.where(np.triu(mask, k=1))
    s0 = default_fermion_initial_duals(circ, target, 1, chain_coords(n))
    consts = [s.constant for s in s0]
    x0 = _pack(s0, rows, cols)
    k = rows.size

    def value(theta):
        s_list = _unpack(theta, consts, n, rows, cols)
        return fermionic_dual_value(s_list, circ, target, sched).bound

    _, _, gibbs = _dual_value_parts(s0, circ, target, sched)
    grad = np.empty_like(x0)
    prev = circ.initial_covariance
    for t in range(circ.depth):
        g_mat = gibbs[t] - covariance_layer_step(prev, circ.layers[t])
        grad[t * k:(t + 1) * k] = g_mat[rows, cols]
        prev = gibbs[t]

    rng = np.random.default_rng(28)
    h = 1e-5
    for idx in rng.choice(x0.size, size=8, replace=False):
        e = np.zeros_like(x0)
        e[idx] = 1.0
        fd = (value(x0 + h * e) - value(x0 - h * e)) / (2 * h)
        assert abs(fd - grad[idx]) < 1e-5 * max(1.0, abs(grad[idx]))


def test_optimizer_improves_and_stays_sound():
    circ, target, sched, energy = fermion_setup(n=8, depth=4, p=0.1, seed=29)
    coords = chain_coords(circ.n_modes)
    seed_duals = default_fermion_initial_duals(circ, target, 1, coords)
    seed_val = fermionic_dual_value(seed_duals, circ, target, sched)
    s_best, lams, val = optimize_fermionic_dual(
        circ, target, 1, sched, coords=coords, maxiter=25)
    assert val.bound >= seed_val.bound - 1e-9
    assert val.bound <= energy + 1e-8
    assert len(lams) == circ.depth
    assert all(l > 0 for l in lams)


def test_optimizer_radius_chain_monotone():
    """Wider support can only help when each run is seeded with the
    previous optimum."""
    circ, target, sched, energy = fermion_setup(n=8, depth=4, p=0.1, seed=31)
    coords = chain_coords(circ.n_modes)
    bounds = []
    s_prev = None
    for r in (0, 1, 2):
        s_prev, _, val = optimize_fermionic_dual(
            circ, target, r, sched, coords=coords, init_s_list=s_prev,
            maxiter=20)
        bounds.append(val.bound)
        assert val.bound <= energy + 1e-8
    assert bounds[1] >= bounds[0] - 1e-9
    assert bounds[2] >= bounds[1] - 1e-9
