"""Release gate: ten end-to-end checks, one test per guarantee.

Each test pins its tolerances and wall-clock budget inline and is
independent of the unit suites: oracles are recomputed from scratch
(dense density matrices, stabilizer propagation, covariance evolution)
rather than imported from other test files.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line
per check.
"""

import math
import time

import numpy as np
import pytest

from noisebound import circuits, exact, fermion, info_dual, trace_dual
from noisebound.circuits import CircuitSpec, Layer
from noisebound.mpo import (
    apply_gate_adjoint,
    compress,
    frobenius_norm,
    mpo_add,
    mpo_scale,
    random_mpo,
    sum_local_mpo,
)
from noisebound.noise import (
    biased_tau,
    depolarizing,
    info_schedule,
    max_replacement_fraction,
    purity_schedule,
    relative_entropy_schedule,
    relent_product_state,
    replacement,
    unital_pauli,
    unital_rate,
)

_I = np.eye(2, dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def embed(op: np.ndarray, n: int, sites: tuple[int, ...]) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    k = 0
    while k < n:
        if k == sites[0]:
            out = np.kron(out, op)
            k += len(sites)
        else:
            out = np.kron(out, _I)
            k += 1
    return out


def z_terms(n: int, coeff: float = -1.0) -> list[tuple[str, float]]:
    """Pauli-string decomposition of coeff * sum_i Z_i."""
    return [("I" * i + "Z" + "I" * (n - i - 1), coeff) for i in range(n)]


def random_herm_duals(n: int, depth: int, rng: np.random.Generator,
                      bond: int = 3) -> list:
    return [random_mpo(n, bond, rng) for _ in range(depth)]


def random_quadratic_duals(n: int, depth: int, rng: np.random.Generator,
                           scale: float = 0.5) -> list:
    duals = []
    for _ in range(depth):
        a = rng.standard_normal((2 * n, 2 * n))
        duals.append(fermion.QuadraticOp(scale * 0.5 * (a - a.T)))
    return duals


def brickwall_corpus() -> list[tuple[int, int, float, float, int]]:
    """Twenty random brick-wall instances, frozen by seed; shared by the
    full-bond exactness check and the penalty-domination check."""
    rng = np.random.default_rng(424242)
    cases = []
    for _ in range(20):
        n = int(rng.integers(2, 7))
        d = int(rng.choice([1, 3, 5]))           # family layers come in odd counts
        p = float(rng.choice([0.0, 0.05, 0.2]))
        theta = float(rng.uniform(0.0, np.pi / 2))
        seed = int(rng.integers(0, 2**31))
        cases.append((n, d, theta, p, seed))
    return cases


# ---------------------------------------------------------------------------
# 1. single-qubit exactness


def test_01_single_qubit_bounds_are_exact():
    """H = Z after one rotated-then-depolarized layer: the optimized dual
    reproduces (1-p) cos 2theta and the purity floor reproduces -(1-p),
    both to 1e-8, across a 50-point angle grid and three noise rates.
    Budget: 1 s."""
    t0 = time.perf_counter()
    spectrum = np.array([-1.0, 1.0])
    for p in (0.0, 0.1, 0.3):
        sched = purity_schedule(1, 1, p)
        for theta in np.linspace(0.0, np.pi, 50):
            circ, target = circuits.single_qubit_circuit(theta, p)
            dual = trace_dual.heisenberg_tebd(circ, target, 4)
            bound = trace_dual.dual_value_trace(circ, dual, target, sched).bound
            assert abs(bound - (1.0 - p) * math.cos(2.0 * theta)) < 1e-8
            # output purity of the depth-1 product circuit is exact
            pur = p * p / 4.0 + (1.0 - p / 2.0) ** 2
            floor = exact.min_energy_at_purity(spectrum, pur)
            assert abs(floor - (-(1.0 - p))) < 1e-8
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. full-bond dual chain equals the dense output energy


def test_02_full_bond_dual_matches_dense_energy():
    """On 20 random brick-wall circuits (n <= 6) the uncompressed
    Heisenberg chain gives a dual value within 1e-7 of the dense-oracle
    output energy.  Budget: 2 min."""
    t0 = time.perf_counter()
    for n, d, theta, p, seed in brickwall_corpus():
        circ, target = circuits.brickwall_1d(n, d, theta, p, seed)
        energy = exact.dense_simulate(circ, hamiltonian=target).energy
        dual = trace_dual.heisenberg_tebd(circ, target, 4**n)
        sched = purity_schedule(n, d, p)
        bound = trace_dual.dual_value_trace(circ, dual, target, sched).bound
        assert abs(bound - energy) < 1e-7, (n, d, theta, p, seed)
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 3. weak duality never violated


def test_03_weak_duality_soundness():
    """200 randomized (circuit, duals, schedule) triples across all four
    dual evaluators: every certified bound stays below the exact output
    energy plus 1e-8, with zero violations.  Budget: 10 min."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(90210)
    violations = []

    def check(tag, bound, energy):
        if bound > energy + 1e-8:
            violations.append((tag, bound, energy))

    # trace-purity dual, random Hermitian MPO duals
    for k in range(60):
        n = int(rng.integers(2, 7))
        d = int(rng.choice([1, 3, 5]))
        p = float(rng.uniform(0.01, 0.3))
        circ, target = circuits.brickwall_1d(
            n, d, float(rng.uniform(0, np.pi)), p, int(rng.integers(2**31)))
        energy = exact.dense_simulate(circ, hamiltonian=target).energy
        duals = random_herm_duals(n, d, rng)
        sched = purity_schedule(n, d, p * float(rng.uniform(0.1, 1.0)))
        dv = trace_dual.dual_value_trace(circ, duals, target, sched)
        check(("trace", k), dv.bound, energy)

    # information-content dual, dense per-step free energies
    for k in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.choice([1, 3, 5]))
        p = float(rng.uniform(0.01, 0.3))
        circ, target = circuits.brickwall_1d(
            n, d, float(rng.uniform(0, np.pi)), p, int(rng.integers(2**31)))
        energy = exact.dense_simulate(circ, hamiltonian=target).energy
        duals = random_herm_duals(n, d, rng)
        sched = info_schedule(n, d, p * float(rng.uniform(0.1, 1.0)))
        dv = info_dual.dual_value_info_dense(circ, duals, target, sched)
        check(("info", k), dv.bound, energy)

    # non-unital dual under replacement noise (diagonal entanglers)
    for k in range(40):
        n = int(rng.integers(2, 6))
        d = int(rng.choice([1, 3, 5]))
        q = float(rng.uniform(0.05, 0.4))
        eps = float(rng.uniform(-0.3, 0.3))
        tau = biased_tau(eps)
        circ, target = circuits.brickwall_1d(
            n, d, float(rng.uniform(0, np.pi)), q, int(rng.integers(2**31)),
            noise=replacement(q, tau), entangler=circuits.zz_gate)
        energy = exact.dense_simulate(circ, hamiltonian=target).energy
        duals = random_herm_duals(n, d, rng)
        rho0 = relent_product_state(circ.initial_state, tau)
        sched = relative_entropy_schedule(
            circ, tau, q * float(rng.uniform(0.5, 1.0)), rho0)
        dv = trace_dual.dual_value_nonunital(circ, duals, target, sched)
        check(("nonunital", k), dv.bound, energy)

    # fermionic dual, random quadratic duals
    for k in range(50):
        n = int(rng.choice([4, 6, 8]))
        d = int(rng.choice([2, 4, 6]))
        p = float(rng.uniform(0.01, 0.3))
        circ, target = fermion.fermion_brickwall_1d(
            n, d, p, int(rng.integers(2**31)))
        _, energy = fermion.simulate_covariance(circ, target)
        duals = random_quadratic_duals(n, d, rng)
        sched = info_schedule(n, d, p * float(rng.uniform(0.1, 1.0)))
        dv = fermion.fermionic_dual_value(duals, circ, target, sched)
        check(("fermion", k), dv.bound, energy)

    assert not violations, violations
    assert time.perf_counter() - t0 < 600.0


# ---------------------------------------------------------------------------
# 4. noise-aware penalties dominated termwise by plain truncation error


def test_04_purity_dual_dominates_plain_tebd_termwise():
    """Every TEBD dual in the shared corpus: the plain truncation-error
    bound never exceeds the purity-weighted bound, termwise and in total,
    with zero tolerance (the penalties share one defect-norm array)."""
    for n, d, theta, p, seed in brickwall_corpus():
        circ, target = circuits.brickwall_1d(n, d, theta, p, seed)
        sched = purity_schedule(n, d, p)
        for bond in (2, 4**n):
            dual = trace_dual.heisenberg_tebd(circ, target, bond)
            dv_trace = trace_dual.dual_value_trace(circ, dual, target, sched)
            dv_tebd = trace_dual.tebd_error_bound(circ, dual, target)
            assert dv_tebd.boundary == dv_trace.boundary
            assert np.all(dv_trace.penalties <= dv_tebd.penalties)
            assert dv_tebd.bound <= dv_trace.bound


# ---------------------------------------------------------------------------
# 5. mixing schedules dominate dense runs in every regime


def test_05_schedules_dominate_dense_runs():
    """100 random circuits per noise regime (depolarizing, general unital
    Pauli, replacement): the dense per-step purity / information content /
    Frobenius distance never exceeds its certified schedule.  Budget:
    5 min."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)

    def chain(noise, p_meta, entangler=circuits.xx_gate):
        n = int(rng.integers(2, 6))
        d = int(rng.choice([1, 3, 5]))
        circ, _ = circuits.brickwall_1d(
            n, d, float(rng.uniform(0, np.pi)), p_meta,
            int(rng.integers(2**31)), noise=noise, entangler=entangler)
        return circ, n, d

    # depolarizing
    for _ in range(100):
        p = float(rng.uniform(0.01, 0.3))
        circ, n, d = chain(depolarizing(p), p)
        run = exact.dense_simulate(circ)
        assert np.all(np.array(run.purities) <= purity_schedule(n, d, p).values + 1e-10)
        assert np.all(np.array(run.infos) <= info_schedule(n, d, p).values + 1e-10)

    # general unital Pauli noise: the schedules hold at the weakest rate
    for _ in range(100):
        rates = rng.uniform(0.01, 0.15, size=3)
        model = unital_pauli(*rates)
        r = unital_rate(model)
        circ, n, d = chain(model, float(np.sum(rates)))
        run = exact.dense_simulate(circ)
        assert np.all(np.array(run.purities) <= purity_schedule(n, d, r).values + 1e-10)
        assert np.all(np.array(run.infos) <= info_schedule(n, d, r).values + 1e-10)

    # replacement noise: Frobenius-distance caps from the relative-entropy
    # recursion (requires entanglers diagonal in the tau basis)
    for _ in range(100):
        q = float(rng.uniform(0.05, 0.35))
        eps = float(rng.uniform(-0.35, 0.35))
        tau = biased_tau(eps)
        circ, n, d = chain(replacement(q, tau), q, entangler=circuits.zz_gate)
        run = exact.dense_simulate(circ, keep_states=True)
        rho0 = relent_product_state(circ.initial_state, tau)
        sched = relative_entropy_schedule(circ, tau, q, rho0)
        tau_prod = exact.product_density_matrix([tau] * n)
        dists = [np.linalg.norm(rho - tau_prod, "fro") for rho in run.states]
        assert np.all(np.array(dists) <= sched.values + 1e-10)

    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# 6. Clifford mirrors: dual at linear bond dimension matches the
#    stabilizer oracle


def test_06_clifford_dual_matches_stabilizer_oracle():
    """Ten entangle/un-entangle Clifford mirrors (n up to 24, d up to 20,
    p = 0.05): the dual at bond dimension D = n agrees with stabilizer
    propagation to 1e-8; at n = 8 both agree with the dense oracle to
    1e-9.  Identity circuits reproduce the product-state floor
    -n (1-p)^d.  Budget: 5 min."""
    t0 = time.perf_counter()
    p = 0.05
    cases = [(8, 4), (8, 8), (8, 12), (8, 20), (16, 4), (16, 12), (16, 20),
             (24, 4), (24, 12), (24, 20)]
    for i, (n, d) in enumerate(cases):
        circ, target = circuits.clifford_entangle_unentangle(n, d, p, 100 + i)
        oracle = exact.stabilizer_energy(circ, z_terms(n))
        dual = trace_dual.heisenberg_tebd(circ, target, n)
        sched = purity_schedule(n, d, p)
        bound = trace_dual.dual_value_trace(circ, dual, target, sched).bound
        assert abs(bound - oracle) < 1e-8, (n, d, bound, oracle)
        if n <= 10:
            dense = exact.dense_simulate(circ, hamiltonian=target).energy
            assert abs(oracle - dense) < 1e-9
            assert abs(bound - dense) < 1e-9

    # gate-free circuits: the oracle lands exactly on -n (1-p)^d
    for n, d, pp in ((3, 4, 0.3), (5, 7, 0.05), (8, 20, 0.05)):
        circ_id = CircuitSpec(n, [Layer([], depolarizing(pp)) for _ in range(d)])
        got = exact.stabilizer_energy(circ_id, z_terms(n))
        assert abs(got - (-n * (1.0 - pp) ** d)) < 1e-12
        target = sum_local_mpo([-_Z] * n)
        dense = exact.dense_simulate(circ_id, hamiltonian=target).energy
        assert abs(dense - got) < 1e-12
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# 7. replacement-fraction recovery


def test_07_replacement_fraction_recovery():
    """The largest q with Lambda - q * (replace-by-tau) completely
    positive is recovered to 1e-7 on a q x bias grid; channels with no
    replacement component are rejected.  Budget: 1 s."""
    t0 = time.perf_counter()
    for q0 in (0.01, 0.05, 0.3):
        for eps in (0.0, 0.1, 0.3):
            tau = biased_tau(eps)
            got = max_replacement_fraction(replacement(q0, tau), tau)
            assert abs(got - q0) <= 1e-7, (q0, eps, got)
    with pytest.raises(ValueError, match="replacement"):
        max_replacement_fraction(depolarizing(0.0), biased_tau(0.1))
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 8. fermionic duals at scale: sound, monotone in radius, converging


def test_08_fermionic_duals_converge_at_scale():
    """48-mode chain and 7x7 grid mirrors at p = 0.05, depths up to 40:
    optimized local duals stay below the covariance-exact output for
    every radius r in {0,1,2,3}, improve monotonically under nested
    seeding, and the r = 3 gap beats the r = 0 gap in every run.
    Budget: 20 min."""
    t0 = time.perf_counter()
    for d in (4, 12, 24, 40):
        pairs = [
            fermion.fermion_brickwall_1d(48, d, 0.05, 97),
            fermion.fermion_brickwall_2d(7, 7, d, 0.05, 98),
        ]
        for circ, target in pairs:
            n = circ.n_modes
            _, energy = fermion.simulate_covariance(circ, target)
            sched = info_schedule(n, d, 0.05)
            bounds = []
            init = None
            for r in (0, 1, 2, 3):
                s_list, _, dv = fermion.optimize_fermionic_dual(
                    circ, target, r, sched, init_s_list=init, maxiter=40)
                init = s_list
                bounds.append(dv.bound)
                assert dv.bound <= energy + 1e-9, (n, d, r, dv.bound, energy)
            for a, b in zip(bounds, bounds[1:]):
                assert b >= a - 1e-9, (n, d, bounds)
            gap0, gap3 = energy - bounds[0], energy - bounds[-1]
            assert gap3 < gap0, (n, d, gap0, gap3)
    assert time.perf_counter() - t0 < 1200.0


# ---------------------------------------------------------------------------
# 9. 16-site benchmark: bound ordering and the mixed-state limit


def test_09_chain_benchmark_ordering_and_mixed_limit():
    """16-site brick-wall benchmark (theta = 0.1, depths 3..25, p in
    {0.05, 0.1}, bond dimensions {4, 8, 16}): (a) the purity-weighted
    dual dominates the plain-TEBD bound everywhere; (b) wherever the
    best dual is non-trivial it also beats the architecture-free
    information bound; (c) at d = 25, p = 0.1 both trace-based bounds
    lie within 1e-3 of the maximally-mixed energy 1/2.
    Budget: 30 min."""
    t0 = time.perf_counter()
    n, theta, seed = 16, 0.1, 11
    depths = list(range(3, 26, 2))
    modes = info_dual.chain_benchmark_modes(n)
    best = {}
    for p in (0.05, 0.1):
        for d in depths:
            circ, target = circuits.brickwall_1d(n, d, theta, p, seed)
            sched = purity_schedule(n, d, p)
            info = info_dual.info_bound(modes, n, p, d).bound
            for bond in (4, 8, 16):
                dual = trace_dual.heisenberg_tebd(circ, target, bond)
                tr = trace_dual.dual_value_trace(circ, dual, target, sched)
                te = trace_dual.tebd_error_bound(circ, dual, target)
                assert tr.bound >= te.bound, (p, d, bond)          # (a)
                if bond == 16:
                    best[(p, d)] = (tr.bound, te.bound)
                    if tr.bound > 0.0:                             # (b)
                        assert tr.bound >= info - 1e-9, (p, d, tr.bound, info)

    tr25, te25 = best[(0.1, 25)]                                   # (c)
    mixed = 0.5
    assert abs(tr25 - mixed) < 1e-3 and abs(te25 - mixed) < 1e-3, (
        f"at d=25, p=0.1, D=16: purity-weighted dual {tr25:.4f} and "
        f"plain-TEBD bound {te25:.4f} vs maximally-mixed energy {mixed}")
    assert time.perf_counter() - t0 < 1800.0


# ---------------------------------------------------------------------------
# 10. optimizer monotonicity and MPO/dense equivalence


def test_10_optimizers_monotone_and_mpo_dense_equivalent():
    """50 optimizer runs (25 greedy MPO refinements, 25 quasi-Newton
    fermionic fits) never decrease the certified bound, and recomputing
    the objective from the returned duals reproduces the reported value;
    randomized MPO algebra agrees with dense linear algebra to 1e-9.
    Budget: 10 min."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)

    for k in range(25):
        n = int(rng.integers(2, 5))
        d = int(rng.choice([1, 3]))
        p = float(rng.uniform(0.02, 0.2))
        circ, target = circuits.brickwall_1d(
            n, d, float(rng.uniform(0, np.pi)), p, int(rng.integers(2**31)))
        sched = purity_schedule(n, d, p)
        dual = trace_dual.heisenberg_tebd(circ, target, 2)
        refined, history = trace_dual.refine_dual(
            circ, dual, target, sched, rounds=4, seed=k)
        assert all(b >= a for a, b in zip(history, history[1:])), history
        redo = trace_dual.dual_value_trace(circ, refined, target, sched).bound
        assert abs(redo - history[-1]) < 1e-9

    for k in range(25):
        d = int(rng.choice([2, 4]))
        p = float(rng.uniform(0.02, 0.2))
        r = int(rng.choice([0, 1]))
        circ, target = fermion.fermion_brickwall_1d(
            6, d, p, int(rng.integers(2**31)))
        sched = info_schedule(6, d, p)
        seed_duals = fermion.default_fermion_initial_duals(
            circ, target, r, circ.meta["coords"])
        seed_val = fermion.fermionic_dual_value(
            seed_duals, circ, target, sched).bound
        s_opt, _, dv = fermion.optimize_fermionic_dual(
            circ, target, r, sched, maxiter=25)
        assert dv.bound >= seed_val - 1e-9
        redo = fermion.fermionic_dual_value(s_opt, circ, target, sched).bound
        assert abs(redo - dv.bound) < 1e-9
        _, energy = fermion.simulate_covariance(circ, target)
        assert dv.bound <= energy + 1e-9

    for k in range(10):
        n = int(rng.integers(3, 6))
        a = random_mpo(n, 3, rng)
        b = random_mpo(n, 2, rng)
        da, db = a.to_dense(), b.to_dense()
        assert np.abs(mpo_add(a, b).to_dense() - (da + db)).max() < 1e-9
        assert np.abs(mpo_scale(a, 0.37).to_dense() - 0.37 * da).max() < 1e-9
        comp, err = compress(mpo_add(a, b), 2)
        true_err = np.linalg.norm(comp.to_dense() - (da + db), "fro")
        assert abs(err - true_err) < 1e-9
        u = circuits.haar_single_qubit(rng)
        site = int(rng.integers(n))
        got = apply_gate_adjoint(a, u, (site,)).to_dense()
        ufull = embed(u, n, (site,))
        assert np.abs(got - ufull.conj().T @ da @ ufull).max() < 1e-9
        assert abs(frobenius_norm(a) - np.linalg.norm(da, "fro")) < 1e-9

    assert time.perf_counter() - t0 < 600.0
