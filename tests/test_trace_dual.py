"""Heisenberg-TEBD dual sequences and the trace-purity / distance bounds.

Soundness is the load-bearing property: every DualValue must sit at or
below the exact output energy computed densely, for any dual sequence,
compressed or not.  Exactness at full bond dimension pins the chain rule
sigma_t = E^dag_{t+1}(sigma_{t+1}).
"""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from noisebound.circuits import (GateOp, Layer, brickwall_1d, brickwall_2d_snake,
                                 clifford_entangle_unentangle, haar_single_qubit,
                                 zz_gate)
from noisebound.exact import dense_simulate
from noisebound.mpo import MPO, expectation_product_state, random_mpo
from noisebound.noise import (
    BoundSchedule,
    NoiseModel,
    biased_tau,
    depolarizing,
    general_channel,
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


def _embed(gate, sites, n):
    """A k-site unitary on arbitrary (possibly reversed, non-adjacent)
    sites of n qubits, as a 2^n x 2^n matrix."""
    k = len(sites)
    eye = np.eye(2**n, dtype=complex).reshape((2,) * (2 * n))
    t = np.tensordot(gate.reshape((2,) * (2 * k)), eye,
                     axes=(list(range(k, 2 * k)), list(sites)))
    return np.moveaxis(t, list(range(k)), list(sites)).reshape(2**n, 2**n)


def _dense_layer_adjoint(a, layer, n):
    """E^dag(A) densely: the noise adjoint on every site, then U^dag . U."""
    k_adj = superop_matrix(layer.noise).conj().T
    t = a.reshape((2,) * (2 * n))
    for site in range(n):
        axes = (site, n + site)
        t = np.moveaxis(t, axes, (2 * n - 2, 2 * n - 1))
        flat = t.reshape(-1, 4) @ k_adj.T
        t = np.moveaxis(flat.reshape(t.shape), (2 * n - 2, 2 * n - 1), axes)
    u = np.eye(2**n, dtype=complex)
    for g in layer.gates:
        u = _embed(g.matrix, g.sites, n) @ u
    return u.conj().T @ t.reshape(2**n, 2**n) @ u


def _kraus_choi(kraus):
    """Unnormalized Choi matrix sum_jk |j><k| (x) N(|j><k|), input first."""
    phi = np.zeros((2, 2, 2, 2), dtype=complex)
    for j in range(2):
        for k in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[j, k] = 1.0
            phi[j, :, k, :] = sum(m @ e @ m.conj().T for m in kraus)
    return phi.reshape(4, 4)


def _noise(kind, p):
    """One channel of each kind at strength p, p = 0 and 1 included."""
    rng = np.random.default_rng(17)
    if kind == "depolarizing":
        return depolarizing(p)
    if kind == "unital_pauli":
        # built directly: the constructor insists on 0 < px + py + pz < 1
        return NoiseModel("unital_pauli", pauli_rates=(0.2 * p, 0.3 * p, 0.5 * p),
                          u=haar_single_qubit(rng), v=haar_single_qubit(rng))
    if kind == "replacement":
        return replacement(p, biased_tau(0.2))
    # amplitude damping (gamma = 0.6) with probability p, else a rotation
    g = 0.6
    damp = [np.array([[1, 0], [0, np.sqrt(1 - g)]]), np.array([[0, np.sqrt(g)], [0, 0]])]
    u = haar_single_qubit(rng)
    return general_channel(_kraus_choi([np.sqrt(p) * m for m in damp]
                                       + [np.sqrt(1 - p) * u]))


_LAYER_FAMILIES = {
    "brickwall_1d": lambda nm: brickwall_1d(5, 3, 0.4, 0.0, 2, noise=nm),
    # reversed and non-adjacent pairs: swap chains
    "brickwall_2d_snake": lambda nm: brickwall_2d_snake(2, 3, 4, 0.4, 0.0, 2, noise=nm),
    # rank-4 Clifford gates: the SVD re-split
    "clifford_mirror": lambda nm: clifford_entangle_unentangle(4, 4, 0.0, 2, noise=nm),
}


@pytest.mark.parametrize("p", [0.0, 0.13, 1.0])
@pytest.mark.parametrize("kind", ["depolarizing", "unital_pauli", "replacement",
                                  "general"])
@pytest.mark.parametrize("family", list(_LAYER_FAMILIES))
def test_layer_adjoint_matches_dense(family, kind, p):
    """E^dag applied in MPO form equals the dense adjoint channel, for every
    layer of each family (forward and mirrored, so single-qubit gates sit
    before and after the two-site gates) under each noise kind."""
    circ, _ = _LAYER_FAMILIES[family](_noise(kind, p))
    n = circ.n_sites
    rng = np.random.default_rng(3)
    for layer in circ.layers:
        a = random_mpo(n, 3, rng)
        got = apply_layer_adjoint(a, layer).to_dense()
        want = _dense_layer_adjoint(a.to_dense(), layer, n)
        assert np.abs(got - want).max() < 1e-11


def test_layer_plan_follows_the_layer():
    """A layer cannot change after construction, so the plan of each call
    fits it: every edit of its gates or noise raises, and the layer adjoint
    afterwards is bit-identical and matches the dense one."""
    circ, _ = brickwall_1d(4, 3, 0.4, 0.1, 2)
    layer = circ.layers[1]
    rng = np.random.default_rng(4)
    a = random_mpo(4, 2, rng)
    before = apply_layer_adjoint(a, layer).to_dense()
    with pytest.raises(ValueError, match="read-only"):
        layer.gates[-1].matrix[...] = haar_single_qubit(rng)
    with pytest.raises(ValueError, match="read-only"):
        layer.gates[0].matrix[...] = layer.gates[0].matrix.conj()
    with pytest.raises(FrozenInstanceError):
        layer.gates[0].matrix = layer.gates[0].matrix.conj()
    with pytest.raises(FrozenInstanceError):
        layer.noise = replacement(0.3, biased_tau(0.1))
    with pytest.raises(AttributeError):
        layer.gates.pop(0)
    got = apply_layer_adjoint(a, layer).to_dense()
    assert np.array_equal(got, before)
    assert np.abs(got - _dense_layer_adjoint(a.to_dense(), layer, 4)).max() < 1e-11


def test_layer_adjoint_rejects_a_site_outside_the_chain():
    layer = Layer([GateOp(np.eye(4), (0, 4))], depolarizing(0.1))
    with pytest.raises(ValueError):
        apply_layer_adjoint(random_mpo(4, 2, np.random.default_rng(0)), layer)


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


def test_tebd_records_serve_only_their_own_circuit():
    """A TebdDual's recorded terms belong to the circuit and target it was
    built from.  On another circuit of the same depth it is evaluated as a
    list dual, below the exact energy with zero tolerance; on a circuit of
    another depth it raises instead of broadcasting its norms."""
    circ, target = brickwall_1d(4, 3, 0.3, 0.0, 1)
    sched = purity_schedule(4, 3, 0.0)
    energy = dense_simulate(circ, hamiltonian=target).energy
    dual = heisenberg_tebd(*brickwall_1d(4, 3, 0.3, 0.9, 1), 4)
    val = dual_value(circ, dual, target, sched)
    assert val.bound <= energy
    assert val.bound == dual_value(circ, dual.sigmas, target, sched).bound
    with pytest.raises(ValueError):
        dual_value(circ, heisenberg_tebd(*brickwall_1d(4, 1, 0.3, 0.9, 1), 4),
                   target, sched)


def _edit(circ, target, what):
    if what == "noise":
        for layer in circ.layers:
            layer.noise = depolarizing(0.0)
    elif what == "gate":
        m = circ.layers[1].gates[0].matrix
        m[...] = m.conj()
    elif what == "initial_state":
        circ.initial_state[0][...] = np.diag([0.0, 1.0])
    else:
        target.tensors[0][...] *= 2.0


@pytest.mark.parametrize("what", ["noise", "gate", "initial_state", "target"])
def test_tebd_records_follow_in_place_edits(what):
    """A TebdDual's records hold for the circuit and target it was built
    from, and neither can change: an in-place edit of the noise of a
    layer, one gate matrix, the initial state or a target tensor raises,
    where a stale record could certify a bound above the exact energy.
    The records then still serve, bit for bit, at or below the exact
    energy with zero tolerance."""
    circ, target = brickwall_1d(4, 3, 0.3, 0.9, 1)
    dual = heisenberg_tebd(circ, target, 4)
    sched = purity_schedule(4, 3, 0.0)
    before = dual_value(circ, dual, target, sched).bound
    with pytest.raises((FrozenInstanceError, ValueError),
                       match="read-only|cannot assign"):
        _edit(circ, target, what)
    assert dual_value(circ, dual, target, sched).bound == before
    assert before <= dense_simulate(circ, hamiltonian=target).energy


@pytest.mark.parametrize("depth", [1, 3])
def test_tebd_rejects_a_bond_that_is_not_a_positive_int(depth, monkeypatch):
    """max_bond is checked before any layer is applied."""
    circ, target = brickwall_1d(4, depth, 0.3, 0.1, 2)

    def no_work(*args):
        raise AssertionError("a layer adjoint ran")

    monkeypatch.setattr("noisebound.trace_dual.apply_layer_adjoint", no_work)
    for bad in (0, -3, 2.5, True, "4", None):
        with pytest.raises(ValueError, match="max_bond"):
            heisenberg_tebd(circ, target, bad)


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
    """A list dual under a distance schedule applies each layer adjoint
    once, for its norms, fixed-point terms and boundary together; a TEBD
    dual under a purity schedule or a distance schedule with its own tau
    applies none, and under another tau one per layer."""
    import noisebound.trace_dual as td
    circ, target, tau, sched = nonunital_setup(0)
    d = circ.depth
    calls = []

    def counted(*args):
        calls.append(1)
        return apply_layer_adjoint(*args)

    dual = heisenberg_tebd(circ, target, max_bond=2)
    monkeypatch.setattr(td, "apply_layer_adjoint", counted)
    dual_value(circ, random_dual(circ, 2, 0), target, sched)
    assert len(calls) == d
    calls.clear()
    dual_value(circ, dual, target, purity_schedule(circ.n_sites, d, 0.1))
    dual_value(circ, dual, target, sched)
    assert calls == []
    # a distance schedule against another tau needs the traces again
    other = BoundSchedule("frobenius_distance", sched.values, biased_tau(0.3))
    dual_value(circ, dual, target, other)
    assert len(calls) == d


@pytest.mark.parametrize("noisy", ["depolarizing", "replacement"])
def test_tebd_records_match_explicit_terms(noisy):
    """A TebdDual's boundary and Tr(H_t tau^xN) records equal boundary_term
    and the explicit defects' expectations, and the bounds read from them
    equal those of the same sigmas passed as a list, with the explicit
    norms in place of the recorded ones."""
    if noisy == "replacement":
        circ, target, tau, sched = nonunital_setup(1)
    else:
        circ, target = brickwall_1d(5, 5, 0.3, 0.1, 3)
        tau, sched = np.eye(2) / 2.0, purity_schedule(5, 5, 0.1)
    dual = heisenberg_tebd(circ, target, max_bond=3)
    assert abs(dual.boundary - boundary_term(circ, dual.sigmas[0])) < 1e-12
    hs = defect_mpos(circ, dual.sigmas, target)
    want = [expectation_product_state(h, [tau] * circ.n_sites) for h in hs]
    assert np.array_equal(dual.tau, tau)
    assert np.abs(dual.tau_traces - want).max() < 1e-12
    recorded = dual_value(circ, dual, target, sched)
    listed = dual_value(circ, dual.sigmas, target, sched)
    norms = explicit_defect_norms(circ, dual.sigmas, target)
    weight = np.sqrt(sched.values) if sched.kind == "purity" else sched.values
    assert abs(recorded.boundary - listed.boundary) < 1e-12
    assert np.abs(recorded.penalties - weight * (dual.step_defects - norms)
                  - listed.penalties).max() < 1e-12


@pytest.mark.parametrize("model", ["depolarizing", "nonunital"])
def test_mpo_bounds_below_dense_energy_at_n8(model):
    """Every trace_dual and nonunital_dual bound of an 8-site sweep point
    lies at or below the dense oracle's energy, with no tolerance."""
    from noisebound import sweep
    from noisebound.config import ExperimentConfig
    methods = ["trace_dual"] if model == "depolarizing" else ["nonunital_dual"]
    cfg = ExperimentConfig(family="brickwall_1d", n=8, depths=[3, 7], methods=methods,
                           seed=5, output="", thetas=[0.1], ps=[0.05, 0.2],
                           noise_model=model, eps=0.2, bond_dims=[2, 4, 16], oracle=True)
    rows = [r for pt in sweep.expand_grid(cfg) for r in sweep.run_point(cfg, pt)]
    assert len(rows) == 12
    assert all(r.bound <= r.exact_energy for r in rows)


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
