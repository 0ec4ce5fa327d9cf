"""Free energies, the architecture-free information floor, and the dense
information dual.

Free-energy code is pinned to direct log-sum-exp over explicit spectra;
the information bounds are pinned to exact limits (fully depolarized =
maximally mixed) and to weak duality against dense simulation.
"""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from noisebound.circuits import brickwall_1d
from noisebound.exact import dense_simulate
from noisebound.info_dual import (
    DEFAULT_TEMPERATURE_CUTOFF,
    LN2,
    TwoLevelModes,
    _spectrum,
    chain_benchmark_modes,
    free_energy_term,
    gibbs_free_energy_dense,
    golden_section_max,
    info_bound,
)
from noisebound.mpo import random_mpo
from noisebound.noise import info_schedule
from noisebound.trace_dual import dual_value, heisenberg_tebd


# ---------------------------------------------------------------------------
# concave search on (value, slope)


def test_golden_section_known_maximum():
    x, v = golden_section_max(
        lambda x: (-(math.log(x) - 1.0) ** 2, -2.0 * (math.log(x) - 1.0) / x),
        1e-3, 1e3)
    assert abs(x - math.e) < 1e-6 * math.e
    assert abs(v) < 1e-12


def test_golden_section_boundary_maximum():
    # strictly increasing: the right endpoint must win
    x, v = golden_section_max(lambda x: (math.log(x), 1.0 / x), 0.5, 20.0)
    assert x == pytest.approx(20.0)
    assert v == pytest.approx(math.log(20.0))


def test_golden_section_decreasing_returns_lo():
    x, v = golden_section_max(lambda x: (-x, -1.0), 0.5, 20.0)
    assert x == 0.5
    assert v == -0.5


def test_golden_section_validates_interval():
    with pytest.raises(ValueError):
        golden_section_max(lambda x: (x, 1.0), -1.0, 2.0)


def random_spectra(seed: int):
    """Random two-level mode descriptors (some with zero gaps) and random
    dense spectra (some with a degenerate ground level)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in (1, 3, 8):
        gaps = rng.uniform(0.0, 2.0, size=k)
        gaps[rng.random(k) < 0.3] = 0.0
        out.append(TwoLevelModes(gaps, rng.normal()))
    for dim in (2, 7, 32):
        ev = rng.normal(size=dim)
        ev[: dim // 4] = ev.min()
        out.append(ev)
    return out


def max_entropy(spec) -> float:
    if isinstance(spec, TwoLevelModes):
        return spec.n_modes * LN2
    return math.log(np.asarray(spec).size)


def grid_log_partition(spec, lams: np.ndarray) -> np.ndarray:
    """ln Z at every lambda of a grid, by direct vectorized sums."""
    if isinstance(spec, TwoLevelModes):
        return (-spec.offset / lams
                + np.log1p(np.exp(-spec.gaps[None, :] / lams[:, None])).sum(1))
    return logsumexp(-np.asarray(spec)[None, :] / lams[:, None], axis=1)


def test_free_energy_term_beats_log_grid():
    """The searched term is at least the objective's maximum over a
    2,001-point log grid of [1e-8, 1e9], for caps below, inside and above
    the entropy range."""
    grid = np.logspace(-8.0, 9.0, 2001)
    for spec in random_spectra(3):
        logz = grid_log_partition(spec, grid)
        for frac in (-0.1, 0.05, 0.5, 0.97, 1.2):
            c = frac * max_entropy(spec)
            term, lam = free_energy_term(spec, c)
            assert 1e-8 <= lam <= 1e9
            assert term == free_energy_term(spec, c, lam)[0]
            best = float(np.max(grid * c - grid * logz))
            assert term >= best - 1e-12 * max(1.0, abs(best))


def test_two_level_entropy_matches_dense_spectrum():
    modes = TwoLevelModes(np.array([0.0, 0.3, 1.1, 2.0]), 0.7)
    ev = modes.spectrum()
    a = free_energy_term(modes, 0.8 * 4 * LN2)
    b = free_energy_term(ev, 0.8 * 4 * LN2)
    assert abs(a[0] - b[0]) < 1e-12
    assert abs(a[1] - b[1]) < 1e-9 * a[1]
    for lam in (1e-3, 0.2, 1.0, 40.0):
        w = np.exp(-(ev - ev.min()) / lam)
        w = w[w > 0.0] / w.sum()
        assert abs(modes.entropy(lam) - float(-w @ np.log(w))) < 1e-12


# ---------------------------------------------------------------------------
# two-level mode spectra


def test_two_level_modes_validation():
    with pytest.raises(ValueError):
        TwoLevelModes(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        TwoLevelModes(np.array([]))


def test_two_level_spectrum_enumeration():
    modes = TwoLevelModes(np.array([1.0, 2.0]), offset=-0.5)
    want = np.sort([-0.5, 0.5, 1.5, 2.5])
    assert np.abs(modes.spectrum() - want).max() < 1e-14


def test_two_level_log_partition_vs_enumeration():
    rng = np.random.default_rng(0)
    modes = TwoLevelModes(rng.uniform(0.1, 2.0, size=6), offset=-1.3)
    spec = modes.spectrum()
    for lam in (0.05, 0.7, 13.0):
        direct = float(np.log(np.sum(np.exp(-spec / lam))))
        assert abs(modes.log_partition(lam) - direct) < 1e-10


def test_chain_benchmark_modes():
    n = 5
    spec = chain_benchmark_modes(n).spectrum()
    assert spec.size == 2**n
    assert spec.min() == pytest.approx(0.0)
    assert spec.max() == pytest.approx(1.0)
    # level k/n appears C(n, k) times
    vals, counts = np.unique(np.round(spec * n).astype(int), return_counts=True)
    assert list(vals) == list(range(n + 1))
    assert counts[2] == math.comb(n, 2)


# ---------------------------------------------------------------------------
# dense free energy


def test_gibbs_free_energy_dense_vs_spectrum():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (a + a.conj().T) / 2
    ev = np.linalg.eigvalsh(h)
    for lam in (0.1, 1.0, 50.0):
        want = -lam * np.log(np.sum(np.exp(-ev / lam)))
        assert abs(gibbs_free_energy_dense(h, lam) - want) < 1e-9


def test_gibbs_free_energy_limits():
    """lambda -> 0: ground energy; lambda -> inf: -lambda ln dim + mean."""
    h = np.diag([0.0, 0.3, 0.9, 2.0])
    assert abs(gibbs_free_energy_dense(h, 1e-4) - 0.0) < 1e-3
    lam = 1e8
    got = gibbs_free_energy_dense(h, lam) + lam * np.log(4.0)
    assert abs(got - np.trace(h) / 4.0) < 1e-6


def test_gibbs_free_energy_rejects_bad_input():
    with pytest.raises(ValueError):
        gibbs_free_energy_dense(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ValueError):
        gibbs_free_energy_dense(np.eye(2), 0.0)


# ---------------------------------------------------------------------------
# architecture-free information floor


def test_info_bound_fully_depolarized_is_mean_energy():
    """p = 1 leaves the maximally mixed state: the floor is tight there."""
    rng = np.random.default_rng(2)
    a = rng.normal(size=(16, 16))
    h = (a + a.T) / 2
    rep = info_bound(h, 4, p=1.0, depth=3)
    assert abs(rep.bound - np.trace(h) / 16.0) < 1e-6


def test_info_bound_zero_hamiltonian_closed_form():
    """H = 0: the objective is linear in lambda with negative slope, so the
    cutoff endpoint is optimal: bound = -lambda_c ln2 n (1-p)^d."""
    n, p, d = 3, 0.2, 4
    h = np.zeros((2**n, 2**n))
    rep = info_bound(h, n, p, d)
    want = -DEFAULT_TEMPERATURE_CUTOFF * LN2 * n * (1 - p) ** d
    assert abs(rep.bound - want) < 1e-9 * abs(want)
    s_nats = LN2 * (n - n * (1 - p) ** d)
    _, lam = free_energy_term(_spectrum(h, n), s_nats,
                              lo=DEFAULT_TEMPERATURE_CUTOFF)
    assert lam == pytest.approx(DEFAULT_TEMPERATURE_CUTOFF)


@pytest.mark.parametrize("n", [8, 16])
def test_info_bound_at_full_noise_is_capped_at_the_mean_energy(n):
    """At p = 1 the search ends at lambda = 1e9, where lambda c - lambda ln Z
    rounds above the mean energy 1/2 of the chain target by ~1e-6; the
    bound is capped at the mean, which the maximally mixed state attains."""
    assert info_bound(chain_benchmark_modes(n), n, 1.0, 3).bound == 0.5


def test_info_bound_monotone_in_noise():
    h = np.diag(np.linspace(0.0, 1.0, 8))
    vals = [info_bound(h, 3, p, depth=5).bound for p in (0.02, 0.1, 0.3, 0.8)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_info_bound_modes_match_dense_path():
    n, p, d = 5, 0.1, 4
    modes = chain_benchmark_modes(n)
    via_modes = info_bound(modes, n, p, d).bound
    via_dense = info_bound(np.diag(modes.spectrum()), n, p, d).bound
    assert abs(via_modes - via_dense) < 1e-9


def test_info_bound_sound_vs_dense_run():
    n, d, p = 4, 5, 0.15
    circ, target = brickwall_1d(n, d, 0.3, p, 17)
    energy = dense_simulate(circ, hamiltonian=target).energy
    rep = info_bound(target, n, p, d)
    assert rep.bound <= energy + 1e-8


def test_info_bound_large_mpo_needs_spectrum():
    from noisebound.mpo import sum_local_mpo
    big = sum_local_mpo([np.diag([0.0, 1.0]).astype(complex)] * 14)
    with pytest.raises(ValueError, match="spectrum access"):
        info_bound(big, 14, 0.1, 3)


# ---------------------------------------------------------------------------
# dense information dual


def test_info_dual_exact_chain_is_nearly_tight():
    n, d, p = 3, 3, 0.1
    circ, target = brickwall_1d(n, d, 0.3, p, 19)
    dual = heisenberg_tebd(circ, target, max_bond=4**n)
    sched = info_schedule(n, d, p)
    val = dual_value(circ, dual, target, sched)
    energy = dense_simulate(circ, hamiltonian=target).energy
    assert val.bound <= energy + 1e-8
    # zero defects: each step contributes max_lam of a nonpositive linear
    # function, which the lambda floor makes vanishingly small
    assert abs(val.bound - energy) < 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_info_dual_sound_for_random_duals(seed):
    n, d, p = 4, 5, 0.12
    circ, target = brickwall_1d(n, d, 0.25, p, 200 + seed)
    energy = dense_simulate(circ, hamiltonian=target).energy
    rng = np.random.default_rng(seed)
    sigmas = [random_mpo(n, 2, rng) for _ in range(d)]
    val = dual_value(circ, sigmas, target, info_schedule(n, d, p))
    assert val.bound <= energy + 1e-8


def test_info_dual_sound_to_roundoff():
    """Searched and fixed lambdas, exact and truncated duals: the dense
    information dual never exceeds the dense output energy by more than
    roundoff."""
    for n, d, p, seed in ((3, 3, 0.1, 41), (4, 5, 0.05, 42), (4, 3, 0.3, 43)):
        circ, target = brickwall_1d(n, d, 0.3, p, seed)
        energy = dense_simulate(circ, hamiltonian=target).energy
        sched = info_schedule(n, d, p)
        for bond in (1, 2, 4**n):
            dual = heisenberg_tebd(circ, target, max_bond=bond)
            for lambdas in (None, [0.5] * d):
                val = dual_value(circ, dual, target, sched, lambdas)
                assert val.bound <= energy + 1e-12


def test_info_dual_fixed_lambdas_never_beat_optimized():
    n, d, p = 3, 3, 0.2
    circ, target = brickwall_1d(n, d, 0.3, p, 23)
    dual = heisenberg_tebd(circ, target, max_bond=2)
    sched = info_schedule(n, d, p)
    best = dual_value(circ, dual, target, sched)
    for lam in (0.05, 1.0, 40.0):
        fixed = dual_value(circ, dual, target, sched,
                           lambdas=[lam] * d)
        assert fixed.bound <= best.bound + 1e-10


def test_info_dual_requires_info_schedule():
    """The free-energy penalty needs an info schedule that matches the
    circuit's depth, on at most 10 sites (dense free energies)."""
    n, d, p = 3, 3, 0.1
    circ, target = brickwall_1d(n, d, 0.2, p, 29)
    dual = heisenberg_tebd(circ, target, max_bond=2)
    for depth in (d - 1, d + 1):
        with pytest.raises(ValueError, match="schedule length"):
            dual_value(circ, dual, target, info_schedule(n, depth, p))
    big, big_target = brickwall_1d(11, 1, 0.2, p, 29)
    with pytest.raises(ValueError, match="n=10"):
        dual_value(big, heisenberg_tebd(big, big_target, max_bond=1),
                   big_target, info_schedule(11, 1, p))
