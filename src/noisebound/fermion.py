"""Gaussian-fermion duals: quadratic Majorana operators, covariance-matrix
circuit simulation, Heisenberg transforms, closed-form free energies, and a
gradient-based optimizer for locality-restricted information-content duals.

Conventions
-----------
N fermionic modes carry 2N Majorana operators ordered as all c^1 then all
c^2, normalized so {c_a, c_b} = delta_ab (each c squares to 1/2).  A
quadratic operator is H = i c^T m c + const with m real antisymmetric; a
state is summarized by the covariance matrix gamma_ab = i <[c_a, c_b]>,
also real antisymmetric, with singular values <= 1.  Expectation values
pair as

    <H> = sum_{a<b} m_ab gamma_ab + const = -Tr(m gamma)/2 + const.

Unitaries generated by quadratic Hamiltonians act as gamma -> R gamma R^T
with R = exp(2 m_U) orthogonal; single-mode depolarizing at rate p zeroes
row/column x and n+x with weight p.  Heisenberg (adjoint) transforms of
dual variables use the same primitives with R transposed and run noise
first.

Every mirror-circuit family lives on an lx-by-ly grid of modes in row-major
order, and a chain is the ly = 1 grid: the bond groups come from
:func:`noisebound.circuits._lattice_edges`, and a circuit carries its mode
coordinates, the geometry its locality radii are measured in.

scipy is imported inside the functions that call it (``canonical_form``,
``_orthogonal_from_generator`` and ``optimize_fermionic_dual``), so
importing the package loads no part of scipy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._blas import blas_threads
from .circuits import _lattice_edges
# golden_section_max is imported only so that bench/tracer.py can probe it
from .info_dual import (LN2, TwoLevelModes, free_energy_term,  # noqa: F401
                        golden_section_max)
from .noise import BoundSchedule
from .trace_dual import DualValue


# ---------------------------------------------------------------------------
# quadratic operators


@dataclass
class QuadraticOp:
    """i c^T m c + const with m real antisymmetric of shape (2N, 2N)."""

    matrix: np.ndarray
    constant: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError("matrix must be square with even dimension")
        scale = max(1.0, np.abs(m).max())
        if np.abs(m + m.T).max() > 1e-10 * scale:
            raise ValueError("matrix must be antisymmetric")
        # snap out roundoff so antisymmetry survives long pipelines
        self.matrix = _snap(m)
        self.constant = float(self.constant)

    @classmethod
    def _trusted(cls, matrix: np.ndarray, constant: float = 0.0) -> "QuadraticOp":
        """Internal constructor with no check and no snap, for a float
        matrix already equal to its own snap bit for bit (each entry the
        exact negative of its mirror, zeros signed as the snap leaves them)."""
        op = object.__new__(cls)
        op.matrix = matrix
        op.constant = float(constant)
        return op

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    # sums and differences of snapped matrices are snapped: fl(-a - b) is
    # exactly -fl(a + b), and no (-0, -0) pair of mirror entries can arise.
    # Negation and scaling can create such pairs, so they snap.
    def __add__(self, other: "QuadraticOp") -> "QuadraticOp":
        return QuadraticOp._trusted(self.matrix + other.matrix,
                                    self.constant + other.constant)

    def __sub__(self, other: "QuadraticOp") -> "QuadraticOp":
        return QuadraticOp._trusted(self.matrix - other.matrix,
                                    self.constant - other.constant)

    def __neg__(self) -> "QuadraticOp":
        return QuadraticOp._trusted(_snap(-self.matrix), -self.constant)

    def scaled(self, a: float) -> "QuadraticOp":
        return QuadraticOp._trusted(_snap(a * self.matrix), a * self.constant)


def _snap(m: np.ndarray) -> np.ndarray:
    """The antisymmetric part (m - m^T)/2."""
    return 0.5 * (m - m.T)


def hopping_to_majorana(a: np.ndarray) -> QuadraticOp:
    """Convert a Hermitian hopping matrix (H = sum a_ij f_i^dag f_j) to
    Majorana form.  With a = R + iS the result is

        m = (1/2) [[S, -R], [R, S]],   const = Tr(a)/2.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("hopping matrix must be square")
    if np.abs(a - a.conj().T).max() > 1e-10 * max(1.0, np.abs(a).max()):
        raise ValueError("hopping matrix must be Hermitian")
    r, s = a.real, a.imag
    m = 0.5 * np.block([[s, -r], [r, s]])
    return QuadraticOp(m, 0.5 * float(np.trace(a).real))


# Relative size below which a mode energy counts as exactly zero.
_ZERO_MODE_TOL = 1e-11


def canonical_form(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a real antisymmetric matrix as m = Q T Q^T with Q orthogonal
    and T a direct sum of blocks [[0, eps], [-eps, 0]], eps >= 0.

    Returns (eps, Q) where eps has length N and Q's columns are ordered so
    that mode x occupies columns (2x, 2x+1).  Zero modes are paired up with
    eps = 0.
    """
    import scipy.linalg

    m = np.asarray(m, dtype=float)
    n2 = m.shape[0]
    scale = max(1.0, np.abs(m).max())
    t, q = scipy.linalg.schur(0.5 * (m - m.T), output="real")
    thresh = _ZERO_MODE_TOL * scale
    cols: list[int] = []
    eps: list[float] = []
    zero_cols: list[int] = []
    k = 0
    while k < n2:
        if k + 1 < n2 and abs(t[k + 1, k]) > thresh:
            b = 0.5 * (t[k, k + 1] - t[k + 1, k])
            if b >= 0.0:
                cols += [k, k + 1]
            else:
                cols += [k + 1, k]
                b = -b
            eps.append(b)
            k += 2
        else:
            zero_cols.append(k)
            k += 1
    if len(zero_cols) % 2:
        raise RuntimeError("odd number of zero modes in canonical form")
    # park zero modes at the end, paired up in whatever order they came
    cols += zero_cols
    eps += [0.0] * (len(zero_cols) // 2)
    eps_arr = np.array(eps)
    q_perm = q[:, cols]
    # verify the block model actually reproduces m
    recon = q_perm @ _interleaved_blocks(eps_arr, eps_arr * 0 + 1.0) @ q_perm.T
    if np.abs(recon - m).max() > 1e-7 * scale:
        raise RuntimeError("canonical form reconstruction failed")
    return eps_arr, q_perm


def _interleaved_blocks(eps: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Direct sum over modes of [[0, eps*w], [-eps*w, 0]]."""
    n = eps.size
    out = np.zeros((2 * n, 2 * n))
    vals = eps * weights
    idx = np.arange(n)
    out[2 * idx, 2 * idx + 1] = vals
    out[2 * idx + 1, 2 * idx] = -vals
    return out


def mode_energies(op: QuadraticOp) -> np.ndarray:
    """Excitation energies eps_x >= 0; the many-body spectrum is
    const - sum eps + sum over subsets of 2 eps_x."""
    eps, _ = canonical_form(op.matrix)
    return eps


def two_level_modes(op: QuadraticOp) -> TwoLevelModes:
    """Spectrum descriptor: ground energy const - sum eps, one excitation of
    2 eps_x per mode."""
    eps = mode_energies(op)
    return TwoLevelModes(2.0 * eps, op.constant - float(np.sum(eps)))


def scaled_to_unit_interval(op: QuadraticOp) -> QuadraticOp:
    """Rescale and shift so the spectrum spans exactly [0, 1]."""
    total = float(np.sum(mode_energies(op)))
    if total < 1e-12:
        raise ValueError("cannot scale an operator with zero spectral width")
    # spectrum of i c^T m c + const is const +/- partial sums of 2 eps_x,
    # so dividing m by 2*sum(eps) and pinning the constant at 1/2 lands
    # exactly on [0, 1]
    return QuadraticOp(op.matrix / (2.0 * total), 0.5)


# ---------------------------------------------------------------------------
# SSH hopping models


def grid_coords(lx: int, ly: int) -> list[tuple[int, ...]]:
    """Row-major coordinates of an lx-wide, ly-tall grid
    (mode r*lx + c sits at row r, column c)."""
    return [(r, c) for r in range(ly) for c in range(lx)]


def ssh_hamiltonian_1d(n: int, v: float = 1.0, w: float = 0.5) -> QuadraticOp:
    """Alternating-bond chain, the ly = 1 case of :func:`ssh_hamiltonian_2d`:
    hopping v on bonds (0,1), (2,3), ... and w on (1,2), (3,4), ...;
    returned in Majorana form scaled so the spectrum is [0, 1]."""
    return ssh_hamiltonian_2d(n, 1, v, w)


def ssh_hamiltonian_2d(lx: int, ly: int, v: float = 1.0, w: float = 0.5
                       ) -> QuadraticOp:
    """Alternating-bond lattice (row-major mode order): hopping v on the odd
    and w on the even bond groups of :func:`_lattice_edges`, so bonds
    alternate v, w along each row and down each column; scaled so the
    spectrum is [0, 1]."""
    if lx < 1 or ly < 1 or lx * ly < 2:
        raise ValueError("grid too small")
    n = lx * ly
    a = np.zeros((n, n))
    for key, bonds in _lattice_edges(lx, ly).items():
        for i, j in bonds:
            a[i, j] = a[j, i] = v if key.endswith("_odd") else w
    return scaled_to_unit_interval(hopping_to_majorana(a))


# ---------------------------------------------------------------------------
# covariance matrices and circuit evolution


def check_covariance(gamma: np.ndarray) -> None:
    gamma = np.asarray(gamma)
    if np.abs(gamma + gamma.T).max() > 1e-8 * max(1.0, np.abs(gamma).max()):
        raise ValueError("covariance matrix must be antisymmetric")
    svals = np.linalg.svd(gamma, compute_uv=False)
    if svals.size and svals.max() > 1.0 + 1e-7:
        raise ValueError("covariance singular values must be <= 1")


def vacuum_covariance(n: int) -> np.ndarray:
    """Covariance of the Fock vacuum (annihilators a_x = (c^1_x - i c^2_x)/sqrt(2)):
    gamma[x, n+x] = 1."""
    gamma = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    gamma[idx, n + idx] = 1.0
    gamma[n + idx, idx] = -1.0
    return gamma


def ground_state_covariance(op: QuadraticOp) -> np.ndarray:
    """Covariance of the lowest-energy Gaussian state of op (mode weight -1
    on every excitation; zero modes get an arbitrary valid orientation)."""
    eps, q = canonical_form(op.matrix)
    weights = -np.ones_like(eps)
    return q @ _interleaved_blocks(np.ones_like(eps), weights) @ q.T


def thermal_covariance(op: QuadraticOp, lam: float) -> np.ndarray:
    """Covariance of the Gibbs state exp(-H/lambda)/Z (mode weight
    -tanh(eps/lambda))."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    eps, q = canonical_form(op.matrix)
    weights = -np.tanh(eps / lam)
    return q @ _interleaved_blocks(np.ones_like(eps), weights) @ q.T


def energy_from_covariance(gamma: np.ndarray, op: QuadraticOp) -> float:
    """<H> = -Tr(m gamma)/2 + const."""
    return float(-0.5 * np.einsum("ab,ba->", op.matrix, gamma) + op.constant)


def _orthogonal_from_generator(m: np.ndarray) -> np.ndarray:
    """R = exp(2 m), one expm per connected block of m's support (a layer of
    gates on disjoint bonds needs only 4x4 exponentials)."""
    # imported here, as is all of scipy in this package: it adds import time
    # and resident memory, which only code that calls it should pay
    import scipy.linalg
    import scipy.sparse.csgraph

    n_blocks, labels = scipy.sparse.csgraph.connected_components(
        m != 0.0, directed=False)
    r = np.eye(m.shape[0])
    for b in range(n_blocks):
        idx = np.flatnonzero(labels == b)
        if idx.size > 1:
            r[np.ix_(idx, idx)] = scipy.linalg.expm(2.0 * m[np.ix_(idx, idx)])
    return r


def evolve_covariance_depolarizing(gamma: np.ndarray, p: float, site: int) -> np.ndarray:
    """Single-mode depolarizing: with probability p the mode is replaced by
    the maximally mixed one, zeroing row/column site and n+site."""
    n = gamma.shape[0] // 2
    if not 0 <= site < n:
        raise ValueError("site out of range")
    zeroed = gamma.copy()
    idx = (site, n + site)
    zeroed[idx, :] = 0.0
    zeroed[:, idx] = 0.0
    return (1.0 - p) * gamma + p * zeroed


@functools.lru_cache(maxsize=16)
def _noise_multiplier(n: int, p: float, sites: tuple[int, ...]) -> np.ndarray:
    """Entrywise factor equal to depolarizing at rate p on each of ``sites``
    in turn: with k_x the number of times mode x occurs, an entry between
    modes x != y scales by (1-p)^(k_x + k_y), one within mode x by
    (1-p)^k_x.  Read-only, as it is shared between calls."""
    idx = np.asarray(sites, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError("site out of range")
    mode = np.tile(np.arange(n), 2)
    k = np.bincount(idx, minlength=n)[mode]
    power = np.where(mode[:, None] == mode[None, :], k[:, None],
                     k[:, None] + k[None, :])
    mult = (1.0 - p) ** power
    mult.flags.writeable = False
    return mult


@dataclass
class FermionLayer:
    """One circuit layer: Gaussian unitary exp(-i H_U) with quadratic
    generator, followed by depolarizing at rate p on ``depolarized_sites``."""

    generator: QuadraticOp
    p: float = 0.0
    depolarized_sites: tuple[int, ...] | None = None
    # (generator matrix, R) of the last orthogonal_map call
    _map: tuple | None = field(default=None, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.depolarized_sites is not None:
            self.depolarized_sites = tuple(self.depolarized_sites)

    def sites(self, n: int) -> tuple[int, ...]:
        if self.depolarized_sites is None:
            return tuple(range(n))
        return self.depolarized_sites

    def orthogonal_map(self) -> np.ndarray:
        """R = exp(2 m_U), built on first use and rebuilt whenever the
        generator's matrix differs from the one R was built from."""
        m = self.generator.matrix
        if self._map is None or not np.array_equal(self._map[0], m):
            r = _orthogonal_from_generator(m)
            r.flags.writeable = False
            self._map = (m.copy(), r)
        return self._map[1]


@dataclass
class FermionCircuit:
    """Layers acting on n_modes modes from an initial covariance.  ``coords``
    places mode x at lattice point coords[x], the geometry in which
    locality radii are measured (default: the chain, grid_coords(n, 1))."""

    n_modes: int
    layers: list[FermionLayer]
    initial_covariance: np.ndarray
    coords: list[tuple[int, ...]] | None = None

    def __post_init__(self):
        if self.coords is None:
            self.coords = grid_coords(self.n_modes, 1)
        if len(self.coords) != self.n_modes:
            raise ValueError("coords length must equal the mode count")
        if self.initial_covariance.shape != (2 * self.n_modes, 2 * self.n_modes):
            raise ValueError("initial covariance has the wrong shape")
        check_covariance(self.initial_covariance)
        for layer in self.layers:
            if layer.generator.n_modes != self.n_modes:
                raise ValueError("layer generator has the wrong mode count")

    @property
    def depth(self) -> int:
        return len(self.layers)


def covariance_layer_step(gamma: np.ndarray, layer: FermionLayer) -> np.ndarray:
    """Forward (Schrodinger) action of one layer on a covariance matrix."""
    n = gamma.shape[0] // 2
    r = layer.orthogonal_map()
    g = r @ gamma @ r.T
    if layer.p > 0.0:
        g = g * _noise_multiplier(n, layer.p, layer.sites(n))
    return g


def simulate_covariance(circuit: FermionCircuit,
                        target: QuadraticOp | None = None):
    """Run the circuit forward.  Returns the output covariance, or
    (covariance, energy) when a target operator is supplied."""
    gamma = circuit.initial_covariance.copy()
    for layer in circuit.layers:
        gamma = covariance_layer_step(gamma, layer)
    if target is None:
        return gamma
    return gamma, energy_from_covariance(gamma, target)


def heisenberg_quadratic_step(op: QuadraticOp, layer: FermionLayer) -> QuadraticOp:
    """Adjoint action E^dag of one layer on a quadratic dual variable:
    noise adjoint first (same entrywise map as the covariance rule, which is
    self-adjoint), then s -> R^T s R.  The constant is unchanged."""
    n = op.n_modes
    s = op.matrix
    if layer.p > 0.0:
        s = s * _noise_multiplier(n, layer.p, layer.sites(n))
    r = layer.orthogonal_map()
    # antisymmetric only up to roundoff, so snapped
    return QuadraticOp._trusted(_snap(r.T @ s @ r), op.constant)


def project_local(op: QuadraticOp, radius: int | None,
                  coords: list[tuple[int, ...]]) -> QuadraticOp:
    """Zero every matrix entry coupling Majoranas of modes farther apart than
    ``radius`` (Manhattan distance on ``coords``).  radius=None leaves the
    operator untouched; radius=0 keeps only on-site terms.  This is the
    orthogonal projection in the pairing <m, gamma> = sum_{a<b} m_ab
    gamma_ab, so it can only move a dual ansatz within the feasible (still
    certified) set."""
    if radius is None:
        return op
    mask = locality_mask(coords, radius)
    return QuadraticOp._trusted(np.where(mask, op.matrix, 0.0), op.constant)


def locality_mask(coords: list[tuple[int, ...]], radius: int) -> np.ndarray:
    """Boolean (2n, 2n) mask of Majorana pairs whose modes, placed at the n
    points ``coords``, lie within Manhattan distance ``radius``."""
    pts = np.asarray(coords, dtype=int)
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    mode_ok = dist <= radius
    return np.tile(mode_ok, (2, 2))


# ---------------------------------------------------------------------------
# random mirror circuits on SSH lattices


def _random_bond_generator(n: int, bonds: list[tuple[int, int]], rng) -> QuadraticOp:
    """One layer's combined generator: an independent random two-mode
    quadratic generator on each (disjoint) bond."""
    m = np.zeros((2 * n, 2 * n))
    for (i, j) in bonds:
        u = rng.uniform(-1.0, 1.0, size=(4, 4))
        g4 = 0.5 * (u - u.T)
        idx = np.array([i, j, n + i, n + j])
        m[np.ix_(idx, idx)] = g4
    return QuadraticOp(m)


def _mirror_layers(n: int, bond_groups: list[list[tuple[int, int]]],
                   depth: int, p: float, rng) -> list[FermionLayer]:
    if depth % 2 or depth < 2:
        raise ValueError("mirror circuits need even depth >= 2")
    half = depth // 2
    gens = [_random_bond_generator(n, bond_groups[t % len(bond_groups)], rng)
            for t in range(half)]
    layers = [FermionLayer(g, p) for g in gens]
    layers += [FermionLayer(-g, p) for g in reversed(gens)]
    return layers


def fermion_brickwall_1d(n: int, depth: int, p: float, seed: int):
    """The ly = 1 case of :func:`fermion_brickwall_2d`: random two-mode
    Gaussian gates alternating between odd and even chain bonds."""
    return fermion_brickwall_2d(n, 1, depth, p, seed)


def fermion_brickwall_2d(lx: int, ly: int, depth: int, p: float, seed: int):
    """Mirror circuit of random two-mode Gaussian gates on an lx-by-ly grid,
    cycling through the nonempty bond groups of :func:`_lattice_edges`
    (horizontal-odd / horizontal-even / vertical-odd / vertical-even),
    depolarized at rate p, starting from the ground state of
    :func:`ssh_hamiltonian_2d` at its default rates.  Returns (circuit,
    target); the noiseless output energy is exactly the ground energy 0 of
    the [0, 1]-scaled target."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = lx * ly
    target = ssh_hamiltonian_2d(lx, ly)
    groups = [g for g in _lattice_edges(lx, ly).values() if g]
    layers = _mirror_layers(n, groups, depth, p, rng)
    circuit = FermionCircuit(n, layers, ground_state_covariance(target),
                             grid_coords(lx, ly))
    return circuit, target


# ---------------------------------------------------------------------------
# free energies and the fermionic information-content dual


def fermionic_free_energy(op: QuadraticOp, lam: float) -> float:
    """ln Tr exp(-H/lambda) in closed form, from :func:`two_level_modes`."""
    return two_level_modes(op).log_partition(lam)


def _doubled_spectrum(m: np.ndarray):
    """Mode energies from one symmetric eigendecomposition m^T m = V L V^T,
    whose eigenvalues are the squared mode energies, each twice.  Returns
    (e, mV, V) where e_i = |m v_i| (length 2N, every eps_x twice, so sums
    over modes are half sums over e).  Column norms keep zero modes near
    zero, where sqrt(L) would lift them to ~1e-8; energies below
    _ZERO_MODE_TOL*scale are set to exactly 0, as in canonical_form."""
    s = m.T @ m
    w, v = np.linalg.eigh(s)
    scale = max(1.0, np.abs(m).max())
    if np.abs(s @ v - v * w).max() > 1e-7 * scale ** 2:
        raise RuntimeError("eigendecomposition residual check failed")
    mv = m @ v
    e = np.linalg.norm(mv, axis=0)
    e[e <= _ZERO_MODE_TOL * scale] = 0.0
    return e, mv, v


def _gibbs_covariance(spectrum, lam: float) -> np.ndarray:
    """Covariance of exp(-H/lambda)/Z from _doubled_spectrum's output:
    gamma = m V diag(-tanh(e/lambda)/e) V^T, the mode weights
    -tanh(eps/lambda) of thermal_covariance (zero modes contribute 0)."""
    e, mv, v = spectrum
    f = -np.tanh(e / lam) / np.where(e > 0.0, e, 1.0)
    g = (mv * f) @ v.T
    return 0.5 * (g - g.T)


def _step_term_fermion(ht: QuadraticOp, c_nats: float, lam: float | None):
    """max_lambda [G(H_t, lambda) + lambda*c] with G = -lambda ln Z, via the
    mode energies.  Returns (term, lambda, spectrum) with spectrum from
    _doubled_spectrum."""
    spectrum = _doubled_spectrum(ht.matrix)
    eps = spectrum[0].reshape(-1, 2).mean(axis=1)
    modes = TwoLevelModes(2.0 * eps, ht.constant - float(eps.sum()))
    term, lam_star = free_energy_term(modes, c_nats, lam)
    return term, lam_star, spectrum


def _defect_ops(s_list: list[QuadraticOp], circuit: FermionCircuit,
                target: QuadraticOp) -> list[QuadraticOp]:
    """H_t = sigma_t - E_{t+1}^dag(sigma_{t+1}) for t < d, H_d = H + sigma_d."""
    d = circuit.depth
    hs = []
    for t in range(d - 1):
        hs.append(s_list[t] - heisenberg_quadratic_step(s_list[t + 1],
                                                        circuit.layers[t + 1]))
    hs.append(target + s_list[d - 1])
    return hs


def fermionic_dual_value(s_list: list[QuadraticOp],
                         circuit: FermionCircuit, target: QuadraticOp,
                         schedule: BoundSchedule) -> DualValue:
    """Information-content dual bound for Gaussian circuits:

        -<E_1^dag(sigma_1)>_{gamma_0}
            + sum_t [ G(H_t, lambda_t) + lambda_t * ln2 * (N - I_t) ]

    with every free energy evaluated in closed form from mode energies.
    Certified for any quadratic duals and positive lambdas; each step's
    lambda is maximized by a concave search."""
    value, _, _ = _dual_value_parts(s_list, circuit, target, schedule)
    return value


def _dual_value_parts(s_list, circuit, target, schedule):
    if schedule.kind != "info":
        raise ValueError(f"expected an info schedule, got {schedule.kind!r}")
    d = circuit.depth
    if len(s_list) != d:
        raise ValueError("need one dual variable per layer")
    if schedule.values.size != d:
        raise ValueError("schedule length must equal circuit depth")
    n = circuit.n_modes
    adj1 = heisenberg_quadratic_step(s_list[0], circuit.layers[0])
    boundary = -energy_from_covariance(circuit.initial_covariance, adj1)
    hs = _defect_ops(s_list, circuit, target)
    terms = np.empty(d)
    lams = np.empty(d)
    gibbs = []
    for t, ht in enumerate(hs):
        c_nats = LN2 * (n - float(schedule.values[t]))
        term, lam_star, spectrum = _step_term_fermion(ht, c_nats, None)
        terms[t] = term
        lams[t] = lam_star
        gibbs.append(_gibbs_covariance(spectrum, lam_star))
    value = DualValue(boundary + float(np.sum(terms)), boundary, -terms)
    return value, lams, gibbs


# ---------------------------------------------------------------------------
# gradient-based optimization


def _pack(s_list: list[QuadraticOp], rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return np.concatenate([s.matrix[rows, cols] for s in s_list])


def _unpack(theta: np.ndarray, consts: list[float], n: int,
            rows: np.ndarray, cols: np.ndarray) -> list[QuadraticOp]:
    k = rows.size
    out = []
    for t, const in enumerate(consts):
        m = np.zeros((2 * n, 2 * n))
        vals = theta[t * k:(t + 1) * k]
        m[rows, cols] = vals
        m[cols, rows] = -vals
        out.append(QuadraticOp._trusted(m, const))
    return out


def default_fermion_initial_duals(circuit: FermionCircuit,
                                  target: QuadraticOp,
                                  radius: int | None) -> list[QuadraticOp]:
    """Heisenberg-image seed: sigma_d = -H, then backward adjoint steps with
    locality projection (on the circuit's coords) after each step."""
    d = circuit.depth
    coords = circuit.coords
    s_list = [None] * d
    s_list[d - 1] = project_local(-target, radius, coords)
    for t in range(d - 2, -1, -1):
        stepped = heisenberg_quadratic_step(s_list[t + 1], circuit.layers[t + 1])
        s_list[t] = project_local(stepped, radius, coords)
    return s_list


# L-BFGS-B stops once every projected gradient entry is below this.
_LBFGS_GTOL = 1e-9


def optimize_fermionic_dual(circuit: FermionCircuit, target: QuadraticOp,
                            radius: int | None, schedule: BoundSchedule,
                            init_s_list=None, maxiter: int = 60):
    """Maximize the fermionic information-content dual over quadratic duals
    supported within ``radius`` (Manhattan distance on the circuit's
    coords).

    Uses L-BFGS-B with the analytic gradient

        grad_t = gamma^G_t - S_t(gamma^G_{t-1})     (gamma^G_0 := gamma_0)

    restricted to the masked upper triangle, where gamma^G_t is the Gibbs
    covariance of H_t at the optimal lambda_t and S_t is the forward
    covariance step through layer t (the pairing-adjoint of the Heisenberg
    step).  Inner lambdas are re-optimized every evaluation; their gradient
    contribution vanishes by the envelope theorem.

    Returns (s_list, lambda_list, DualValue); the reported bound never falls
    below the seed's bound by more than 1e-9 (the best iterate is kept).
    """
    import scipy.optimize

    n = circuit.n_modes
    if init_s_list is None:
        s0 = default_fermion_initial_duals(circuit, target, radius)
    else:
        s0 = [project_local(s, radius, circuit.coords) for s in init_s_list]
    if radius is None:
        mask = np.ones((2 * n, 2 * n), bool)
    else:
        mask = locality_mask(circuit.coords, radius)
    rows, cols = np.where(np.triu(mask, k=1))
    consts = [s.constant for s in s0]
    x0 = _pack(s0, rows, cols)
    k = rows.size

    # the best iterate's duals, lambdas and value, as evaluated
    best = {}

    def negative_with_grad(theta: np.ndarray):
        s_list = _unpack(theta, consts, n, rows, cols)
        value, lams, gibbs = _dual_value_parts(s_list, circuit, target, schedule)
        if not best or value.bound > best["value"].bound:
            best.update(s_list=s_list, lams=lams, value=value)
        grad = np.empty_like(theta)
        prev = circuit.initial_covariance
        for t in range(circuit.depth):
            propagated = covariance_layer_step(prev, circuit.layers[t])
            g_mat = gibbs[t] - propagated
            grad[t * k:(t + 1) * k] = g_mat[rows, cols]
            prev = gibbs[t]
        return -value.bound, -grad

    if x0.size:
        # scipy's BLAS here is L-BFGS-B's level-1 work, which gains nothing
        # from threads; its pool would only contend with numpy's
        with blas_threads(scipy=1):
            scipy.optimize.minimize(
                negative_with_grad, x0, jac=True, method="L-BFGS-B",
                options={"maxiter": maxiter, "gtol": _LBFGS_GTOL})
    else:
        negative_with_grad(x0)
    return best["s_list"], list(best["lams"]), best["value"]
