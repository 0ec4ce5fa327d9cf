"""Noisy-circuit descriptions and benchmark circuit families.

A circuit is a sequence of layers; each layer is a set of site-disjoint
gates followed by the same single-qubit noise channel on every site.  The
benchmark families are mirror circuits: the second half undoes the first,
so the noiseless output is a known ground state and every reported bound
can be compared against an exactly known target.

Every family lives on an lx x ly square lattice, and a chain is the ly = 1
lattice.  Site indexing is 0-based; :func:`_lattice_edges` splits the
lattice bonds into the site-disjoint odd and even groups that brick-wall
layers act on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .mpo import (_EYE2, MPO, PAULI, Array, _frozen, apply_gate,
                  check_density_matrix, compress, from_pauli_sum, sum_local_mpo)
from .noise import NoiseModel, depolarizing

KET0 = _frozen(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))


@dataclass(frozen=True, eq=False)
class GateOp:
    """A unitary on one or two sites.  Two-site gates may be non-adjacent;
    matrix-product callers realize those through swap chains."""

    matrix: Array
    sites: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(np.asarray(self.matrix, dtype=complex)))
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        dim = 2 ** len(self.sites)
        if len(self.sites) not in (1, 2):
            raise ValueError("gates act on one or two sites")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("gate sites must be distinct")
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"gate on {self.sites} must be {dim}x{dim}")
        # written so that NaN, which fails every comparison, is rejected
        if not np.abs(self.matrix.conj().T @ self.matrix - np.eye(dim)).max() <= 1e-10:
            raise ValueError("gate matrix is not a finite unitary")

    def dagger(self) -> "GateOp":
        return GateOp(self.matrix.conj().T, self.sites)


@dataclass(frozen=True, eq=False)
class Layer:
    """Gates applied in order, then ``noise`` on every site."""

    gates: tuple[GateOp, ...]
    noise: NoiseModel

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))

    def inverse(self) -> "Layer":
        return Layer([g.dagger() for g in reversed(self.gates)], self.noise)


@dataclass(frozen=True, eq=False)
class CircuitSpec:
    """n_sites, layers, and a product initial state (default |0...0>),
    each local state checked once here.

    Gates within a layer are applied sequentially in order; the layer's
    noise channel then acts once on every site.
    """

    n_sites: int
    layers: tuple[Layer, ...]
    initial_state: tuple[Array, ...] | None = None

    def __post_init__(self):
        states = (KET0,) * self.n_sites if self.initial_state is None else self.initial_state
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "initial_state", tuple(
            _frozen(check_density_matrix(rho, f"initial_state[{k}]"))
            for k, rho in enumerate(states)))
        if len(self.initial_state) != self.n_sites:
            raise ValueError("one local initial state per site required")
        for t, layer in enumerate(self.layers):
            for g in layer.gates:
                for s in g.sites:
                    if not 0 <= s < self.n_sites:
                        raise ValueError(f"layer {t}: site {s} out of range")

    @property
    def depth(self) -> int:
        return len(self.layers)


# ---------------------------------------------------------------------------
# elementary gates and samplers


def xx_gate(theta: float) -> Array:
    """exp(-i theta X (x) X)."""
    xx = np.kron(PAULI["X"], PAULI["X"])
    return np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * xx


def zz_gate(theta: float) -> Array:
    """exp(-i theta Z (x) Z): diagonal, so it commutes with every product
    of diagonal states (used with replacement-type noise)."""
    zz = np.kron(PAULI["Z"], PAULI["Z"])
    return np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * zz


def rotation_y(theta: float) -> Array:
    """exp(-i theta Y)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def haar_single_qubit(rng: np.random.Generator) -> Array:
    """Haar-random U(2) element (QR with phase-fixed diagonal)."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


_CLIFFORD_GENERATORS = [
    np.kron(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2), _EYE2),
    np.kron(_EYE2, np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)),
    np.kron(np.diag([1.0, 1.0j]), _EYE2),
    np.kron(_EYE2, np.diag([1.0, 1.0j])),
    np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex),
]


def _phase_canonical(u: Array) -> bytes:
    flat = u.reshape(-1)
    idx = int(np.argmax(np.abs(flat) > 1e-6))
    phase = flat[idx] / abs(flat[idx])
    v = np.round(u / phase, 6) + 0.0  # normalize -0.0
    return v.tobytes()


@functools.lru_cache(maxsize=1)
def two_site_clifford_table() -> tuple[Array, ...]:
    """All 11520 two-qubit Clifford unitaries modulo global phase.

    Built once by breadth-first closure over {H, S, CNOT} generators with a
    phase-canonical dedup key; the group order is asserted.
    """
    table: dict[bytes, Array] = {}
    eye = np.eye(4, dtype=complex)
    table[_phase_canonical(eye)] = eye
    frontier = [eye]
    while frontier:
        new: list[Array] = []
        for u in frontier:
            for g in _CLIFFORD_GENERATORS:
                w = g @ u
                key = _phase_canonical(w)
                if key not in table:
                    flat = w.reshape(-1)
                    idx = int(np.argmax(np.abs(flat) > 1e-6))
                    w = w / (flat[idx] / abs(flat[idx]))
                    table[key] = w
                    new.append(w)
        frontier = new
    if len(table) != 11520:  # |Sp(4,2)| * 16 = 720 * 16
        raise RuntimeError(f"Clifford closure produced {len(table)} elements")
    return tuple(map(_frozen, table.values()))


def random_two_site_clifford(rng: np.random.Generator) -> Array:
    """Uniform sample from the 11520-element two-qubit Clifford group."""
    table = two_site_clifford_table()
    return table[int(rng.integers(len(table)))]


def circuit_rng(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by an integer seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


# ---------------------------------------------------------------------------
# benchmark families


def single_qubit_circuit(theta: float, p: float, delta: float = 1.0
                         ) -> tuple[CircuitSpec, MPO]:
    """One qubit, one layer: exp(-i theta Y) then depolarizing noise.

    The target is delta * Z; the exact output energy is
    delta (1-p) cos(2 theta).
    """
    layer = Layer([GateOp(rotation_y(theta), (0,))], depolarizing(p))
    circ = CircuitSpec(1, [layer])
    target = from_pauli_sum([("Z", float(delta))])
    return circ, target


def _lattice_edges(lx: int, ly: int, index: dict[tuple[int, int], int] | None = None
                   ) -> dict[str, list[tuple[int, int]]]:
    """The bonds of an lx-wide, ly-tall square lattice as site pairs, in
    four groups of site-disjoint bonds.  A chain is the ly = 1 lattice,
    whose vertical groups are empty.

    Bond ((r, c), (r, c+1)) is *odd* (``h_odd``) when c is odd in 1-based
    counting, i.e. pairs (0,1), (2,3), ... along each row, and *even*
    (``h_even``) otherwise; vertical bonds ((r, c), (r+1, c)) split into
    ``v_odd`` and ``v_even`` the same way by r.  ``index`` maps (row, col)
    to a site; the default is row-major, r * lx + c, so on a chain a site
    is its column.
    """
    if index is None:
        index = {(r, c): r * lx + c for r in range(ly) for c in range(lx)}
    groups = {"h_odd": [], "h_even": [], "v_odd": [], "v_even": []}
    for r in range(ly):
        for c in range(lx - 1):
            key = "h_odd" if c % 2 == 0 else "h_even"
            groups[key].append((index[r, c], index[r, c + 1]))
    for r in range(ly - 1):
        for c in range(lx):
            key = "v_odd" if r % 2 == 0 else "v_even"
            groups[key].append((index[r, c], index[r + 1, c]))
    return groups


def _brick_layer(n: int, theta: float, rng: np.random.Generator,
                 noise: NoiseModel, entangler=xx_gate) -> Layer:
    groups = _lattice_edges(n, 1)
    u = entangler(theta)
    gates = [GateOp(u, b) for b in groups["h_odd"] + groups["h_even"]]
    gates += [GateOp(haar_single_qubit(rng), (i,)) for i in range(n)]
    return Layer(gates, noise)


def brickwall_1d(n: int, depth: int, theta: float, p: float, seed: int,
                 noise: NoiseModel | None = None, entangler=xx_gate
                 ) -> tuple[CircuitSpec, MPO]:
    """Mirror brick-wall circuit on a chain, plus its target Hamiltonian.

    Layer 1 (U_H) and the subsequent (depth-1)/2 random layers each apply
    exp(-i theta XX) on odd bonds, then even bonds, then Haar-random
    single-qubit gates; the remaining layers are the exact inverses of the
    random layers in reverse order.  Depth must therefore be odd.  Every
    layer is followed by depolarizing noise at rate p.

    The target is -U_H (sum_i Z_i) U_H^dag, shifted and scaled so its
    spectrum is exactly [0, 1]; the noiseless circuit output U_H|0...0>
    is its ground state (energy 0).
    """
    if n < 2:
        raise ValueError("need at least two sites")
    if not np.isfinite(theta):
        raise ValueError(f"theta={theta} must be finite")
    if depth < 1 or depth % 2 == 0:
        raise ValueError("depth must be odd: 1 Hamiltonian layer + mirrored pairs")
    rng = circuit_rng(seed)
    if noise is None:
        noise = depolarizing(p)
    u_h = _brick_layer(n, theta, rng, noise, entangler)
    k = (depth - 1) // 2
    random_layers = [_brick_layer(n, theta, rng, noise, entangler)
                     for _ in range(k)]
    layers = [u_h] + random_layers + [lay.inverse() for lay in reversed(random_layers)]
    circ = CircuitSpec(n, layers)

    target = sum_local_mpo([-PAULI["Z"] / (2.0 * n)] * n, constant=0.5)
    for g in u_h.gates:
        target = apply_gate(target, g.matrix, g.sites)
    return circ, target


def snake_index(lx: int, ly: int) -> dict[tuple[int, int], int]:
    """Map lattice coordinates (row, col) to snake-ordered chain sites."""
    idx = {}
    for r in range(ly):
        for c in range(lx):
            col = c if r % 2 == 0 else lx - 1 - c
            idx[(r, col)] = r * lx + c
    return idx


def brickwall_2d_snake(lx: int, ly: int, depth: int, theta: float, p: float,
                       seed: int, noise: NoiseModel | None = None
                       ) -> tuple[CircuitSpec, MPO]:
    """Mirror brick-wall circuit on an lx x ly square lattice.

    Sites are snake-ordered into a chain.  Layers apply exp(-i theta XX)
    on the odd horizontal, even horizontal, odd vertical and even vertical
    edges in turn, each followed by Haar singles on every site and
    depolarizing noise.
    The first depth/2 layers entangle, the rest invert them (depth even).

    The target is -sum_<ij> Z_i Z_j over lattice edges, shifted and scaled
    to spectrum [0, 1]; the noiseless output |0...0> is its ground state.
    """
    if lx < 1 or ly < 1 or lx * ly < 2:
        raise ValueError("lattice must contain at least two sites")
    if not np.isfinite(theta):
        raise ValueError(f"theta={theta} must be finite")
    if depth < 2 or depth % 2 != 0:
        raise ValueError("depth must be even for an entangle/un-entangle mirror")
    n = lx * ly
    groups = _lattice_edges(lx, ly, snake_index(lx, ly))
    order = ["h_odd", "h_even", "v_odd", "v_even"]
    rng = circuit_rng(seed)
    if noise is None:
        noise = depolarizing(p)

    half = []
    u = xx_gate(theta)
    for t in range(depth // 2):
        edges = groups[order[t % 4]]
        gates = [GateOp(u, e) for e in edges]
        gates += [GateOp(haar_single_qubit(rng), (i,)) for i in range(n)]
        half.append(Layer(gates, noise))
    layers = half + [lay.inverse() for lay in reversed(half)]
    circ = CircuitSpec(n, layers)

    edges = [e for key in order for e in groups[key]]
    n_edges = len(edges)
    terms = [("I" * n, 0.5)]
    for e in edges:
        i, j = sorted(e)
        s = "I" * i + "Z" + "I" * (j - i - 1) + "Z" + "I" * (n - j - 1)
        terms.append((s, -1.0 / (2.0 * n_edges)))
    target = from_pauli_sum_compressed(terms, n)
    return circ, target


def from_pauli_sum_compressed(terms: list[tuple[str, float]], n: int) -> MPO:
    """Pauli-sum MPO compressed to its exact numerical rank."""
    raw = from_pauli_sum(terms, n)
    out, err = compress(raw, max_bond=max(len(terms), 1))
    if err > 1e-12:
        raise RuntimeError("exact-rank compression lost weight unexpectedly")
    return out


def clifford_entangle_unentangle(n: int, depth: int, p: float, seed: int,
                                 noise: NoiseModel | None = None
                                 ) -> tuple[CircuitSpec, MPO]:
    """Mirror circuit of uniform-random two-qubit Clifford gates.

    Layers alternate between odd and even bonds (no single-qubit gates);
    the second half applies the inverses in reverse order, so depth must
    be even.  The target Hamiltonian is -sum_i Z_i.
    """
    if n < 2:
        raise ValueError("need at least two sites")
    if depth < 2 or depth % 2 != 0:
        raise ValueError("depth must be even for an entangle/un-entangle mirror")
    rng = circuit_rng(seed)
    if noise is None:
        noise = depolarizing(p)
    groups = _lattice_edges(n, 1)
    half = []
    for t in range(depth // 2):
        bonds = groups["h_odd"] if t % 2 == 0 else groups["h_even"]
        gates = [GateOp(random_two_site_clifford(rng), b) for b in bonds]
        half.append(Layer(gates, noise))
    layers = half + [lay.inverse() for lay in reversed(half)]
    circ = CircuitSpec(n, layers)
    target = sum_local_mpo([-PAULI["Z"]] * n)
    return circ, target
