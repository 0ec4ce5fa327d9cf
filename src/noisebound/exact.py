"""Exact small-scale references: dense density-matrix simulation, signed-Pauli
Heisenberg propagation for Clifford circuits, and Fock-space fermion helpers.

Everything here is meant as ground truth for the approximate machinery, so
it is written independently of it; dense routines are guarded to n <= 12
qubits.  The dense simulator fuses each layer into a few superoperators
(see :func:`dense_simulate`), built straight from the gate matrices and the
channel's superoperator, never from the Pauli transfer matrices of
:mod:`noisebound.mpo`: a fault in those must not cancel out of the check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CircuitSpec, Layer
from .mpo import _DENSE_SITE_CAP, _EYE2, _SPECTRUM_MODE_CAP, MPO, PAULI, Array
from .noise import superop_matrix


def _superop(u: Array) -> Array:
    """U (x) U* of a k-site unitary, with the (row, column) pair of each site
    kept together: entry [(r_1 c_1 .. r_k c_k), (i_1 j_1 .. i_k j_k)] is
    U[r, i] conj(U[c, j]), so a single-site superoperator (row-major vec)
    acts on one pair by a Kronecker factor."""
    k = u.shape[0].bit_length() - 1
    t = np.multiply.outer(u.reshape((2,) * (2 * k)), u.conj().reshape((2,) * (2 * k)))
    # axes of t: r_1..r_k, i_1..i_k, c_1..c_k, j_1..j_k
    perm = ([ax for m in range(k) for ax in (m, 2 * k + m)]
            + [ax for m in range(k) for ax in (k + m, 3 * k + m)])
    return t.transpose(perm).reshape(4**k, 4**k)


def _on_slot(m: Array, op: Array, slot: int) -> Array:
    """(1 x .. x m x .. x 1) @ op: m acts on one site slot of a fused op,
    slots ordered as the op's sites (m is 2x2 on a unitary, 4x4 on a
    superoperator)."""
    d = m.shape[0]
    return np.matmul(m, op.reshape(d**slot, d, -1)).reshape(op.shape)


def _fused_layer(layer: Layer, n: int) -> list[tuple[tuple[int, ...], Array]]:
    """One layer (its gates in order, then the noise channel on every site)
    as a list of (sites, superoperator) to apply in order.

    A single-site gate folds into the last gate that touched its site, or,
    when none has yet, into the next two-site gate on it; one left on its
    own becomes a one-site op, and so does a site no gate touches.  The
    fused unitaries become superoperators, and each site's channel folds
    into the last op on that site.
    """
    ops: list[list] = []            # [sites, fused unitary]
    last: dict[int, int] = {}       # site -> index of the last op on it
    pending: dict[int, Array] = {}  # site -> single-site gates before any op
    for g in layer.gates:
        if len(g.sites) == 1:
            s = g.sites[0]
            if s in last:
                op = ops[last[s]]
                op[1] = _on_slot(g.matrix, op[1], op[0].index(s))
            else:
                pending[s] = g.matrix @ pending.get(s, _EYE2)
        else:
            before = np.kron(pending.pop(g.sites[0], _EYE2),
                             pending.pop(g.sites[1], _EYE2))
            last.update(dict.fromkeys(g.sites, len(ops)))
            ops.append([g.sites, g.matrix @ before])
    for s in range(n):
        if s not in last:
            last[s] = len(ops)
            ops.append([(s,), pending.get(s, _EYE2)])
    k = superop_matrix(layer.noise)
    fused = []
    for i, (sites, u) in enumerate(ops):
        sup = _superop(u)
        for slot, s in enumerate(sites):
            if last[s] == i:
                sup = _on_slot(k, sup, slot)
        fused.append((sites, sup))
    return fused


def _apply_superop(rt: Array, sup: Array, sites: tuple[int, ...], n: int) -> Array:
    """Apply a fused superoperator to the state tensor (rows, then columns)
    by one contraction over its sites' row and column axes."""
    k = len(sites)
    axes = [ax for s in sites for ax in (s, n + s)]
    out = np.tensordot(sup.reshape((2,) * (4 * k)), rt,
                       axes=(list(range(2 * k, 4 * k)), axes))
    return np.moveaxis(out, list(range(2 * k)), axes)


def purity_and_info(rho: Array) -> tuple[float, float]:
    """(Tr rho^2, information content N - S(rho) in bits)."""
    dim = rho.shape[0]
    n = int(np.log2(dim))
    ev = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    purity = float(np.sum(ev**2))
    nz = ev[ev > 1e-300]
    entropy = float(-np.sum(nz * np.log2(nz)))
    return purity, n - entropy


@dataclass
class DenseRun:
    """Output of :func:`dense_simulate`: final state, energy, layer states."""

    rho: Array
    energy: float | None
    states: list[Array] | None = None


def product_density_matrix(locals_: list[Array]) -> Array:
    rho = np.array([[1.0]], dtype=complex)
    for loc in locals_:
        rho = np.kron(rho, np.asarray(loc, dtype=complex))
    return rho


def dense_simulate(circuit: CircuitSpec, hamiltonian: MPO | Array | None = None,
                   keep_states: bool = False) -> DenseRun:
    """Exact density-matrix evolution of a noisy circuit (n <= 12).

    Each layer applies its gates in order, then its noise channel on every
    site.  The layer is first fused into one superoperator per two-site gate
    (see :func:`_fused_layer`): single-site gates and the channels fold into
    the two-site gate next to them, so an 8-site brick-wall layer of 15
    gates and 8 channels costs 7 contractions of the 2^n x 2^n state.
    Fusion stays inside a layer, so ``keep_states`` records the state after
    each layer, for :func:`purity_and_info` and the like.  The energy is
    Tr(H rho) against ``hamiltonian`` if given, evaluated as the
    elementwise sum conj(H) . rho, which equals it for Hermitian H.
    """
    n = circuit.n_sites
    if n > _DENSE_SITE_CAP:
        raise ValueError(f"dense simulation capped at n={_DENSE_SITE_CAP}, got {n}")
    dim = 2**n
    rt = product_density_matrix(circuit.initial_state).reshape((2,) * (2 * n))
    states = [] if keep_states else None
    for layer in circuit.layers:
        for sites, sup in _fused_layer(layer, n):
            rt = _apply_superop(rt, sup, sites, n)
        if keep_states:
            states.append(rt.reshape(dim, dim).copy())
    rho = rt.reshape(dim, dim)
    energy = None
    if hamiltonian is not None:
        hmat = hamiltonian.to_dense() if isinstance(hamiltonian, MPO) else hamiltonian
        energy = float(np.vdot(hmat, rho).real)
    return DenseRun(rho, energy, states)


def min_energy_at_purity(energies: Array, purity_cap: float) -> float:
    """Exact minimum of sum_i E_i q_i over probability vectors with
    sum_i q_i^2 <= purity_cap.

    This is the energy floor knowing only the spectrum and a purity cap:
    the optimal state is diagonal in the energy eigenbasis with weights
    q_i = max(0, a - b E_i).
    """
    e = np.sort(np.asarray(energies, dtype=float))
    dim = e.size
    if dim == 0:
        raise ValueError("empty spectrum")
    if dim > 2**_SPECTRUM_MODE_CAP:
        raise ValueError("spectrum too large for the exact purity solver")
    if purity_cap < 1.0 / dim - 1e-12:
        raise ValueError(f"purity cap {purity_cap} below 1/dim = {1 / dim}")
    if purity_cap >= 1.0:
        return float(e[0])
    s1 = np.cumsum(e)
    s2 = np.cumsum(e**2)
    best = np.inf
    for k in range(1, dim + 1):
        a1, a2 = s1[k - 1], s2[k - 1]
        var = a2 - a1**2 / k
        if var <= 1e-30:
            # k lowest levels are degenerate; uniform weights
            if purity_cap >= 1.0 / k - 1e-12:
                best = min(best, a1 / k)
            continue
        gap = purity_cap - 1.0 / k
        if gap < 0.0:
            continue
        b = np.sqrt(gap / var)
        a = (1.0 + b * a1) / k
        if a - b * e[k - 1] < -1e-12:           # weights must stay nonnegative
            continue
        if k < dim and a - b * e[k] > 1e-12:    # excluded levels must stay excluded
            continue
        best = min(best, a * a1 - b * a2)
    if not np.isfinite(best):
        raise RuntimeError("no feasible weight vector found")
    return float(best)


# ---------------------------------------------------------------------------
# signed-Pauli Heisenberg propagation


@dataclass
class SignedPauli:
    """sign * damping * (Pauli string); damping collects (1-p) factors."""

    sign: int
    letters: str
    damping: float = 1.0

    def weight(self) -> int:
        return sum(1 for ch in self.letters if ch != "I")


_PAULI_LETTERS = ("I", "X", "Y", "Z")
_conj_cache: dict[bytes, dict[str, tuple[int, str]]] = {}


def _pauli_strings(k: int) -> list[str]:
    out = [""]
    for _ in range(k):
        out = [s + ch for s in out for ch in _PAULI_LETTERS]
    return out


def _pauli_matrix(s: str) -> Array:
    m = np.array([[1.0]], dtype=complex)
    for ch in s:
        m = np.kron(m, PAULI[ch])
    return m


def _conjugation_table(gate: Array) -> dict[str, tuple[int, str]]:
    """For Clifford U: map P -> (sign, Q) with U^dag P U = sign * Q."""
    key = np.round(gate, 12).tobytes()
    if key in _conj_cache:
        return _conj_cache[key]
    k = int(np.log2(gate.shape[0]))
    table = {}
    strings = _pauli_strings(k)
    for s in strings:
        m = gate.conj().T @ _pauli_matrix(s) @ gate
        hit = None
        for q in strings:
            c = np.trace(_pauli_matrix(q) @ m) / 2**k
            if abs(c) > 1e-8:
                if hit is not None or abs(abs(c) - 1.0) > 1e-8:
                    raise ValueError("gate is not Clifford: Pauli image is not "
                                     "a single signed Pauli string")
                if abs(c.imag) > 1e-8:
                    raise ValueError("gate is not Clifford: complex Pauli image")
                hit = (int(np.sign(c.real)), q)
        table[s] = hit
    _conj_cache[key] = table
    return table


def stabilizer_heisenberg(circuit: CircuitSpec, initial: SignedPauli) -> SignedPauli:
    """Exact Heisenberg image of a Pauli string through a noisy Clifford circuit.

    Works backwards through the layers: depolarizing noise damps the
    coefficient by (1-p) per non-identity site, then each gate conjugates
    the string (adjoint direction).  Non-Clifford gates raise.
    """
    if len(initial.letters) != circuit.n_sites:
        raise ValueError("Pauli string length must match circuit size")
    letters = list(initial.letters)
    sign = initial.sign
    damping = initial.damping
    for layer in reversed(circuit.layers):
        if layer.noise.kind != "depolarizing":
            raise ValueError("stabilizer propagation supports depolarizing noise only")
        p = layer.noise.p
        w = sum(1 for ch in letters if ch != "I")
        damping *= (1.0 - p) ** w
        for g in reversed(layer.gates):
            table = _conjugation_table(g.matrix)
            sub = "".join(letters[s] for s in g.sites)
            gsign, q = table[sub]
            sign *= gsign
            for s, ch in zip(g.sites, q):
                letters[s] = ch
    return SignedPauli(sign, "".join(letters), damping)


def stabilizer_energy(circuit: CircuitSpec,
                      terms: list[tuple[str, float]]) -> float:
    """Output energy of sum_k c_k P_k for a Clifford circuit, via Heisenberg
    images contracted against the product initial state."""
    total = 0.0
    for s, coeff in terms:
        img = stabilizer_heisenberg(circuit, SignedPauli(1, s))
        val = 1.0
        for site, ch in enumerate(img.letters):
            val *= float(np.trace(circuit.initial_state[site] @ PAULI[ch]).real)
            if val == 0.0:
                break
        total += coeff * img.sign * img.damping * val
    return total


# ---------------------------------------------------------------------------
# Fock-space fermion helpers (Jordan-Wigner)


def jordan_wigner_majoranas(n: int) -> list[Array]:
    """Dense Majorana operators [c1_0..c1_{n-1}, c2_0..c2_{n-1}].

    Normalization {c_a, c_b} = delta_ab (so c^2 = 1/2).  The annihilation
    operator of site x is (c1_x - i c2_x)/sqrt(2); the vacuum covariance
    i<[c1_x, c2_x]> is +1.
    """
    if n > 10:
        raise ValueError("Fock-space helpers capped at n=10")
    c1, c2 = [], []
    for x in range(n):
        left = np.array([[1.0]], dtype=complex)
        for _ in range(x):
            left = np.kron(left, PAULI["Z"])
        right = np.eye(2 ** (n - x - 1), dtype=complex)
        c1.append(np.kron(np.kron(left, PAULI["X"]), right) / np.sqrt(2))
        c2.append(np.kron(np.kron(left, -PAULI["Y"]), right) / np.sqrt(2))
    return c1 + c2


def majorana_quadratic_dense(h: Array, c_ops: list[Array],
                             constant: float = 0.0) -> Array:
    """Dense matrix of i * c^T h c + constant."""
    dim = c_ops[0].shape[0]
    out = complex(constant) * np.eye(dim, dtype=complex)
    m = len(c_ops)
    for a in range(m):
        for b in range(m):
            if h[a, b] != 0.0:
                out = out + 1j * h[a, b] * (c_ops[a] @ c_ops[b])
    return out


def fermion_depolarizing_kraus(n: int, site: int, p: float) -> list[Array]:
    """Kraus operators of the fermionic single-site depolarizing channel.

    N(rho) = (1 - 3p/4) rho + (p/4) sum_W W rho W with W the Hermitian
    unitaries {sqrt2 c1, sqrt2 c2, 2i c1 c2} of the site (Jordan-Wigner
    strings included, which is what distinguishes this from the qubit
    channel).
    """
    c = jordan_wigner_majoranas(n)
    c1, c2 = c[site], c[n + site]
    w1 = np.sqrt(2) * c1
    w2 = np.sqrt(2) * c2
    w3 = 2j * (c1 @ c2)
    dim = 2**n
    return [np.sqrt(1.0 - 0.75 * p) * np.eye(dim, dtype=complex),
            np.sqrt(p / 4.0) * w1, np.sqrt(p / 4.0) * w2, np.sqrt(p / 4.0) * w3]
