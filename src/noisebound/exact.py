"""Exact small-scale references: dense density-matrix simulation, signed-Pauli
Heisenberg propagation for Clifford circuits, and Fock-space fermion helpers.

Everything here is meant as ground truth for the approximate machinery, so
simplicity and transparency win over performance; dense routines are guarded
to n <= 12 qubits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import CircuitSpec
from .mpo import _DENSE_SITE_CAP, MPO, PAULI, Array
from .noise import superop_matrix


def _tensorize(rho: Array, n: int) -> Array:
    return rho.reshape((2,) * (2 * n))


def _matricize(rt: Array, n: int) -> Array:
    return rt.reshape(2**n, 2**n)


def _apply_on_axes(rt: Array, m: Array, axes: list[int]) -> Array:
    k = len(axes)
    mt = m.reshape((2,) * (2 * k))
    out = np.tensordot(mt, rt, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def apply_gate_dense(rho: Array, gate: Array, sites: tuple[int, ...], n: int) -> Array:
    """U rho U^dag for a 1- or 2-site gate embedded at arbitrary sites."""
    rt = _tensorize(rho, n)
    rt = _apply_on_axes(rt, np.asarray(gate, dtype=complex), list(sites))
    rt = _apply_on_axes(rt, np.asarray(gate, dtype=complex).conj(),
                        [n + s for s in sites])
    return _matricize(rt, n)


def apply_channel_dense(rho: Array, superop: Array, site: int, n: int) -> Array:
    """Apply a single-site channel given as a 4x4 superoperator (row-major vec)."""
    k = np.asarray(superop, dtype=complex).reshape(2, 2, 2, 2)  # [a, b, j, k]
    rt = _tensorize(rho, n)
    out = np.tensordot(k, rt, axes=([2, 3], [site, n + site]))
    out = np.moveaxis(out, [0, 1], [site, n + site])
    return _matricize(out, n)


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
    """Output of :func:`dense_simulate`: final state plus per-step records."""

    rho: Array
    energy: float | None
    purities: list[float] = field(default_factory=list)
    infos: list[float] = field(default_factory=list)
    states: list[Array] | None = None


def product_density_matrix(locals_: list[Array]) -> Array:
    rho = np.array([[1.0]], dtype=complex)
    for loc in locals_:
        rho = np.kron(rho, np.asarray(loc, dtype=complex))
    return rho


def dense_simulate(circuit: CircuitSpec, hamiltonian: MPO | Array | None = None,
                   keep_states: bool = False) -> DenseRun:
    """Exact density-matrix evolution of a noisy circuit (n <= 12).

    Gates are applied in layer order, then the layer's noise channel acts on
    every site.  Purity and information content are recorded after each
    layer; the energy is evaluated against ``hamiltonian`` if given.
    """
    n = circuit.n_sites
    if n > _DENSE_SITE_CAP:
        raise ValueError(f"dense simulation capped at n={_DENSE_SITE_CAP}, got {n}")
    rho = product_density_matrix(circuit.initial_state)
    purities, infos = [], []
    states = [] if keep_states else None
    for layer in circuit.layers:
        for g in layer.gates:
            rho = apply_gate_dense(rho, g.matrix, g.sites, n)
        k = superop_matrix(layer.noise)
        for site in range(n):
            rho = apply_channel_dense(rho, k, site, n)
        pur, info = purity_and_info(rho)
        purities.append(pur)
        infos.append(info)
        if keep_states:
            states.append(rho.copy())
    energy = None
    if hamiltonian is not None:
        hmat = hamiltonian.to_dense() if isinstance(hamiltonian, MPO) else hamiltonian
        energy = float(np.trace(hmat @ rho).real)
    return DenseRun(rho, energy, purities, infos, states)


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
    if dim > 2**20:
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
