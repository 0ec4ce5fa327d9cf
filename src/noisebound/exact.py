"""Exact small-scale references: dense density-matrix simulation, signed-Pauli
Heisenberg propagation for Clifford circuits, and Fock-space fermion helpers.

Everything here is meant as ground truth for the approximate machinery, so
it is written independently of it; dense routines are guarded to n <= 12
qubits.  The dense simulator (see :func:`dense_simulate`) holds the state
as its real vector of 4^n Pauli coefficients and fuses each layer into a
few real Pauli transfer matrices.  It builds them from the gate matrices
and the channel's superoperator, through a Pauli basis defined here, and
never from the transfer matrices of :mod:`noisebound.mpo`: a fault in those
must not cancel out of the check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CircuitSpec, Layer
from .mpo import _DENSE_SITE_CAP, _EYE2, _SPECTRUM_MODE_CAP, MPO, PAULI, Array
from .noise import superop_matrix

# B_a = P_a / sqrt(2) over P = (I, X, Y, Z), orthonormal under Tr(A B).
# _TO_PAULI[a, (r c)] = conj(B_a[r, c]) maps a row-major vec(A) to the
# coefficients Tr(B_a A); it is unitary, and real coefficients are a
# Hermitian operator.
_TO_PAULI = (np.stack([PAULI[ch] for ch in "IXYZ"]) / np.sqrt(2.0)).conj().reshape(4, 4)
_TO_PAULI2 = np.kron(_TO_PAULI, _TO_PAULI)


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


def _real(z: Array, message: str) -> Array:
    """The real part of Pauli-basis data that must be real, else raise."""
    if np.abs(z.imag).max() > 1e-12 * max(1.0, np.abs(z).max()):
        raise ValueError(message)
    return z.real


def _pauli_transfer(sup: Array) -> Array:
    """The real Pauli transfer matrix T sup T^dag of a one- or two-site
    superoperator; a map that does not preserve Hermiticity raises."""
    t = _TO_PAULI if sup.shape[0] == 4 else _TO_PAULI2
    return _real(t @ sup @ t.conj().T, "the layer does not preserve "
                 "Hermiticity: its Pauli transfer matrix is not real")


def _fused_layer(layer: Layer, n: int) -> list[tuple[tuple[int, ...], Array]]:
    """One layer (its gates in order, then the noise channel on every site)
    as a list of (sites, Pauli transfer matrix) to apply in order, with the
    sites of each op ascending.

    A single-site gate folds into the last gate that touched its site, or,
    when none has yet, into the next two-site gate on it; one left on its
    own becomes a one-site op, and so does a site no gate touches.  The
    fused unitaries become superoperators, each site's channel folds into
    the last op on that site, and each op becomes its transfer matrix.
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
            before = np.multiply.outer(pending.pop(g.sites[0], _EYE2),
                                       pending.pop(g.sites[1], _EYE2))
            before = before.transpose(0, 2, 1, 3).reshape(4, 4)
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
        ptm = _pauli_transfer(sup)
        if sites[0] > sites[-1]:
            # a reversed pair: swap the two site slots of both indices
            ptm = ptm.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16)
            sites = sites[::-1]
        fused.append((sites, ptm))
    return fused


def _apply_ptm(r: Array, out: Array, ptm: Array, sites: tuple[int, ...],
               n: int) -> None:
    """out <- ``ptm`` applied to the coefficient vector r on ascending
    ``sites``: consecutive sites by one matmul on the (4^i, 4^k, rest)
    view, others by a contraction over their axes.

    The layout follows the trailing block (the op's sites and those after
    them), since a stack of 4^i products on a small block costs 3-20x more
    per flop.  A block of at most 16 coefficients is one 2-D product with
    kron(ptm, I_rest)^T, made contiguous; one of 64 multiplies the
    (4^i, rest, 4^k) view by ptm^T.  At n = 8, 1 thread, a 4x4 op on site
    6 took 160 us as a stack and 84 us as one product, and a 16x16 op on
    sites (5, 6) 142 us as a stack and 80 us on the transposed view."""
    i, k = sites[0], len(sites)
    if sites[-1] - i == k - 1:
        left, mid, right = 4**i, 4**k, 4 ** (n - i - k)
        if mid * right <= 16:
            w = ptm if right == 1 else (
                ptm[:, None, :, None] * np.eye(right)[None, :, None, :]
            ).reshape(mid * right, mid * right)
            w = np.ascontiguousarray(w.T)
            np.matmul(r.reshape(left, mid * right), w,
                      out=out.reshape(left, mid * right))
        elif mid * right <= 64:
            np.matmul(r.reshape(left, mid, right).transpose(0, 2, 1),
                      np.ascontiguousarray(ptm.T),
                      out=out.reshape(left, mid, right).transpose(0, 2, 1))
        elif left == 1:
            np.matmul(ptm, r.reshape(mid, right), out=out.reshape(mid, right))
        else:
            np.matmul(ptm, r.reshape(left, mid, right),
                      out=out.reshape(left, mid, right))
        return
    t = np.tensordot(ptm.reshape((4,) * (2 * k)), r.reshape((4,) * n),
                     axes=(list(range(k, 2 * k)), list(sites)))
    out.reshape((4,) * n)[...] = np.moveaxis(t, list(range(k)), list(sites))


def _per_site(v: Array, m: Array, n: int) -> Array:
    """The 4x4 matrix m applied to each of the n site axes of v (length 4^n,
    site 0 slowest); each pass moves the site it transformed to the end."""
    for _ in range(n):
        v = (m @ v.reshape(4, -1)).T
    return v.reshape(-1)


def _pauli_coeffs(h: Array, n: int) -> Array:
    """Real parts of the Pauli coefficients Tr(B_a h) of a 2^n x 2^n matrix,
    so that coeffs . r = Re Tr(h^dag rho) (= Tr(h rho) for Hermitian h)."""
    pairs = [ax for s in range(n) for ax in (s, n + s)]
    vec = np.asarray(h).reshape((2,) * (2 * n)).transpose(pairs)
    return _per_site(vec, _TO_PAULI, n).real


def _mpo_coeffs(h: MPO) -> Array:
    """The 4^n coefficient vector of an MPO, whose site tensors already hold
    coefficients over the same basis."""
    v = np.ones((1, 1))
    for t in h.tensors:
        v = (v @ t.reshape(t.shape[0], -1)).reshape(-1, t.shape[2])
    return v.reshape(-1)


def _density_matrix(r: Array) -> Array:
    """The 2^n x 2^n matrix sum_a r_a B_a of a coefficient vector."""
    n = (r.size.bit_length() - 1) // 2
    vec = _per_site(r, _TO_PAULI.conj().T, n).reshape((2,) * (2 * n))
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return vec.transpose(perm).reshape(2**n, 2**n)


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
    """Output of :func:`dense_simulate`: the final state's Pauli
    coefficients, the energy, and the state after each layer."""

    coeffs: Array
    energy: float | None
    states: list[Array] | None = None

    @property
    def rho(self) -> Array:
        """The final state as a 2^n x 2^n density matrix."""
        return _density_matrix(self.coeffs)


def product_density_matrix(locals_: list[Array]) -> Array:
    rho = np.array([[1.0]], dtype=complex)
    for loc in locals_:
        rho = np.kron(rho, np.asarray(loc, dtype=complex))
    return rho


def dense_simulate(circuit: CircuitSpec, hamiltonian: MPO | Array | None = None,
                   keep_states: bool = False) -> DenseRun:
    """Exact density-matrix evolution of a noisy circuit (n <= 12).

    The state is its real vector of 4^n coefficients r_a = Tr(B_a rho) over
    the Pauli basis B_a = P_a / sqrt(2), site 0 slowest.  Each layer applies
    its gates in order, then its noise channel on every site.  The layer is
    first fused into one op per two-site gate (see :func:`_fused_layer`):
    single-site gates and the channels fold into the two-site gate next to
    them, so an 8-site brick-wall layer of 15 gates and 8 channels costs 7
    real 16x16 transfer-matrix products, each written into a second buffer.
    Fusion stays inside a layer, so ``keep_states`` records the state after
    each layer, as a 2^n x 2^n matrix, for :func:`purity_and_info` and the
    like.  The energy against ``hamiltonian``, if given, is the real dot
    product of the coefficient vectors: an MPO target already holds its
    coefficients, and a dense array is transformed (giving Re Tr(H^dag rho),
    which is Tr(H rho) for Hermitian H).
    """
    n = circuit.n_sites
    if n > _DENSE_SITE_CAP:
        raise ValueError(f"dense simulation capped at n={_DENSE_SITE_CAP}, got {n}")
    r = np.ones(1)
    for loc in circuit.initial_state:
        site = _real(_TO_PAULI @ np.asarray(loc, dtype=complex).reshape(4),
                     "initial state is not Hermitian")
        r = np.multiply.outer(r, site).reshape(-1)
    out = np.empty_like(r)
    states = [] if keep_states else None
    for layer in circuit.layers:
        for sites, ptm in _fused_layer(layer, n):
            _apply_ptm(r, out, ptm, sites, n)
            r, out = out, r
        if keep_states:
            states.append(_density_matrix(r))
    energy = None
    if hamiltonian is not None:
        h = (_mpo_coeffs(hamiltonian) if isinstance(hamiltonian, MPO)
             else _pauli_coeffs(hamiltonian, n))
        energy = float(h @ r)
    return DenseRun(r, energy, states)


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
