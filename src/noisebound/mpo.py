"""Matrix-product operators on spin-1/2 chains.

Site tensors have shape ``(Dl, 2, 2, Dr)`` with index order (left bond,
physical row, physical column, right bond).  An MPO is treated as an MPS
with a fused dimension-4 physical leg wherever a 2-norm is needed, so the
Hilbert-Schmidt inner product, Frobenius norm and SVD compression are the
standard MPS operations.

Gate adjoints are exact up to a relative floor: a two-site gate is applied
through its operator-Schmidt factors, dropping only factors below
``SVAL_FLOOR``, except where that would exceed the bond of an SVD split
(chain ends, rank-4 gates such as SWAP), whose re-split drops singular
values below the floor without reporting them.  Truncation to a bond cap
happens only in :func:`compress`, which returns the exact discarded norm.

All operations are functional: inputs are never mutated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

Array = np.ndarray

# Singular values below SVAL_FLOOR * s_max are always discarded, independent
# of any bond cap.  This keeps exact algebra (gate conjugation, adding MPOs)
# from inflating bonds with numerical noise.
SVAL_FLOOR = 1e-14

_EYE2 = np.eye(2, dtype=complex)

PAULI = {
    "I": _EYE2,
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

_DENSE_SITE_CAP = 12


@dataclass
class MPO:
    """An operator on ``n`` qubits in matrix-product form.

    ``hermitian`` is advisory: it records that the operator is Hermitian up
    to ~1e-10 and is asserted where it matters (expectation values).
    """

    tensors: list[Array]
    hermitian: bool = False

    def __post_init__(self):
        if not self.tensors:
            raise ValueError("MPO needs at least one site tensor")
        for k, t in enumerate(self.tensors):
            if t.ndim != 4 or t.shape[1:3] != (2, 2):
                raise ValueError(f"site {k}: expected shape (Dl, 2, 2, Dr), got {t.shape}")
        if self.tensors[0].shape[0] != 1 or self.tensors[-1].shape[-1] != 1:
            raise ValueError("boundary bonds must have dimension 1")
        for k in range(len(self.tensors) - 1):
            if self.tensors[k].shape[-1] != self.tensors[k + 1].shape[0]:
                raise ValueError(f"bond mismatch between sites {k} and {k + 1}")

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def bond_dims(self) -> list[int]:
        """Internal bond dimensions (length ``n_sites - 1``)."""
        return [t.shape[-1] for t in self.tensors[:-1]]

    def copy(self) -> "MPO":
        return MPO([t.copy() for t in self.tensors], self.hermitian)

    def to_dense(self) -> Array:
        """Contract to a full ``2^n x 2^n`` matrix (guarded to n <= 12)."""
        n = self.n_sites
        if n > _DENSE_SITE_CAP:
            raise ValueError(f"refusing dense reconstruction for n={n} > {_DENSE_SITE_CAP}")
        res = self.tensors[0]
        for t in self.tensors[1:]:
            res = np.tensordot(res, t, axes=(-1, 0))
        res = res[0, ..., 0]
        # axes are (r1, c1, r2, c2, ...); bring all rows first, then columns
        perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        return np.transpose(res, perm).reshape(2**n, 2**n)


def _as_mps_site(t: Array) -> Array:
    dl, _, _, dr = t.shape
    return t.reshape(dl, 4, dr)


def _as_mpo_site(t: Array) -> Array:
    dl, _, dr = t.shape
    return t.reshape(dl, 2, 2, dr)


def identity_mpo(n: int) -> MPO:
    return MPO([_EYE2.reshape(1, 2, 2, 1).copy() for _ in range(n)], hermitian=True)


def zero_mpo(n: int) -> MPO:
    return MPO([np.zeros((1, 2, 2, 1), dtype=complex) for _ in range(n)], hermitian=True)


def from_pauli_sum(terms: list[tuple[str, complex]], n: int | None = None) -> MPO:
    """Build sum_k coeff_k * P_k from Pauli strings such as ``("IXZ", 0.5)``.

    The bond dimension equals the number of terms; compress afterwards if a
    smaller exact rank is known.
    """
    if not terms:
        raise ValueError("need at least one term")
    if n is None:
        n = len(terms[0][0])
    for s, _ in terms:
        if len(s) != n:
            raise ValueError(f"string {s!r} has length {len(s)}, expected {n}")
        if any(ch not in PAULI for ch in s):
            raise ValueError(f"invalid Pauli letter in {s!r}")
    m = len(terms)
    if n == 1:
        w = np.zeros((1, 2, 2, 1), dtype=complex)
        for s, c in terms:
            w[0, :, :, 0] += c * PAULI[s[0]]
        herm = all(abs(complex(c).imag) < 1e-14 for _, c in terms)
        return MPO([w], hermitian=herm)
    tensors = []
    w0 = np.zeros((1, 2, 2, m), dtype=complex)
    for k, (s, c) in enumerate(terms):
        w0[0, :, :, k] = c * PAULI[s[0]]
    tensors.append(w0)
    for site in range(1, n - 1):
        w = np.zeros((m, 2, 2, m), dtype=complex)
        for k, (s, _) in enumerate(terms):
            w[k, :, :, k] = PAULI[s[site]]
        tensors.append(w)
    wn = np.zeros((m, 2, 2, 1), dtype=complex)
    for k, (s, _) in enumerate(terms):
        wn[k, :, :, 0] = PAULI[s[n - 1]]
    tensors.append(wn)
    herm = all(abs(complex(c).imag) < 1e-14 for _, c in terms)
    return MPO(tensors, hermitian=herm)


def sum_local_mpo(local_ops: list[Array], constant: float = 0.0) -> MPO:
    """Exact bond-2 MPO for ``sum_i h_i + constant * identity``."""
    n = len(local_ops)
    if n == 1:
        w = (local_ops[0].astype(complex) + constant * _EYE2).reshape(1, 2, 2, 1)
        return MPO([w], hermitian=bool(np.allclose(w[0, :, :, 0], w[0, :, :, 0].conj().T)))
    ops = [op.astype(complex) for op in local_ops]
    ops[0] = ops[0] + constant * _EYE2
    tensors = []
    w0 = np.zeros((1, 2, 2, 2), dtype=complex)
    w0[0, :, :, 0] = ops[0]
    w0[0, :, :, 1] = _EYE2
    tensors.append(w0)
    for k in range(1, n - 1):
        w = np.zeros((2, 2, 2, 2), dtype=complex)
        w[0, :, :, 0] = _EYE2
        w[1, :, :, 0] = ops[k]
        w[1, :, :, 1] = _EYE2
        tensors.append(w)
    wn = np.zeros((2, 2, 2, 1), dtype=complex)
    wn[0, :, :, 0] = _EYE2
    wn[1, :, :, 0] = ops[n - 1]
    tensors.append(wn)
    herm = all(np.allclose(op, op.conj().T) for op in ops)
    return MPO(tensors, hermitian=herm)


def random_mpo(n: int, bond: int, rng: np.random.Generator, hermitian: bool = False) -> MPO:
    """Random dense-tensor MPO, optionally Hermitianized as (A + A^dag)/2."""
    tensors = []
    for k in range(n):
        dl = 1 if k == 0 else bond
        dr = 1 if k == n - 1 else bond
        t = rng.standard_normal((dl, 2, 2, dr)) + 1j * rng.standard_normal((dl, 2, 2, dr))
        tensors.append(t / np.sqrt(4 * bond))
    a = MPO(tensors)
    if hermitian:
        a = mpo_scale(mpo_add(a, conj_transpose(a)), 0.5)
        a = replace(a, hermitian=True)
    return a


def conj_transpose(a: MPO) -> MPO:
    """A -> A^dag (conjugate every tensor, swap the physical legs)."""
    tensors = [t.conj().transpose(0, 2, 1, 3) for t in a.tensors]
    return MPO(tensors, hermitian=a.hermitian)


def mpo_add(a: MPO, b: MPO) -> MPO:
    if a.n_sites != b.n_sites:
        raise ValueError("site-count mismatch")
    n = a.n_sites
    if n == 1:
        return MPO([a.tensors[0] + b.tensors[0]], hermitian=a.hermitian and b.hermitian)
    tensors = []
    for k in range(n):
        ta, tb = a.tensors[k], b.tensors[k]
        la, ra = ta.shape[0], ta.shape[-1]
        lb, rb = tb.shape[0], tb.shape[-1]
        if k == 0:
            w = np.concatenate([ta, tb], axis=-1)
        elif k == n - 1:
            w = np.concatenate([ta, tb], axis=0)
        else:
            w = np.zeros((la + lb, 2, 2, ra + rb), dtype=complex)
            w[:la, :, :, :ra] = ta
            w[la:, :, :, ra:] = tb
        tensors.append(w)
    return MPO(tensors, hermitian=a.hermitian and b.hermitian)


def mpo_scale(a: MPO, c: complex) -> MPO:
    tensors = [a.tensors[0] * c] + [t.copy() for t in a.tensors[1:]]
    herm = a.hermitian and abs(complex(c).imag) < 1e-14
    return MPO(tensors, hermitian=herm)


def symmetrize(a: MPO) -> MPO:
    """(A + A^dag)/2, flagged Hermitian.  Doubles the bond dimension."""
    out = mpo_scale(mpo_add(a, conj_transpose(a)), 0.5)
    return replace(out, hermitian=True)


def mpo_trace(a: MPO) -> complex:
    v = np.ones((1, 1), dtype=complex)
    for t in a.tensors:
        m = np.trace(t, axis1=1, axis2=2)  # (Dl, Dr)
        v = v @ m
    return complex(v[0, 0])


def mpo_hs_inner(a: MPO, b: MPO) -> complex:
    """Hilbert-Schmidt inner product Tr(A^dag B) via transfer contraction."""
    if a.n_sites != b.n_sites:
        raise ValueError("site-count mismatch")
    v = np.ones((1, 1), dtype=complex)  # (bond_a, bond_b)
    for ta, tb in zip(a.tensors, b.tensors):
        ma = _as_mps_site(ta)
        mb = _as_mps_site(tb)
        # v[la, lb] , conj(ma)[la, s, ra] , mb[lb, s, rb] -> v'[ra, rb]
        tmp = np.tensordot(v, ma.conj(), axes=(0, 0))      # (lb, s, ra)
        v = np.tensordot(tmp, mb, axes=([0, 1], [0, 1]))   # (ra, rb)
    return complex(v[0, 0])


def frobenius_norm(a: MPO) -> float:
    val = mpo_hs_inner(a, a).real
    return float(np.sqrt(max(val, 0.0)))


def expectation_product_state(a: MPO, states: list[Array]) -> float:
    """Tr(A * rho_1 x rho_2 x ... x rho_n) for a product density matrix.

    Each local state must be a valid 2x2 density matrix.  The result is
    returned as a real number; if ``a`` is flagged Hermitian an imaginary
    part above 1e-10 raises.
    """
    if len(states) != a.n_sites:
        raise ValueError("one local state per site required")
    for k, rho in enumerate(states):
        if rho.shape != (2, 2):
            raise ValueError(f"site {k}: state must be 2x2")
        if abs(np.trace(rho) - 1.0) > 1e-8:
            raise ValueError(f"site {k}: trace {np.trace(rho)} != 1")
        if np.abs(rho - rho.conj().T).max() > 1e-8:
            raise ValueError(f"site {k}: state not Hermitian")
        if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -1e-8:
            raise ValueError(f"site {k}: state not positive semidefinite")
    v = np.ones((1, 1), dtype=complex)
    for t, rho in zip(a.tensors, states):
        # Tr(A rho) contracts A[.., out, in, ..] with rho[in, out]
        m = np.einsum("aijb,ji->ab", t, rho)
        v = v @ m
    z = complex(v[0, 0])
    scale = max(1.0, abs(z))
    if a.hermitian and abs(z.imag) > 1e-10 * scale:
        raise ValueError(f"imaginary expectation {z.imag} for Hermitian operator")
    return float(z.real)


def _right_canonicalize(sites: list[Array]) -> list[Array]:
    """LQ sweep N-1 .. 1 so every tensor except the first is right-isometric."""
    sites = [t.copy() for t in sites]
    for k in range(len(sites) - 1, 0, -1):
        dl, p, dr = sites[k].shape
        mat = sites[k].reshape(dl, p * dr)
        q, r = np.linalg.qr(mat.conj().T)       # mat = r^H q^H, q^H rows orthonormal
        sites[k] = q.conj().T.reshape(-1, p, dr)
        sites[k - 1] = np.tensordot(sites[k - 1], r.conj().T, axes=(-1, 0))
    return sites


def compress(a: MPO, max_bond: int) -> tuple[MPO, float]:
    """SVD-truncate ``a`` to bond dimension ``max_bond``.

    Right-canonicalizes without truncation, then sweeps left-to-right
    truncating each cut in mixed-canonical form.  Because every cut is
    truncated exactly once while the chain is in canonical form, the
    discarded weights at different cuts are mutually orthogonal and the
    returned error is exact:

        || A - compress(A) ||_F = sqrt(sum of discarded singular values^2)
    """
    if max_bond < 1:
        raise ValueError("max_bond must be >= 1")
    n = a.n_sites
    if n == 1:
        return a.copy(), 0.0
    sites = _right_canonicalize([_as_mps_site(t) for t in a.tensors])
    err2 = 0.0
    for k in range(n - 1):
        dl, p, dr = sites[k].shape
        mat = sites[k].reshape(dl * p, dr)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        if s.size and s[0] > 0.0:
            keep = int(np.sum(s > SVAL_FLOOR * s[0]))
        else:
            keep = 1
        keep = max(1, min(keep, max_bond))
        err2 += float(np.sum(s[keep:] ** 2))
        sites[k] = u[:, :keep].reshape(dl, p, keep)
        sv = (s[:keep, None] * vh[:keep, :])
        sites[k + 1] = np.tensordot(sv, sites[k + 1], axes=(1, 0))
    out = MPO([_as_mpo_site(t) for t in sites], hermitian=False)
    return out, float(np.sqrt(err2))


def _check_unitary(u: Array, dim: int) -> Array:
    u = np.asarray(u, dtype=complex)
    if u.shape != (dim, dim):
        raise ValueError(f"gate must be {dim}x{dim}, got {u.shape}")
    if np.abs(u.conj().T @ u - np.eye(dim)).max() > 1e-10:
        raise ValueError("gate is not unitary")
    return u


@functools.lru_cache(maxsize=64)
def _schmidt_kernels(key: bytes) -> tuple[Array, Array]:
    """Operator-Schmidt kernels of V = U^dag = sum_s a_s (x) b_s.

    ``key`` holds the bytes of the 4x4 complex gate U, so a circuit that
    reuses a gate factors it once; the returned arrays are read-only.

    V[(o1 o2), (x1 x2)] is reshuffled to M[(o1 x1), (o2 x2)] and split by
    one 4x4 SVD; factors with singular value <= SVAL_FLOOR * s_0 are
    dropped.  Returns ``(ka, kb)``, each of shape ``(r^2, 4, 4)``, with

        ka[(s, s'), (o, i), (x, y)] = a_s[o, x] * conj(a_s'[i, y])

    and likewise for ``kb``, so that ``ka[(s, s')]`` applied to a site
    operator L gives a_s L a_s'^dag.
    """
    v = np.frombuffer(key, dtype=complex).reshape(4, 4).conj().T
    m = v.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    um, s, vh = np.linalg.svd(m)
    r = max(1, int(np.sum(s > SVAL_FLOOR * s[0])))
    fa = (um[:, :r] * s[:r]).T.reshape(r, 2, 2)
    fb = vh[:r].reshape(r, 2, 2)
    ka = np.einsum("sox,tiy->stoixy", fa, fa.conj()).reshape(r * r, 4, 4)
    kb = np.einsum("sox,tiy->stoixy", fb, fb.conj()).reshape(r * r, 4, 4)
    ka.flags.writeable = False
    kb.flags.writeable = False
    return ka, kb


def apply_gate_adjoint(a: MPO, gate: Array, sites: tuple[int, ...]) -> MPO:
    """Heisenberg-picture update A -> U^dag A U.

    Single-site gates act in place; two-site gates must act on adjacent
    sites (use :func:`apply_gate_adjoint_longrange` otherwise).

    A two-site gate is split into its operator-Schmidt factors
    V = U^dag = sum_s a_s (x) b_s (rank r <= 4), and the pair is updated as
    V (L (x) R) V^dag = sum_{s,s'} (a_s L a_s'^dag) (x) (b_s R b_s'^dag),
    which is exact at bond D_mid * r^2 and drops only gate factors below
    the relative floor SVAL_FLOOR.  When that bond would exceed the SVD bound
    min(4 D_left, 4 D_right) (chain ends, and rank-4 gates such as SWAP),
    the updated pair is instead re-split by an SVD, which discards
    singular values below the floor without reporting them.
    """
    n = a.n_sites
    for s in sites:
        if not 0 <= s < n:
            raise ValueError(f"site {s} out of range for n={n}")
    if len(sites) == 1:
        u = _check_unitary(gate, 2)
        v = u.conj().T
        k = sites[0]
        t = np.einsum("oa,labr,ib->loir", v, a.tensors[k], v.conj())
        tensors = list(a.tensors)
        tensors[k] = t
        return MPO(tensors, hermitian=a.hermitian)
    if len(sites) != 2:
        raise ValueError("gates act on one or two sites")
    i, j = sites
    if j != i + 1:
        raise ValueError("two-site gates must act on adjacent sites (i, i+1)")
    u = _check_unitary(gate, 4)
    ti, tj = a.tensors[i], a.tensors[j]
    dl, dm, dr = ti.shape[0], ti.shape[-1], tj.shape[-1]
    tensors = list(a.tensors)
    ka, kb = _schmidt_kernels(u.tobytes())
    r2 = ka.shape[0]
    if r2 * dm <= 4 * min(dl, dr):
        # new bond index is (m, s, s'), m the old bond
        li = np.tensordot(ti.reshape(dl, 4, dm), ka, axes=(1, 2))  # (l, m, ss', oi)
        tensors[i] = li.transpose(0, 3, 1, 2).reshape(dl, 2, 2, dm * r2)
        rj = np.tensordot(kb, tj.reshape(dm, 4, dr), axes=(2, 1))  # (ss', oi, m, r)
        tensors[j] = rj.transpose(2, 0, 1, 3).reshape(dm * r2, 2, 2, dr)
        return MPO(tensors, hermitian=a.hermitian)
    v = u.conj().T
    theta = np.tensordot(ti, tj, axes=(-1, 0))          # (l, o1, i1, o2, i2, r)
    theta = theta.transpose(0, 1, 3, 2, 4, 5).reshape(dl, 4, 4, dr)
    theta = np.einsum("oa,labr,ib->loir", v, theta, v.conj())
    theta = theta.reshape(dl, 2, 2, 2, 2, dr).transpose(0, 1, 3, 2, 4, 5)
    mat = theta.reshape(dl * 4, 4 * dr)
    um, s, vh = np.linalg.svd(mat, full_matrices=False)
    if s.size and s[0] > 0.0:
        keep = max(1, int(np.sum(s > SVAL_FLOOR * s[0])))
    else:
        keep = 1
    tensors[i] = um[:, :keep].reshape(dl, 2, 2, keep)
    tensors[j] = (s[:keep, None] * vh[:keep, :]).reshape(keep, 2, 2, dr)
    return MPO(tensors, hermitian=a.hermitian)


def apply_gate_adjoint_longrange(a: MPO, gate: Array, sites: tuple[int, int]) -> MPO:
    """U^dag A U for a two-site gate on arbitrary (i, j) via a swap chain.

    The pair is brought adjacent by conjugating with SWAPs, the gate is
    applied, and the chain is unwound.  Bond dimensions grow transiently;
    callers compress afterwards.
    """
    i, j = sites
    if i > j:
        # reorder the gate to match (min, max) site order
        g = np.asarray(gate, dtype=complex).reshape(2, 2, 2, 2)
        gate = g.transpose(1, 0, 3, 2).reshape(4, 4)
        i, j = j, i
    if i == j:
        raise ValueError("two-site gate needs distinct sites")
    if j == i + 1:
        return apply_gate_adjoint(a, gate, (i, j))
    for k in range(j - 1, i, -1):
        a = apply_gate_adjoint(a, SWAP, (k, k + 1))
    a = apply_gate_adjoint(a, gate, (i, i + 1))
    for k in range(i + 1, j):
        a = apply_gate_adjoint(a, SWAP, (k, k + 1))
    return a


def apply_gate(a: MPO, gate: Array, sites: tuple[int, ...]) -> MPO:
    """Schroedinger-picture conjugation A -> U A U^dag."""
    g = np.asarray(gate, dtype=complex)
    if len(sites) == 2 and abs(sites[0] - sites[1]) != 1:
        return apply_gate_adjoint_longrange(a, g.conj().T, (sites[0], sites[1]))
    return apply_gate_adjoint(a, g.conj().T, tuple(sites))


def apply_depolarizing_adjoint(a: MPO, p: float, site: int) -> MPO:
    """Adjoint of single-site depolarizing noise (the channel is self-adjoint):

        A -> (1 - p) A + p * Tr_site(A) x I/2

    Bond dimensions are unchanged.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if not 0 <= site < a.n_sites:
        raise ValueError(f"site {site} out of range")
    t = a.tensors[site]
    tr = np.trace(t, axis1=1, axis2=2)  # (Dl, Dr)
    tnew = (1.0 - p) * t + p * 0.5 * np.einsum("ab,oi->aoib", tr, _EYE2)
    tensors = list(a.tensors)
    tensors[site] = tnew
    return MPO(tensors, hermitian=a.hermitian)


def apply_site_superop_adjoint(a: MPO, superop: Array, site: int) -> MPO:
    """Apply the adjoint of a single-site channel given as a 4x4 superoperator.

    ``superop`` maps vec(X) -> vec(N(X)) with row-major vec; the adjoint with
    respect to the Hilbert-Schmidt inner product is its conjugate transpose.
    """
    k = np.asarray(superop, dtype=complex)
    if k.shape != (4, 4):
        raise ValueError("superoperator must be 4x4")
    if not 0 <= site < a.n_sites:
        raise ValueError(f"site {site} out of range")
    kd = k.conj().T.reshape(2, 2, 2, 2)  # [o, i, a, b]
    t = np.einsum("oiab,labr->loir", kd, a.tensors[site])
    tensors = list(a.tensors)
    tensors[site] = t
    return MPO(tensors, hermitian=False)
