"""Hermitian matrix-product operators on spin-1/2 chains, in the Pauli basis.

An operator A = sum_a c_{a_1 .. a_n} B_{a_1} x ... x B_{a_n} is stored by
its coefficients over the orthonormal basis B_a = P_a / sqrt(2) with
P = (I, X, Y, Z): site tensors are real arrays of shape ``(Dl, 4, Dr)``
with index order (left bond, Pauli index, right bond).  Every B_a is
Hermitian, so an operator is Hermitian exactly when its coefficients are
real, and the constructor rejects complex tensors: every MPO is Hermitian
by construction.  The basis is orthonormal under Tr(A B), so the
Hilbert-Schmidt inner product, the Frobenius norm and SVD compression are
the standard real MPS operations (the Pauli-basis operator MPS of
Rakovszky, von Keyserlingk & Pollmann, PRB 105, 075131 (2022)).  Dense
matrices, local operators and product states are converted only at the
edges: :meth:`MPO.to_dense`, the constructors and
:func:`expectation_product_state`.

Gates and channels act through real Pauli transfer matrices (PTMs),
R[a, b] = Tr(B_a E^dag(B_b)).  A two-site gate's 16x16 PTM is split once
into real factor pairs, dropping only factors below ``SVAL_FLOOR``, except
where that would exceed the bond of an SVD split (chain ends, rank-4 gates
such as SWAP), whose re-split drops singular values below the floor
without reporting them.  A two-site gate may act on any pair of distinct
sites: :func:`adjoint_ops` plans every gate walk, reordering a reversed
pair and bringing a distant one adjacent through a swap chain, and
:func:`apply_ops` runs the plan.  Truncation to a bond cap happens only in
:func:`compress`, which returns the exact discarded norm.  It truncates in
the canonical gauge while computing only the triangular factor of each QR
(the explicit isometries are never formed), so its cost is one R-only QR
and one SVD per cut.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

# Singular values below SVAL_FLOOR * s_max are always discarded, independent
# of any bond cap.  This keeps exact algebra (gate conjugation, adding MPOs)
# from inflating bonds with numerical noise.
SVAL_FLOOR = 1e-14


def _frozen(a: Array) -> Array:
    """``a`` if it and every array on its ``.base`` chain are read-only, else a
    read-only copy (a view marked read-only is still writable through its base)."""
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is not None:
        a = np.array(a)
        a.flags.writeable = False
    return a


_EYE2 = _frozen(np.eye(2, dtype=complex))
_EYE4 = np.eye(4)

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
# Full energy spectra (2^n levels) are enumerated for at most this many
# sites or modes.
_SPECTRUM_MODE_CAP = 20

_SQRT2 = np.sqrt(2.0)
# _BASIS[a] = B_a = P_a / sqrt(2); _BASIS2[(a1, a2)] = B_a1 x B_a2
_BASIS = np.stack([PAULI[ch] for ch in "IXYZ"]) / _SQRT2
_BASIS2 = np.einsum("aij,bkl->abikjl", _BASIS, _BASIS).reshape(16, 4, 4)
# coefficients of the 2x2 identity, sqrt(2) B_I
_ID_COEFFS = _frozen(np.array([_SQRT2, 0.0, 0.0, 0.0]))


@dataclass(frozen=True, eq=False)
class MPO:
    """A Hermitian operator on ``n`` qubits in Pauli-basis matrix-product
    form; ``tensors[k]`` is real with shape ``(Dl, 4, Dr)``, read-only and unaliased."""

    tensors: tuple[Array, ...]

    def __post_init__(self):
        object.__setattr__(self, "tensors", tuple(map(_frozen, self.tensors)))
        if not self.tensors:
            raise ValueError("MPO needs at least one site tensor")
        for k, t in enumerate(self.tensors):
            if np.iscomplexobj(t):
                raise ValueError(f"site {k}: Pauli-basis tensors must be real")
            if t.ndim != 3 or t.shape[1] != 4:
                raise ValueError(f"site {k}: expected shape (Dl, 4, Dr), got {t.shape}")
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
        return MPO([t.copy() for t in self.tensors])

    def to_dense(self) -> Array:
        """Contract to a full ``2^n x 2^n`` matrix (guarded to n <= 12)."""
        n = self.n_sites
        if n > _DENSE_SITE_CAP:
            raise ValueError(f"refusing dense reconstruction for n={n} > {_DENSE_SITE_CAP}")
        # (Dl, 4, Dr) -> (Dl, row, col, Dr)
        sites = [np.tensordot(t, _BASIS, axes=(1, 0)).transpose(0, 2, 3, 1)
                 for t in self.tensors]
        res = sites[0]
        for t in sites[1:]:
            res = np.tensordot(res, t, axes=(-1, 0))
        res = res[0, ..., 0]
        # axes are (r1, c1, r2, c2, ...); bring all rows first, then columns
        perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        return np.transpose(res, perm).reshape(2**n, 2**n)


def _site_coeffs(op: Array) -> Array:
    """Real coefficients c_a = Tr(B_a op) of a Hermitian 2x2 operator."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"site operator must be 2x2, got {op.shape}")
    c = np.einsum("aij,ji->a", _BASIS, op)
    if np.abs(c.imag).max() > 1e-12 * max(1.0, np.abs(c).max()):
        raise ValueError("site operator is not Hermitian")
    return c.real


def identity_mpo(n: int) -> MPO:
    return MPO([_ID_COEFFS.reshape(1, 4, 1)] * n)


def from_pauli_sum(terms: list[tuple[str, float]], n: int | None = None) -> MPO:
    """Build sum_k coeff_k * P_k from Pauli strings such as ``("IXZ", 0.5)``.

    Coefficients must be real.  The bond dimension equals the number of
    terms; compress afterwards if a smaller exact rank is known.
    """
    if not terms:
        raise ValueError("need at least one term")
    if n is None:
        n = len(terms[0][0])
    for s, c in terms:
        if len(s) != n:
            raise ValueError(f"string {s!r} has length {len(s)}, expected {n}")
        if any(ch not in PAULI for ch in s):
            raise ValueError(f"invalid Pauli letter in {s!r}")
        if np.iscomplexobj(c):
            raise ValueError(f"coefficient {c!r} of {s!r} must be real")
    m = len(terms)
    # P = sqrt(2) B: one-hot tensors, the coefficient on the first site
    tensors = [np.zeros((1 if k == 0 else m, 4, 1 if k == n - 1 else m)) for k in range(n)]
    for j, (s, c) in enumerate(terms):
        for k, ch in enumerate(s):
            left, right = (0 if k == 0 else j), (0 if k == n - 1 else j)
            tensors[k][left, "IXYZ".index(ch), right] += _SQRT2 * (float(c) if k == 0 else 1.0)
    return MPO(tensors)


def sum_local_mpo(local_ops: list[Array], constant: float = 0.0) -> MPO:
    """Exact bond-2 MPO for ``sum_i h_i + constant * identity``; each h_i
    must be a Hermitian 2x2 matrix."""
    n = len(local_ops)
    vecs = [_site_coeffs(op) for op in local_ops]
    vecs[0] = vecs[0] + constant * _ID_COEFFS
    if n == 1:
        return MPO([vecs[0].reshape(1, 4, 1)])
    w0 = np.zeros((1, 4, 2))
    w0[0, :, 0] = vecs[0]
    w0[0, :, 1] = _ID_COEFFS
    tensors = [w0]
    for k in range(1, n - 1):
        w = np.zeros((2, 4, 2))
        w[0, :, 0] = _ID_COEFFS
        w[1, :, 0] = vecs[k]
        w[1, :, 1] = _ID_COEFFS
        tensors.append(w)
    wn = np.zeros((2, 4, 1))
    wn[0, :, 0] = _ID_COEFFS
    wn[1, :, 0] = vecs[n - 1]
    tensors.append(wn)
    return MPO(tensors)


def random_mpo(n: int, bond: int, rng: np.random.Generator) -> MPO:
    """The Hermitian part (A + A^dag)/2 of a random dense-tensor MPO A with
    complex Gaussian entries; the result has bond ``2 * bond``."""
    tensors = []
    for k in range(n):
        dl = 1 if k == 0 else bond
        dr = 1 if k == n - 1 else bond
        t = rng.standard_normal((dl, 2, 2, dr)) + 1j * rng.standard_normal((dl, 2, 2, dr))
        c = np.einsum("aij,ljir->lar", _BASIS, t / np.sqrt(4 * bond))
        # z -> [[Re z, -Im z], [Im z, Re z]] turns products of complex
        # tensors into real ones whose (0, 0) block is the real part, which
        # holds the Pauli coefficients of (A + A^dag)/2
        tensors.append(np.concatenate([np.concatenate([c.real, -c.imag], axis=2),
                                       np.concatenate([c.imag, c.real], axis=2)], axis=0))
    tensors[0] = tensors[0][:1]
    tensors[-1] = tensors[-1][:, :, :1]
    return MPO(tensors)


def mpo_add(a: MPO, b: MPO) -> MPO:
    if a.n_sites != b.n_sites:
        raise ValueError("site-count mismatch")
    n = a.n_sites
    if n == 1:
        return MPO([a.tensors[0] + b.tensors[0]])
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
            w = np.zeros((la + lb, 4, ra + rb))
            w[:la, :, :ra] = ta
            w[la:, :, ra:] = tb
        tensors.append(w)
    return MPO(tensors)


def mpo_scale(a: MPO, c: float) -> MPO:
    if np.iscomplexobj(c):
        raise ValueError(f"scale factor {c!r} must be real")
    return MPO([a.tensors[0] * float(c)] + list(a.tensors[1:]))


def mpo_hs_inner(a: MPO, b: MPO) -> float:
    """Hilbert-Schmidt inner product Tr(A B) via transfer contraction."""
    if a.n_sites != b.n_sites:
        raise ValueError("site-count mismatch")
    v = np.ones((1, 1))  # (bond_a, bond_b)
    for ta, tb in zip(a.tensors, b.tensors):
        # v[la, lb] , ta[la, s, ra] , tb[lb, s, rb] -> v'[ra, rb]
        tmp = np.tensordot(v, ta, axes=(0, 0))              # (lb, s, ra)
        v = np.tensordot(tmp, tb, axes=([0, 1], [0, 1]))    # (ra, rb)
    return float(v[0, 0])


def frobenius_norm(a: MPO) -> float:
    """||A||_F from the canonical form: ``compress`` under a bond cap that
    never binds leaves sites 0 .. n-2 left-isometric, so the norm is that of
    the last site together with the weight the SVAL_FLOOR rule discarded.
    Unlike sqrt(Tr(A A)), it does not cancel to 0 for a small A written as
    the difference of two large MPOs."""
    c, err = compress(a, max(a.bond_dims, default=1))
    return float(np.hypot(np.linalg.norm(c.tensors[-1]), err))


def expectation_product_state(a: MPO, states: list[Array]) -> float:
    """Tr(A * rho_1 x rho_2 x ... x rho_n) for a product density matrix,
    contracted with the real vectors r_a = Tr(B_a rho_k).

    Each local state must be a valid 2x2 density matrix.
    """
    if len(states) != a.n_sites:
        raise ValueError("one local state per site required")
    return _product_trace(a, [_state_coeffs(check_density_matrix(rho, f"site {k} state"))
                              for k, rho in enumerate(states)])


def check_density_matrix(tau: Array, name: str = "tau") -> Array:
    """``tau`` as a complex array, if it is a finite 2x2 density matrix;
    otherwise a ValueError naming it."""
    tau = np.asarray(tau, dtype=complex)
    if tau.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2")
    if not np.isfinite(tau).all():
        raise ValueError(f"{name} must be finite")
    if np.abs(tau - tau.conj().T).max() > 1e-10:
        raise ValueError(f"{name} must be Hermitian")
    if abs(np.trace(tau).real - 1.0) > 1e-10:
        raise ValueError(f"{name} must have unit trace")
    if np.linalg.eigvalsh(tau).min() < -1e-12:
        raise ValueError(f"{name} must be positive semidefinite")
    return tau


def _state_coeffs(rho: Array) -> Array:
    """The real vector r_a = Tr(B_a rho) of a 2x2 Hermitian matrix."""
    return np.einsum("aij,ji->a", _BASIS, rho).real


def _product_trace(a: MPO, coeffs: list[Array]) -> float:
    """Tr(A * rho_1 x ... x rho_n) from the vectors ``coeffs[k]`` =
    Tr(B_a rho_k), which the caller has already checked."""
    v = np.ones(1)
    for t, r in zip(a.tensors, coeffs):
        v = r @ (v @ t.reshape(t.shape[0], -1)).reshape(4, -1)
    return float(v[0])


def _floor_rank(s: Array) -> int:
    """How many of the descending singular values ``s`` exceed
    SVAL_FLOOR * s[0], at least 1 (so 1 when s[0] = 0)."""
    return max(1, int(np.sum(s > SVAL_FLOOR * s[0])))


def compress(a: MPO, max_bond: int) -> tuple[MPO, float]:
    """SVD-truncate ``a`` to bond dimension ``max_bond``; returns the
    compressed MPO and the exact discarded norm

        || A - compress(A) ||_F = sqrt(sum of discarded singular values^2).

    The truncation is the canonical-gauge one (Schollwoeck, Ann. Phys. 326,
    96 (2011), sec. 4.5), but only the triangular factors of the
    right-canonical form are computed, never its isometries:

    - right to left, R_k = qr(X_k^T, mode="r") with X_k = A_k R_{k+1}^T
      reshaped (Dl, 4 r), so that sites k .. n-1 together are R_k^T times
      a matrix with orthonormal rows;
    - left to right, a centre C_k stays in the input's own gauge on its
      right bond (C_0 = A_0).  Cut k takes the SVD u s v^T of
      M = C_k R_{k+1}^T, keeps u (the ``SVAL_FLOOR`` rule, then the cap),
      emits it as the left-isometric site k and moves on with
      C_{k+1} = (u^T C_k) A_{k+1}.  The last centre is the last site.

    Sites 0 .. k-1 are isometries and the rows right of cut k orthonormal,
    so s holds the singular values across cut k of the operator truncated
    so far, and each cut is truncated once, in that mixed-canonical form.  The discarded parts
    of different cuts are therefore mutually orthogonal, and the returned
    error is the exact discarded weight of the SVDs computed.  No R is
    ever inverted: under a bond gauge of condition 1e4 or 1e8 the result
    is as accurate as with explicit isometries.
    """
    if max_bond < 1:
        raise ValueError("max_bond must be >= 1")
    n = a.n_sites
    # rts[k] = R_k^T, shape (Dl_k, r_k); the last site's right bond is 1
    rts: list[Array] = [None] * n + [np.ones((1, 1))]
    for k in range(n - 1, 0, -1):
        t = a.tensors[k]
        x = (t.reshape(-1, t.shape[2]) @ rts[k + 1]).reshape(t.shape[0], -1)
        rts[k] = np.linalg.qr(x.T, mode="r").T
    sites = []
    err2 = 0.0
    c = a.tensors[0]
    for k in range(n - 1):
        dl = c.shape[0]
        c = c.reshape(dl * 4, -1)
        u, s, _ = np.linalg.svd(c @ rts[k + 1], full_matrices=False)
        keep = min(_floor_rank(s), max_bond)
        err2 += float(np.sum(s[keep:] ** 2))
        u = u[:, :keep]
        sites.append(u.reshape(dl, 4, keep))
        t = a.tensors[k + 1]
        c = ((u.T @ c) @ t.reshape(t.shape[0], -1)).reshape(keep, 4, -1)
    sites.append(c)
    return MPO(sites), float(np.sqrt(err2))


@functools.lru_cache(maxsize=1024)
def _ptm(key: bytes) -> Array:
    """Real PTM R[a, b] = Tr(B_a U^dag B_b U) of the gate U whose complex
    bytes are ``key`` (2x2 or 4x4), checked unitary once per distinct gate.

    The cache holds every gate of a 16-site depth-25 brick wall; the
    returned array is read-only.
    """
    dim = 2 if len(key) == 4 * 16 else 4
    u = np.frombuffer(key, dtype=complex).reshape(dim, dim)
    if np.abs(u.conj().T @ u - np.eye(dim)).max() > 1e-10:
        raise ValueError("gate is not unitary")
    basis = _BASIS if dim == 2 else _BASIS2
    m = u.conj().T @ basis @ u                       # U^dag B_b U
    r = (basis.reshape(dim * dim, -1) @ m.transpose(0, 2, 1).reshape(dim * dim, -1).T).real
    r.flags.writeable = False
    return r


def _gate_key(gate: Array, dim: int) -> bytes:
    u = np.ascontiguousarray(gate, dtype=complex)
    if u.shape != (dim, dim):
        raise ValueError(f"gate must be {dim}x{dim}, got {u.shape}")
    return u.tobytes()


@functools.lru_cache(maxsize=1024)
def _ptm_factors(key: bytes) -> tuple[Array, Array]:
    """Real factor pairs of a two-site gate's PTM, R = sum_k F_k (x) G_k.

    R[(a1 a2), (b1 b2)] is reshuffled to M[(a1 b1), (a2 b2)] and split by
    one 16x16 SVD; pairs with singular value <= SVAL_FLOOR * s_0 are
    dropped.  A gate of operator-Schmidt rank r has r^2 pairs.  Returns
    read-only ``(fa, fb)`` of shape ``(r^2, 4, 4)``.
    """
    m = _ptm(key).reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
    um, s, vh = np.linalg.svd(m)
    k = _floor_rank(s)
    fa = (um[:, :k] * s[:k]).T.reshape(k, 4, 4)
    return _frozen(fa), _frozen(vh[:k].reshape(k, 4, 4))


def apply_gate_adjoint(a: MPO, gate: Array, sites: tuple[int, ...]) -> MPO:
    """Heisenberg-picture update A -> U^dag A U, through the gate's PTM,
    for a gate on one site or on any two distinct sites, in either order
    (see :func:`adjoint_ops`; each adjacent pair is updated by
    :func:`_pair_update`)."""
    return apply_ops(a, adjoint_ops([(gate, sites)], [None] * a.n_sites))


def adjoint_ops(gates: list[tuple[Array, tuple[int, ...]]],
                pending: list[Array | None]) -> list[tuple]:
    """The ops of A -> U^dag A U for ``gates``, (matrix, sites) pairs in
    application order, after the one-site PTM ``pending[s]`` (None for the
    identity) acts on each site s; :func:`apply_ops` runs them.

    ``(site, P)`` applies the 4x4 PTM P to one site, and
    ``(i, fa, fb, R, P_i, P_j)`` applies R (P_i (x) P_j) to sites (i, i+1)
    through :func:`_pair_update`.  Walking the gates in reverse, a one-site
    gate multiplies its site's pending PTM and a gate on (i, i+1) takes the
    pending PTMs of its sites along.  Any other pair is reordered to
    (min, max) and brought adjacent by a swap chain, which first flushes
    the pending PTMs of every site it crosses.  What is pending at the end
    becomes one op per site.
    """
    n = len(pending)
    pending = list(pending)
    ops: list[tuple] = []

    def flush(site: int) -> None:
        if pending[site] is not None:
            ops.append((site, pending[site]))
            pending[site] = None

    for gate, sites in reversed(gates):
        if len(sites) not in (1, 2):
            raise ValueError("gates act on one or two sites")
        for s in sites:
            if not 0 <= s < n:
                raise ValueError(f"site {s} out of range for n={n}")
        if len(sites) == 1:
            (s,) = sites
            r = _ptm(_gate_key(gate, 2))
            pending[s] = r if pending[s] is None else r @ pending[s]
            continue
        i, j = sites
        if i == j:
            raise ValueError("two-site gate needs distinct sites")
        key = _gate_key(gate, 4)
        if i > j:
            # reorder the gate to match (min, max) site order
            key = (np.frombuffer(key, dtype=complex).reshape(2, 2, 2, 2)
                   .transpose(1, 0, 3, 2).tobytes())
            i, j = j, i
        pair = (*_ptm_factors(key), _ptm(key))
        if j == i + 1:
            ops.append((i, *pair, pending[i], pending[j]))
            pending[i] = pending[j] = None
            continue
        for s in range(i, j + 1):
            flush(s)
        swap_key = _gate_key(SWAP, 4)
        swap = (*_ptm_factors(swap_key), _ptm(swap_key), None, None)
        ops.extend((k, *swap) for k in range(j - 1, i, -1))
        ops.append((i, *pair, None, None))
        ops.extend((k, *swap) for k in range(i + 1, j))
    for s in range(n):
        flush(s)
    return ops


def apply_ops(a: MPO, ops: list[tuple]) -> MPO:
    """Run the ops of :func:`adjoint_ops` on the site tensors of ``a``,
    building one MPO at the end."""
    tensors = list(a.tensors)
    for op in ops:
        if len(op) == 2:
            site, r = op
            tensors[site] = r @ tensors[site]
        else:
            i = op[0]
            tensors[i], tensors[i + 1] = _pair_update(tensors[i], tensors[i + 1], *op[1:])
    return MPO(tensors)


def _pair_update(ti: Array, tj: Array, fa: Array, fb: Array, ptm: Array,
                 pi: Array | None = None, pj: Array | None = None
                 ) -> tuple[Array, Array]:
    """The site tensors of an adjacent pair after the two-site map
    R (pi (x) pj), where R = ``ptm`` = sum_k fa[k] (x) fb[k] (k = r^2 pairs,
    r <= 4 the gate's operator-Schmidt rank) and the one-site PTMs pi, pj
    (None for the identity) act first.

    The one-site maps fold into the factors, (fa[k] pi) (x) (fb[k] pj), and
    the pair is updated at bond D_mid * k when that is at most
    4 min(D_left, D_right); otherwise (chain ends, and rank-4 gates such as
    SWAP) R (pi (x) pj) is applied to the contracted pair, which an SVD
    splits again, dropping singular values below SVAL_FLOOR unreported.
    """
    dl, dm, dr = ti.shape[0], ti.shape[-1], tj.shape[-1]
    k2 = fa.shape[0]
    if k2 * dm <= 4 * min(dl, dr):
        if pi is not None:
            fa = fa @ pi
        if pj is not None:
            fb = fb @ pj
        # new bond index is (m, k), m the old bond; both products contract
        # the Pauli index b, moved to the front of the site tensor
        li = fa.reshape(4 * k2, 4) @ ti.transpose(1, 0, 2).reshape(4, -1)
        rj = fb.reshape(4 * k2, 4) @ tj.transpose(1, 0, 2).reshape(4, -1)
        return (li.reshape(k2, 4, dl, dm).transpose(2, 1, 3, 0).reshape(dl, 4, dm * k2),
                rj.reshape(k2, 4, dm, dr).transpose(2, 0, 1, 3).reshape(dm * k2, 4, dr))
    if pi is not None or pj is not None:
        pi = _EYE4 if pi is None else pi
        pj = _EYE4 if pj is None else pj
        ptm = ptm @ (pi[:, None, :, None] * pj[None, :, None, :]).reshape(16, 16)
    theta = ptm @ np.tensordot(ti, tj, axes=(-1, 0)).reshape(dl, 16, dr)
    um, s, vh = np.linalg.svd(theta.reshape(dl * 4, 4 * dr), full_matrices=False)
    keep = _floor_rank(s)
    return (um[:, :keep].reshape(dl, 4, keep),
            (s[:keep, None] * vh[:keep, :]).reshape(keep, 4, dr))


def apply_gate(a: MPO, gate: Array, sites: tuple[int, ...]) -> MPO:
    """Schroedinger-picture conjugation A -> U A U^dag."""
    return apply_gate_adjoint(a, np.asarray(gate, dtype=complex).conj().T, sites)


def apply_depolarizing_adjoint(a: MPO, p: float, site: int) -> MPO:
    """Adjoint of single-site depolarizing noise (the channel is self-adjoint):

        A -> (1 - p) A + p * Tr_site(A) x I/2,

    whose PTM is diag(1, 1 - p, 1 - p, 1 - p).  Bond dimensions are
    unchanged.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if not 0 <= site < a.n_sites:
        raise ValueError(f"site {site} out of range")
    return apply_ops(a, [(site, np.diag([1.0] + [1.0 - p] * 3))])


def apply_site_superop_adjoint(a: MPO, superop: Array, site: int) -> MPO:
    """Apply the adjoint of a single-site channel given as a 4x4 superoperator.

    ``superop`` maps vec(X) -> vec(N(X)) with row-major vec; the adjoint with
    respect to the Hilbert-Schmidt inner product is its conjugate transpose,
    applied as the PTM R[a, b] = Tr(B_a N^dag(B_b)).  That PTM is real
    exactly when N^dag preserves Hermiticity; any other map raises.
    """
    k = np.asarray(superop, dtype=complex)
    if k.shape != (4, 4):
        raise ValueError("superoperator must be 4x4")
    if not 0 <= site < a.n_sites:
        raise ValueError(f"site {site} out of range")
    return apply_ops(a, [(site, _superop_ptm(k))])


def _superop_ptm(superop: Array) -> Array:
    """The real PTM R[a, b] = Tr(B_a N^dag(B_b)) of the channel whose
    row-major superoperator is ``superop``; raises unless N^dag preserves
    Hermiticity."""
    # Tr(B_a Y) = vec(B_a^T) . vec(Y)
    r = (_BASIS.transpose(0, 2, 1).reshape(4, 4) @ np.asarray(superop).conj().T
         @ _BASIS.reshape(4, 4).T)
    if np.abs(r.imag).max() > 1e-10 * max(1.0, np.abs(r).max()):
        raise ValueError("superoperator adjoint does not preserve Hermiticity")
    return r.real
