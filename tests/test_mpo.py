"""Matrix-product-operator algebra against dense Kronecker oracles.

Every structural operation (construction, arithmetic, compression, gate and
channel adjoints) is checked by contracting the MPO to a dense matrix and
comparing with the same operation done directly on 2^n x 2^n arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisebound.circuits import brickwall_1d, haar_single_qubit, xx_gate, zz_gate
from noisebound.mpo import (
    MPO,
    SWAP,
    apply_depolarizing_adjoint,
    apply_gate,
    apply_gate_adjoint,
    apply_site_superop_adjoint,
    compress,
    expectation_product_state,
    from_pauli_sum,
    frobenius_norm,
    identity_mpo,
    mpo_add,
    mpo_hs_inner,
    mpo_scale,
    random_mpo,
    sum_local_mpo,
)
from noisebound.noise import depolarizing, purity_schedule, superop_matrix
from noisebound.trace_dual import dual_value, heisenberg_tebd

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_P = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def kron_string(s: str) -> np.ndarray:
    """Dense matrix of a Pauli string like ``"XIZ"``."""
    out = np.array([[1.0 + 0j]])
    for ch in s:
        out = np.kron(out, _P[ch])
    return out


def embed(op: np.ndarray, n: int, sites: tuple[int, ...]) -> np.ndarray:
    """Dense embedding of a k-site operator acting on ``sites`` (ascending,
    adjacent) into an n-qubit space."""
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


def rand_herm_mpo(n: int, bond: int, seed: int) -> MPO:
    rng = np.random.default_rng(seed)
    return random_mpo(n, bond, rng)


# ---------------------------------------------------------------------------
# construction


def test_pauli_sum_single_z():
    m = from_pauli_sum([("Z", 1.0)])
    assert np.allclose(m.to_dense(), np.diag([1.0, -1.0]))


def test_pauli_sum_two_site():
    m = from_pauli_sum([("ZI", -1.0), ("IZ", -1.0)])
    want = -kron_string("ZI") - kron_string("IZ")
    assert np.abs(m.to_dense() - want).max() < 1e-14
    assert max(m.bond_dims) <= 2


def test_pauli_sum_random_terms():
    rng = np.random.default_rng(7)
    n = 4
    strings = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(5)]
    coeffs = rng.normal(size=5)
    m = from_pauli_sum(list(zip(strings, coeffs)))
    want = sum(c * kron_string(s) for s, c in zip(strings, coeffs))
    assert np.abs(m.to_dense() - want).max() < 1e-12


def test_pauli_sum_length_mismatch():
    with pytest.raises(ValueError):
        from_pauli_sum([("ZZ", 1.0), ("Z", 1.0)])


def test_sum_local_with_constant():
    n = 3
    m = sum_local_mpo([-_Z] * n, constant=0.5)
    want = 0.5 * np.eye(2**n) + sum(embed(-_Z, n, (i,)) for i in range(n))
    assert np.abs(m.to_dense() - want).max() < 1e-13


def test_identity_and_zero():
    assert np.allclose(identity_mpo(3).to_dense(), np.eye(8))
    assert np.abs(mpo_scale(identity_mpo(3), 0.0).to_dense()).max() == 0.0


# ---------------------------------------------------------------------------
# linear algebra


def test_add_scale_dense_linearity():
    a = rand_herm_mpo(4, 3, 0)
    b = rand_herm_mpo(4, 2, 1)
    got = mpo_add(mpo_scale(a, 2.0), mpo_scale(b, -0.5)).to_dense()
    want = 2.0 * a.to_dense() - 0.5 * b.to_dense()
    assert np.abs(got - want).max() < 1e-12


def test_additive_inverse_is_zero():
    a = rand_herm_mpo(3, 3, 2)
    z = mpo_add(a, mpo_scale(a, -1.0))
    assert frobenius_norm(z) < 1e-12


def test_add_bond_dims_sum():
    a = rand_herm_mpo(4, 3, 3)
    b = rand_herm_mpo(4, 2, 4)
    s = mpo_add(a, b)
    for d, da, db in zip(s.bond_dims, a.bond_dims, b.bond_dims):
        assert d == da + db


def test_trace_inner_norm_vs_dense():
    a = rand_herm_mpo(4, 3, 5)
    b = rand_herm_mpo(4, 3, 6)
    ad, bd = a.to_dense(), b.to_dense()
    assert abs(mpo_hs_inner(a, identity_mpo(4)) - np.trace(ad)) < 1e-11
    assert abs(mpo_hs_inner(a, b) - np.trace(ad.conj().T @ bd)) < 1e-10
    assert abs(frobenius_norm(a) - np.linalg.norm(ad)) < 1e-10


@pytest.mark.parametrize("eps", [1e-7, 1e-8, 1e-9, 1e-10])
def test_small_difference_norm_does_not_cancel(eps):
    """||sigma - b|| for b = compress(sigma + eps delta), which re-gauges b:
    the norm of a defect this small must read eps, not the 0 that
    sqrt(Tr(A A)) cancels to."""
    rng = np.random.default_rng(11)
    sigma, _ = compress(random_mpo(12, 4, rng), 64)
    sigma = mpo_scale(sigma, 1.0 / frobenius_norm(sigma))
    delta = random_mpo(12, 2, rng)
    delta = mpo_scale(delta, 1.0 / frobenius_norm(delta))
    b, err = compress(mpo_add(sigma, mpo_scale(delta, eps)), 64)
    assert err == 0.0
    got = frobenius_norm(mpo_add(sigma, mpo_scale(b, -1.0)))
    assert abs(got - eps) <= 0.01 * eps


def test_conj_transpose_and_symmetrize():
    """A^dag = A, so (A + A^dag)/2 = A, for what random_mpo and the gate
    adjoints return: no symmetrization step is needed."""
    rng = np.random.default_rng(8)
    a = random_mpo(3, 3, rng)
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    for op in (a, apply_gate_adjoint(a, q, (0, 1)),
               apply_gate_adjoint(a, haar_single_qubit(rng), (2,))):
        s = op.to_dense()
        assert np.abs(s - s.conj().T).max() < 1e-12


def test_hermitian_flag_dense():
    a = rand_herm_mpo(5, 4, 9)
    ad = a.to_dense()
    assert all(t.dtype == np.float64 for t in a.tensors)
    assert np.abs(ad - ad.conj().T).max() < 1e-10


def test_expectation_product_state():
    rng = np.random.default_rng(10)
    n = 4
    a = rand_herm_mpo(n, 3, 11)
    local = []
    for _ in range(n):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        local.append(np.outer(v, v.conj()))
    rho = np.array([[1.0 + 0j]])
    for site in local:
        rho = np.kron(rho, site)
    want = float(np.trace(a.to_dense() @ rho).real)
    assert abs(expectation_product_state(a, local) - want) < 1e-11


# ---------------------------------------------------------------------------
# compression


def test_compress_error_is_exact():
    """The scalar returned by compress equals the dense Frobenius error."""
    a = rand_herm_mpo(5, 6, 12)
    for bond in (1, 2, 4):
        c, err = compress(a, bond)
        dense_err = np.linalg.norm(a.to_dense() - c.to_dense())
        assert abs(err - dense_err) < 1e-9
        assert max(c.bond_dims) <= bond


def test_compress_lossless_at_full_bond():
    a = rand_herm_mpo(4, 3, 13)
    c, err = compress(a, 64)
    assert err < 1e-10
    assert np.abs(c.to_dense() - a.to_dense()).max() < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(1, 4))
def test_compress_error_monotone_in_bond(seed, n, bond):
    """Truncating harder never reduces the reported error, and the report
    always matches the dense residual."""
    a = rand_herm_mpo(n, 4, seed)
    c_small, err_small = compress(a, bond)
    _, err_big = compress(a, bond + 2)
    assert err_big <= err_small + 1e-12
    dense_err = np.linalg.norm(a.to_dense() - c_small.to_dense())
    assert abs(err_small - dense_err) < 1e-9


def check_compress(a: MPO, bond: int) -> tuple[MPO, float]:
    """Compress ``a`` and check what every compression must satisfy: the
    returned error is the dense residual, the bonds respect the cap, and
    every site but the last is left-isometric."""
    c, err = compress(a, bond)
    dense_err = np.linalg.norm(a.to_dense() - c.to_dense())
    assert abs(err - dense_err) < 1e-9
    assert max(c.bond_dims) <= bond
    for t in c.tensors[:-1]:
        u = t.reshape(-1, t.shape[-1])
        assert np.abs(u.T @ u - np.eye(u.shape[1])).max() < 1e-12
    return c, err


def test_compress_rank_deficient_input():
    """A + A has A's rank at every cut, half its stored bond."""
    a = rand_herm_mpo(5, 3, 21)
    doubled = mpo_add(a, a)
    for bond in (1, 2, 4, 64):
        check_compress(doubled, bond)
    c, err = check_compress(doubled, 64)
    assert err < 1e-10
    assert all(x <= y for x, y in zip(c.bond_dims, a.bond_dims))


def test_compress_bonds_above_the_schmidt_rank():
    """Bonds wider than 4^min(k, n - k) are cut to that rank losslessly."""
    n = 5
    a = rand_herm_mpo(n, 20, 22)
    caps = [4 ** min(k + 1, n - k - 1) for k in range(n - 1)]
    assert all(b > cap for b, cap in zip(a.bond_dims, caps))
    for bond in (1, 3, 8):
        check_compress(a, bond)
    c, err = check_compress(a, 64)
    assert err < 1e-10
    assert all(b <= cap for b, cap in zip(c.bond_dims, caps))


def test_compress_zero_operator():
    c, err = check_compress(mpo_scale(rand_herm_mpo(4, 3, 23), 0.0), 4)
    assert err == 0.0
    assert c.bond_dims == [1, 1, 1]
    assert not c.to_dense().any()


def test_compress_ignores_an_ill_conditioned_bond_gauge():
    """Re-gauging one bond by G, G^-1 with cond(G) = 1e4 leaves the
    operator, and so its compression and error, unchanged."""
    rng = np.random.default_rng(24)
    a = rand_herm_mpo(5, 3, 25)
    k = 2
    dim = a.bond_dims[k]
    u = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    v = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    g = u @ np.diag(np.logspace(0, -4, dim)) @ v.T
    assert np.linalg.cond(g) == pytest.approx(1e4)
    tensors = list(a.tensors)
    tensors[k] = np.tensordot(a.tensors[k], g, axes=(-1, 0))
    tensors[k + 1] = np.tensordot(np.linalg.inv(g), a.tensors[k + 1], axes=(1, 0))
    gauged = MPO(tensors)
    for bond in (1, 2, 5, 64):
        c, err = check_compress(a, bond)
        cg, err_g = check_compress(gauged, bond)
        assert abs(err - err_g) < 1e-9
        assert np.abs(c.to_dense() - cg.to_dense()).max() < 1e-9


# ---------------------------------------------------------------------------
# gate and channel adjoints


def test_gate_adjoint_single_site():
    rng = np.random.default_rng(14)
    a = rand_herm_mpo(3, 3, 15)
    q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    got = apply_gate_adjoint(a, q, (1,)).to_dense()
    u = embed(q, 3, (1,))
    assert np.abs(got - u.conj().T @ a.to_dense() @ u).max() < 1e-11


def test_gate_adjoint_two_site():
    rng = np.random.default_rng(16)
    a = rand_herm_mpo(4, 3, 17)
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    got = apply_gate_adjoint(a, q, (1, 2)).to_dense()
    u = embed(q, 4, (1, 2))
    assert np.abs(got - u.conj().T @ a.to_dense() @ u).max() < 1e-11


def test_gate_schrodinger_two_site():
    rng = np.random.default_rng(18)
    a = rand_herm_mpo(4, 2, 19)
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    got = apply_gate(a, q, (2, 3)).to_dense()
    u = embed(q, 4, (2, 3))
    assert np.abs(got - u @ a.to_dense() @ u.conj().T).max() < 1e-11


def embed_pair(op: np.ndarray, n: int, sites: tuple[int, int]) -> np.ndarray:
    """Dense embedding of a two-site operator on any pair of distinct sites
    (i, j), its first tensor factor on site i, built bit by bit."""
    i, j = sites
    u = np.zeros((2**n, 2**n), dtype=complex)
    for b in range(2**n):
        bits = [(b >> (n - 1 - k)) & 1 for k in range(n)]
        for x in range(2):
            for y in range(2):
                nb = bits.copy()
                nb[i], nb[j] = x, y
                bb = sum(v << (n - 1 - k) for k, v in enumerate(nb))
                u[bb, b] += op[2 * x + y, 2 * bits[i] + bits[j]]
    return u


def test_gate_adjoint_longrange_vs_dense():
    """Distant two-site gates, in either site order, realized by swap
    chains, match the dense conjugation with the gate embedded on the
    actual (non-adjacent) pair; so does the Schroedinger-picture
    conjugation on a reversed distant pair."""
    rng = np.random.default_rng(20)
    n = 5
    a = rand_herm_mpo(n, 3, 21)
    dense = a.to_dense()
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    for sites in ((0, 3), (3, 0)):
        got = apply_gate_adjoint(a, q, sites).to_dense()
        u = embed_pair(q, n, sites)
        assert np.abs(got - u.conj().T @ dense @ u).max() < 1e-10
    got = apply_gate(a, q, (4, 1)).to_dense()
    u = embed_pair(q, n, (4, 1))
    assert np.abs(got - u @ dense @ u.conj().T).max() < 1e-10


def _two_site_gates() -> dict[str, tuple[np.ndarray, int]]:
    """Two-site gates with their operator-Schmidt rank r."""
    rng = np.random.default_rng(26)
    haar4 = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    return {
        "product": (np.kron(haar_single_qubit(rng), haar_single_qubit(rng)), 1),
        "xx": (xx_gate(0.37), 2),
        "zz": (zz_gate(-0.81), 2),
        "cz": (cz, 2),
        "cnot": (cnot, 2),
        "swap": (SWAP, 4),
        "haar": (haar4, 4),
    }


@pytest.mark.parametrize("name", sorted(_two_site_gates()))
def test_gate_adjoint_every_bond_vs_dense(name):
    """Every two-site gate at every bond, chain ends included, matches the
    dense U^dag A U; the factored path gives bond D_mid * r^2 exactly when
    it fits under the SVD bound min(4 D_left, 4 D_right)."""
    gate, r = _two_site_gates()[name]
    for n in (2, 3, 6):
        for bond in (1, 3, 8):
            a = random_mpo(n, bond, np.random.default_rng(100 * n + bond))
            assert all(t.dtype == np.float64 for t in a.tensors)
            dense = a.to_dense()
            for i in range(n - 1):
                got = apply_gate_adjoint(a, gate, (i, i + 1))
                u = embed(gate, n, (i, i + 1))
                err = np.abs(got.to_dense() - u.conj().T @ dense @ u).max()
                assert err < 1e-12 * max(1.0, np.abs(dense).max())
                dl = a.tensors[i].shape[0]
                dm = a.tensors[i].shape[-1]
                dr = a.tensors[i + 1].shape[-1]
                new_bond = got.tensors[i].shape[-1]
                if r * r * dm <= 4 * min(dl, dr):
                    assert new_bond == dm * r * r
                else:
                    assert new_bond <= 4 * min(dl, dr)
                assert got.bond_dims[:i] + got.bond_dims[i + 1:] == \
                    a.bond_dims[:i] + a.bond_dims[i + 1:]


def test_gate_adjoint_fallback_at_chain_ends_and_for_swap():
    """On 3 * identity stored at bond 3, U^dag A U = A.  The SVD fallback
    re-splits the pair to its rank (1 at a chain end, 3 inside); the
    factored path keeps D_mid * r^2 = 12 for XX, and would give 48 for
    SWAP."""
    n = 6
    a = mpo_add(mpo_add(identity_mpo(n), identity_mpo(n)), identity_mpo(n))
    assert a.bond_dims == [3] * (n - 1)
    xx = xx_gate(0.37)
    for i in range(n - 1):
        got = apply_gate_adjoint(a, xx, (i, i + 1))
        assert np.abs(got.to_dense() - 3.0 * np.eye(2**n)).max() < 1e-12
        chain_end = i in (0, n - 2)
        assert got.bond_dims[i] == (1 if chain_end else 3 * 4)
        swapped = apply_gate_adjoint(a, SWAP, (i, i + 1))
        assert swapped.bond_dims[i] == (1 if chain_end else 3)


@pytest.mark.parametrize("bond, expected", [(4, 0.16115700082581658),
                                            (8, 0.27577541845038483)])
def test_tebd_trace_dual_pinned(bond, expected):
    """The TEBD trace-dual bound of a fixed 8-site brick-wall instance is
    pinned to the value computed with SVD-split gate adjoints."""
    circ, target = brickwall_1d(8, 7, 0.1, 0.1, 3)
    dual = heisenberg_tebd(circ, target, bond)
    bound = dual_value(circ, dual, target, purity_schedule(8, 7, 0.1)).bound
    assert abs(bound - expected) < 1e-9


def test_depolarizing_adjoint_vs_superop():
    a = rand_herm_mpo(3, 3, 22)
    p = 0.13
    got = apply_depolarizing_adjoint(a, p, 1).to_dense()
    # adjoint of depolarizing: A -> (1-p) A + p Tr_1(A) x I/2
    k = superop_matrix(depolarizing(p))
    kadj = k.conj().T
    want = np.zeros_like(got)
    ad = a.to_dense()
    # act site-by-site using the superoperator on the middle qubit
    t = ad.reshape(2, 2, 2, 2, 2, 2)  # (r0 r1 r2, c0 c1 c2)
    t = np.moveaxis(t, (1, 4), (4, 5))  # bring site-1 row/col last
    flat = t.reshape(-1, 4) @ kadj.T
    t = flat.reshape(2, 2, 2, 2, 2, 2)
    t = np.moveaxis(t, (4, 5), (1, 4))
    want = t.reshape(8, 8)
    assert np.abs(got - want).max() < 1e-12


def test_site_superop_adjoint_matches_depolarizing():
    a = rand_herm_mpo(4, 2, 23)
    p = 0.21
    k = superop_matrix(depolarizing(p))
    via_superop = apply_site_superop_adjoint(a, k.conj().T, 2).to_dense()
    direct = apply_depolarizing_adjoint(a, p, 2).to_dense()
    assert np.abs(via_superop - direct).max() < 1e-12


def test_gate_adjoint_rejects_bad_sites():
    """Any two distinct sites are accepted, but a repeated site, three
    sites or a site off the chain raise, and a gate's shape is checked
    before a reversed pair is reordered."""
    a = rand_herm_mpo(4, 2, 24)
    for sites, match in [((1, 1), "distinct"), ((0, 1, 2), "one or two"),
                         ((0, 4), "out of range"), ((-1,), "out of range")]:
        with pytest.raises(ValueError, match=match):
            apply_gate_adjoint(a, np.eye(4), sites)
    with pytest.raises(ValueError, match="4x4"):
        apply_gate_adjoint(a, np.eye(2), (1, 0))


def test_non_unitary_gate_rejected():
    a = rand_herm_mpo(3, 2, 25)
    with pytest.raises(ValueError):
        apply_gate_adjoint(a, np.diag([1.0, 2.0]), (0,))


# ---------------------------------------------------------------------------
# Hermitian by construction, and the API boundary


def _exactly_hermitian(a: MPO) -> bool:
    d = a.to_dense()
    return all(t.dtype == np.float64 for t in a.tensors) and np.array_equal(d, d.conj().T)


def _hermitian_results() -> dict[str, MPO]:
    rng = np.random.default_rng(30)
    a = rand_herm_mpo(5, 3, 31)
    b = rand_herm_mpo(5, 2, 32)
    haar4 = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    return {
        "from_pauli_sum": from_pauli_sum([("XYZIY", 0.3), ("ZZIIX", -1.2), ("IYYXI", 0.7)]),
        "sum_local_mpo": sum_local_mpo([_X + 0.2 * _Y, -_Z, 0.5 * _Y, _X, _Z], constant=0.25),
        "mpo_add": mpo_add(a, b),
        "mpo_scale": mpo_scale(a, -0.37),
        "compress": compress(mpo_add(a, b), 3)[0],
        "gate_1site": apply_gate_adjoint(a, haar_single_qubit(rng), (2,)),
        "gate_2site_factored": apply_gate_adjoint(a, xx_gate(0.37), (1, 2)),
        # chain ends (D_left or D_right = 1) take the SVD re-split
        "gate_2site_svd_swap_end": apply_gate_adjoint(a, SWAP, (0, 1)),
        "gate_2site_svd_haar": apply_gate_adjoint(a, haar4, (3, 4)),
        "gate_longrange": apply_gate_adjoint(a, haar4, (4, 1)),
        "depolarizing": apply_depolarizing_adjoint(a, 0.13, 3),
        "superop": apply_site_superop_adjoint(
            a, superop_matrix(depolarizing(0.21)), 1),
    }


@pytest.mark.parametrize("name", sorted(_hermitian_results()))
def test_every_operation_is_exactly_hermitian(name):
    """Real Pauli-basis tensors make every result Hermitian with zero
    tolerance: the dense form equals its conjugate transpose bit for bit."""
    assert _exactly_hermitian(_hermitian_results()[name])


def test_nonunital_superop_adjoint_is_exactly_hermitian():
    from noisebound.noise import biased_tau, replacement
    a = rand_herm_mpo(4, 2, 33)
    k = superop_matrix(replacement(0.2, biased_tau(0.3)))
    got = apply_site_superop_adjoint(a, k, 2)
    assert _exactly_hermitian(got)
    want = a.to_dense().reshape((2,) * 8)
    t = np.moveaxis(want, (2, 6), (6, 7))
    t = (t.reshape(-1, 4) @ k.conj()).reshape(t.shape)
    want = np.moveaxis(t, (6, 7), (2, 6)).reshape(16, 16)
    assert np.abs(got.to_dense() - want).max() < 1e-12


def test_complex_tensors_rejected():
    with pytest.raises(ValueError, match="real"):
        MPO([np.zeros((1, 4, 1), dtype=complex)])
    with pytest.raises(ValueError, match="shape"):
        MPO([np.zeros((1, 2, 2, 1))])


def test_complex_pauli_coefficient_rejected():
    with pytest.raises(ValueError, match="real"):
        from_pauli_sum([("XZ", 1.0), ("YY", 0.5j)])


def test_complex_scale_rejected():
    with pytest.raises(ValueError, match="real"):
        mpo_scale(rand_herm_mpo(3, 2, 34), 1.0 + 0.5j)


def test_non_hermitian_local_operator_rejected():
    with pytest.raises(ValueError, match="Hermitian"):
        sum_local_mpo([_X, np.array([[0, 1], [0, 0]], dtype=complex)])


def test_non_hermiticity_preserving_superop_rejected():
    """X -> S X (row-major superoperator S (x) I) maps Hermitian operators
    to non-Hermitian ones, so its adjoint has no real PTM."""
    s_gate = np.diag([1.0, 1.0j])
    with pytest.raises(ValueError, match="Hermiticity"):
        apply_site_superop_adjoint(rand_herm_mpo(3, 2, 35), np.kron(s_gate, _I), 1)


def test_non_unitary_two_site_gate_rejected():
    a = rand_herm_mpo(3, 2, 36)
    with pytest.raises(ValueError, match="unitary"):
        apply_gate_adjoint(a, np.diag([1.0, 1.0, 1.0, 2.0]), (0, 1))
    with pytest.raises(ValueError, match="4x4"):
        apply_gate_adjoint(a, np.eye(2), (0, 1))
