"""The BLAS thread policy: numpy's and scipy's bundled OpenBLAS thread
counts are lowered inside a block and restored after it, a library that
cannot be found is left alone, and optimized fermion bounds do not depend on
the thread count."""

import contextlib
import os

import pytest

from noisebound import _blas, mpo, sweep, trace_dual
from noisebound.circuits import brickwall_1d
from noisebound.fermion import fermion_brickwall_1d, optimize_fermionic_dual
from noisebound.noise import info_schedule

PACKAGES = ("numpy", "scipy")


def count(package):
    return _blas._controls(package)[0]()


@contextlib.contextmanager
def raw_threads(package, n):
    """Set one library's count directly (also upwards), restoring it after."""
    ctl = _blas._controls(package)
    if ctl is None:
        pytest.skip(f"{package} bundles no OpenBLAS here")
    get, set_ = ctl
    old = get()
    set_(n)
    try:
        yield
    finally:
        set_(old)


@pytest.mark.parametrize("package", PACKAGES)
def test_lowered_inside_and_restored_after(package):
    other = "scipy" if package == "numpy" else "numpy"
    with raw_threads(package, 2):
        before = count(other) if _blas._controls(other) else None
        with _blas.blas_threads(**{package: 1}):
            assert count(package) == 1
            if before is not None:
                assert count(other) == before
        assert count(package) == 2
        with raw_threads(package, 1):
            with _blas.blas_threads(**{package: 2}):   # never raised
                assert count(package) == 1


@pytest.mark.parametrize("package", PACKAGES)
def test_restored_after_exception(package):
    with raw_threads(package, 2):
        with pytest.raises(RuntimeError):
            with _blas.blas_threads(**{package: 1}):
                assert count(package) == 1
                raise RuntimeError("inside the block")
        assert count(package) == 2


def test_mpo_path_runs_at_one_numpy_thread(monkeypatch):
    """heisenberg_tebd lowers numpy's pool to 1 thread while it compresses
    and restores the count after it."""
    if _blas._controls("numpy") is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    seen = []

    def compress(a, max_bond):
        seen.append(count("numpy"))
        return mpo.compress(a, max_bond)

    monkeypatch.setattr(trace_dual, "compress", compress)
    circ, target = brickwall_1d(4, 3, 0.1, 0.1, 5)
    with raw_threads("numpy", 2):
        trace_dual.heisenberg_tebd(circ, target, 4)
        assert count("numpy") == 2
    assert seen and set(seen) == {1}


def test_missing_library_is_a_no_op(monkeypatch):
    monkeypatch.setattr(_blas, "_controls", lambda package: None)
    assert _blas.limit_threads(numpy=1, scipy=1) == []
    with _blas.blas_threads(numpy=1, scipy=1):
        pass


def _worker_counts():
    return [count(p) for p in PACKAGES if _blas._controls(p) is not None]


def test_pool_workers_share_the_cores():
    with sweep._pool(2) as pool:
        counts = pool.submit(_worker_counts).result(timeout=60)
    share = max(1, (os.cpu_count() or 1) // 2)
    assert all(c <= share for c in counts)


def test_optimized_bound_independent_of_numpy_threads():
    circ, target = fermion_brickwall_1d(12, 8, 0.05, 97)
    sched = info_schedule(12, 8, 0.05)
    bounds = []
    for n in (1, 2):
        with raw_threads("numpy", n):
            bounds.append(optimize_fermionic_dual(circ, target, 1, sched)[2].bound)
    assert abs(bounds[0] - bounds[1]) < 1e-9
