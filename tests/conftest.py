import pytest

from ptspec import eigensolver


@pytest.fixture
def two_threads():
    """numpy's OpenBLAS on 2 threads for the test, then as it was; skips
    where the count cannot be set or no LAPACK call would read it."""
    lib = eigensolver._openblas()
    if lib.get_threads is None or lib.dhseqr is None:
        pytest.skip("numpy's OpenBLAS exports no thread count or no LAPACKE_dhseqr")
    before = lib.get_threads()
    lib.set_threads(2)
    yield lib.get_threads
    lib.set_threads(before)
