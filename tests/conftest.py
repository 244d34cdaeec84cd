import pytest

from ptspec import eigensolver


@pytest.fixture
def two_threads():
    """numpy's OpenBLAS on 2 threads for the test, then as it was; skips
    where the count cannot be set or no LAPACK call would read it."""
    controls = eigensolver._openblas_threads()
    if controls is None or eigensolver._lapacke_dgees() is None:
        pytest.skip("numpy's OpenBLAS exports no thread count or no LAPACKE_dgees")
    get, put, _ = controls
    before = get()
    put(2)
    yield get
    put(before)
