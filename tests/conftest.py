import pytest

from robpcount import _kernel


@pytest.fixture
def numpy_kernels(monkeypatch):
    """A function that, once called, makes _kernel run its numpy code for
    the rest of the test, as on a machine without a C compiler. Tests that
    compare the two code paths compute on the C library first, then call it."""
    return lambda: monkeypatch.setattr(_kernel, "library", lambda: None)
