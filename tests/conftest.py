"""Guards that hold for every test."""

import gc

import pytest


@pytest.fixture(autouse=True)
def cyclic_gc_left_enabled():
    """Fail a test that leaves cyclic GC disabled; ``verify_family`` only pauses it."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left cyclic GC disabled")
