import gc

import pytest


@pytest.fixture(autouse=True)
def gc_left_enabled():
    """Fail a test that leaves the cyclic garbage collector disabled.

    ``cli.main`` pauses the collector while it runs; a pause that leaked out
    of it would silently change every later test, and the hypothesis
    properties that call ``main`` many times. The collector is turned back
    on before the failure is reported, so one leak fails one test.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
