"""Set-up shared by the test modules: the fresh_caches fixture, and a
hypothesis import made safe under `-W error`.

When a hypothesis test fails, hypothesis imports hypothesis.extra._patching to
offer an explicit-example patch.  That import pulls in libcst, whose use of
mypy_extensions.TypedDict raises a DeprecationWarning; under `-W error` it is
raised inside pytest's report hook and ends the session with INTERNALERROR
instead of reporting the failure.  An ini filterwarnings entry cannot help,
since `-W error` on the command line takes precedence.  So the module is
imported once here with that one warning ignored; no warning of virfock is
filtered.
"""

import warnings

import pytest

import virfock.algebra as algebra
import virfock.dirac as dirac
import virfock.fock as fock
import virfock.operators as operators
import virfock.verify as verify

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis skips the patch itself
        pass


@pytest.fixture
def fresh_caches():
    # every functools cache of the engine modules, found by introspection so
    # that a new cache cannot keep a table built before or under a fault
    caches = {id(f): f for module in (algebra, fock, operators, dirac, verify)
              for f in vars(module).values() if callable(getattr(f, "cache_clear", None))}
    for cache in caches.values():
        cache.cache_clear()
    yield
    for cache in caches.values():
        cache.cache_clear()
