"""The benchmark's tracer rebinds package names through
`owner.__dict__[attr]`; a rename or a move that breaks one of its bindings
fails here, in the regular test run, rather than only in the benchmark's own
tests."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import tracing  # noqa: E402


@pytest.mark.parametrize("owner,attr,name", tracing.BINDINGS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.BINDINGS])
def test_binding_resolves_in_owner_namespace(owner, attr, name):
    assert attr in vars(owner), f"{name}: {owner.__name__} has no own attribute {attr!r}"
    assert callable(owner.__dict__[attr])
