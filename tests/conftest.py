"""Fixtures that the test modules share.

ball_solution (the exterior unit ball), ellipsoid_solution (the exterior
ellipsoid (2, 1, 1)), star_solution (the exterior bench star), ball_interior
and ellipsoid_interior (the interior unit ball and ellipsoid (2, 1, 1),
c = d = 1) are solved once per module that asks for them.

spy(name, *owners) wraps the function ``name`` of each owner, a module or a
class, in a recorder that calls through, and returns one list of the calls
in the order they start.  A call holds its ``args`` (a method's start with
self, a classmethod's with cls), its ``kwargs`` and, once it returns, its
``result``; ``call.arg(p)`` reads the parameter p as the function binds it.
The recorders go through monkeypatch, so monkeypatch.undo() removes them.
"""

import inspect

import pytest

from bench_star import BENCH_STAR
from capsym import DomainSpec, solve_exterior, solve_interior


class Call:
    def __init__(self, fn, args, kwargs):
        self.fn, self.args, self.kwargs = fn, args, kwargs

    def arg(self, name):
        bound = inspect.signature(self.fn).bind(*self.args, **self.kwargs)
        bound.apply_defaults()
        return bound.arguments[name]


def _recorder(fn, calls):
    def recorded(*args, **kwargs):
        call = Call(fn, args, kwargs)
        calls.append(call)
        call.result = fn(*args, **kwargs)
        return call.result
    return recorded


@pytest.fixture
def spy(monkeypatch):
    def install(name, *owners):
        calls = []
        for owner in owners:
            found = inspect.getattr_static(owner, name)
            if isinstance(found, (classmethod, staticmethod)):
                found = type(found)(_recorder(found.__func__, calls))
            else:
                found = _recorder(found, calls)
            monkeypatch.setattr(owner, name, found)
        return calls
    return install


@pytest.fixture(scope="module")
def ball_solution():
    return solve_exterior(DomainSpec(kind="sphere", radius=1.0))


@pytest.fixture(scope="module")
def ellipsoid_solution():
    return solve_exterior(DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0)))


@pytest.fixture(scope="module")
def star_solution():
    return solve_exterior(BENCH_STAR)


@pytest.fixture(scope="module")
def ball_interior():
    return solve_interior(DomainSpec(kind="sphere", radius=1.0), c=1.0, d=1.0)


@pytest.fixture(scope="module")
def ellipsoid_interior():
    return solve_interior(DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0)),
                          c=1.0, d=1.0)
