"""The spy fixture of conftest.py: the counting tests read call lists from
it, so a spy that recorded nothing would pass their `== 0` and `== []`
checks without checking anything."""

import sys
import types

THIS = sys.modules[__name__]


def factorial(n, *, scale=1):
    return scale if n <= 1 else n * factorial(n - 1, scale=scale)


class Tally:
    def __init__(self, start):
        self.start = start

    def add(self, n, times=1):
        return self.start + n * times

    @classmethod
    def zero(cls):
        return cls(0)


class SubTally(Tally):
    pass


def test_spy_records_nested_calls_in_the_order_they_start(spy):
    calls = spy("factorial", THIS)
    assert factorial(3, scale=2) == 12
    assert [(call.args, call.kwargs, call.result) for call in calls] == [
        ((3,), {"scale": 2}, 12), ((2,), {"scale": 2}, 4),
        ((1,), {"scale": 2}, 2)]
    assert [call.arg("n") for call in calls] == [3, 2, 1]


def test_spy_records_methods_and_classmethods(spy):
    adds, zeros = spy("add", Tally), spy("zero", Tally)
    tally = Tally.zero()
    assert tally.add(2) == 2 and tally.add(n=3, times=2) == 6
    assert type(SubTally.zero()) is SubTally
    assert [(call.args, call.result.start) for call in zeros] == [
        ((Tally,), 0), ((SubTally,), 0)]
    assert zeros[0].result is tally
    assert [(call.args, call.kwargs) for call in adds] == [
        ((tally, 2), {}), ((tally,), {"n": 3, "times": 2})]
    # by position, by keyword or by default, as add binds them
    assert [(call.arg("n"), call.arg("times"), call.result)
            for call in adds] == [(2, 1, 2), (3, 2, 6)]


def test_spy_shares_one_list_across_owners_until_undone(spy, monkeypatch):
    other = types.ModuleType("other")
    other.factorial = factorial
    originals = (factorial, vars(Tally)["add"], vars(Tally)["zero"])
    calls = spy("factorial", THIS, other)
    spy("add", Tally)
    spy("zero", Tally)
    assert other.factorial(1) == 1 and factorial(2) == 2
    assert [call.args for call in calls] == [(1,), (2,), (1,)]
    monkeypatch.undo()
    assert (THIS.factorial, vars(Tally)["add"], vars(Tally)["zero"]) \
        == originals
    assert other.factorial is factorial
    factorial(2)
    assert len(calls) == 3
