"""Hypothesis profiles and shared fixtures.

HYPOTHESIS_PROFILE=ci keeps the default example counts and deadlines
and prints a @reproduce_failure blob for every failing example, so a
red CI run can be replayed exactly.  HYPOTHESIS_PROFILE=derandomized
draws the same examples on every run and keeps no example database, so
tools/mutants.py judges each mutant on the same cases.
"""
import os
import sys
from dataclasses import replace

import pytest
from hypothesis import settings

from surdseq import approx, cli, verify

settings.register_profile("ci", print_blob=True)
settings.register_profile("derandomized", derandomize=True, database=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def disagreeing_jump(monkeypatch):
    """The approximate that cli calls, with JUMP's last digit flipped, so
    bench's engines disagree whenever JUMP runs."""
    honest = approx.approximate

    def approximate(k, h, digits, method=approx.Method.LINEAR):
        result = honest(k, h, digits, method)
        if method is approx.Method.JUMP:
            last = str(9 - int(result.digits[-1]))
            return replace(result, digits=result.digits[:-1] + last)
        return result

    monkeypatch.setattr(cli, "approximate", approximate)


@pytest.fixture
def corrupt_ab_wide(monkeypatch):
    """verify's ab_wide stream with b_5 one too large at k = 2 only:
    (a_5, b_5) = (99, 71) is then no pair of the family, and sqrt_double
    raises on it."""
    honest = verify._BUILD["ab_wide"]

    def corrupted(s):
        return [t._replace(den=t.den + 1) if (s.k, t.n) == (2, 5) else t for t in honest(s)]

    monkeypatch.setitem(verify._BUILD, "ab_wide", corrupted)


@pytest.fixture
def default_str_cap():
    """The interpreter's default int->str digit cap for the test, and
    whatever cap was set before restored after it."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(before)
