"""Hypothesis profiles and shared fixtures.

HYPOTHESIS_PROFILE=ci keeps the default example counts and deadlines
and prints a @reproduce_failure blob for every failing example, so a
red CI run can be replayed exactly.
"""
import os
from dataclasses import replace

import pytest
from hypothesis import settings

from surdseq import approx, cli

settings.register_profile("ci", print_blob=True)
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
