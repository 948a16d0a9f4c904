"""Hypothesis profiles.

HYPOTHESIS_PROFILE=ci keeps the default example counts and deadlines
and prints a @reproduce_failure blob for every failing example, so a
red CI run can be replayed exactly.
"""
import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
