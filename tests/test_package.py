"""The package's public surface."""
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import surdseq
from surdseq.approx import Method, approximate, certify_digits, floor_root_scaled
from surdseq.exact import cmp_to_root, decimal_str, isqrt, perfect_square_root
from surdseq.identities import (
    addition_jump,
    fast_term,
    index_double,
    pell_residual,
    sqrt_double,
    two_power_ladder,
)
from surdseq.newton import (
    b_from_sqrt,
    b_product_form,
    generated_terms,
    newton_binomial_sum,
    newton_closed_form,
    newton_run,
    newton_start,
    squared_shortcut,
)
from surdseq.products import cd_closed_form, cd_run, partial_product, product_limit_gap
from surdseq.quad import binomial_part, surd_pow
from surdseq.sequences import (
    Family,
    SeqSpec,
    SequenceName,
    binomial_term,
    closed_form_term,
    coupled_iterate,
    genfunc_coeffs,
    reduced_cd,
    second_order_iterate,
    terms,
)
from surdseq.verify import run_suite

from oracles import QuadSurd


def test_every_exported_name_resolves():
    missing = [name for name in surdseq.__all__ if not hasattr(surdseq, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from surdseq import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(surdseq.__all__)
    assert len(set(surdseq.__all__)) == len(surdseq.__all__)


# run in a fresh interpreter: pytest's has imported every submodule already
IMPORT_PROBE = """
import sys
import surdseq, surdseq.cli
for method in surdseq.Method:
    surdseq.approximate(2, 1, 50, method)
heavy = ("verify", "sequences", "identities", "newton", "products")
print(sorted(m for m in heavy if f"surdseq.{m}" in sys.modules))
assert surdseq.verify.run_suite is surdseq.run_suite  # the module first, through the hook
assert set(surdseq.__all__) <= set(dir(surdseq))
for gone in ("QuadSurd", "surd_square"):
    try:
        getattr(surdseq, gone)
    except AttributeError as exc:
        print(exc)
"""


def test_approximate_loads_no_verification_module():
    src = str(Path(surdseq.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "[]", "module 'surdseq' has no attribute 'QuadSurd'",
        "module 'surdseq' has no attribute 'surd_square'"]


def arg(func, kwargs, slot, least=None, label=None, case=None):
    """One int parameter of a public callable: a valid call, the slot
    the parameter sits in ("numer[0]" for an entry of a list argument),
    its least accepted value, and the name its messages carry; case
    tells apart two rows for one parameter."""
    label = label or slot
    case_id = f"{func.__qualname__}-{label}" + (f"-{case}" if case else "")
    return pytest.param(func, kwargs, slot, least, label, id=case_id)


AB = SeqSpec(Family.AB, k=2)

INT_ARGS = [
    arg(approximate, dict(k=2, h=1, digits=5, method=Method.NEWTON), "k", 1),
    arg(approximate, dict(k=2, h=1, digits=5, method=Method.NEWTON), "h", 1),
    arg(approximate, dict(k=2, h=1, digits=5, method=Method.NEWTON), "digits", 1),
    arg(certify_digits, dict(a=3, b=2, k=2, h=1, digits=1), "a", 0),
    arg(certify_digits, dict(a=3, b=2, k=2, h=1, digits=1), "b", 1),
    arg(certify_digits, dict(a=3, b=2, k=2, h=1, digits=1), "k", 1),
    arg(certify_digits, dict(a=3, b=2, k=2, h=1, digits=1), "h", 1),
    arg(certify_digits, dict(a=3, b=2, k=2, h=1, digits=1), "digits", 1),
    arg(floor_root_scaled, dict(k=2, h=1, digits=5), "k", 1),
    arg(floor_root_scaled, dict(k=2, h=1, digits=5), "h", 1),
    arg(floor_root_scaled, dict(k=2, h=1, digits=5), "digits", 0),
    arg(cmp_to_root, dict(q=Fraction(3, 2), k=2, h=1), "k", 0),
    arg(cmp_to_root, dict(q=Fraction(3, 2), k=2, h=1), "h", 1),
    arg(isqrt, dict(n=10), "n", 0),
    arg(perfect_square_root, dict(n=9), "n"),
    arg(decimal_str, dict(n=-120), "n"),
    arg(addition_jump, dict(k=2, m=2, n=3), "k", 2),
    arg(addition_jump, dict(k=2, m=2, n=3), "m", 1),
    arg(addition_jump, dict(k=2, m=2, n=3), "n", 0),
    arg(fast_term, dict(k=2, n=3), "k", 2),
    arg(fast_term, dict(k=2, n=3), "n", 0),
    arg(index_double, dict(k=2, n=3), "k", 2),
    arg(index_double, dict(k=2, n=3), "n", 1),
    arg(pell_residual, dict(k=2, n=3), "k", 1),
    arg(pell_residual, dict(k=2, n=3), "n", 0),
    arg(sqrt_double, dict(k=2, n=1, a_n=3, b_n=2), "k", 2),
    arg(sqrt_double, dict(k=2, n=1, a_n=3, b_n=2), "n", 1),
    arg(sqrt_double, dict(k=2, n=1, a_n=3, b_n=2), "a_n", 1),
    arg(sqrt_double, dict(k=2, n=1, a_n=3, b_n=2), "b_n", 1),
    arg(two_power_ladder, dict(k=2, levels=2), "k", 2),
    arg(two_power_ladder, dict(k=2, levels=2), "levels", 0),
    arg(newton_start, dict(k=3, h=1), "k", 2),
    arg(newton_start, dict(k=3, h=1), "h", 1),
    arg(newton_run, dict(k=3, steps=3, h=1), "k", 2),
    arg(newton_run, dict(k=3, steps=3, h=1), "steps", 0),
    arg(newton_run, dict(k=3, steps=3, h=1), "h", 1),
    arg(squared_shortcut, dict(k=2, n=2, prev_a=3), "k", 2),
    arg(squared_shortcut, dict(k=2, n=2, prev_a=3), "n", 2),
    arg(squared_shortcut, dict(k=2, n=2, prev_a=3), "prev_a"),
    arg(b_from_sqrt, dict(k=2, prev_b=2, n=2), "k", 2),
    arg(b_from_sqrt, dict(k=2, prev_b=2, n=2), "prev_b", 1),
    arg(b_from_sqrt, dict(k=2, prev_b=2, n=2), "n", 2),
    arg(b_product_form, dict(k=2, n=3), "k", 2),
    arg(b_product_form, dict(k=2, n=3), "n", 0),
    arg(newton_closed_form, dict(k=2, n=3), "k", 2),
    arg(newton_closed_form, dict(k=2, n=3), "n", 0),
    arg(newton_binomial_sum, dict(k=2, n=3, side="a"), "k", 2),
    arg(newton_binomial_sum, dict(k=2, n=3, side="a"), "n", 0, case="a"),
    arg(newton_binomial_sum, dict(k=2, n=3, side="b"), "n", 1, case="b"),
    arg(generated_terms, dict(series_id="A001601", count=3), "count", 1),
    arg(cd_run, dict(r=3, steps=3), "r", 2),
    arg(cd_run, dict(r=3, steps=3), "steps", 0),
    arg(cd_closed_form, dict(r=3, n=3), "r", 2),
    arg(cd_closed_form, dict(r=3, n=3), "n", 1),
    arg(partial_product, dict(r=3, n=3), "r", 2),
    arg(partial_product, dict(r=3, n=3), "n", 1),
    arg(product_limit_gap, dict(r=3, n=3), "r", 2),
    arg(product_limit_gap, dict(r=3, n=3), "n", 1),
    # the tests' Fraction oracle keeps the package's argument rule too
    arg(QuadSurd, dict(rat=1, coef=1, radicand=2), "radicand", 0),
    arg(QuadSurd(1, 1, 2).__pow__, dict(e=3), "e", 0),
    arg(surd_pow, dict(p=1, q=1, d=2, e=3), "p"),
    arg(surd_pow, dict(p=1, q=1, d=2, e=3), "q"),
    arg(surd_pow, dict(p=1, q=1, d=2, e=3), "d"),
    arg(surd_pow, dict(p=1, q=1, d=2, e=3), "e", 0),
    arg(binomial_part, dict(d=2, e=3, odd=1), "d"),
    arg(binomial_part, dict(d=2, e=3, odd=1), "e", 0),
    arg(binomial_part, dict(d=2, e=3, odd=1), "odd", 0),
    arg(SeqSpec, dict(family=Family.AB, k=2), "k", 1, case="ab"),
    arg(SeqSpec, dict(family=Family.NEWTON, k=3), "k", 2, case="newton"),
    arg(SeqSpec, dict(family=Family.PRODUCT, k=3), "k", 2, label="r"),
    arg(SeqSpec, dict(family=Family.UV, k=2, h=2), "h", 1),
    arg(SeqSpec, dict(family=Family.CD_REDUCED, k=3), "k", 1, case="cd"),
    arg(SeqSpec, dict(family=Family.CD_REDUCED, m=1), "m", 0),
    arg(SeqSpec, dict(family=Family.W_FAMILY, k=2, seed=(1, 3)), "seed[0]"),
    arg(SeqSpec, dict(family=Family.U_FAMILY, m=1, seed=(1, 3)), "seed[1]"),
    arg(terms, dict(spec=AB, count=3), "count", 1),
    arg(coupled_iterate, dict(spec=AB, count=3), "count", 1),
    arg(binomial_term, dict(name=SequenceName.V, k=2, n=3, h=2), "k", 1),
    arg(binomial_term, dict(name=SequenceName.V, k=2, n=3, h=2), "n", 0),
    arg(binomial_term, dict(name=SequenceName.V, k=2, n=3, h=2), "h", 1),
    arg(closed_form_term, dict(name=SequenceName.U, k=2, n=3, h=2), "k", 1),
    arg(closed_form_term, dict(name=SequenceName.U, k=2, n=3, h=2), "n", 0),
    arg(closed_form_term, dict(name=SequenceName.U, k=2, n=3, h=2), "h", 1),
    arg(genfunc_coeffs, dict(numer=[1], denom=[1, -2], count=3), "numer[0]"),
    arg(genfunc_coeffs, dict(numer=[1], denom=[1, -2], count=3), "denom[1]"),
    arg(genfunc_coeffs, dict(numer=[1], denom=[1, -2], count=3), "count", 1),
    arg(second_order_iterate, dict(p=2, q=1, w0=1, w1=1, count=3), "p"),
    arg(second_order_iterate, dict(p=2, q=1, w0=1, w1=1, count=3), "q"),
    arg(second_order_iterate, dict(p=2, q=1, w0=1, w1=1, count=3), "w0"),
    arg(second_order_iterate, dict(p=2, q=1, w0=1, w1=1, count=3), "w1"),
    arg(second_order_iterate, dict(p=2, q=1, w0=1, w1=1, count=3), "count", 2),
    arg(reduced_cd, dict(m=1, count=3), "m", 0),
    arg(reduced_cd, dict(m=1, count=3), "count", 1),
    arg(run_suite, dict(name="newton", k_min=2, k_max=3, n_max=4), "k_min", 2),
    arg(run_suite, dict(name="newton", k_min=2, k_max=3, n_max=4), "k_max"),
    arg(run_suite, dict(name="newton", k_min=2, k_max=3, n_max=4), "n_max", 1),
]


def call_with(func, kwargs, slot, value):
    """func(**kwargs) with value put in slot."""
    name, _, index = slot.partition("[")
    kwargs = dict(kwargs)
    if index:
        entries = list(kwargs[name])
        entries[int(index.rstrip("]"))] = value
        kwargs[name] = type(kwargs[name])(entries)
    else:
        kwargs[name] = value
    return func(**kwargs)


@pytest.mark.parametrize("func,kwargs,slot,least,label", INT_ARGS)
def test_valid_call_runs(func, kwargs, slot, least, label):
    func(**kwargs)


@pytest.mark.parametrize("value", [2.0, Fraction(2)], ids=["float", "Fraction"])
@pytest.mark.parametrize("func,kwargs,slot,least,label", INT_ARGS)
def test_non_int_is_a_value_error_naming_the_parameter(func, kwargs, slot, least, label, value):
    # a TypeError, an AttributeError or a float result fails this too
    with pytest.raises(ValueError, match=re.escape(f"{label} must be an int")):
        call_with(func, kwargs, slot, value)


@pytest.mark.parametrize("func,kwargs,slot,least,label",
                         [row for row in INT_ARGS if row.values[3] is not None])
def test_domain_starts_at_least(func, kwargs, slot, least, label):
    with pytest.raises(ValueError, match=re.escape(f"{label} must be at least {least}, got")):
        call_with(func, kwargs, slot, least - 1)
    try:
        call_with(func, kwargs, slot, least)
    except ValueError as exc:
        # another rule (say a non-pair, or k = h) may still refuse it
        assert not re.search(r"must be (an int|at least)", str(exc))


# calls that returned floats, or died with a TypeError or AttributeError,
# before every entry point checked its ints through one rule
LEAKS = {
    "newton_run-float-states": ("k", lambda: newton_run(2.0, 3)),
    "newton_binomial_sum-float-sum": ("k", lambda: newton_binomial_sum(2.0, 3)),
    "genfunc_coeffs-float-coeffs": ("numer[0]", lambda: genfunc_coeffs([1.0], [1, -2], 3)),
    "second_order_iterate-float-terms": ("q", lambda: second_order_iterate(2, 1.0, 1, 1, 3)),
    "approximate-float-digits": ("digits", lambda: approximate(2, 1, 10.0)),
    "approximate-newton-float-k": ("k", lambda: approximate(2.0, 1, 10, Method.NEWTON)),
    "fast_term-float-k": ("k", lambda: fast_term(2.0, 3)),
    "certify_digits-float-a": ("a", lambda: certify_digits(1.5, 1, 2, 1, 3)),
    "run_suite-float-k_max": ("k_max", lambda: run_suite("newton", 2, 3.0, 4)),
    "cd_run-float-r": ("r", lambda: cd_run(2.5, 3)),
    "surd_pow-float-e": ("e", lambda: surd_pow(1, 1, 2, 3.0)),
    "decimal_str-float-n": ("n", lambda: decimal_str(2.0)),
    "binomial_part-float-d": ("d", lambda: binomial_part(2.0, 3, 0)),
}


@pytest.mark.parametrize("label,call", LEAKS.values(), ids=LEAKS.keys())
def test_former_float_leaks_are_value_errors(label, call):
    with pytest.raises(ValueError, match=re.escape(f"{label} must be an int")):
        call()


# arguments the int rule does not cover, which their own rules refuse:
# cmp_to_root's q is a rational (an int or a Fraction, never a float's
# binary value), and binomial_part's odd picks one of two parts
REFUSALS = {
    "cmp_to_root-float-q-below": ("q must be an int or a Fraction, got 0.1",
                                  lambda: cmp_to_root(0.1, 1)),
    "cmp_to_root-float-q-above": ("q must be an int or a Fraction, got 1.5",
                                  lambda: cmp_to_root(1.5, 2)),
    "cmp_to_root-str-q": ("q must be an int or a Fraction, got '1/2'",
                          lambda: cmp_to_root("1/2", 1)),
    "binomial_part-odd-2": ("odd must be 0 or 1, got 2", lambda: binomial_part(2, 3, 2)),
}


@pytest.mark.parametrize("message,call", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_arguments_are_value_errors(message, call):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
