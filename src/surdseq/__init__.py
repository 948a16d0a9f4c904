"""Exact rational convergents to sqrt(k/h), with certified digits.

Everything is integer or Rational arithmetic; floats never enter the
computations.  The same numbers are reachable through independent
strategies (iteration, closed forms, binomial sums, generating
functions, Newton steps, infinite products) and the library leans on
that redundancy for self-verification.
"""
from .approx import (
    ApproxResult,
    BenchRecord,
    Method,
    approximate,
    bench_methods,
    certify_digits,
    cf_convergents,
    floor_root_scaled,
)
from .exact import ConsistencyError, Rational, cmp_to_root, isqrt, perfect_square_root
from .identities import (
    FailureWitness,
    IdentityReport,
    addition_jump,
    fast_term,
    index_double,
    pell_residual,
    sqrt_double,
    two_power_ladder,
)
from .newton import (
    NewtonState,
    newton_binomial_sum,
    newton_closed_form,
    newton_run,
    newton_start,
    newton_step,
)
from .products import ProductState, cd_closed_form, cd_run, partial_product, product_limit_gap
from .quad import QuadSurd, as_exact_int, root_of, surd_pow, surd_square
from .sequences import (
    Family,
    SeqSpec,
    SequenceName,
    TermPair,
    binomial_term,
    closed_form_term,
    coupled_iterate,
    coupled_stream,
    genfunc_coeffs,
    recurrence,
    reduced_cd,
    second_order_iterate,
    terms,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "ApproxResult",
    "BenchRecord",
    "ConsistencyError",
    "FailureWitness",
    "Family",
    "IdentityReport",
    "Method",
    "NewtonState",
    "ProductState",
    "QuadSurd",
    "Rational",
    "SeqSpec",
    "SequenceName",
    "TermPair",
    "addition_jump",
    "approximate",
    "as_exact_int",
    "bench_methods",
    "binomial_term",
    "cd_closed_form",
    "cd_run",
    "certify_digits",
    "cf_convergents",
    "closed_form_term",
    "cmp_to_root",
    "coupled_iterate",
    "coupled_stream",
    "fast_term",
    "floor_root_scaled",
    "genfunc_coeffs",
    "index_double",
    "isqrt",
    "newton_binomial_sum",
    "newton_closed_form",
    "newton_run",
    "newton_start",
    "newton_step",
    "partial_product",
    "pell_residual",
    "perfect_square_root",
    "product_limit_gap",
    "recurrence",
    "reduced_cd",
    "root_of",
    "run_suite",
    "second_order_iterate",
    "sqrt_double",
    "surd_pow",
    "surd_square",
    "terms",
    "two_power_ladder",
    "__version__",
]
