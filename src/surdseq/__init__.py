"""Exact rational convergents to sqrt(k/h), with certified digits.

Everything is integer or exact rational arithmetic; floats never enter the
computations.  The same numbers are reachable through independent
strategies (iteration, closed forms, binomial sums, generating
functions, Newton steps, infinite products) and the library leans on
that redundancy for self-verification.

Each public name imports its submodule on first access, so certifying
digits never loads the verification stack.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "approx": ("ApproxResult", "Method", "approximate", "certify_digits", "floor_root_scaled"),
    "exact": ("ConsistencyError", "cmp_to_root", "isqrt", "perfect_square_root"),
    "identities": ("FailureWitness", "IdentityReport", "addition_jump", "fast_term",
                   "index_double", "pell_residual", "sqrt_double", "two_power_ladder"),
    "newton": ("NewtonState", "newton_binomial_sum", "newton_closed_form", "newton_run",
               "newton_start", "newton_step"),
    "products": ("ProductState", "cd_closed_form", "cd_run", "partial_product",
                 "product_limit_gap"),
    "quad": ("surd_pow",),
    "sequences": ("Family", "SeqSpec", "SequenceName", "TermPair", "binomial_term",
                  "closed_form_term", "coupled_iterate", "coupled_stream", "genfunc_coeffs",
                  "recurrence", "reduced_cd", "second_order_iterate", "terms"),
    "verify": ("run_suite",),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name: str):
    """Import the submodule behind name (a public name, or one of the
    submodules that define them), bind name here and return it."""
    if name in _SUBMODULE:
        value = getattr(_import_module(f".{_SUBMODULE[name]}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})
