"""Digit extraction that proves every digit it prints.

Run with: python3 demos/certified_digits.py
"""
import time

from surdseq import Method, approximate, certify_digits

print("A convergent is allowed to print digits only after passing the")
print("integer certificate t^2 h <= k 10^(2D) < (t+1)^2 h:")
print(f"  17/12 for sqrt(2), 2 places: {certify_digits(17, 12, 2, 1, 2)!r}")
print(f"  3/2   for sqrt(2), 3 places: {certify_digits(3, 2, 2, 1, 3)!r}"
      "  (not sharp enough yet)")

print()
print("approximate() iterates an engine until the certificate passes.")
for method in Method:
    result = approximate(2, 1, 40, method)
    print(f"  {method.value:<7} n_used={result.n_used:>3}  {result.digits}")

print()
print("Rationals with h > 1 work the same way; the error bound that")
print("comes back is an exact Fraction, safe to compare against:")
result = approximate(2, 3, 30)
print(f"  sqrt(2/3) = {result.digits}")
print(f"  |a/b - root| <= {result.error_bound.numerator}"
      f"/{result.error_bound.denominator}")

print()
print("The engines race to the same digit string; each whole")
print("approximate call is timed, error bound included:")
print(f"  {'method':<8} {'n_used':>6} {'ms':>8}")
agreed = set()
for method in Method:
    started = time.perf_counter()
    result = approximate(2, 1, 60, method)
    elapsed = time.perf_counter() - started
    agreed.add(result.digits)
    print(f"  {method.value:<8} {result.n_used:>6} {elapsed * 1e3:>8.3f}")
(digits,) = agreed  # one string, or the engines disagree
print(f"  agreed digits: {digits[:44]}...")
