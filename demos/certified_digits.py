"""Digit extraction that proves every digit it prints.

Run with: python3 demos/certified_digits.py
"""
from surdseq import Method, approximate, bench_methods, certify_digits

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
print("bench races the engines to the same digit string through")
print("approximate and times each whole call (the digits must agree, or")
print("it raises):")
records = bench_methods(2, 60, list(Method))
print(f"  {'method':<8} {'n_used':>6} {'ms':>8}")
for rec in records:
    print(f"  {rec.method.value:<8} {rec.n_used:>6} {rec.wall_time_s * 1e3:>8.3f}")
print(f"  agreed digits: {records[0].digits[:44]}...")
