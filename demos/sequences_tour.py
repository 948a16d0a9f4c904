"""A tour of the sequence families and their four evaluation routes.

Run with: python3 demos/sequences_tour.py
"""
from surdseq import (
    Family,
    SeqSpec,
    SequenceName,
    binomial_term,
    closed_form_term,
    coupled_iterate,
    genfunc_coeffs,
    reduced_cd,
    run_suite,
)
from surdseq.sequences import a_genfunc, b_genfunc

K = 2

print(f"Base pair for k = {K}: each ratio a/b is one step closer to sqrt({K}).")
terms = coupled_iterate(SeqSpec(Family.AB, k=K), 8)
for t in terms:
    print(f"  n={t.n}  a={t.num:>5}  b={t.den:>5}  a/b = {t.num / t.den:.10f}")
print(f"  target     sqrt({K}) = 1.4142135624")

print()
print("The same numbers fall out of three other computations:")
a_series = genfunc_coeffs(*a_genfunc(K), 8)
b_series = genfunc_coeffs(*b_genfunc(K), 8)
for t in terms:
    routes = {
        "iteration": (t.num, t.den),
        "binomial sums": (binomial_term(SequenceName.A, K, t.n),
                          binomial_term(SequenceName.B, K, t.n)),
        "closed forms": (closed_form_term(SequenceName.A, K, t.n),
                         closed_form_term(SequenceName.B, K, t.n)),
        "power series": (a_series[t.n], b_series[t.n]),
    }
    assert len(set(routes.values())) == 1, routes
print("  all four routes agree on every term up to n = 7")

print()
print("Odd radicands hide a power of two.  For k = 7 the reduced pair")
print("(c, d) keeps the same ratios with much smaller terms:")
cd = reduced_cd(3, 8)
ab7 = coupled_iterate(SeqSpec(Family.AB, k=7), 8)
for n in range(8):
    print(f"  n={n}  a={ab7[n].num:>6}  c={cd[n].num:>4}   "
          f"(a = 2^{n // 2 + n % 2} c)")

print()
print("One seeded second-order recurrence tiles the even and odd halves")
print("of the base pair; the strategies suite confirms all five relations:")
for rep in run_suite("strategies", K, K, 30):
    if rep.identity.startswith("interleave_"):
        print(f"  {rep.identity}: {'ok' if rep.passed else 'BROKEN'} ({rep.passes} cases)")
