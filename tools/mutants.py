"""Mutation gate for approximate's gate, the digit certificate, the error
bound and the exact decimal conversions the certificate formats through.

Usage, from the repository root:

    python tools/mutants.py

Each row of MUTANTS is one small edit to one module of the surdseq
package: the exact source text, its replacement, and what the edit
breaks.  Every row's text must occur exactly once in its module, so the
table cannot silently stop matching the code it names.  For each row the
tool copies src/, tests/ and pyproject.toml to a temporary directory,
applies the one edit there and runs

    python -m pytest -x -q -p no:cacheprovider tests/test_certificate.py tests/test_approx.py

on the copy under the derandomized Hypothesis profile (tests/conftest.py),
so that every run draws the same examples.  A failing run kills the
mutant.  A row marked equivalent says why the edit cannot change an
output; it is checked for its text but not run.  The unedited copy runs
first and must pass.  The exit code is 0 when it passes and every other
row is killed.  Each row's line gives its seconds, and the last line
the total.  Uses the standard library only, apart from the pytest and
Hypothesis the tests need.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TESTS = ("tests/test_certificate.py", "tests/test_approx.py")
# a mutant that loops instead of failing counts as killed after this long
TIMEOUT_S = 900


class Mutant(NamedTuple):
    module: str
    text: str
    replacement: str
    breaks: str
    equivalent: str = ""


MUTANTS = (
    # approximate: the gate on each candidate's norm, before anything
    # reduces, cuts or converts it
    Mutant("approx.py",
           "if f and t and (f.bit_length()",
           "if (f.bit_length()",
           "a pair of norm 0, on the root, is turned away on bit lengths"),
    Mutant("approx.py",
           "slack = scale_bits - 4",
           "slack = scale_bits - 3",
           "the gate is one bit tighter than its proof and turns away pairs "
           "that certify"),
    Mutant("approx.py",
           "slack = scale_bits - 4",
           "slack = scale_bits - 2",
           "the gate is two bits tighter than its proof and turns away pairs "
           "that certify"),
    Mutant("approx.py",
           "+ 2 * t.bit_length() + slack",
           "+ t.bit_length() + slack",
           "the gate reads t, not t^2, so pairs too far to certify reach the "
           "certificate and convert"),
    Mutant("approx.py",
           "den_bits + root_bits)",
           "den_bits)",
           "the gap's denominator leaves out B sqrt(K), so a pair far below the "
           "root that certifies is turned away"),
    Mutant("approx.py",
           ">= h_bits + den_bits",
           ">= den_bits",
           "the gap's denominator leaves out h, so for h > 1 pairs that "
           "certify are turned away"),
    # _certify, which certify_digits runs on every pair: the uncut
    # proposal, the interval proof and the full-pair fallback
    Mutant("approx.py",
           "if t != proposal:",
           "if False:",
           "an uncut pair whose quotient is not the root's floor certifies"),
    Mutant("approx.py",
           "t * (den + 1) <= top",
           "t * den <= top",
           "the interval proof accepts a cut pair whose quotient may be t - 1"),
    Mutant("approx.py",
           "scale * (num + 1) <= (t + 1) * den",
           "scale * num <= (t + 1) * den",
           "the interval proof accepts a cut pair whose quotient may be t + 1"),
    Mutant("approx.py",
           "if not low <= scale * convert(a) < low + den:",
           "if False:",
           "the full-pair fallback accepts whatever the cut pair left open"),
    Mutant("approx.py",
           "if not low <= scale * convert(a) < low + den:",
           "if not low <= scale * convert(a):",
           "the full-pair fallback checks only the quotient's lower end"),
    # _root_floor
    Mutant("approx.py",
           "square -= 2 * t - 1",
           "square -= 2 * t + 1",
           "the square below t^2 is off by two, so t - 1 can be taken for the floor"),
    Mutant("approx.py",
           "        square -= 2 * t - 1\n        t -= 1\n        if square * h > scaled:\n"
           "            return None",
           "        square -= 2 * t - 1\n        t -= 1",
           "a floor two or more below the proposal is taken as t - 1"),
    Mutant("approx.py",
           "            if (square + 2 * t + 1) * h <= scaled:\n                return None",
           "            pass",
           "a floor two or more above the proposal is taken as t + 1"),
    Mutant("approx.py",
           "        square += 2 * t + 1\n",
           "        square += 2 * t\n",
           "the square above t^2 is one short, so t + 1 can be taken for the floor"),
    # _strip_twos and _power_of_ten_bits
    Mutant("approx.py",
           "shift = ((a | b) & -(a | b)).bit_length() - 1",
           "shift = (b & -b).bit_length() - 1",
           "b's twos are divided out of a too, which drops bits of a that b "
           "does not share and moves the ratio"),
    Mutant("approx.py",
           "        return low + 1\n",
           "        return low\n",
           "10^digits is taken one bit narrower than it is"),
    Mutant("approx.py",
           "if low == digits * _LOG2_10_ABOVE[0] // _LOG2_10_ABOVE[1]:",
           "if True:",
           "where the bounds on log2(10) give different floors the lower one "
           "is taken, one bit short at 174452 digits"),
    # _coprime_error_bound: the root branch's gcds by h
    Mutant("approx.py",
           "shared = gcd(y % h, h) * gcd(b % h, h)",
           "shared = gcd(y % h, h)",
           "on a square h k the bound keeps what b and h share, out of lowest terms"),
    Mutant("approx.py",
           "shared = gcd(y % h, h) * gcd(b % h, h)",
           "shared = gcd(b % h, h)",
           "on a square h k the bound keeps what y and h share, out of lowest terms"),
    # _coprime_error_bound: the guard factor and the modulus of the shared factor
    Mutant("approx.py",
           "guard = 10 ** 8",
           "guard = 10 ** 4",
           "the root is truncated to four places, a looser bound than the one "
           "that is documented"),
    Mutant("approx.py",
           "num = abs(residual) * guard",
           "num = abs(residual)",
           "the numerator loses the guard factor, so the bound falls 10^8-fold "
           "below the gap it bounds"),
    Mutant("approx.py",
           "den = b * (a * h * guard + p * b)",
           "den = b * (a * h + p * b)",
           "the denominator loses the guard on a h, so a / b's term is weighed "
           "10^8-fold too little"),
    Mutant("approx.py",
           "shared = (radicand - p * p) * h * guard",
           "shared = (radicand - p * p) * guard",
           "the modulus leaves out h, so a power of a prime in h that the "
           "numerator and denominator share stays in the bound"),
    Mutant("approx.py",
           "shared = (radicand - p * p) * h * guard",
           "shared = (radicand - p * p) * h",
           "the modulus leaves out the guard, so its twos and fives that both "
           "sides share stay in the bound"),
    Mutant("approx.py",
           "shared = (radicand - p * p) * h * guard",
           "shared = h * guard",
           "the modulus leaves out c = k h g^2 - p^2, so what the sides share "
           "through it stays in the bound"),
    # approximate: the residual read off the engine's norm
    Mutant("approx.py",
           "// (common * common)) >> 2 * shift",
           "// common) >> 2 * shift",
           "the residual divides by gcd(A, h) once, not squared, so h > 1 "
           "sharing a factor with A gives a bound too large"),
    Mutant("approx.py",
           "// (common * common)) >> 2 * shift",
           "// (common * common)) >> shift",
           "the residual divides by 2^shift, not 4^shift, so a pair whose twos "
           "were stripped gets a bound too large"),
    # _convergents and _squarings: the norms the engines hand over
    Mutant("approx.py",
           "yield index, p + radicand * q, p + q, factor, t",
           "yield index, p + radicand * q, p + q, 1, t",
           "JUMP's norm leaves out 1 - K, the norm of 1 + sqrt(K)"),
    Mutant("approx.py",
           "yield 1, 1 + radicand, 2, 1, factor",
           "yield 1, 1 + radicand, 2, factor, 1",
           "JUMP's norm at index 1 is 1 - K, not (1 - K)^2"),
    Mutant("approx.py",
           "        norm >>= big_b.bit_length() - b.bit_length()\n",
           "",
           "NEWTON's t keeps the twos the step stripped, so t^2 is 4^shift "
           "times the norm"),
    Mutant("approx.py",
           "            norm //= common\n",
           "",
           "NEWTON's t keeps the gcd by K the step divided out"),
    # decimal_str: the pieces str() formats below _DECIMAL_CUTOFF digits
    Mutant("exact.py",
           'pieces.append(piece.rjust(width, "0") if pieces else piece)',
           "pieces.append(piece)",
           "a piece after the first loses its leading zeros, so digits drop "
           "out of a number wider than _STR_PIECE"),
    Mutant("exact.py",
           "            pending.append((rest, low))\n"
           "            pending.append((high, width - low))",
           "            pending.append((high, width - low))\n"
           "            pending.append((rest, low))",
           "the low half of a split is formatted before the high half"),
    # _to_decimal: binary splitting on powers of two, under _EXACT
    Mutant("exact.py",
           "powers[w] = power(low) * power(w - low)",
           "powers[w] = power(low) * power(low)",
           "2^w is taken as 2^(w - 1) for odd w, so a wide int converts to "
           "the wrong Decimal"),
    Mutant("exact.py",
           "convert(high, w - low) * power(low)",
           "convert(high, w - low) * power(w - low)",
           "at an odd width w the high half is weighed by 2^(w - low), twice "
           "its place value 2^low"),
    Mutant("exact.py",
           "    with decimal.localcontext(_EXACT):\n        return convert(n, n.bit_length())",
           "    return convert(n, n.bit_length())",
           "the conversion runs under the caller's context, so decimal_str "
           "rounds a wide int to 28 significant digits"),
)


def fails(row: Mutant | None) -> bool:
    """Whether the tests fail on a copy of the checkout with row applied
    (none for row None).  A run that times out counts as failing; one
    that errors out before testing raises."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if row is not None:
            path = copy / "src" / "surdseq" / row.module
            path.write_text(path.read_text().replace(row.text, row.replacement))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"),
               "HYPOTHESIS_PROFILE": "derandomized"}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True
    # pytest exits 1 when tests ran and some failed, 0 when all passed
    if done.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return done.returncode == 1


def occurrences(row: Mutant) -> int:
    """How often row's text occurs in its module: 1 unless the row is stale."""
    return (ROOT / "src" / "surdseq" / row.module).read_text().count(row.text)


def main() -> int:
    stale = False
    for row in MUTANTS:
        found = occurrences(row)
        if found != 1:
            print(f"STALE  {row.module}: {found} occurrences of {row.text!r}")
            stale = True
    if stale:
        return 1
    began = time.perf_counter()
    if fails(None):
        print("the tests fail on the unedited copy")
        return 1
    print(f"   unedited   {time.perf_counter() - began:6.1f} s", flush=True)
    survived = 0
    for number, row in enumerate(MUTANTS, 1):
        if row.equivalent:
            print(f"{number:2} equivalent           {row.module}: {row.equivalent}")
            continue
        start = time.perf_counter()
        killed = fails(row)
        survived += not killed
        print(f"{number:2} {'killed' if killed else 'SURVIVED':10} "
              f"{time.perf_counter() - start:6.1f} s  {row.module}: {row.breaks}", flush=True)
    print(f"{len(MUTANTS)} mutants, {survived} non-equivalent survived, "
          f"{time.perf_counter() - began:.1f} s in all")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
