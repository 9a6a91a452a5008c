"""Exact rational helpers: parsing, writing records, ceilings, certified log bounds.

Every quantity in this package is a ``fractions.Fraction``; floats appear only
in display output.  Intermediate values can carry integers with tens of
thousands of digits, so the int->str conversion guard is raised once here.
"""

import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import factorial

# Trace values at construction scale have ~10^4-digit denominators; the
# CPython default (4300) would make str(Fraction) raise.
if sys.get_int_max_str_digits() < 2_000_000:
    sys.set_int_max_str_digits(2_000_000)

ZERO = Fraction(0)


def frac(value) -> Fraction:
    """Parse ints, Fractions and strings like '-3/7' or '0.25' exactly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r}; pass a string or Fraction")
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def fracstr(value: Fraction) -> str:
    """Canonical exact rendering, e.g. '11/18', '-3', '0'."""
    return str(Fraction(value))


def render(value):
    """The written form of an exact record, the one every output file holds.

    A Fraction becomes its ``fracstr``, a tuple or list a list, a dict a dict
    with string keys; anything else (ints, strings, booleans, None) stays.
    """
    if isinstance(value, Fraction):
        return fracstr(value)
    if isinstance(value, (tuple, list)):
        return [render(v) for v in value]
    if isinstance(value, dict):
        return {str(k): render(v) for k, v in value.items()}
    return value


def decstr(value: Fraction, digits: int = 15) -> str:
    """Decimal rendering to `digits` significant digits (display only)."""
    value = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(value.numerator) / Decimal(value.denominator)
    return str(d)


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def pow2(i: int) -> Fraction:
    """2**-i as an exact fraction (i >= 0)."""
    return Fraction(1, 1 << i)


def _atanh_upper(x: Fraction, err: Fraction) -> Fraction:
    """Rational upper bound on atanh(x) for 0 <= x <= 1/3, within err of the truth.

    Truncated odd series plus a geometric remainder cap; the remainder of
    sum x^(2j+1)/(2j+1) past term J is < x^(2J+3)/(2J+3) * 1/(1-x^2) <= (9/8) x^(2J+3).
    """
    total = ZERO
    term_exp = 1
    xx = x * x
    power = x
    while True:
        total += power / term_exp
        term_exp += 2
        power *= xx
        remainder = Fraction(9, 8) * power
        if remainder < err:
            return total + remainder


def log_upper(n: int, err: Fraction = Fraction(1, 10**12)) -> Fraction:
    """Certified rational upper bound on log(n): log n <= log_upper(n) < log n + err.

    Splits n = 2**s * r with r in [1, 2) and uses log t = 2 atanh((t-1)/(t+1)),
    whose argument stays in [0, 1/3] for t in [1, 2].
    """
    if n < 1:
        raise ValueError("log_upper needs n >= 1")
    s = n.bit_length() - 1
    r = Fraction(n, 1 << s)  # in [1, 2)
    # budget: s * (ln2 slack) + (ln r slack) <= err
    slack = err / (s + 1)
    ln2 = 2 * _atanh_upper(Fraction(1, 3), slack / 2)
    lnr = 2 * _atanh_upper((r - 1) / (r + 1), slack / 2)
    return s * ln2 + lnr


def iterate_entry_bound(k: int, n: int, log_n_upper: Fraction) -> Fraction:
    """(1/n) * sum_{j=0}^{k-1} L^j / j! with L a certified upper bound on log n.

    Monotone in L, so feeding an upper bound on log n yields a valid (weaker)
    upper bound for the triangular kernel entries.
    """
    total = ZERO
    for j in range(k):
        total += log_n_upper**j / factorial(j)
    return total / n
