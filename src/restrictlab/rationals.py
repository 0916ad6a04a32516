"""Exact arithmetic for Lebesgue exponents, with infinity as a first-class value.

Exponents such as p, q, r, s live in [1, inf].  They are represented as
`fractions.Fraction` for finite values and the module constant `INF` for
infinity, so that conjugate exponents, reciprocals and the identities they
satisfy (1/p + 1/p' = 1 with 1' = inf, inf' = 1) can be checked without any
floating-point arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

INF = float("inf")

Exponent = Union[Fraction, int, float]


def is_inf(x: Exponent) -> bool:
    return x == INF


def as_exponent(x) -> Exponent:
    """Coerce ints, Fractions, and the strings "inf"/"num/den" to an Exponent."""
    if isinstance(x, str):
        t = x.strip().lower()
        if t in ("inf", "infinity", "oo"):
            return INF
        return Fraction(t)
    if isinstance(x, float):
        if x == INF:
            return INF
        return Fraction(x).limit_denominator(10**9)
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exponent")


def reciprocal(x: Exponent) -> Fraction:
    """1/x with the convention 1/inf = 0.  x must be positive or inf."""
    if is_inf(x):
        return Fraction(0)
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"reciprocal of non-positive exponent {x}")
    return 1 / x


def conjugate(x: Exponent) -> Exponent:
    """Holder conjugate x' with 1/x + 1/x' = 1; 1' = inf and inf' = 1."""
    if is_inf(x):
        return Fraction(1)
    x = Fraction(x)
    if x < 1:
        raise ValueError(f"exponent {x} out of range [1, inf]")
    if x == 1:
        return INF
    return x / (x - 1)


def exp_mul(a: Exponent, b: Exponent) -> Exponent:
    """Product of two positive exponents, absorbing infinity."""
    if is_inf(a) or is_inf(b):
        return INF
    return Fraction(a) * Fraction(b)


def exp_div(a: Exponent, b: Exponent) -> Exponent:
    """Quotient a/b of positive exponents; a finite over inf gives 0."""
    if is_inf(a) and is_inf(b):
        raise ValueError("inf/inf is undefined")
    if is_inf(a):
        return INF
    if is_inf(b):
        return Fraction(0)
    return Fraction(a) / Fraction(b)


def exp_le(a: Exponent, b: Exponent) -> bool:
    if is_inf(a):
        return is_inf(b)
    if is_inf(b):
        return True
    return Fraction(a) <= Fraction(b)


def exp_float(x: Exponent) -> float:
    """The float nearest x; equal to float(Fraction(x)) without building a Fraction."""
    return float(x)


def exp_str(x: Exponent) -> str:
    """Serialize as "num/den" (or "inf"); never a float."""
    if is_inf(x):
        return "inf"
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def validate_exponent(x: Exponent, name: str = "exponent") -> Exponent:
    """Check x lies in [1, inf] and return it normalized."""
    if is_inf(x):
        return INF
    x = Fraction(x)
    if x < 1:
        raise ValueError(f"{name} = {x} is outside [1, inf]")
    return x
