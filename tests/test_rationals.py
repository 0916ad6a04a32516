from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from restrictlab.rationals import (
    INF,
    as_exponent,
    conjugate,
    exp_div,
    exp_float,
    exp_le,
    exp_mul,
    exp_str,
    is_inf,
    reciprocal,
    validate_exponent,
)

exponents = st.fractions(min_value=1, max_value=100).filter(lambda f: f >= 1)


def test_conjugate_endpoints():
    assert conjugate(1) == INF
    assert conjugate(INF) == 1
    assert conjugate(2) == 2
    assert conjugate(Fraction(4, 3)) == 4


@given(exponents)
def test_conjugate_identity(p):
    pp = conjugate(p)
    assert reciprocal(p) + reciprocal(pp) == 1
    assert conjugate(pp) == p or (p == 1 and is_inf(pp))


def test_reciprocal_of_inf_is_zero():
    assert reciprocal(INF) == 0


def test_parsing():
    assert as_exponent("4/3") == Fraction(4, 3)
    assert as_exponent("inf") == INF
    assert as_exponent("2") == Fraction(2)
    assert as_exponent(Fraction(5, 4)) == Fraction(5, 4)
    with pytest.raises(TypeError):
        as_exponent(object())


def test_exp_str_roundtrip():
    assert exp_str(Fraction(4, 3)) == "4/3"
    assert exp_str(Fraction(2)) == "2"
    assert exp_str(INF) == "inf"
    assert as_exponent(exp_str(Fraction(7, 5))) == Fraction(7, 5)


def test_mul_div_absorb_infinity():
    assert is_inf(exp_mul(2, INF))
    assert exp_div(Fraction(3), INF) == 0
    assert is_inf(exp_div(INF, 5))
    with pytest.raises(ValueError):
        exp_div(INF, INF)


def test_ordering():
    assert exp_le(Fraction(4, 3), INF)
    assert exp_le(INF, INF)
    assert not exp_le(INF, 100)
    assert exp_le(1, Fraction(4, 3))


def test_validate_range():
    with pytest.raises(ValueError):
        validate_exponent(Fraction(1, 2), "p")
    assert validate_exponent(INF) == INF


@given(st.one_of(st.fractions(min_value=1, max_value=10**6),
                 st.integers(min_value=1, max_value=10**6),
                 st.floats(min_value=1, max_value=1e6)))
def test_exp_float_is_float_of_the_fraction(x):
    assert exp_float(x) == float(Fraction(x))
    assert exp_float(INF) == float("inf")
