import random
from fractions import Fraction

import pytest

from sexpansion.scalars import (AlphaLinearityError, Q2, SQRT2, ScalarExpr,
                                common_denominator, int_parts)


def test_q2_arithmetic():
    x = Q2(1, 1)          # 1 + sqrt2
    y = Q2(-1, 1)         # -1 + sqrt2
    assert x * y == Q2(1)  # (sqrt2)^2 - 1
    assert SQRT2 * SQRT2 == Q2(2)
    assert x - x == Q2(0)
    assert not Q2(0)


def test_q2_inverse_and_division():
    x = Q2(3, -2)
    assert x * x.inverse() == Q2(1)
    assert (x / x) == Q2(1)
    with pytest.raises(ZeroDivisionError):
        Q2(0).inverse()


def test_q2_exact_sign():
    assert Q2(1, -1).sign() == -1          # 1 - sqrt2 < 0
    assert Q2(3, -2).sign() == 1           # 3 - 2 sqrt2 > 0
    assert Q2(-3, 2).sign() == -1
    assert Q2(0).sign() == 0
    assert Q2(Fraction(-141, 100), 1).sign() == 1   # sqrt2 > 1.41
    assert Q2(Fraction(-142, 100), 1).sign() == -1  # sqrt2 < 1.42


def test_alpha_linearity_is_enforced():
    a0 = ScalarExpr.alpha(0)
    a1 = ScalarExpr.alpha(1)
    with pytest.raises(AlphaLinearityError):
        a0 * a1
    with pytest.raises(AlphaLinearityError):
        a0 * a0
    assert (a0 + a1) * ScalarExpr.const(2, ell=-1) \
        == ScalarExpr.alpha(0, 2, -1) + ScalarExpr.alpha(1, 2, -1)


def test_zero_terms_are_pruned():
    a0 = ScalarExpr.alpha(0)
    assert (a0 - a0).is_zero()
    assert not (a0 + ScalarExpr.const(1)).is_zero()


def test_specialize_and_substitute():
    expr = ScalarExpr.alpha(1) + ScalarExpr.alpha(2, ell=2)
    spec = expr.specialize_alphas([1, -1, -1, -1])
    assert spec == ScalarExpr.alpha(0, -1) + ScalarExpr.alpha(0, -1, 2)
    num = expr.substitute_alpha_values([0, 5, 7, 0])
    assert num == ScalarExpr.const(5) + ScalarExpr.const(7, 2)


def _item(alpha, ell_pow, q="1"):
    return {"alpha": alpha, "ell_pow": ell_pow, "q": q}


@pytest.mark.parametrize("items, message", [
    ([_item(2, 0), _item(2, 0, "0")], r"\(alpha, ell_pow\) = \(2, 0\) is stated twice"),
    ([_item(-1, 0)], "alpha must be null or a non-negative integer, got -1"),
    ([_item(False, 0)], "alpha must be null or a non-negative integer, got False"),
    ([_item(1.0, 0)], "alpha must be null or a non-negative integer, got 1.0"),
    ([_item(None, True)], "ell_pow must be an integer, got True"),
    ([_item(None, "2")], "ell_pow must be an integer, got '2'"),
    ([_item(None, 0, 0.1)], "q must be an integer or a string, got 0.1"),
    ([_item(None, 0, False)], "q must be an integer or a string, got False"),
    ([dict(_item(None, 0), q_sqrt2=0.5)], "q_sqrt2 must be an integer or a string, got 0.5"),
])
def test_coefficient_json_items_are_validated(items, message):
    with pytest.raises(ValueError, match=message):
        ScalarExpr.from_json_list(items)


def test_string_forms():
    expr = ScalarExpr.alpha(2, Q2(Fraction(1, 2)), -3)
    assert str(expr) == "1/2*a2*l^-3"
    assert str(Q2(1, Fraction(1, 2))) == "1+1/2*sqrt2"


@pytest.mark.parametrize("expr, text, tex", [
    (ScalarExpr.const(Q2(1, 3), -1), "(1+3*sqrt2)*l^-1", r"\left(1+3\sqrt{2}\right)\ell^{-1}"),
    (ScalarExpr.const(Q2(1, 3)), "1+3*sqrt2", r"1+3\sqrt{2}"),
    (ScalarExpr.alpha(0, Q2(-1, Fraction(-1, 2))), "(-1-1/2*sqrt2)*a0",
     r"\left(-1-\frac{1}{2}\sqrt{2}\right)\alpha_{0}"),
    (ScalarExpr.alpha(1, SQRT2, 2), "1*sqrt2*a1*l^2", r"\sqrt{2}\alpha_{1}\ell^{2}"),
    (ScalarExpr.const(Q2(0, -2), 1), "-2*sqrt2*l", r"-2\sqrt{2}\ell^{1}"),
    (ScalarExpr.const(1) + ScalarExpr.const(Q2(2, -1), 1),
     "1 + (2-1*sqrt2)*l", r"1+\left(2-\sqrt{2}\right)\ell^{1}"),
    (ScalarExpr.alpha(2, -1, -3) + ScalarExpr.const(Fraction(1, 2)),
     "1/2 + -1*a2*l^-3", r"1/2-\alpha_{2}\ell^{-3}"),
])
def test_sqrt2_values_print_with_their_factors(expr, text, tex):
    """A two-part value is bracketed when an alpha or ell factor follows it;
    TeX writes sqrt2 as \\sqrt{2}, and rational coefficients as before."""
    assert str(expr) == text
    assert expr.latex() == tex


@pytest.mark.parametrize("expr, tex", [
    (ScalarExpr.alpha(1, Fraction(3, 2), -1), r"\frac{3}{2}\alpha_{1}\ell^{-1}"),
    (ScalarExpr.const(Fraction(-3, 2), -1), r"-\frac{3}{2}\ell^{-1}"),
    (ScalarExpr.alpha(0, Fraction(-2, 3), -1) + ScalarExpr.alpha(2, Fraction(4, 3), -1),
     r"-\frac{2}{3}\alpha_{0}\ell^{-1}+\frac{4}{3}\alpha_{2}\ell^{-1}"),
    (ScalarExpr.alpha(1, 2, -1) + ScalarExpr.alpha(2, -1), r"2\alpha_{1}\ell^{-1}-\alpha_{2}"),
    (ScalarExpr.const(Fraction(-1, 2)), "-1/2"),
])
def test_tex_writes_a_fraction_before_its_factors_as_frac(expr, tex):
    """A fractional multiplier of an alpha or ell factor is a \\frac, so the
    factor stays out of its denominator; str and a bare constant keep p/q."""
    assert expr.latex() == tex
    assert "frac" not in str(expr)


def test_q2_rational_fast_path_agrees_with_general_formula():
    rng = random.Random(1605)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    for _ in range(500):
        x = Q2(rational(), rng.choice([0, rational()]))
        y = Q2(rational(), rng.choice([0, rational()]))
        general = {
            "*": (x.a * y.a + 2 * x.b * y.b, x.a * y.b + x.b * y.a),
            "+": (x.a + y.a, x.b + y.b),
            "-": (x.a - y.a, x.b - y.b),
        }
        for op, result in (("*", x * y), ("+", x + y), ("-", x - y)):
            assert (result.a, result.b) == general[op]
            assert type(result.a) is Fraction and type(result.b) is Fraction
        for mixed in (x * 3, 3 * x, x + 2, 2 + x, x - 1):
            assert type(mixed.a) is Fraction and type(mixed.b) is Fraction
        assert x * 3 == Q2(3 * x.a, 3 * x.b) and x - 1 == Q2(x.a - 1, x.b)


def test_q2_keeps_fraction_arguments():
    third = Fraction(1, 3)
    q = Q2(third, third)
    assert q.a is third and q.b is third
    assert type(Q2(2).a) is Fraction and type(Q2(2).b) is Fraction


def test_int_parts_over_the_common_denominator():
    values = [Q2(Fraction(3, 4), Fraction(-5, 6)), Q2(2), Q2(0, Fraction(1, 9)), Q2(0)]
    den = common_denominator(values)
    assert den == 36
    assert [int_parts(v, den) for v in values] == [(27, -30), (72, 0), (0, 4), (0, 0)]
    for v in values:
        p, q = int_parts(v, den)
        assert Q2(Fraction(p, den), Fraction(q, den)) == v
    assert common_denominator([]) == 1


@pytest.mark.parametrize("other", [None, "a", [1], 1.5], ids=["None", "str", "list", "float"])
def test_equality_with_a_non_scalar_is_false(other):
    """A scalar compared with anything but a scalar, an int or a Fraction is
    unequal to it, so a lookup that misses (None) reads as a difference."""
    for x in (Q2(1), Q2(Fraction(3, 2)), ScalarExpr.const(1), ScalarExpr.alpha(0)):
        assert x != other and not x == other
        assert other != x and not other == x


def test_equality_across_the_scalar_types():
    half = Fraction(1, 2)
    assert Q2(half) == half and Q2(2) == 2 and Q2(2) != 3
    assert ScalarExpr.const(2) == 2 and ScalarExpr.const(half) == Q2(half)
    assert Q2(2) == ScalarExpr.const(2) and Q2(2, 1) != ScalarExpr.const(2)
    assert ScalarExpr.alpha(0) != ScalarExpr.const(1)
