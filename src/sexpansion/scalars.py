"""Exact scalar arithmetic for the whole library.

Coefficients live in the ring  Q(sqrt2)[alpha_0, alpha_1, ...][ell, ell^-1]
restricted to total degree <= 1 in the alpha symbols.  Every formula in the
constructions implemented here is linear in the arbitrary constants alpha_g,
so multiplying two alpha-carrying scalars is a programming error and raises.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Union

Rational = Union[int, Fraction]

_ZERO = Fraction(0)


class AlphaLinearityError(TypeError):
    """Raised when a product would be quadratic in the alpha symbols."""


class Q2:
    """Element a + b*sqrt(2) of the quadratic field Q(sqrt 2)."""

    __slots__ = ("a", "b")

    def __init__(self, a: Rational = 0, b: Rational = _ZERO):
        # Fractions are immutable, so an argument that already is one is kept
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)

    @staticmethod
    def of(x: "Q2 | Rational") -> "Q2":
        return x if isinstance(x, Q2) else Q2(x)

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Q2):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Q2(other)
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __neg__(self) -> "Q2":
        return Q2(-self.a, -self.b)

    # Each operation takes a rational fast path (one Fraction operation) when
    # neither operand has a sqrt2 part; the value is the same either way.

    def __add__(self, other) -> "Q2":
        other = Q2.of(other)
        if not (self.b or other.b):
            return Q2(self.a + other.a)
        return Q2(self.a + other.a, self.b + other.b)

    def __sub__(self, other) -> "Q2":
        other = Q2.of(other)
        if not (self.b or other.b):
            return Q2(self.a - other.a)
        return Q2(self.a - other.a, self.b - other.b)

    def __mul__(self, other) -> "Q2":
        other = Q2.of(other)
        if not (self.b or other.b):
            return Q2(self.a * other.a)
        return Q2(self.a * other.a + 2 * self.b * other.b,
                  self.a * other.b + self.b * other.a)

    __radd__ = __add__
    __rmul__ = __mul__

    def inverse(self) -> "Q2":
        # 1/(a+b√2) = (a−b√2)/(a²−2b²); the norm vanishes only at 0.
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return Q2(self.a / norm, -self.b / norm)

    def __truediv__(self, other) -> "Q2":
        return self * Q2.of(other).inverse()

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(2)."""
        if self.b == 0:
            return 0 if self.a == 0 else (1 if self.a > 0 else -1)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a^2 with 2 b^2
        bigger_rational = self.a * self.a > 2 * self.b * self.b
        if self.a > 0:
            return 1 if bigger_rational else -1
        return -1 if bigger_rational else 1

    def __repr__(self) -> str:
        return f"Q2({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        sep = "+" if self.b > 0 else "-"
        return f"{self.a}{sep}{abs(self.b)}*sqrt2"


SQRT2 = Q2(0, 1)
HALF_SQRT2 = Q2(0, Fraction(1, 2))  # 1/sqrt2 = sqrt2/2


def json_rational(value, name: str) -> Fraction:
    """An exact rational stated in a JSON file, as an int or a string such
    as "1/2".  A JSON number with a fraction part is a binary float, which
    would read as its exact binary value, so a float (or a bool) raises
    ValueError."""
    if type(value) is int or isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"{name} must be an integer or a string, got {value!r}")


# The integer view of Q2 values that the int kernels read: every value over
# one common denominator D, as the ints p, q with p + q*sqrt2 = D * value.

def common_denominator(values: Iterable[Q2]) -> int:
    """The lcm of the denominators of both parts of every value; 1 if none."""
    den = 1
    for v in values:
        den = lcm(den, v.a.denominator, v.b.denominator)
    return den


def int_parts(v: Q2, den: int) -> tuple[int, int]:
    """(p, q) with p + q*sqrt2 = den * v, for a den from common_denominator."""
    return (v.a.numerator * (den // v.a.denominator),
            v.b.numerator * (den // v.b.denominator))


Coeff = Union[Q2, int, Fraction]

# A term key is (alpha symbol index or None, power of ell).
TermKey = tuple[Optional[int], int]


class ScalarExpr:
    """Sparse sum of terms  c * alpha_i * ell^k  with c in Q(sqrt2).

    Degree in the alpha symbols is at most one per term; products that would
    exceed that raise AlphaLinearityError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[TermKey, Q2]] = None):
        self.terms: dict[TermKey, Q2] = {}
        if terms:
            for key, val in terms.items():
                v = Q2.of(val)
                if v:
                    self.terms[key] = v

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ScalarExpr":
        return ScalarExpr()

    @staticmethod
    def const(c: Coeff, ell: int = 0) -> "ScalarExpr":
        return ScalarExpr({(None, ell): Q2.of(c)})

    @staticmethod
    def alpha(i: int, c: Coeff = 1, ell: int = 0) -> "ScalarExpr":
        return ScalarExpr({(i, ell): Q2.of(c)})

    @staticmethod
    def of(x: "ScalarExpr | Coeff") -> "ScalarExpr":
        return x if isinstance(x, ScalarExpr) else ScalarExpr.const(x)

    def add_term(self, key: TermKey, val: Q2) -> None:
        """In place: self += val * key; only for an expression the caller built."""
        acc = self.terms.get(key)
        acc = val if acc is None else acc + val
        if acc:
            self.terms[key] = acc
        else:
            self.terms.pop(key, None)

    # -- ring operations ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ScalarExpr, Q2, int, Fraction)):
            return NotImplemented
        return self.terms == ScalarExpr.of(other).terms

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr({k: -v for k, v in self.terms.items()})

    def __add__(self, other) -> "ScalarExpr":
        res = ScalarExpr()
        res.terms = dict(self.terms)
        for key, val in ScalarExpr.of(other).terms.items():
            res.add_term(key, val)
        return res

    def __sub__(self, other) -> "ScalarExpr":
        return self + (-ScalarExpr.of(other))

    def __mul__(self, other) -> "ScalarExpr":
        other = ScalarExpr.of(other)
        res = ScalarExpr()
        for (a1, e1), c1 in self.terms.items():
            for (a2, e2), c2 in other.terms.items():
                if a1 is not None and a2 is not None:
                    raise AlphaLinearityError(
                        f"product of alpha_{a1} and alpha_{a2} terms is not "
                        "representable in the alpha-linear scalar ring")
                res.add_term((a1 if a1 is not None else a2, e1 + e2), c1 * c2)
        return res

    __radd__ = __add__
    __rmul__ = __mul__

    def scaled(self, c: Coeff, ell: int = 0) -> "ScalarExpr":
        c = Q2.of(c)
        return ScalarExpr({(a, e + ell): v * c for (a, e), v in self.terms.items()})

    # -- queries -----------------------------------------------------------

    def specialize_alphas(self, ratios: Iterable[Coeff], base: int = 0) -> "ScalarExpr":
        """Substitute alpha_i -> ratios[i] * alpha_base."""
        rats = [Q2.of(r) for r in ratios]
        out = ScalarExpr()
        for (a, e), v in self.terms.items():
            if a is None:
                out.add_term((None, e), v)
            else:
                out.add_term((base, e), v * rats[a])
        return out

    def substitute_alpha_values(self, values: Iterable[Coeff]) -> "ScalarExpr":
        """Substitute numeric values for every alpha symbol."""
        vals = [Q2.of(v) for v in values]
        out = ScalarExpr()
        for (a, e), v in self.terms.items():
            out.add_term((None, e), v if a is None else v * vals[a])
        return out

    def sorted_terms(self) -> list[tuple[TermKey, Q2]]:
        return sorted(self.terms.items(),
                      key=lambda kv: (kv[0][0] is not None, kv[0][0] or 0, kv[0][1]))

    # -- JSON --------------------------------------------------------------

    def to_json_list(self) -> list[dict]:
        """One {"alpha", "ell_pow", "q", "q_sqrt2"?} item per term, in
        sorted_terms order; "q_sqrt2" appears only for a nonzero sqrt2 part."""
        out = []
        for (a, e), v in self.sorted_terms():
            item = {"alpha": a, "ell_pow": e, "q": str(v.a)}
            if v.b:
                item["q_sqrt2"] = str(v.b)
            out.append(item)
        return out

    @staticmethod
    def from_json_list(items: Iterable[dict]) -> "ScalarExpr":
        """The scalar a to_json_list value describes.  Each item states one
        term, so a repeated (alpha, ell_pow) raises ValueError where add_term
        would add the two up; so does an alpha other than null or a
        non-negative int, an ell_pow other than an int (a bool is neither), or a
        q or q_sqrt2 that is not an int or a string (`json_rational`)."""
        out = ScalarExpr()
        seen = set()
        for c in items:
            a, e = c["alpha"], c["ell_pow"]
            if a is not None and (type(a) is not int or a < 0):
                raise ValueError(f"alpha must be null or a non-negative integer, got {a!r}")
            if type(e) is not int:
                raise ValueError(f"ell_pow must be an integer, got {e!r}")
            if (a, e) in seen:
                raise ValueError(f"coefficient term (alpha, ell_pow) = ({a}, {e}) "
                                 "is stated twice")
            seen.add((a, e))
            out.add_term((a, e), Q2(json_rational(c["q"], "q"),
                                    json_rational(c.get("q_sqrt2", 0), "q_sqrt2")))
        return out

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"ScalarExpr({self})"

    # A value with both a rational and a sqrt2 part is bracketed when an
    # alpha or ell factor follows it, so the factor multiplies the whole value.

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (a, e), v in self.sorted_terms():
            part = f"({v})" if v.a and v.b and (a is not None or e) else str(v)
            if a is not None:
                part += f"*a{a}"
            if e:
                part += f"*l^{e}" if e != 1 else "*l"
            bits.append(part)
        return " + ".join(bits)

    def latex(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (a, e), v in self.sorted_terms():
            factor = a is not None or e
            if a is not None and v.is_rational and abs(v.a) == 1:
                part = "-" if v.a < 0 else ""
            elif v.a and v.b and factor:
                part = rf"\left({_q2_latex(v)}\right)"
            elif factor and v.is_rational and v.a.denominator != 1:
                # a \frac, so the factors stay out of the denominator
                part = ("-" if v.a < 0 else "") + _frac_latex(abs(v.a))
            else:
                part = _q2_latex(v)
            if a is not None:
                part += rf"\alpha_{{{a}}}"
            if e:
                part += rf"\ell^{{{e}}}"
            bits.append(part)
        out = bits[0]
        for b in bits[1:]:
            out += b if b.startswith("-") else "+" + b
        return out


def _q2_latex(v: Q2) -> str:
    """v in TeX: the rational part as str writes it, the sqrt2 part as
    \\sqrt{2} after its multiplier, a \\frac when that is not an integer."""
    if not v.b:
        return str(v.a)
    b = abs(v.b)
    root = ("" if b == 1 else str(b) if b.denominator == 1 else _frac_latex(b)) + r"\sqrt{2}"
    if not v.a:
        return root if v.b > 0 else "-" + root
    return f"{v.a}{'+' if v.b > 0 else '-'}{root}"


def _frac_latex(x: Fraction) -> str:
    """A positive non-integer rational as \\frac{p}{q}."""
    return rf"\frac{{{x.numerator}}}{{{x.denominator}}}"
