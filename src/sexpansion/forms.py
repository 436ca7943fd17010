"""Exact graded-commutative exterior algebra over concrete component symbols.

The algebra is freely generated by the 1-form symbols of the `FIELDS` table
(vielbein e^a, spin connection w^ab, and the extra fields k^ab, h^a) together
with their exterior derivatives, which are 2-form symbols.  Odd symbols
anticommute, even symbols commute, and every monomial is kept in a canonical
sorted order with the Koszul sign applied at construction time.

Inside the library there is one form type, the integer kernel's `IntForm`,
and a `LieValuedForm` holds one `IntForm` per generator.  `ScalarForm`, with
`ScalarExpr` coefficients, is the boundary type: what the public functions
return, what the JSON reader builds, and what comparisons read.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .lie_algebra import LieAlgebra
from .scalars import (AlphaLinearityError, Q2, ScalarExpr, common_denominator,
                      int_parts)


class Field(NamedTuple):
    """A gauge field's label base, index count, component ell power and TeX."""
    base: str
    arity: int
    ell_pow: int
    tex: str


# the gauge fields in symbol order: w and e on the J pairs and P vectors, k
# and h on their Z partners; a pair field (arity 2) is antisymmetric
FIELDS = {"w": Field("J", 2, 0, r"\omega"), "e": Field("P", 1, -1, "e"),
          "k": Field("Z", 2, 0, "k"), "h": Field("Z", 1, -1, "h")}
_FIELD_ORDER = {f: i for i, f in enumerate(FIELDS)}
_INTERNED: dict[tuple, "FormSymbol"] = {}  # (field, indices, differentiated) -> symbol


class FormSymbol(int):
    """One concrete component symbol, e.g. w^{01}, e^2, or their d-images.

    Symbols are interned: there is one object per (field, indices,
    differentiated), at most 220 in all.  Each is an int whose value is
    (2 * field order + d) * 100 + the index digits, so its hash, equality and
    order are the int's, and that order is `sort_key`'s (field, then d, then
    indices).  A symbol therefore also equals the plain int of its value;
    monomials hold symbols only.  Attributes are set once, in `__new__`;
    `d_image` is the interned d-image of an odd symbol, None on an even one.
    """

    def __new__(cls, field: str, indices: tuple[int, ...], differentiated: bool = False):
        indices = tuple(indices)
        s = _INTERNED.get((field, indices, differentiated))
        if s is not None:
            return s
        if field not in _FIELD_ORDER:
            raise ValueError(f"unknown field symbol {field!r}")
        if FIELDS[field].arity == 2:
            if len(indices) != 2 or not indices[0] < indices[1]:
                raise ValueError(f"{field} needs an ordered index pair")
        elif len(indices) != 1:
            raise ValueError(f"{field} needs exactly one index")
        # the int value and monomial_name hold each index as one digit, and
        # parse_symbol reads it so
        if indices[0] < 0 or indices[-1] > 9:
            raise ValueError(f"{field} indices must lie in 0..9, got {indices}")
        d = bool(differentiated)
        digits = 0
        for i in indices:
            digits = 10 * digits + i
        s = int.__new__(cls, (2 * _FIELD_ORDER[field] + d) * 100 + digits)
        s.__dict__.update(field=field, indices=indices, differentiated=d,
                          degree=2 if d else 1,
                          sort_key=(_FIELD_ORDER[field], d, indices),
                          _name=("d" if d else "") + field + "".join(map(str, indices)),
                          d_image=None if d else FormSymbol(field, indices, True))
        _INTERNED[(field, indices, d)] = s
        return s

    def __setattr__(self, name, value):
        raise AttributeError(f"FormSymbol is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FormSymbol is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return FormSymbol, (self.field, self.indices, self.differentiated)

    def d(self) -> Optional["FormSymbol"]:
        return self.d_image

    def __str__(self) -> str:
        return self._name

    def __repr__(self) -> str:
        return (f"FormSymbol(field={self.field!r}, indices={self.indices!r}, "
                f"differentiated={self.differentiated!r})")


def sym(field: str, *indices: int, d: bool = False) -> FormSymbol:
    """Symbol constructor; pair fields fold index order into a sign
    elsewhere, so this demands already-ordered indices."""
    return FormSymbol(field, indices, d)


def component_symbol(field: str, indices: tuple[int, ...],
                     d: bool = False) -> tuple[int, Optional[FormSymbol]]:
    """(sign, symbol) of one field component (or its differential), with one
    index or an antisymmetric pair in free order: a pair carries the sign of
    its index order and vanishes on equal indices, with sign 0."""
    if len(indices) == 1:
        return 1, sym(field, indices[0], d=d)
    a, b = indices
    if a == b:
        return 0, None
    if a < b:
        return 1, sym(field, a, b, d=d)
    return -1, sym(field, b, a, d=d)


Monomial = tuple[FormSymbol, ...]


def canonical_monomial(seq: Sequence[FormSymbol]) -> tuple[int, Optional[Monomial]]:
    """Sort a symbol product into canonical order.

    Returns (sign, monomial); sign 0 with None when an odd symbol repeats.
    The sign counts transpositions of odd symbols only, since even symbols
    move freely.
    """
    odd = [s for s in seq if s.degree == 1]
    sign = 1
    for i, a in enumerate(odd):
        for b in odd[i + 1:]:
            if a == b:
                return 0, None
            if a > b:
                sign = -sign
    return sign, tuple(sorted(seq))


def monomial_degree(m: Monomial) -> int:
    return sum(s.degree for s in m)


class ScalarForm:
    """Finite sum of canonical monomials with ScalarExpr coefficients: a
    public result, a form read from JSON, or a side of a comparison.  Form
    arithmetic runs on `IntForm`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[Monomial, ScalarExpr]] = None):
        self.terms: dict[Monomial, ScalarExpr] = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero():
                    self.terms[m] = c

    @staticmethod
    def zero() -> "ScalarForm":
        return ScalarForm()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, ScalarForm) and self.terms == other.terms

    def add_term(self, m: Monomial, c: ScalarExpr) -> None:
        acc = self.terms.get(m)
        acc = c if acc is None else acc + c
        if acc.is_zero():
            self.terms.pop(m, None)
        else:
            self.terms[m] = acc

    def __add__(self, other: "ScalarForm") -> "ScalarForm":
        """A new form; the library never adds two ScalarForms, but
        `perfbench/tracer.py` counts the calls of this method."""
        out = ScalarForm(dict(self.terms))
        for m, c in other.terms.items():
            out.add_term(m, c)
        return out

    def sorted_items(self) -> list[tuple[Monomial, ScalarExpr]]:
        return sorted(self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_items():
            mono = "^".join(str(s) for s in m) if m else "1"
            bits.append(f"({c}) {mono}")
        return " + ".join(bits)


def monomial_name(m: Monomial) -> str:
    return "^".join([s._name for s in m]) if m else "1"


def parse_symbol(text: str) -> FormSymbol:
    d = text.startswith("d")
    body = text[1:] if d else text
    field, digits = body[:1], body[1:]
    return FormSymbol(field, tuple(int(ch) for ch in digits), d)


def _shared_coefficients(k: IntForm, render=None) -> dict:
    """monomial -> coefficient of k, in `rows` order: each distinct row is
    built once by `row_scalar`, passed through `render` when one is given,
    and shared by every monomial that carries it."""
    done: dict[tuple, object] = {}
    out = {}
    for m, row in k.rows().items():
        c = done.get(row)
        if c is None:
            c = k.row_scalar(row)
            c = done[row] = c if render is None else render(c)
        out[m] = c
    return out


def sorted_coefficients(f: ScalarForm | IntForm, render=None):
    """(monomial, coefficient) of f in sorted monomial order, each distinct
    coefficient built and rendered once (`_shared_coefficients`).  A
    ScalarForm is read through its `IntForm.of`; f itself is unchanged."""
    k = f if isinstance(f, IntForm) else IntForm.of(f)
    shared = _shared_coefficients(k, render)
    return [(m, shared[m]) for m in sorted(shared)]


def scalar_form_to_json_dict(f: ScalarForm | IntForm) -> dict:
    """{"monomials": [{"monomial": name, "coeff": list}, ...]} in sorted
    monomial order; monomials with one coefficient share its `coeff` list."""
    return {"monomials": [{"monomial": monomial_name(m), "coeff": coeff}
                          for m, coeff in sorted_coefficients(f, ScalarExpr.to_json_list)]}


def scalar_form_from_json_dict(d: dict) -> ScalarForm:
    """The form a `scalar_form_to_json_dict` value describes.  Each distinct
    symbol name is parsed once, and each distinct `coeff` list is read once
    by `ScalarExpr.from_json_list`, whose ScalarExpr the monomials carrying
    that list share.  The memo key holds each value's type beside it, so
    values that Python calls equal but the JSON rules tell apart (1, 1.0
    and true) never meet; a list it cannot key is read on its own.  A
    monomial that is not canonical, is stated twice or has a zero
    coefficient (`"coeff": []` too) raises ValueError, a repeat first."""
    symbols: dict[str, FormSymbol] = {}
    exprs: dict[tuple, ScalarExpr] = {}
    out = ScalarForm()
    for item in d["monomials"]:
        name = item["monomial"]
        mono = []
        if name != "1":
            for t in name.split("^"):
                s = symbols.get(t)
                if s is None:
                    s = symbols[t] = parse_symbol(t)
                # canonical: ascending, with no odd symbol repeated
                if mono and (s < mono[-1] or s == mono[-1] and s.degree == 1):
                    raise ValueError(f"monomial {name!r} is not canonical")
                mono.append(s)
        mono = tuple(mono)
        if mono in out.terms:
            raise ValueError(f"monomial {name!r} is stated twice")
        coeff = item["coeff"]
        try:
            key = tuple([(*c.items(), *map(type, c.values())) for c in coeff])
            expr = exprs.get(key)
        except (AttributeError, TypeError):  # not a list of dicts of hashables
            key = expr = None
        if expr is None:
            expr = ScalarExpr.from_json_list(coeff)
            if key is not None:
                exprs[key] = expr
        out.terms[mono] = expr
    zero = next((m for m, c in out.terms.items() if c.is_zero()), None)
    if zero is not None:
        raise ValueError(f"monomial {monomial_name(zero)!r} has a zero coefficient")
    return out


def _symbol_tex(s: FormSymbol) -> str:
    core = FIELDS[s.field].tex + "^{" + "".join(map(str, s.indices)) + "}"
    return (r"\mathrm{d}" + core) if s.differentiated else core


def scalar_form_latex(f: ScalarForm | IntForm) -> str:
    """Flat monomial listing; the JSON monomial map stays the tested truth.
    Each symbol's TeX and each distinct coefficient's `latex()` is rendered
    once."""
    if f.is_zero():
        return "0"
    symbols: dict[FormSymbol, str] = {}
    lines = []
    for m, head in sorted_coefficients(f, lambda c: f"({c.latex()})\\, "):
        tex = []
        for s in m:
            t = symbols.get(s)
            if t is None:
                t = symbols[s] = _symbol_tex(s)
            tex.append(t)
        lines.append(head + (r" \wedge ".join(tex) if m else "1"))
    return "\n  + ".join(lines)


# -- the integer kernel ---------------------------------------------------------
#
# Inside the kernel a form is an IntForm: for each coefficient basis element
# alpha_a * ell^k * sqrt2^r, keyed (a or None, k, r) with r in {0, 1}, a map
# monomial -> int, all over one positive int denominator.  A scalar is the
# IntForm of a 0-form, whose only monomial is ().  ScalarExpr, Q2 and Fraction
# appear only at the edges: `IntForm.of` and `IntForm.scalar` on the way in,
# `row_scalar` on the way out.

KernelKey = tuple[Optional[int], int, int]


class IntForm:
    """sum over keys of alpha_a ell^k sqrt2^r * (sum_m c_m m) / den."""

    __slots__ = ("parts", "den")

    def __init__(self, parts: Optional[dict[KernelKey, dict[Monomial, int]]] = None,
                 den: int = 1):
        self.parts = {} if parts is None else parts
        self.den = den

    @staticmethod
    def of(f: ScalarForm) -> "IntForm":
        return _int_form(f.terms)

    @staticmethod
    def scalar(c: ScalarExpr | Q2 | Fraction | int) -> "IntForm":
        """The 0-form c."""
        return _int_form({(): ScalarExpr.of(c)})

    def into_scalar_form(self) -> ScalarForm:
        """The ScalarForm of this kernel form, which stays as it is: one
        ScalarExpr per distinct `rows` row, shared by every monomial that
        carries it."""
        out = ScalarForm()
        out.terms = _shared_coefficients(self)
        return out

    @property
    def terms(self) -> dict[Monomial, ScalarExpr]:
        """The monomial -> ScalarExpr map of `into_scalar_form`, built on each
        read; `perfbench/run.py` reads a connection component's coefficient
        so."""
        return self.into_scalar_form().terms

    def __eq__(self, other) -> bool:
        """Equal values, whatever the two denominators."""
        if not isinstance(other, IntForm):
            return NotImplemented
        return _times(self, other.den) == _times(other, self.den)

    def rows(self) -> dict[Monomial, tuple]:
        """monomial -> row, in part order, where a row is the monomial's key,
        int, key, int, ... over its parts in one fixed key order: two
        monomials of this form have one row iff their coefficients are
        equal."""
        rows: dict[Monomial, list] = {}
        for key in sorted(self.parts, key=lambda k: (k[0] is not None, k[0] or 0, k[1:])):
            for m, c in self.parts[key].items():
                row = rows.get(m)
                if row is None:
                    rows[m] = [key, c]
                else:
                    row += key, c
        return {m: tuple(row) for m, row in rows.items()}

    def row_scalar(self, row: tuple) -> ScalarExpr:
        """The coefficient that a `rows` row of this form stands for."""
        terms: dict[tuple[Optional[int], int], Q2] = {}
        for i in range(0, len(row), 2):
            (a, e, r), x = row[i], Fraction(row[i + 1], self.den)
            if r:  # (a, e, 1) comes after (a, e, 0) in a row
                old = terms.get((a, e))
                terms[(a, e)] = Q2(old.a if old else _ZERO, x)
            else:
                terms[(a, e)] = Q2(x)
        return ScalarExpr(terms)

    def is_zero(self) -> bool:
        return not any(self.parts.values())

    def add(self, f: "IntForm", scale: Optional["IntForm"] = None, n: int = 1) -> None:
        """In place: self += n * scale * f, for a scalar `scale` (1 when
        omitted); the denominator widens to the lcm."""
        scale = _ONE if scale is None else scale
        fden = f.den * scale.den
        den = lcm(self.den, fden)
        if den != self.den:
            widen = den // self.den
            for part in self.parts.values():
                for m in part:
                    part[m] *= widen
            self.den = den
        n *= den // fden
        for k2, p2 in scale.parts.items():
            c2 = p2[()] * n
            for k1, p1 in f.parts.items():
                if not p1:
                    continue
                key, two = _key_product(k1, k2)
                c = c2 * two
                acc = self.parts.setdefault(key, {})
                for m, c1 in p1.items():
                    v = acc.get(m, 0) + c1 * c
                    if v:
                        acc[m] = v
                    else:
                        del acc[m]


def _int_form(terms: dict[Monomial, ScalarExpr]) -> IntForm:
    """The kernel form of a monomial -> ScalarExpr map, over the lcm of its
    denominators."""
    den = common_denominator(q for c in terms.values() for q in c.terms.values())
    parts: dict[KernelKey, dict[Monomial, int]] = {}
    for m, c in terms.items():
        for (a, e), q in c.terms.items():
            for r, x in enumerate(int_parts(q, den)):
                if x:
                    parts.setdefault((a, e, r), {})[m] = x
    return IntForm(parts, den)


def _times(f: IntForm, n: int) -> dict[KernelKey, dict[Monomial, int]]:
    """f's ints times n, by key; empty keys left out."""
    return {key: {m: c * n for m, c in part.items()} for key, part in f.parts.items() if part}


_ZERO = Fraction(0)
_ONE = IntForm({(None, 0, 0): {(): 1}})
HALF = IntForm({(None, 0, 0): {(): 1}}, 2)
MINUS_ONE = IntForm({(None, 0, 0): {(): -1}})

IntLieForm = dict[int, IntForm]


def _key_product(k1: KernelKey, k2: KernelKey) -> tuple[KernelKey, int]:
    """Key of the product of two basis elements, and the int that sqrt2^2
    folds into it."""
    (a1, l1, r1), (a2, l2, r2) = k1, k2
    if a1 is not None and a2 is not None:
        raise AlphaLinearityError(
            f"product of alpha_{a1} and alpha_{a2} terms is not "
            "representable in the alpha-linear scalar ring")
    return (a2 if a1 is None else a1, l1 + l2, (r1 + r2) & 1), 2 if r1 and r2 else 1


def _nonzero(parts: dict[KernelKey, dict[Monomial, int]]) -> dict[KernelKey, dict[Monomial, int]]:
    """parts without its cancelled monomials and empty keys."""
    out = {}
    for key, part in parts.items():
        if 0 in part.values():
            part = {m: c for m, c in part.items() if c}
        if part:
            out[key] = part
    return out


def _odd_bits(m: Monomial) -> tuple[int, int]:
    """(mask, par) of a canonical monomial: mask has bit b set for each odd
    symbol b (a symbol is its int value), and par is the XOR over those b of
    every bit above b.  Two monomials' odd symbols meet iff mask1 & mask2,
    and moving m2's odd symbols past m1's takes an odd number of swaps iff
    (mask1 & par2).bit_count() is odd."""
    mask = par = 0
    for s in m:
        if s.degree == 1:
            mask |= 1 << s
            par ^= -2 << s
    return mask, par


def int_wedge(f: IntForm, g: IntForm) -> IntForm:
    """Graded product of kernel forms.  Both factors' monomials are
    canonical, so a product is the sorted concatenation, zero when an odd
    symbol repeats, with the sign of `_odd_bits`; the masks live for this
    call only."""
    gbits = {k2: [(m2, *_odd_bits(m2), c2) for m2, c2 in p2.items()]
             for k2, p2 in g.parts.items()}
    parts: dict[KernelKey, dict[Monomial, int]] = {}
    for k1, p1 in f.parts.items():
        fbits = [(m1, _odd_bits(m1)[0], c1) for m1, c1 in p1.items()]
        for k2, q2 in gbits.items():
            if k1[0] is not None and k2[0] is not None:
                # two alpha keys raise only once a nonzero product is formed
                if any(not mask1 & mask2 for _, mask1, _ in fbits for _, mask2, _, _ in q2):
                    _key_product(k1, k2)
                continue
            key, two = _key_product(k1, k2)
            acc = parts.setdefault(key, {})
            for m1, mask1, c1 in fbits:
                c1 *= two
                for m2, mask2, par2, c2 in q2:
                    if mask1 & mask2:
                        continue
                    mono = tuple(sorted(m1 + m2))
                    c = c1 * c2
                    acc[mono] = acc.get(mono, 0) + (-c if (mask1 & par2).bit_count() & 1 else c)
    return IntForm(_nonzero(parts), f.den * g.den)


def int_d(f: IntForm) -> IntForm:
    """d on a kernel form: d turns an odd symbol into its even d-image, so
    the odd symbols stay in order and distinct, and the sign is the parity
    of the odd symbols before it."""
    parts: dict[KernelKey, dict[Monomial, int]] = {}
    for key, part in f.parts.items():
        acc = parts.setdefault(key, {})
        for m, c in part.items():
            before_odd = 0
            for i, s in enumerate(m):
                ds = s.d_image
                if ds is not None:
                    mono = tuple(sorted(m[:i] + (ds,) + m[i + 1:]))
                    acc[mono] = acc.get(mono, 0) + (-c if before_odd & 1 else c)
                    before_odd += 1
    return IntForm(_nonzero(parts), f.den)


def int_lie_nonzero(f: IntLieForm) -> IntLieForm:
    return {i: k for i, k in f.items() if not k.is_zero()}


def int_bracket_into(out: IntLieForm, f: IntLieForm, g: IntLieForm, L: LieAlgebra,
                     scale: Optional[IntForm] = None) -> None:
    """In place: out += scale * [f, g], [f, g]^C = C_{AB}^C f^A wedge g^B.
    A component that cancels is left in out as a zero form."""
    scalars: dict[Q2, IntForm] = {}
    for a, fa in f.items():
        for b, gb in g.items():
            row = L.pair(a, b)
            if not row:
                continue
            prod = int_wedge(fa, gb)
            if prod.is_zero():
                continue
            for c, coeff in row.items():
                s = scalars.get(coeff)
                if s is None:
                    s = IntForm.scalar(coeff)
                    s = scalars[coeff] = s if scale is None else int_wedge(s, scale)
                out.setdefault(c, IntForm()).add(prod, s)


def int_curvature(A: IntLieForm, L: LieAlgebra) -> IntLieForm:
    F = {i: int_d(f) for i, f in A.items()}
    int_bracket_into(F, A, A, L, HALF)
    return int_lie_nonzero(F)


def _is_even(f: IntLieForm) -> bool:
    return all(monomial_degree(m) % 2 == 0
               for k in f.values() for part in k.parts.values() for m in part)


TensorEntry = tuple[tuple[tuple[int, ...], ...], IntForm]


def int_contract(entries: list[TensorEntry], forms: Sequence[IntLieForm]) -> IntForm:
    """`contract` on kernel forms, with the tensor as its `int_entries`: each
    entry carries its key's distinct orderings, so a chain of contractions
    with one tensor builds them once.  An ordering counts when every slot's
    form has a component at its index; slots group by the identity of their
    form objects."""
    slots_of: dict[int, list[int]] = {}
    for slot, f in enumerate(forms):
        slots_of.setdefault(id(f), []).append(slot)
    groups = [slots for slots in slots_of.values()
              if len(slots) > 1 and _is_even(forms[slots[0]])]
    supports = [f.keys() for f in forms]
    out = IntForm()
    for orderings, val in entries:
        counts: dict[tuple[int, ...], int] = {}
        for order in orderings:
            if not all(map(operator.contains, supports, order)):
                continue
            order = list(order)
            for slots in groups:  # sorted indices stand for the group's orderings
                for slot, i in zip(slots, sorted(order[s] for s in slots)):
                    order[slot] = i
            order = tuple(order)
            counts[order] = counts.get(order, 0) + 1
        for order, n in sorted(counts.items()):
            prod = forms[0][order[0]]
            for c, i in zip(forms[1:], order[1:]):
                prod = int_wedge(prod, c[i])
                if prod.is_zero():
                    break
            else:
                out.add(prod, val, n)
    return out


def int_entries(T) -> list[TensorEntry]:
    """The tensor for `int_contract`: per sparse entry, the distinct
    orderings of its key, sorted, and the entry as an `IntForm.scalar`.
    Build it once per tensor and pass it to every contraction."""
    return [(tuple(sorted(set(itertools.permutations(key)))), IntForm.scalar(val))
            for key, val in T.entries.items()]


# -- the public entry points: kernel forms inside, ScalarForm results -----------


def wedge(f: ScalarForm, g: ScalarForm) -> ScalarForm:
    """Graded-commutative product."""
    return int_wedge(IntForm.of(f), IntForm.of(g)).into_scalar_form()


def exterior_d(f: ScalarForm) -> ScalarForm:
    """Graded Leibniz derivation with d(base) = d-image, d(d-image) = 0."""
    return int_d(IntForm.of(f)).into_scalar_form()


class LieValuedForm:
    """Map from generator index to its component, a kernel form: its
    `components` is an `IntLieForm` that the kernel reads as it is."""

    __slots__ = ("components",)

    def __init__(self, components: Optional[IntLieForm] = None):
        self.components: IntLieForm = {}
        if components:
            for i, f in components.items():
                if not f.is_zero():
                    self.components[i] = f

    @staticmethod
    def zero() -> "LieValuedForm":
        return LieValuedForm()

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        return isinstance(other, LieValuedForm) and self.components == other.components


def lie_bracket_form(f: LieValuedForm, g: LieValuedForm, L: LieAlgebra) -> LieValuedForm:
    """[f, g]^C = C_{AB}^C f^A wedge g^B over all ordered generator pairs."""
    out: IntLieForm = {}
    int_bracket_into(out, f.components, g.components, L)
    return LieValuedForm(out)


def curvature(A: LieValuedForm, L: LieAlgebra) -> LieValuedForm:
    """F = dA + (1/2)[A, A]."""
    return LieValuedForm(int_curvature(A.components, L))


def contract(T, forms: Sequence[LieValuedForm]) -> ScalarForm:
    """Full multilinear contraction of a symmetric invariant tensor with
    Lie-valued forms; all reordering signs come from the wedge products.

    It walks the tensor's sparse entries and, for each, the distinct
    orderings of its sorted key that land on a component in every slot.
    Slots holding one and the same form object whose monomials all have
    even degree form a group: even factors commute with everything and T is
    symmetric, so orderings that differ only inside a group give the same
    product.  Each product is built once, by one wedge chain, and added with
    the entry times the number of orderings it stands for.  A form with any
    odd monomial is never grouped: its factors anticommute, so orderings
    inside the group differ in sign and must be wedged one by one; that is
    how <w w w> = 0 comes out of the wedge signs.  Each form's components
    go to the kernel as they are, with no conversion, so one form object in
    several slots is one object there too.
    """
    if len(forms) != T.rank:
        raise ValueError("number of forms must equal the tensor rank")
    return int_contract(int_entries(T), [f.components for f in forms]).into_scalar_form()
