"""Parser and expander for Lagrangians written in the curvature basis.

Golden expressions are written in a small text grammar:

    term  +- term ...
    term  := coefficient-atoms factor-list
    atoms := rational ('3', '3/10'), ell powers ('l^2', 'l^-3'),
             one alpha group ('a0' or '(a0+a1)' or '(a1-a2)')
    factor:= NAME '[' indices ']' with NAME in
             {eps, R, T, e, k, h, w, Dk, Dh}
    index := letter, or '_'letter for a lowered (metric-contracted) index;
             commas and spaces between indices are ignored

Every term carries exactly one eps[...] with D distinct letters; a letter
either pairs an eps slot with one factor slot, or appears twice among factors
with exactly one lowered occurrence (summed against the diagonal metric).

Expansion instantiates all concrete indices over 0..D-1 with the metric
diag(-1, +1, ..., +1), substitutes

    R[ab]  = d w^ab + eta_cc w^ac w^cb
    T[a]   = d e^a  + eta_cc w^ac e^c
    Dk[ab] = d k^ab + eta_cc (w^ac k^cb - w^bc k^ca)
    Dh[a]  = d h^a  + eta_cc w^ac h^c

and canonicalizes, producing a ScalarForm directly comparable with
transgression output.  The covariant-derivative conventions above are the
ones induced by the rotation-generator bracket; tests pin them against the
Lie-valued engine.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .forms import (FIELDS, IntForm, Monomial, ScalarForm, _odd_bits,
                    canonical_monomial, component_symbol)
from .lie_algebra import lorentz_eta, perm_sign
from .scalars import Q2, ScalarExpr


class TargetParseError(ValueError):
    def __init__(self, message: str, pos: int, text: str):
        self.pos = pos
        snippet = text[max(0, pos - 20):pos + 20]
        super().__init__(f"{message} at position {pos}: ...{snippet!r}...")


# factor -> (field, rotated slots): D X = d X + eta_cc w^{i_p c} X^{..c..},
# summed over c and the rotated slots p.  R rotates one slot only: rotating
# both would count w^ac w^cb twice.
_COVARIANT = {"T": ("e", (0,)), "Dh": ("h", (0,)), "R": ("w", (0,)), "Dk": ("k", (0, 1))}

# factor -> index count: a field's own, for the field and its derivative
_FACTOR_ARITY = {**{name: f.arity for name, f in FIELDS.items()},
                 **{name: FIELDS[field].arity for name, (field, _) in _COVARIANT.items()}}

# one atom of a term; a sign starts the next term.  The alternatives are
# tried in order, so 'l' and 'a0' at the start of a word are never a name
_ATOM_RE = re.compile(r"""
    (?P<space>\s+)
  | (?P<sign>[+-])
  | (?P<rational>\d+(?:/0*[1-9]\d*)?)                       # 3, 3/10; never n/0
  | (?P<ell>l(?:\^-?\d+)?)                                  # l, l^2, l^-3
  | (?P<alphas>a\d+|\(\s*[+-]?\s*a\d+(?:\s*[+-]\s*a\d+)*\s*\))  # a0, (a0+a1), (a1-a2)
  | (?P<factor>(?P<name>[A-Za-z]+)(?:\s*\[(?P<indices>[\s,_A-Za-z]*)\])?)  # eps[abc], k[c _d]
  | (?P<end>\Z)
""", re.VERBOSE)
_ALPHA_RE = re.compile(r"([+-]?)\s*a(\d+)")
_INDEX_RE = re.compile(r"([\s,_]*)([A-Za-z])")  # a '_' before a letter lowers it


class _Factor(NamedTuple):
    name: str
    indices: list[tuple[bool, str]]  # (lowered, letter)
    pos: int


class _Term:
    __slots__ = ("rational", "ell", "alphas", "factors", "pos", "text")

    def __init__(self, rational: Fraction, pos: int):
        self.rational = rational  # carries the term's sign
        self.ell = 0
        self.alphas: Optional[list[tuple[int, int]]] = None  # [(sign, alpha index)], None = no alpha
        self.factors: list[_Factor] = []
        self.pos = pos
        self.text = ""  # the signed source text, each run of whitespace one space

    def coefficient(self) -> ScalarExpr:
        base = Q2(self.rational)
        if self.alphas is None:
            return ScalarExpr.const(base, self.ell)
        out = ScalarExpr.zero()
        for s, a in self.alphas:
            out.add_term((a, self.ell), base * Q2(s))
        return out


def _parse_terms(text: str) -> list[_Term]:
    """The terms of the expression, read one `_ATOM_RE` atom at a time.  A
    term's text runs from its sign ('+ ' when the first term has none) to
    its last atom.  Text with no term raises TargetParseError."""
    terms: list[_Term] = []
    term = sign = None  # the term being read; the sign that opens the next one
    pos = 0
    while True:
        m = _ATOM_RE.match(text, pos)
        if m is None:
            raise TargetParseError("unreadable input", pos, text)
        kind, at, pos = m.lastgroup, m.start(), m.end()
        if kind == "space":
            continue
        if kind in ("sign", "end"):
            if term is not None:
                term.text = prefix + " ".join(text[start:end].split())
                terms.append(term)
            elif sign is not None:
                raise TargetParseError("dangling sign" if kind == "end" else "empty term",
                                       at, text)
            if kind == "end":
                if not terms:  # no text but whitespace: not the zero form
                    raise TargetParseError("empty expression", 0, text)
                return terms
            term, sign = None, m
            continue
        if term is None:
            start, prefix = (sign.start(), "") if sign else (at, "+ ")
            term = _Term(Fraction(-1 if sign and sign[0] == "-" else 1), at)
        end = pos
        if kind == "rational":
            term.rational *= Fraction(m[kind])
        elif kind == "ell":
            term.ell += int(m[kind][2:] or 1)
        elif kind == "alphas":
            if term.alphas is not None:
                raise TargetParseError("second alpha group in one term", at, text)
            term.alphas = [(-1 if s == "-" else 1, int(a))
                           for s, a in _ALPHA_RE.findall(m[kind])]
        else:
            name, indices = m["name"], m["indices"]
            if name != "eps" and name not in _FACTOR_ARITY:
                raise TargetParseError(f"unknown factor {name!r}", at, text)
            if indices is None:
                raise TargetParseError(f"{name} needs '[index letters]'", at, text)
            term.factors.append(_Factor(name, [("_" in lo, ch) for lo, ch
                                               in _INDEX_RE.findall(indices)], at))


def _validate_term(term: _Term, dimension: int, text: str) -> tuple[list[str], list[str]]:
    """Returns (eps letters in order, dummy letters)."""
    eps = [f for f in term.factors if f.name == "eps"]
    if len(eps) != 1:
        raise TargetParseError("each term needs exactly one eps[...]", term.pos, text)
    eps_letters = [ch for (lowered, ch) in eps[0].indices]
    if len(eps_letters) != dimension or len(set(eps_letters)) != dimension:
        raise TargetParseError(f"eps needs {dimension} distinct letters", eps[0].pos, text)
    if any(lowered for (lowered, _) in eps[0].indices):
        raise TargetParseError("eps indices cannot be lowered", eps[0].pos, text)
    counts: dict[str, list[tuple[bool, str]]] = {}
    for f in term.factors:
        if f.name == "eps":
            continue
        if len(f.indices) != _FACTOR_ARITY[f.name]:
            raise TargetParseError(f"{f.name} takes {_FACTOR_ARITY[f.name]} indices",
                                   f.pos, text)
        for lowered, ch in f.indices:
            counts.setdefault(ch, []).append((lowered, f.name))
    dummies = []
    for ch, occ in counts.items():
        if ch in eps_letters:
            if len(occ) != 1 or occ[0][0]:
                raise TargetParseError(
                    f"eps letter {ch!r} must appear exactly once, upper", term.pos, text)
        else:
            lowered_count = sum(1 for lo, _ in occ if lo)
            if len(occ) != 2 or lowered_count != 1:
                raise TargetParseError(
                    f"letter {ch!r} must pair one lowered with one upper occurrence",
                    term.pos, text)
            dummies.append(ch)
    for ch in eps_letters:
        if ch not in counts:
            raise TargetParseError(f"eps letter {ch!r} unused in factors", term.pos, text)
    return eps_letters, sorted(dummies)


@lru_cache(maxsize=None)
def _integer_factor(name: str, indices: tuple[int, ...],
                    dimension: int) -> tuple[tuple[Monomial, int], ...]:
    """The factor's expansion as (monomial, integer coefficient) pairs: every
    factor of the grammar expands with alpha-free, ell^0, integer (in fact
    +-1) coefficients, which the expansion multiplies as plain ints."""
    if name in FIELDS:
        s, symbol = component_symbol(name, indices)
        return (((symbol,), s),) if s else ()
    if name not in _COVARIANT:
        raise ValueError(f"no expansion for factor {name!r}")
    field, slots = _COVARIANT[name]
    eta = lorentz_eta(dimension)
    s, symbol = component_symbol(field, indices, d=True)
    out = {(symbol,): s} if s else {}
    for c in range(dimension):
        for p in slots:
            s1, w = component_symbol("w", (indices[p], c))
            s2, rotated = component_symbol(field, indices[:p] + (c,) + indices[p + 1:])
            if s1 and s2:
                sign, mono = canonical_monomial((w, rotated))
                if sign:
                    out[mono] = out.get(mono, 0) + sign * s1 * s2 * eta[c]
    return tuple((m, n) for m, n in out.items() if n)


def _eps_fold(factors: list[tuple[str, list[str]]],
              eps_letters: list[str]) -> tuple[list[tuple[int, int]], int]:
    """Orbits of eps assignments on which a term's summand is constant.

    Every pair factor (R, Dk, k, w) is antisymmetric in its two slots, so
    swapping the values of its two eps letters flips both the eps sign and
    the factor, and the summand is unchanged.  So is swapping two identical
    eps-only factors when the eps sign of the swap, (-1)^arity, times the
    sign of commuting the two forms, (-1)^degree, is +1: R and Dk pairs and
    e and h vectors.  Returns the position pairs
    (i, j) whose values must ascend in the one assignment kept per orbit,
    and the orbit size that weighs it.  A slot holding a dummy letter is
    never folded.
    """
    pos = {ch: i for i, ch in enumerate(eps_letters)}
    order = []
    weight = 1
    blocks: dict[str, list[int]] = {}
    for name, letters in factors:
        if not all(ch in pos for ch in letters):
            continue
        if len(letters) == 2:
            order.append((pos[letters[0]], pos[letters[1]]))
            weight *= 2
        degree = 2 if name in _COVARIANT else 1
        if (len(letters) + degree) % 2 == 0:
            blocks.setdefault(name, []).append(pos[letters[0]])
    for firsts in blocks.values():
        order.extend(zip(firsts, firsts[1:]))
        weight *= math.factorial(len(firsts))
    return order, weight


@lru_cache(maxsize=None)
def _eps_assignments(order: tuple[tuple[int, int], ...],
                     dimension: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The eps value permutations that ascend on every `_eps_fold` position
    pair, each with its sign."""
    return tuple((values, perm_sign(values)) for values in itertools.permutations(range(dimension))
                 if all(values[i] < values[j] for i, j in order))


def _masked(pairs) -> list[tuple[Monomial, int, int, int]]:
    """(monomial, odd mask, par, count) pieces of (monomial, count) pairs."""
    return [(m, *_odd_bits(m), c) for m, c in pairs]


class _FactorPieces(dict):
    """One factor name's masked pieces by its index values, built on first
    read; a key is a tuple, or one int for one index."""
    __slots__ = ("name", "dimension")

    def __init__(self, name: str, dimension: int):
        self.name, self.dimension = name, dimension

    def __missing__(self, key):
        piece = self[key] = _masked(_integer_factor(
            self.name, key if type(key) is tuple else (key,), self.dimension))
        return piece


class _GroupPieces(dict):
    """A factor group's masked pieces by its outer (eps) values, built on
    first read: the ordered product of its factors, summed over its dummy
    values with their metric weights.  A key is as in `_FactorPieces`."""
    __slots__ = ("readers", "dweights")

    def __init__(self, readers, dweights: list[tuple[tuple[int, ...], int]]):
        self.readers, self.dweights = readers, dweights

    def __missing__(self, key):
        outer = key if type(key) is tuple else (key,)
        piece = self[key] = _masked(_sum_products(
            self.readers, ((outer + dvals, weight) for dvals, weight in self.dweights)).items())
        return piece


def _multiply(readers, values):
    """The ordered product of the readers' pieces at `values`, as
    (symbols, odd mask, par, count) with the symbols unsorted; empty when
    it vanishes.  A reader is (getter of its key from values, its pieces by
    key).  A product is the concatenation, zero when two odd masks meet,
    with the sign of the masks (as in `int_wedge`); par is read on a
    reader's pieces only, so a partial product carries 0."""
    products = None
    for get, table in readers:
        piece = table[get(values)]
        if products is None:
            products = piece
        else:
            products = [(s + m, mask | mk, 0,
                         -n * c if (mask & par).bit_count() & 1 else n * c)
                        for s, mask, _, n in products
                        for m, mk, par, c in piece if not mask & mk]
        if not products:
            return ()
    return products


def _sum_products(readers, weighted) -> dict[Monomial, int]:
    """The sum of weight times the readers' product at values, over the
    (values, weight) pairs, as canonical monomial -> nonzero count."""
    totals: dict[Monomial, int] = {}
    for values, weight in weighted:
        for s, _, _, n in _multiply(readers, values):
            mono = tuple(sorted(s))
            totals[mono] = totals.get(mono, 0) + n * weight
    return {m: n for m, n in totals.items() if n}


def _dummy_groups(factors: list[tuple[str, list[str]]], dummies: list[str]) -> list[list[int]]:
    """The factor positions joined by shared dummy letters, each group in
    factor order: first the factors with no dummy letter, one group each,
    then the dummy groups in the order of their first factors."""
    first = list(range(len(factors)))  # a factor's group, named by its first factor
    for ch in dummies:
        joined = {first[k] for k, (_, letters) in enumerate(factors) if ch in letters}
        first = [min(joined) if g in joined else g for g in first]
    groups: dict[int, list[int]] = {}
    for k, g in enumerate(first):
        groups.setdefault(g, []).append(k)
    return sorted(groups.values(), key=lambda members: any(
        ch in dummies for k in members for ch in factors[k][1]))


def expand_terms(text: str, dimension: int) -> list[tuple[ScalarExpr, dict[Monomial, int]]]:
    """Parse and expand a curvature-basis expression term by term, to concrete
    monomials over 0..dimension-1 Lorentz indices.

    Within one term every summand is an integer multiple of the term's
    coefficient, so each term comes back as its coefficient and its
    monomial -> nonzero int counts: the sum over the eps permutations (one
    per `_eps_fold` orbit, weighed by the orbit size) of the products of
    the factors' pieces.  Factors that share a dummy letter are one group,
    taken next to each other at one sign (the odd factors' permutation):
    a group's product is summed over its dummy values once per tuple of its
    eps values, before the eps sum multiplies the group pieces.  A factor
    with no dummy letter is a group of its own.  Pieces are read once per
    call with the `_odd_bits` masks of their monomials (see `_multiply`).
    Each term's eps carries exactly `dimension` letters, which ties the
    text to the dimension.
    """
    eta = lorentz_eta(dimension)
    tables: dict[str, _FactorPieces] = {}  # by factor name, shared by every term
    out = []
    for term in _parse_terms(text):
        eps_letters, dummies = _validate_term(term, dimension, text)
        factors = [(f.name, [ch for (_, ch) in f.indices])
                   for f in term.factors if f.name != "eps"]
        order, fold = _eps_fold(factors, eps_letters)
        for name, _ in factors:
            if name not in tables:
                tables[name] = _FactorPieces(name, dimension)
        # a reader per factor with no dummy letter, then one per dummy group
        eps_slot = {ch: i for i, ch in enumerate(eps_letters)}
        readers = [(operator.itemgetter(*(eps_slot[ch] for ch in letters)), tables[name])
                   for name, letters in factors if eps_slot.keys() >= set(letters)]
        if dummies:
            groups = _dummy_groups(factors, dummies)
            for members in groups[len(readers):]:
                letters = [ch for k in members for ch in factors[k][1]]
                outer = [ch for ch in letters if ch in eps_slot]
                inner = sorted(set(letters).difference(outer))
                slot = {ch: i for i, ch in enumerate(outer + inner)}
                dweights = [(dvals, math.prod(eta[v] for v in dvals)) for dvals
                            in itertools.product(range(dimension), repeat=len(inner))]
                group = _GroupPieces([(operator.itemgetter(*(slot[ch] for ch in factors[k][1])),
                                       tables[factors[k][0]]) for k in members], dweights)
                readers.append((operator.itemgetter(*(eps_slot[ch] for ch in outer)) if outer
                                else lambda values: (), group))
            # the sign of moving the odd (one-form) factors into reader order
            fold *= perm_sign([k for members in groups for k in members
                               if factors[k][0] not in _COVARIANT])
        out.append((term.coefficient(), _sum_products(readers, (
            (values, fold * sign) for values, sign in _eps_assignments(tuple(order), dimension)))))
    return out


def sum_terms(terms: list[tuple[ScalarExpr, dict[Monomial, int]]]) -> IntForm:
    """The sum of `expand_terms` families as one kernel form: each term's
    counts, times its coefficient."""
    out = IntForm()
    for coeff, counts in terms:
        out.add(IntForm({(None, 0, 0): counts}), IntForm.scalar(coeff))
    return out


def expand_target(text: str, dimension: int) -> ScalarForm:
    """The whole expression expanded to one form."""
    return sum_terms(expand_terms(text, dimension)).into_scalar_form()
