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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .forms import (IntForm, Monomial, ScalarForm, _odd_bits, canonical_monomial,
                    component_symbol)
from .lie_algebra import lorentz_eta, perm_sign
from .scalars import Q2, ScalarExpr


class TargetParseError(ValueError):
    def __init__(self, message: str, pos: int, text: str):
        self.pos = pos
        snippet = text[max(0, pos - 20):pos + 20]
        super().__init__(f"{message} at position {pos}: ...{snippet!r}...")


_FACTOR_ARITY = {"R": 2, "Dk": 2, "k": 2, "w": 2, "T": 1, "e": 1, "h": 1, "Dh": 1}

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


@dataclass
class _Factor:
    name: str
    indices: list[tuple[bool, str]]  # (lowered, letter)
    pos: int


@dataclass
class _Term:
    rational: Fraction  # carries the term's sign
    ell: int
    alphas: Optional[list[tuple[int, int]]]  # [(sign, alpha index)], None = no alpha
    factors: list[_Factor]
    pos: int
    text: str = ""  # the signed source text, each run of whitespace one space

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
    its last atom."""
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
                return terms
            term, sign = None, m
            continue
        if term is None:
            start, prefix = (sign.start(), "") if sign else (at, "+ ")
            term = _Term(Fraction(-1 if sign and sign[0] == "-" else 1), 0, None, [], at)
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


# factor -> (field, rotated slots): D X = d X + eta_cc w^{i_p c} X^{..c..},
# summed over c and the rotated slots p.  R rotates one slot only: rotating
# both would count w^ac w^cb twice.
_COVARIANT = {"T": ("e", (0,)), "Dh": ("h", (0,)), "R": ("w", (0,)), "Dk": ("k", (0, 1))}


@lru_cache(maxsize=None)
def _integer_factor(name: str, indices: tuple[int, ...],
                    dimension: int) -> tuple[tuple[Monomial, int], ...]:
    """The factor's expansion as (monomial, integer coefficient) pairs: every
    factor of the grammar expands with alpha-free, ell^0, integer (in fact
    +-1) coefficients, which the expansion multiplies as plain ints."""
    if name in ("e", "h", "k", "w"):
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


def expand_terms(text: str, dimension: int) -> list[tuple[ScalarExpr, dict[Monomial, int]]]:
    """Parse and expand a curvature-basis expression term by term, to concrete
    monomials over 0..dimension-1 Lorentz indices.

    Within one term every summand is an integer multiple of the term's
    coefficient, so each term comes back as its coefficient and its
    monomial -> nonzero int counts: the sum over the eps permutations (one
    per `_eps_fold` orbit, weighed by the orbit size), the dummy values and
    the products of the factors' terms.  Each factor's pieces are read once
    per call, with the `_odd_bits` masks of their monomials, so a product is
    the sorted concatenation, zero when two odd masks meet, with the sign of
    the masks (as in `int_wedge`).  Each term's eps carries exactly
    `dimension` letters, which ties the text to the dimension.
    """
    eta = lorentz_eta(dimension)
    out = []
    for term in _parse_terms(text):
        eps_letters, dummies = _validate_term(term, dimension, text)
        factors = [(f.name, [ch for (_, ch) in f.indices])
                   for f in term.factors if f.name != "eps"]
        order, fold = _eps_fold(factors, eps_letters)
        slot = {ch: i for i, ch in enumerate(eps_letters + dummies)}
        # per factor: whether it takes an index pair, a getter of its indices
        # from values + dvals (one int for a vector factor), and the table of
        # its pieces with their `_odd_bits` masks, shared by the factors of
        # one name
        tables: dict[str, dict] = {}
        readers = [(name, len(letters) > 1, operator.itemgetter(*(slot[ch] for ch in letters)),
                    tables.setdefault(name, {})) for name, letters in factors]
        dweights = [(dvals, math.prod(eta[v] for v in dvals))
                    for dvals in itertools.product(range(dimension), repeat=len(dummies))]
        totals: dict[Monomial, int] = {}
        for values in itertools.permutations(range(dimension)):
            if any(values[i] > values[j] for i, j in order):
                continue
            eps_sign = fold * perm_sign(values)
            for dvals, weight in dweights:
                full = values + dvals
                # the partial products as (symbols, odd mask, par, count); par
                # is read on a factor's pieces only, so a partial carries 0
                products = None
                for name, pair, get, table in readers:
                    key = get(full)
                    piece = table.get(key)
                    if piece is None:
                        piece = table[key] = [
                            (m, *_odd_bits(m), c)
                            for m, c in _integer_factor(name, key if pair else (key,), dimension)]
                    if products is None:
                        products = piece
                    else:
                        products = [(s + m, mask | mk, 0,
                                     -n * c if (mask & par).bit_count() & 1 else n * c)
                                    for s, mask, _, n in products
                                    for m, mk, par, c in piece if not mask & mk]
                    if not products:
                        break
                else:
                    weight *= eps_sign
                    for s, _, _, n in products:
                        mono = tuple(sorted(s))
                        totals[mono] = totals.get(mono, 0) + n * weight
        out.append((term.coefficient(), {m: n for m, n in totals.items() if n}))
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
