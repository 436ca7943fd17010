import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

from sexpansion import targets
from sexpansion.fixtures import build_connection, make_c_algebra_rotated
from sexpansion.forms import (canonical_monomial, curvature,
                              lie_bracket_form, sym, wedge, ScalarForm)
from sexpansion.goldens import golden_names, load_golden
from sexpansion.invariant_tensor import perm_sign
from sexpansion.lie_algebra import lorentz_eta, pair_basis
from sexpansion.scalars import Q2, ScalarExpr
from sexpansion.targets import TargetParseError, expand_target, expand_terms
from test_forms import ScalarLieForm, add_form, scaled


def test_pure_epsilon_expansion():
    for d in (3, 7):
        letters = "abcdefg"[:d]
        f = expand_target(f"eps[{letters}] " + " ".join(f"e[{ch}]" for ch in letters), d)
        sign, mono = canonical_monomial(tuple(sym("e", a) for a in range(d)))
        assert f == ScalarForm({mono: ScalarExpr.const(math.factorial(d) * sign)})


def test_curvature_square_monomial_count():
    f = expand_target("eps[abcdf] R[ab] R[cd] e[f]", 5)
    dd = {m: c for m, c in f.terms.items()
          if sum(1 for s in m if s.field == "w" and s.differentiated) == 2}
    assert len(dd) == 15
    for coeff in dd.values():
        ((key, q),) = coeff.terms.items()
        assert abs(q.a) == 8 and key == (None, 0)


def test_alpha_groups_and_ell_powers():
    f = expand_target("1/2 (a0-a1) l^-3 eps[abc] e[a] e[b] e[c]", 3)
    ((mono, coeff),) = f.terms.items()
    assert coeff == (ScalarExpr.alpha(0, Q2(3), -3) - ScalarExpr.alpha(1, Q2(3), -3))


def test_parse_errors_carry_position():
    with pytest.raises(TargetParseError) as err:
        expand_target("eps[abc] Q[a] e[b] e[c]", 3)
    assert "unknown factor" in str(err.value) and "position" in str(err.value)
    with pytest.raises(TargetParseError):
        expand_target("eps[abc] e[a] e[b]", 3)  # unused eps letter
    with pytest.raises(TargetParseError):
        expand_target("eps[ab] e[a] e[b]", 3)  # wrong eps arity
    with pytest.raises(TargetParseError):
        expand_target("eps[abc] e[a] e[b] e[d]", 3)  # unmatched letter
    with pytest.raises(TargetParseError):
        expand_target("(a0+a1) (a1+a2) eps[abc] e[a] e[b] e[c]", 3)
    with pytest.raises(TargetParseError):
        expand_target("eps[abc e[a] e[b] e[c]", 3)


def _engine_component_form(d, field_pair, bracket_of):
    """Reference expansion of d(field) + [w, field] through the Lie engine."""
    L = make_c_algebra_rotated(d)
    w = build_connection(L, ("w",))
    other = build_connection(L, (bracket_of,))
    return ScalarLieForm.of(other).d() + ScalarLieForm.of(lie_bracket_form(w, other, L))


@pytest.mark.parametrize("d", [3, 5])
def test_curvature_factor_matches_engine(d):
    """R[ab] must equal twice the rotation-block curvature component (the
    connection carries 1/2 w^{ab} in the full-sum convention, i.e. one w^{ab}
    per ordered pair generator)."""
    L = make_c_algebra_rotated(d)
    F = ScalarLieForm.of(curvature(build_connection(L, ("w",)), L))
    pairs = pair_basis(d)
    for i, (a, b) in enumerate(pairs):
        assert F.components.get(i, ScalarForm.zero()) == expand_target_factor(
            "R", (a, b), d)


def expand_target_factor(name, indices, d):
    """`_integer_factor`'s (monomial, int) pairs as a ScalarForm."""
    return ScalarForm({m: ScalarExpr.const(n)
                       for m, n in targets._integer_factor(name, indices, d)})


@pytest.mark.parametrize("d", [3, 5])
def test_torsion_factor_matches_engine(d):
    L = make_c_algebra_rotated(d)
    torsion = _engine_component_form(d, None, "e")
    npairs = len(pair_basis(d))
    for a in range(d):
        comp = torsion.components.get(npairs + a, ScalarForm.zero())
        # connection components carry 1/ell
        assert comp == scaled(expand_target_factor("T", (a,), d), ScalarExpr.const(1, -1))


@pytest.mark.parametrize("d", [3, 5])
def test_covariant_derivative_conventions_match_engine(d):
    """Pins the documented D_w k and D_w h sign conventions to the bracket
    structure of the rotated algebra."""
    L = make_c_algebra_rotated(d)
    npairs = len(pair_basis(d))
    dk = _engine_component_form(d, None, "k")
    for i, (a, b) in enumerate(pair_basis(d)):
        comp = dk.components.get(npairs + d + i, ScalarForm.zero())
        assert comp == expand_target_factor("Dk", (a, b), d)
    dh = _engine_component_form(d, None, "h")
    for a in range(d):
        comp = dh.components.get(2 * npairs + d + a, ScalarForm.zero())
        assert comp == scaled(expand_target_factor("Dh", (a,), d), ScalarExpr.const(1, -1))


def test_lowered_index_contraction_uses_metric():
    # k[a _c] h[c] at d=3: sum_c eta_cc k^{ac} h^c with eta = (-1, 1, 1)
    f = expand_target("eps[abc] e[a] e[b] k[c _g] h[g]", 3)
    # the g = 0 summand enters with a relative minus sign
    s1, m1 = canonical_monomial((sym("e", 0), sym("e", 1), sym("k", 0, 2), sym("h", 0)))
    s2, m2 = canonical_monomial((sym("e", 0), sym("e", 1), sym("k", 1, 2), sym("h", 1)))
    c1 = f.terms[m1]
    c2 = f.terms[m2]
    ((_, q1),) = c1.terms.items()
    ((_, q2),) = c2.terms.items()
    assert q1.a == -q2.a


def test_deterministic_expansion():
    text = "(a1+a2) l^-2 eps[abc] R[ab] e[c]"
    assert expand_target(text, 3) == expand_target(text, 3)


def test_expansion_leaves_cached_factors_unchanged():
    keys = [("R", (0, 1)), ("T", (2,)), ("Dk", (0, 2)), ("Dh", (1,)), ("w", (1, 0))]
    cached = {k: targets._integer_factor(k[0], k[1], 3) for k in keys}
    before = {k: expand_target_factor(k[0], k[1], 3) for k in keys}
    text = ("eps[abc] R[ab] T[c] + eps[abc] Dk[ab] Dh[c] + eps[abc] w[ab] e[c]"
            " + eps[abc] R[ab] e[c]")
    first = expand_target(text, 3)
    assert expand_target(text, 3) == first
    for k, f in cached.items():
        assert targets._integer_factor(k[0], k[1], 3) is f
        assert expand_target_factor(k[0], k[1], 3) == before[k]


def wedge_chain_expand(text, dimension):
    """Reference route: one chain of ScalarForm wedges per index assignment."""
    eta = lorentz_eta(dimension)
    out = ScalarForm.zero()
    for term in targets._parse_terms(text):
        eps_letters, dummies = targets._validate_term(term, dimension, text)
        factors = [f for f in term.factors if f.name != "eps"]
        for values in itertools.permutations(range(dimension)):
            for dvals in itertools.product(range(dimension), repeat=len(dummies)):
                assign = dict(zip(eps_letters + dummies, values + dvals))
                prod = ScalarForm({(): ScalarExpr.const(1)})
                for f in factors:
                    concrete = tuple(assign[ch] for (_, ch) in f.indices)
                    prod = wedge(prod, expand_target_factor(f.name, concrete, dimension))
                weight = perm_sign(values) * math.prod(eta[v] for v in dvals)
                add_form(out, prod, term.coefficient().scaled(Q2(weight)))
    return out


def reference_expand_terms(text, dimension):
    """Reference route: the unfolded integer loop, every eps permutation."""
    eta = lorentz_eta(dimension)
    out = []
    for term in targets._parse_terms(text):
        eps_letters, dummies = targets._validate_term(term, dimension, text)
        factors = [(f.name, [ch for (_, ch) in f.indices])
                   for f in term.factors if f.name != "eps"]
        totals = {}
        for values in itertools.permutations(range(dimension)):
            for dvals in itertools.product(range(dimension), repeat=len(dummies)):
                assign = dict(zip(eps_letters + dummies, values + dvals))
                weight = perm_sign(values) * math.prod(eta[v] for v in dvals)
                pieces = [targets._integer_factor(name, tuple(assign[ch] for ch in letters),
                                                  dimension)
                          for name, letters in factors]
                for combo in itertools.product(*pieces):
                    sign, mono = canonical_monomial(sum((m for m, _ in combo), ()))
                    if sign:
                        n = sign * weight * math.prod(c for _, c in combo)
                        totals[mono] = totals.get(mono, 0) + n
        out.append((term.coefficient(), {m: n for m, n in totals.items() if n}))
    return out


def test_folded_expansion_matches_unfolded_on_every_golden_term():
    goldens = [load_golden(name) for name in golden_names()]
    terms = sorted({(g.dimension, t) for g in goldens for t in g.terms()})
    assert len([t for d, t in terms if d == 5]) == 45
    for d, text in terms:
        assert expand_terms(text, d) == reference_expand_terms(text, d), text


@pytest.mark.parametrize("text, d", [
    ("eps[abc] k[a _g] h[g] e[b] e[c]", 3),           # one eps letter, one dummy
    ("eps[abc] w[ab] e[c]", 3),
    ("eps[abc] Dk[ab] h[c]", 3),
    ("eps[abcdf] Dk[ab] Dk[cd] h[f]", 5),              # a block of two Dk pairs
    ("eps[abcdf] w[ab] k[cd] k[f _g] h[g]", 5),
    ("eps[abc] k[a _g] h[g] k[b _f] h[f] e[c]", 3),    # two dummies
    ("eps[abcdf] T[a] T[b] h[c] e[d] e[f]", 5),        # T, h and e blocks
    ("eps[abcdf] k[ab] k[cd] h[f]", 5),                # vanishes identically
    # dummy partners apart: grouping them moves a 1-form past one of them
    ("eps[abc] k[a _g] e[b] k[g c]", 3),
    ("eps[abcdf] k[a _g] T[b] e[c] k[g d] h[f]", 5),
    ("eps[abcdf] k[a _g] e[b] e[c] k[g d] h[f]", 5),   # two 1-forms between: sign +1
    # one group over three factors
    ("eps[abcdf] e[a] k[b _g] w[g _m] w[m c] h[d] h[f]", 5),
    ("eps[abcdf] w[a _g] w[g _m] k[m b] e[c] k[df]", 5),
    ("eps[abc] e[a] w[g _m] e[b] k[m _g] e[c]", 3),    # a group with no eps letter
])
def test_folded_expansion_matches_unfolded_on_edge_terms(text, d):
    assert expand_terms(text, d) == reference_expand_terms(text, d)


def test_three_factor_groups_do_not_vanish():
    for text, size in [("eps[abcdf] e[a] k[b _g] w[g _m] w[m c] h[d] h[f]", 540),
                       ("eps[abcdf] w[a _g] w[g _m] k[m b] e[c] k[df]", 360)]:
        ((_, counts),) = expand_terms(text, 5)
        assert len(counts) == size, text


def random_dummy_term(rng):
    """A d = 3 term: eps[abc] and factors whose slots hold a, b, c once each
    and one or two dummy pairs, the lowered partner at a random slot."""
    pairs = rng.choice(["g", "gm"])
    slots = 3 + 2 * len(pairs)
    arities = []
    while sum(arities) < slots:
        arities.append(rng.choice([1, 2] if slots - sum(arities) > 1 else [1]))
    letters = list("abc" + pairs) + ["_" + ch for ch in pairs]
    rng.shuffle(letters)
    factors = []
    for n in arities:
        name = rng.choice(["e", "h", "T", "Dh"] if n == 1 else ["k", "w", "R", "Dk"])
        factors.append(f"{name}[{' '.join(letters[:n])}]")
        letters = letters[n:]
    return "eps[abc] " + " ".join(factors)


def test_grouped_expansion_matches_unfolded_on_random_dummy_terms():
    rng = random.Random(20160501)
    texts = [random_dummy_term(rng) for _ in range(40)]
    assert sum(1 for text in texts if expand_terms(text, 3)[0][1]) >= 10
    for text in texts:
        assert expand_terms(text, 3) == reference_expand_terms(text, 3), text


def test_every_golden_parses_to_one_term_per_line():
    for name in golden_names():
        g = load_golden(name)
        whole = expand_terms(g.text, g.dimension)
        assert len(whole) == len(g.terms()), name
        for line, term in zip(g.terms(), whole):
            assert expand_terms(line, g.dimension) == [term], (name, line)


def test_expansion_matches_wedge_chain_on_goldens():
    goldens = [load_golden(name) for name in golden_names()]
    for g in goldens:
        if g.dimension == 3:
            assert expand_target(g.text, 3) == wedge_chain_expand(g.text, 3), g.name
    terms5 = sorted({t for g in goldens if g.dimension == 5 for t in g.terms()})
    for text in random.Random(4).sample(terms5, 8):
        assert expand_target(text, 5) == wedge_chain_expand(text, 5), text


def reference_terms_form(terms):
    """Reference: the sum of `expand_terms` families assembled in `ScalarExpr`,
    each monomial's coefficient summed once from its terms' counts."""
    sums = {}
    for coeff, counts in terms:
        multiples = {}  # a term's counts repeat a few values
        for mono, n in counts.items():
            parts = multiples.get(n)
            if parts is None:
                parts = multiples[n] = [(key, q * n) for key, q in coeff.terms.items()]
            acc = sums.setdefault(mono, {})
            for key, q in parts:
                acc[key] = acc[key] + q if key in acc else q
    return ScalarForm({mono: ScalarExpr(acc) for mono, acc in sums.items()})


@pytest.mark.parametrize("name", golden_names())
def test_expand_target_equals_the_reference_sum_on_every_golden(name):
    g = load_golden(name)
    assert expand_target(g.text, g.dimension) == reference_terms_form(
        expand_terms(g.text, g.dimension))


# -- the token reader that `targets._parse_terms` replaced, kept as reference --

_REFERENCE_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<ell>l(?:\^(?P<ellexp>-?\d+))?)
  | (?P<alpha>a\d+)
  | (?P<name>[A-Za-z]+)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<lbrack>\[)
  | (?P<rbrack>\])
  | (?P<plus>\+)
  | (?P<minus>-)
  | (?P<comma>,)
  | (?P<under>_)
""", re.VERBOSE)


@dataclass
class ReferenceToken:
    kind: str
    value: str
    pos: int


def reference_tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if not m:
            raise TargetParseError("unrecognized character", pos, text)
        kind = m.lastgroup
        if kind != "ws":
            out.append(ReferenceToken(kind, m.group(), pos))
        pos = m.end()
    return out


@dataclass
class ReferenceTerm:
    sign: int
    rational: Fraction
    ell: int
    alphas: Optional[list]
    factors: list
    pos: int

    def coefficient(self):
        base = Q2(self.rational * self.sign)
        if self.alphas is None:
            return ScalarExpr.const(base, self.ell)
        out = ScalarExpr.zero()
        for s, a in self.alphas:
            out.add_term((a, self.ell), base * Q2(s))
        return out


def reference_parse_terms(text):
    """Reference: the token list walked index by index."""
    tokens = reference_tokenize(text)
    terms = []
    i = 0
    n = len(tokens)
    sign = 1
    if i < n and tokens[i].kind in ("plus", "minus"):
        sign = -1 if tokens[i].kind == "minus" else 1
        i += 1
    while i < n:
        term = ReferenceTerm(sign, Fraction(1), 0, None, [], tokens[i].pos)
        got_anything = False
        while i < n and tokens[i].kind not in ("plus", "minus"):
            tok = tokens[i]
            if tok.kind == "number":
                term.rational *= Fraction(tok.value)
                i += 1
            elif tok.kind == "ell":
                exp = tok.value.split("^")
                term.ell += int(exp[1]) if len(exp) == 2 else 1
                i += 1
            elif tok.kind == "alpha":
                if term.alphas is not None:
                    raise TargetParseError("second alpha group in one term", tok.pos, text)
                term.alphas = [(1, int(tok.value[1:]))]
                i += 1
            elif tok.kind == "lparen":
                if term.alphas is not None:
                    raise TargetParseError("second alpha group in one term", tok.pos, text)
                i += 1
                group = []
                gsign = 1
                while i < n and tokens[i].kind != "rparen":
                    t = tokens[i]
                    if t.kind == "plus":
                        gsign = 1
                    elif t.kind == "minus":
                        gsign = -1
                    elif t.kind == "alpha":
                        group.append((gsign, int(t.value[1:])))
                    else:
                        raise TargetParseError("only alpha symbols allowed in groups",
                                               t.pos, text)
                    i += 1
                if i == n:
                    raise TargetParseError("unclosed alpha group", tok.pos, text)
                i += 1  # skip rparen
                if not group:
                    raise TargetParseError("empty alpha group", tok.pos, text)
                term.alphas = group
            elif tok.kind == "name":
                name = tok.value
                if name != "eps" and name not in targets._FACTOR_ARITY:
                    raise TargetParseError(f"unknown factor {name!r}", tok.pos, text)
                i += 1
                if i == n or tokens[i].kind != "lbrack":
                    raise TargetParseError(f"{name} needs '[indices]'", tok.pos, text)
                i += 1
                idx = []
                lowered = False
                while i < n and tokens[i].kind != "rbrack":
                    t = tokens[i]
                    if t.kind == "under":
                        lowered = True
                    elif t.kind == "comma":
                        pass
                    elif t.kind in ("name", "ell", "alpha"):
                        for ch in t.value:
                            if not ch.isalpha():
                                raise TargetParseError("indices must be letters", t.pos, text)
                            idx.append((lowered, ch))
                            lowered = False
                    else:
                        raise TargetParseError("bad index token", t.pos, text)
                    i += 1
                if i == n:
                    raise TargetParseError("unclosed index bracket", tok.pos, text)
                i += 1  # skip rbrack
                term.factors.append(targets._Factor(name, idx, tok.pos))
            else:
                raise TargetParseError(f"unexpected token {tok.value!r}", tok.pos, text)
            got_anything = True
        if not got_anything:
            raise TargetParseError("empty term", tokens[i - 1].pos if i else 0, text)
        terms.append(term)
        if i < n:
            sign = -1 if tokens[i].kind == "minus" else 1
            i += 1
            if i == n:
                raise TargetParseError("dangling sign", tokens[i - 1].pos, text)
    return terms


def assert_same_terms(text):
    new, ref = targets._parse_terms(text), reference_parse_terms(text)
    assert [(t.coefficient(), t.factors, t.pos) for t in new] == \
        [(t.coefficient(), t.factors, t.pos) for t in ref], text


def test_the_reader_equals_the_reference_on_every_golden_and_term():
    for name in golden_names():
        g = load_golden(name)
        assert_same_terms(g.text)
        for term in g.terms():
            assert_same_terms(term)


def random_term(rng, dimension):
    """A well-formed term in random layout: rationals, an ell power and an
    alpha group in any order, then eps on `dimension` letters, each paired
    with one factor slot, and at times a dummy x contracted as k[. x] h[x]."""
    def space():
        return rng.choice(["", " ", "  ", "\n", "\t "])

    def bracket(indices):
        sep = rng.choice(["", " ", ",", ", ", " , "])
        return "[" + space() + sep.join(("_" + space() if lowered else "") + ch
                                        for lowered, ch in indices) + space() + "]"

    atoms = [rng.choice(["3", "1/2", "3/10", "2/3", "12"]) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.5:
        atoms.append(rng.choice(["l", "l^2", "l^-3", "l^0"]))
    if rng.random() < 0.3:
        atoms.append(f"a{rng.randint(0, 12)}")
    elif rng.random() < 0.6:
        alphas = [f"a{rng.randint(0, 3)}" for _ in range(rng.randint(1, 3))]
        group = rng.choice(["", "-", "+"]) + space() + alphas[0] + "".join(
            space() + rng.choice("+-") + space() + a for a in alphas[1:])
        atoms.append("(" + space() + group + space() + ")")
    rng.shuffle(atoms)
    letters = list("abcdfgm"[:dimension])
    free = rng.sample(letters, dimension)
    factors = []
    if rng.random() < 0.4:
        low = rng.random() < 0.5  # which of the two x is lowered
        factors += [("k", [(False, free.pop()), (low, "x")]), ("h", [(not low, "x")])]
    while free:
        if len(free) >= 2 and rng.random() < 0.5:
            factors.append((rng.choice(["R", "Dk", "k", "w"]),
                            [(False, free.pop()), (False, free.pop())]))
        else:
            factors.append((rng.choice(["T", "e", "h", "Dh"]), [(False, free.pop())]))
    rng.shuffle(factors)
    words = atoms + ["eps" + rng.choice(["", " "]) + bracket([(False, ch) for ch in letters])]
    words += [name + bracket(indices) for name, indices in factors]
    return "".join(w + rng.choice([" ", "  ", "\n", " \t"]) for w in words).strip()


def test_the_reader_equals_the_reference_on_seeded_terms():
    rng = random.Random(29)
    for _ in range(300):
        d = rng.choice([3, 5])
        terms = [random_term(rng, d) for _ in range(rng.randint(1, 3))]
        text = rng.choice(["", "- ", "+", "-\n"]) + "".join(
            t + rng.choice([" + ", "\n- ", "+", "-", " -\n"]) for t in terms[:-1]) + terms[-1]
        assert_same_terms(text)
        for term in targets._parse_terms(text):
            targets._validate_term(term, d, text)


@pytest.mark.parametrize("text", [
    "eps[abc] e[a] e[b] e[c] +",             # dangling sign
    "+ - eps[abc] e[a] e[b] e[c]",           # empty term
    "eps[abc] e[a] e[b] e[c] + + eps[abc] e[a] e[b] e[c]",
    "a0 (a1+a2) eps[abc] e[a] e[b] e[c]",    # second alpha group
    "(a0+a1) a2 eps[abc] e[a] e[b] e[c]",
    "(a0+3) eps[abc] e[a] e[b] e[c]",        # a non-alpha in a group
    "(a0 eps[abc] e[a] e[b] e[c])",
    "eps[abc] e[a] e[b] e[c] (a0+a1",        # unclosed group
    "() eps[abc] e[a] e[b] e[c]",            # empty group
    "(+) eps[abc] e[a] e[b] e[c]",
    "eps[abc] Q[a] e[b] e[c]",               # unknown factor
    "eps[abc] e[a] e[b] ea[c]",
    "eps[abc] e[a] e[b] e",                  # missing [...]
    "eps[abc] e[a] e e[b] e[c]",
    "eps[abc] e[a0] e[b] e[c]",              # non-letter index
    "eps[abc] e[a] e[l^2] e[c]",
    "eps[abc] e[a+b] e[c]",
    "eps[abc] e[1] e[b] e[c]",
    "eps[abc] e[a] e[b] e[c",                # unclosed bracket
    "eps[abc e[a] e[b] e[c]",
    "eps[abc] e[a] ] e[b] e[c]",             # unexpected token
    "eps[abc] e[a], e[b] e[c]",
    "eps[abc] _ e[a] e[b] e[c]",
    "eps[abc] e[a] e[b] e[c] $",             # unrecognized character
    "eps[abc] e[a] e[b] e[c] ^2",
    "3/ eps[abc] e[a] e[b] e[c]",
])
def test_both_readers_reject_malformed_text(text):
    with pytest.raises(TargetParseError):
        reference_parse_terms(text)
    with pytest.raises(TargetParseError):
        targets._parse_terms(text)


@pytest.mark.parametrize("text", ["", " \n ", "\t"])
def test_text_with_no_term_is_a_parse_error(text):
    """Not the zero form: an empty golden would compare as zero, with no
    family to report."""
    with pytest.raises(TargetParseError, match="^empty expression at position 0"):
        targets._parse_terms(text)
    with pytest.raises(TargetParseError, match="at position 0"):
        expand_target(text, 5)


def test_factor_arity_is_the_literal_it_replaced():
    """`_FACTOR_ARITY` comes from `forms.FIELDS` and `_COVARIANT`;
    `reference_parse_terms` reads it."""
    assert targets._FACTOR_ARITY == {"R": 2, "Dk": 2, "k": 2, "w": 2,
                                     "T": 1, "e": 1, "h": 1, "Dh": 1}


def test_a_zero_denominator_is_a_parse_error():
    text = "1/0 eps[abc] e[a] e[b] e[c]"
    with pytest.raises(ZeroDivisionError):
        reference_parse_terms(text)
    with pytest.raises(TargetParseError):
        targets._parse_terms(text)

