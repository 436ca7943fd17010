import itertools
import math
import random

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
    return other.d() + lie_bracket_form(w, other, L)


@pytest.mark.parametrize("d", [3, 5])
def test_curvature_factor_matches_engine(d):
    """R[ab] must equal twice the rotation-block curvature component (the
    connection carries 1/2 w^{ab} in the full-sum convention, i.e. one w^{ab}
    per ordered pair generator)."""
    L = make_c_algebra_rotated(d)
    F = curvature(build_connection(L, ("w",)), L)
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
        assert comp == expand_target_factor("T", (a,), d).scaled(
            ScalarExpr.const(1, -1))


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
        assert comp == expand_target_factor("Dh", (a,), d).scaled(
            ScalarExpr.const(1, -1))


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
                out.add_form(prod, term.coefficient().scaled(Q2(weight)))
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
])
def test_folded_expansion_matches_unfolded_on_edge_terms(text, d):
    assert expand_terms(text, d) == reference_expand_terms(text, d)


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
