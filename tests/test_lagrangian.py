import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from sexpansion.fixtures import (b5_tensor, build_connection, c_tensor_rotated,
                                 connection_chain, make_b5,
                                 make_c_algebra_rotated)
from sexpansion.forms import (FormSymbol, LieValuedForm, ScalarForm,
                              canonical_monomial, contract, exterior_d,
                              monomial_name, scalar_form_to_json_dict, sym)
from sexpansion.goldens import load_golden
from sexpansion.invariant_tensor import InvariantTensor
from sexpansion.lagrangian import (ComparisonReport, TermDiff, chern_simons,
                                   compare_forms, dual_mc_check,
                                   homotopy_curvature, is_d_exact,
                                   subspace_separation, transgression)
from sexpansion.lie_algebra import Label, LieAlgebra, make_named
from sexpansion.scalars import Q2, ScalarExpr
from test_forms import (reference_contract, reference_lie_bracket_form,
                        reference_lie_d, reference_lie_scaled,
                        reference_lie_sub, reference_recanonicalized)


def shift_compatible(t: InvariantTensor) -> InvariantTensor:
    """Substitute alpha_2 -> -alpha_0, alpha_3 -> -alpha_1 (the subfamily on
    which the lifted tensor is genuinely ad-invariant)."""
    out = InvariantTensor(t.rank)
    for key, v in t.entries.items():
        s = ScalarExpr.zero()
        for (a, e), q in v.terms.items():
            if a == 2:
                s = s + ScalarExpr.alpha(0, -q, e)
            elif a == 3:
                s = s + ScalarExpr.alpha(1, -q, e)
            else:
                s = s + ScalarExpr({(a, e): q})
        out.set_entry(key, s)
    return out


def test_abelian_oracle():
    """One abelian generator, rank-2 pairing <T,T> = 1: the homotopy integral
    reduces to 2 int t dt <A dA> = <A dA>, hand-computable."""
    L = LieAlgebra("u1", [Label("T", (0,))], {})
    pairing = InvariantTensor(2, {(0, 0): ScalarExpr.const(1)})
    A = LieValuedForm({0: ScalarForm({(sym("e", 0),): ScalarExpr.const(1)})})
    q = transgression(A, LieValuedForm.zero(), pairing, 1, L)
    sign, mono = canonical_monomial((sym("e", 0), sym("e", 0, d=True)))
    assert q == ScalarForm({mono: ScalarExpr.const(sign)})


def test_transgression_of_equal_endpoints_vanishes():
    c5r = make_c_algebra_rotated(5)
    A = build_connection(c5r)
    assert transgression(A, A, c_tensor_rotated(5), 2, c5r).is_zero()


def test_pure_rotation_transgression_vanishes():
    c5r = make_c_algebra_rotated(5)
    w = build_connection(c5r, ("w",))
    assert transgression(w, LieValuedForm.zero(), c_tensor_rotated(5), 2, c5r).is_zero()


def test_rank_guard():
    c5r = make_c_algebra_rotated(5)
    A = build_connection(c5r)
    with pytest.raises(ValueError):
        transgression(A, LieValuedForm.zero(), c_tensor_rotated(5), 1, c5r)


def test_dimension_must_match_tensor_rank():
    c3r = make_c_algebra_rotated(3)
    tensor = c_tensor_rotated(3)
    for dimension in (5, 7):
        message = rf"dimension {dimension} is not 2 \* rank - 1 for a rank-2 tensor"
        with pytest.raises(ValueError, match=message):
            chern_simons(build_connection(c3r), tensor, dimension, c3r)
        with pytest.raises(ValueError, match=message):
            subspace_separation(connection_chain(c3r), tensor, dimension, c3r)


def test_middle_transgression_matches_golden_exactly():
    c5r = make_c_algebra_rotated(5)
    chain = connection_chain(c5r)
    q = transgression(chain[1], chain[2], c_tensor_rotated(5), 2, c5r)
    rep = compare_forms(q, load_golden("c5_middle_transgression").form())
    assert rep.matched, rep.diffs[:3]
    assert reference_recanonicalized(q) == q


def test_degenerate_chain_equals_direct_form():
    c3r = make_c_algebra_rotated(3)
    T = c_tensor_rotated(3)
    A = build_connection(c3r)
    chain = [A, A, A, LieValuedForm.zero()]
    assert subspace_separation(chain, T, 3, c3r) == chern_simons(A, T, 3, c3r)


def test_zero_connection_gives_zero():
    c3r = make_c_algebra_rotated(3)
    assert chern_simons(LieValuedForm.zero(), c_tensor_rotated(3), 3, c3r).is_zero()


@pytest.mark.parametrize("d", [3, 5])
def test_separation_drops_an_exact_form(d):
    """With an ad-invariant tensor (the alpha_{a+2} = -alpha_a family) the
    direct and separated forms differ by d(something); with the
    non-invariant general-alpha tensor they do not."""
    cr = make_c_algebra_rotated(d)
    chain = connection_chain(cr)
    T = shift_compatible(c_tensor_rotated(d))
    diff = chern_simons(chain[0], T, d, cr) - subspace_separation(chain, T, d, cr)
    assert not diff.is_zero()
    assert is_d_exact(diff)
    Tg = c_tensor_rotated(d)
    diff_general = chern_simons(chain[0], Tg, d, cr) \
        - subspace_separation(chain, Tg, d, cr)
    assert not is_d_exact(diff_general)


def test_d_exactness_detector_oracles():
    # d of something is exact; a bare top-form monomial with no derivative
    # symbols can never be d of anything
    w01, e2 = sym("w", 0, 1), sym("e", 2)
    sign, mono = canonical_monomial((w01, e2))
    candidate = exteriorable = ScalarForm({mono: ScalarExpr.const(sign)})
    assert is_d_exact(exterior_d(candidate))
    sign3, mono3 = canonical_monomial((sym("e", 0), sym("e", 1), sym("e", 2)))
    assert not is_d_exact(ScalarForm({mono3: ScalarExpr.const(sign3)}))
    # a constant is closed but not exact; zero is exact
    assert not is_d_exact(ScalarForm({(): ScalarExpr.const(1)}))
    assert is_d_exact(ScalarForm())


def test_exactness_needs_no_primitive_basis():
    """d of six 5-monomials on 30 distinct odd symbols: the candidate
    primitives on those symbols and their d-images are 278,256 monomials,
    and the d-check lists none."""
    odd = ([sym("e", i) for i in range(10)] + [sym("h", i) for i in range(10)]
           + [sym("w", 0, j) for j in range(1, 10)] + [sym("w", 1, 2)])
    g = ScalarForm()
    for i in range(6):
        sign, mono = canonical_monomial(odd[5 * i:5 * i + 5])
        g.add_term(mono, ScalarExpr.const(sign * (i + 1)))
    f = exterior_d(g)
    assert len(f.terms) == 30
    assert is_d_exact(f)
    sign, mono = canonical_monomial(odd[:6])
    f.add_term(mono, ScalarExpr.const(sign))
    assert not is_d_exact(f)


def dense_solvable(matrix, ncols):
    """Reference: dense Gaussian elimination; True when the last column is
    consistent."""
    nrows = len(matrix)
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if matrix[r][col]), None)
        if piv is None:
            continue
        matrix[row], matrix[piv] = matrix[piv], matrix[row]
        scale = matrix[row][col].inverse()
        matrix[row] = [x * scale for x in matrix[row]]
        for r in range(nrows):
            if r != row and matrix[r][col]:
                fct = matrix[r][col]
                matrix[r] = [x - fct * y for x, y in zip(matrix[r], matrix[row])]
        row += 1
        if row == nrows:
            break
    for r in range(row, nrows):
        if any(matrix[r][:ncols]):
            continue
        if matrix[r][ncols]:
            return False
    for r in range(nrows):
        if matrix[r][ncols] and not any(matrix[r][:ncols]):
            return False
    return True


def _symbol_universe(f):
    """Every symbol of f, and the odd partner or d-image of each."""
    syms = set()
    for m in f.terms:
        for s in m:
            syms.add(FormSymbol(s.field, s.indices, False))
            syms.add(FormSymbol(s.field, s.indices, True))
    return sorted(syms)


def candidate_primitives(degree, universe):
    """Every canonical monomial of the given degree over the universe."""
    odds = [s for s in universe if s.degree == 1]
    evens = [s for s in universe if s.degree == 2]
    out = set()
    for n_even in range(degree // 2 + 1):
        n_odd = degree - 2 * n_even
        if n_odd < 0 or n_odd > len(odds):
            continue
        for om in itertools.combinations(odds, n_odd):
            for em in itertools.combinations_with_replacement(evens, n_even):
                sign, mono = canonical_monomial(om + em)
                if sign:
                    out.add(mono)
    return sorted(out)


def dense_is_d_exact(f):
    """Reference: f = d g solved for g over the span of every monomial of
    one degree lower on f's symbols, one dense matrix per alpha/ell
    component."""
    if f.is_zero():
        return True
    deg, = f.degrees()
    images = [img for img in (exterior_d(ScalarForm({m: ScalarExpr.const(1)}))
                              for m in candidate_primitives(deg - 1, _symbol_universe(f)))
              if not img.is_zero()]
    components = {}
    for mono, coeff in f.terms.items():
        for key, q in coeff.terms.items():
            components.setdefault(key, {})[mono] = q
    for target in components.values():
        rows = {}
        for img in images:
            for mono in img.terms:
                rows.setdefault(mono, len(rows))
        for mono in target:
            rows.setdefault(mono, len(rows))
        ncols = len(images)
        matrix = [[Q2(0)] * (ncols + 1) for _ in rows]
        for j, img in enumerate(images):
            for mono, coeff in img.terms.items():
                matrix[rows[mono]][j] = coeff.terms[(None, 0)]
        for mono, q in target.items():
            matrix[rows[mono]][ncols] = q
        if not dense_solvable(matrix, ncols):
            return False
    return True


ODD = [sym("w", 0, 1), sym("w", 1, 2), sym("e", 0), sym("e", 2), sym("k", 0, 2), sym("h", 1)]


def random_coefficient(rng):
    out = ScalarExpr()
    for _ in range(rng.randint(1, 2)):
        out.add_term((rng.choice([None, 0, 1]), rng.randint(-1, 1)),
                     Q2(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                        rng.choice([0, 0, Fraction(1, 2)])))
    return out


def random_monomial(rng, degree):
    while True:
        n_even = rng.randint(0, degree // 2)
        seq = rng.sample(ODD, degree - 2 * n_even) + [rng.choice(ODD).d()
                                                      for _ in range(n_even)]
        sign, mono = canonical_monomial(seq)
        if sign:
            return sign, mono


def random_form(rng, degree):
    """d of a random (degree - 1)-form most of the time, then up to two
    random degree-form terms, which may push it out of the exact span."""
    f = ScalarForm()
    if rng.random() < 0.7:
        primitive = ScalarForm()
        for _ in range(rng.randint(1, 4)):
            sign, mono = random_monomial(rng, degree - 1)
            primitive.add_term(mono, random_coefficient(rng).scaled(sign))
        f.add_form(exterior_d(primitive))
    for _ in range(rng.choice([0, 0, 1, 2])):
        sign, mono = random_monomial(rng, degree)
        f.add_term(mono, random_coefficient(rng).scaled(sign))
    return f


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_sparse_exactness_matches_dense(degree):
    """is_d_exact, decided by d, against the dense solve for a primitive,
    on seeded exact and non-exact forms.  A nonzero 1-form is never exact:
    its primitive would be a constant."""
    verdicts = []
    for seed in range(40):
        f = random_form(random.Random(seed), degree)
        verdict = is_d_exact(f)
        assert verdict == dense_is_d_exact(f), seed
        if not f.is_zero():
            verdicts.append(verdict)
    assert verdicts.count(False) >= 5
    assert verdicts.count(True) >= (5 if degree > 1 else 0)


def test_compare_forms_reports_diffs():
    sign, mono = canonical_monomial((sym("e", 0), sym("e", 1), sym("e", 2)))
    f = ScalarForm({mono: ScalarExpr.const(2)})
    g = ScalarForm({mono: ScalarExpr.const(3)})
    rep = compare_forms(f, g)
    assert not rep.matched and len(rep.diffs) == 1
    rep_scaled = compare_forms(f, g, up_to_scale=True)
    assert rep_scaled.matched and rep_scaled.scale[0] == Q2(Fraction(3, 2))


def test_compare_up_to_scale_requires_consistency():
    s1, m1 = canonical_monomial((sym("e", 0), sym("e", 1)))
    s2, m2 = canonical_monomial((sym("e", 0), sym("e", 2)))
    f = ScalarForm({m1: ScalarExpr.const(1), m2: ScalarExpr.const(1)})
    g = ScalarForm({m1: ScalarExpr.const(2), m2: ScalarExpr.const(5)})
    rep = compare_forms(f, g, up_to_scale=True)
    assert not rep.matched and rep.diffs


_E_MONOS = [(sym("e", a),) for a in range(5)]


def test_compare_up_to_scale_solves_an_alpha_anchor_shifted_in_ell():
    base = ScalarExpr.alpha(0) + ScalarExpr.alpha(1)
    f = ScalarForm({_E_MONOS[0]: base, _E_MONOS[1]: base.scaled(2, -1)})
    g = ScalarForm({m: c.scaled(Q2(Fraction(-3, 2)), 3) for m, c in f.terms.items()})
    rep = compare_forms(f, g, up_to_scale=True)
    assert rep.matched and not rep.diffs
    assert rep.scale == (Q2(Fraction(-3, 2)), 3)


@pytest.mark.parametrize("computed, expected", [
    (ScalarExpr.alpha(0), ScalarExpr.alpha(1)),
    (ScalarExpr.const(1) + ScalarExpr.alpha(0), ScalarExpr.const(2) + ScalarExpr.alpha(0, 3)),
])
def test_compare_up_to_scale_rejects_an_alpha_dependent_anchor_ratio(computed, expected):
    f = ScalarForm({_E_MONOS[0]: computed, _E_MONOS[1]: ScalarExpr.const(1)})
    g = ScalarForm({_E_MONOS[0]: expected, _E_MONOS[1]: ScalarExpr.const(1)})
    rep = compare_forms(f, g, up_to_scale=True)
    assert not rep.matched and rep.scale is None
    assert rep.note == "no admissible scalar on the anchor term"
    assert rep.diffs == [TermDiff(monomial_name(_E_MONOS[0]), str(computed), str(expected))]


def _random_coefficient(rng):
    """A nonzero scalar with sqrt2, alpha and ell terms."""
    out = ScalarExpr()
    while not out:
        for _ in range(rng.randint(1, 3)):
            q = Q2(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                   rng.choice([0, Fraction(rng.randint(-3, 3), rng.randint(1, 3))]))
            out.add_term((rng.choice([None, 0, 1, 2]), rng.randint(-3, 3)), q)
    return out


@pytest.mark.parametrize("seed", range(10))
def test_compare_up_to_scale_recovers_a_random_scale(seed):
    """f against f * c * ell^k matches at exactly (c, k); changing one
    monomial other than the anchor gives exactly that one diff."""
    rng = random.Random(3100 + seed)
    monos = rng.sample(_E_MONOS, rng.randint(2, 5))
    f = ScalarForm({m: _random_coefficient(rng) for m in monos})
    c = Q2(Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5)),
           rng.choice([0, Fraction(rng.randint(-2, 2), 3)]))
    k = rng.randint(-4, 4)
    g = ScalarForm({m: v.scaled(c, k) for m, v in f.terms.items()})
    rep = compare_forms(f, g, up_to_scale=True)
    assert rep.matched and rep.scale == (c, k)
    changed = rng.choice(sorted(monos)[1:])
    g.terms[changed] = g.terms[changed] + ScalarExpr.alpha(3, ell=5)
    rep = compare_forms(f, g, up_to_scale=True)
    assert not rep.matched and rep.scale == (c, k)
    assert rep.diffs == [TermDiff(monomial_name(changed), str(f.terms[changed].scaled(c, k)),
                                  str(g.terms[changed]))]


def reference_compare_forms(computed, expected, up_to_scale=False):
    """Reference: the scale solved on the anchor as `compare_forms` does, then
    every monomial compared as scaled `ScalarExpr`s."""
    scale = (Q2(1), 0)
    if up_to_scale:
        anchor = min((m for m in expected.terms if m in computed.terms), default=None)
        if anchor is None:
            if expected.is_zero() and computed.is_zero():
                return ComparisonReport(True, scale)
            return ComparisonReport(False, None,
                                    [TermDiff("<none shared>", str(computed), str(expected))])
        base, target = computed.terms[anchor], expected.terms[anchor]
        (a0, e0), c0 = base.sorted_terms()[0]
        e1 = min((e for a, e in target.terms if a == a0), default=None)
        if e1 is not None:
            scale = (target.terms[(a0, e1)] / c0, e1 - e0)
        if e1 is None or base.scaled(*scale) != target:
            return ComparisonReport(False, None, [TermDiff(
                monomial_name(anchor), str(base), str(target))],
                "no admissible scalar on the anchor term")
    zero = ScalarExpr.zero()
    diffs = []
    for m in sorted(computed.terms.keys() | expected.terms.keys()):
        c = computed.terms.get(m, zero)
        if up_to_scale:
            c = c.scaled(*scale)
        e = expected.terms.get(m, zero)
        if c != e:
            diffs.append(TermDiff(monomial_name(m), str(c), str(e)))
    return ComparisonReport(not diffs, scale, diffs)


def assert_compares_as_the_reference(f, g):
    for up_to_scale in (False, True):
        rep = compare_forms(f, g, up_to_scale)
        ref = reference_compare_forms(f, g, up_to_scale)
        assert (rep.matched, rep.scale, rep.note) == (ref.matched, ref.scale, ref.note)
        assert rep.diffs == ref.diffs


_PAIR_MONOS = [(sym("e", a), sym("e", b)) for a in range(4) for b in range(a + 1, 4)]
_SQRT2 = Q2(0, 1)


def _random_pair(rng):
    """f and g = f * c * ell^k with a few monomials changed, dropped or
    added; c has a sqrt2 part now and then, and now and then g is unrelated."""
    monos = rng.sample(_PAIR_MONOS, rng.randint(0, 6))
    f = ScalarForm({m: _random_coefficient(rng) for m in monos})
    if rng.random() < 0.15:
        return f, ScalarForm({m: _random_coefficient(rng)
                              for m in rng.sample(_PAIR_MONOS, rng.randint(0, 6))})
    c = Q2(Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5)),
           rng.choice([0, 0, Fraction(rng.randint(-2, 2), rng.randint(1, 3))]))
    k = rng.randint(-3, 3)
    g = ScalarForm({m: v.scaled(c, k) for m, v in f.terms.items()})
    for m in rng.sample(_PAIR_MONOS, rng.randint(0, 3)):
        action = rng.choice(["change", "drop", "set"])
        if action == "change" and m in g.terms:
            g.add_term(m, _random_coefficient(rng))
        elif action == "drop":
            g.terms.pop(m, None)
        else:
            g.terms[m] = _random_coefficient(rng)
    return f, g


@pytest.mark.parametrize("seed", range(40))
def test_compare_forms_equals_the_reference_on_random_forms(seed):
    f, g = _random_pair(random.Random(4200 + seed))
    assert_compares_as_the_reference(f, g)
    assert_compares_as_the_reference(g, f)


def test_random_forms_reach_every_outcome():
    outcomes = set()
    for seed in range(40):
        f, g = _random_pair(random.Random(4200 + seed))
        rep = compare_forms(f, g, up_to_scale=True)
        outcomes.add("matched" if rep.matched else rep.note or "diffs")
        if rep.scale and not rep.scale[0].is_rational:
            outcomes.add("sqrt2 scale")
        if rep.scale and rep.scale[1]:
            outcomes.add("ell shift")
    assert outcomes == {"matched", "diffs", "no admissible scalar on the anchor term",
                        "sqrt2 scale", "ell shift"}


_A = ScalarExpr.alpha
_C = ScalarExpr.const


@pytest.mark.parametrize("f, g", [
    # no shared monomial
    (ScalarForm({_E_MONOS[0]: _C(1)}), ScalarForm({_E_MONOS[1]: _C(1)})),
    (ScalarForm(), ScalarForm({_E_MONOS[1]: _C(1)})),
    # both forms zero
    (ScalarForm(), ScalarForm()),
    # no admissible scale on the anchor: no term of the alpha, or a ratio
    # that differs between the anchor's terms
    (ScalarForm({_E_MONOS[0]: _A(0)}), ScalarForm({_E_MONOS[0]: _A(1)})),
    (ScalarForm({_E_MONOS[0]: _C(1) + _A(0)}),
     ScalarForm({_E_MONOS[0]: _C(2) + _A(0, 3), _E_MONOS[1]: _C(1)})),
    # sqrt2 coefficients, and a sqrt2 scale whose product cancels the
    # rational part of one monomial: (2 - sqrt2)(1 + sqrt2) = sqrt2
    (ScalarForm({_E_MONOS[0]: _C(1), _E_MONOS[1]: _C(Q2(2, -1))}),
     ScalarForm({_E_MONOS[0]: _C(Q2(1, 1)), _E_MONOS[1]: _C(_SQRT2)})),
    (ScalarForm({_E_MONOS[0]: _C(1), _E_MONOS[1]: _C(Q2(2, -1))}),
     ScalarForm({_E_MONOS[0]: _C(Q2(1, 1)), _E_MONOS[1]: _C(Q2(1, 1))})),
    # several alpha keys, matched and off by one key
    (ScalarForm({_E_MONOS[0]: _A(0) + _A(1, 2, -1) + _C(3, 2),
                 _E_MONOS[1]: _A(2, Q2(1, 1))}),
     ScalarForm({_E_MONOS[0]: _A(0, -2) + _A(1, -4, -1) + _C(-6, 2),
                 _E_MONOS[1]: _A(2, Q2(-2, -2))})),
    (ScalarForm({_E_MONOS[0]: _A(0) + _A(1, 2, -1), _E_MONOS[1]: _A(2) + _A(3)}),
     ScalarForm({_E_MONOS[0]: _A(0, -2) + _A(1, -4, -1), _E_MONOS[1]: _A(2, -2)})),
    # a nonzero ell shift, matched and with one monomial off
    (ScalarForm({_E_MONOS[0]: _C(2, -1), _E_MONOS[2]: _A(1, 1, 2)}),
     ScalarForm({_E_MONOS[0]: _C(1, 2), _E_MONOS[2]: _A(1, Fraction(1, 2), 5)})),
    (ScalarForm({_E_MONOS[0]: _C(2, -1), _E_MONOS[2]: _A(1, 1, 2)}),
     ScalarForm({_E_MONOS[0]: _C(1, 2), _E_MONOS[2]: _A(1, Fraction(1, 2), 4)})),
], ids=["disjoint", "computed-zero", "both-zero", "other-alpha", "alpha-ratio",
        "sqrt2-scale", "sqrt2-scale-off", "alpha-keys", "alpha-key-missing",
        "ell-shift", "ell-shift-off"])
def test_compare_forms_equals_the_reference_on_edge_cases(f, g):
    assert_compares_as_the_reference(f, g)
    assert_compares_as_the_reference(g, f)


def test_comparison_algebra_lagrangian_matches_its_golden():
    """Independent validation of the extra-field transgression machinery:
    the 30-generator resonant comparison algebra's separated Lagrangian
    equals its 4-term golden at the single solved scale (4/3) l^3."""
    b5 = make_b5()
    L = subspace_separation(connection_chain(b5), b5_tensor(), 5, b5)
    rep = compare_forms(L, load_golden("b5_lagrangian").form(), up_to_scale=True)
    assert rep.matched, rep.diffs[:5]
    assert rep.scale == (Q2(Fraction(4, 3)), 3)


@pytest.mark.parametrize("n,name", [(1, "so3"), (2, "so3"), (3, "so3"), (2, "ads5")])
def test_dual_formulation(n, name):
    rep = dual_mc_check(n, make_named(name))
    assert rep.constants_match_doubled
    assert rep.shift_consistent
    assert rep.witness_ok
    assert rep.ok


def ordered_transgression(A, Abar, T, k, L):
    """The reference transgression: one contraction per ordered tuple of
    t-power components of F_t, each weighted (k+1)/(tpow+1)."""
    delta = reference_lie_sub(A, Abar)
    if delta.is_zero():
        return ScalarForm.zero()
    ft = homotopy_curvature(A, Abar, L)
    out = ScalarForm.zero()
    powers = [list(ft.items()) for _ in range(k)]
    for assignment in itertools.product(*powers):
        tpow = sum(m for m, _ in assignment)
        piece = contract(T, [delta] + [f for _, f in assignment])
        if not piece.is_zero():
            out.add_form(piece, Q2(Fraction(k + 1, tpow + 1)))
    return out


@pytest.mark.parametrize("name", ["c3", "c5", "b5"])
def test_transgression_equals_ordered_transgression_on_fixture_chains(name):
    if name == "b5":
        L, T = make_b5(), b5_tensor()
    else:
        d = int(name[1])
        L, T = make_c_algebra_rotated(d), c_tensor_rotated(d)
    chain = connection_chain(L)
    for big, small in zip(chain, chain[1:]):
        assert transgression(big, small, T, T.rank - 1, L) == \
            ordered_transgression(big, small, T, T.rank - 1, L)


# -- the integer kernel against the ScalarExpr-coefficient reference ------------


def reference_tpoly_add(p1, p2):
    out = dict(p1)
    for m, f in p2.items():
        out[m] = out.get(m, LieValuedForm.zero()) + f
    return {m: f for m, f in out.items() if not f.is_zero()}


def reference_tpoly_bracket(p1, p2, L):
    out = {}
    for m1, f1 in p1.items():
        for m2, f2 in p2.items():
            b = reference_lie_bracket_form(f1, f2, L)
            if not b.is_zero():
                out[m1 + m2] = out.get(m1 + m2, LieValuedForm.zero()) + b
    return {m: f for m, f in out.items() if not f.is_zero()}


def reference_homotopy_curvature(A, Abar, L):
    delta = reference_lie_sub(A, Abar)
    at = {m: f for m, f in {0: Abar, 1: delta}.items() if not f.is_zero()}
    dat = {m: reference_lie_d(f) for m, f in at.items()}
    br = reference_tpoly_bracket(at, at, L)
    half = Q2(Fraction(1, 2))
    return reference_tpoly_add(dat, {m: reference_lie_scaled(f, half) for m, f in br.items()})


def reference_transgression(A, Abar, T, k, L):
    delta = reference_lie_sub(A, Abar)
    if delta.is_zero():
        return ScalarForm.zero()
    ft = reference_homotopy_curvature(A, Abar, L)
    out = ScalarForm.zero()
    for powers in itertools.combinations_with_replacement(sorted(ft), k):
        piece = reference_contract(T, [delta] + [ft[m] for m in powers])
        if piece.is_zero():
            continue
        orderings = math.factorial(k)
        for m in set(powers):
            orderings //= math.factorial(powers.count(m))
        out.add_form(piece, Q2(Fraction((k + 1) * orderings, sum(powers) + 1)))
    return out


@pytest.mark.parametrize("name", ["c3", "c5", "b5"])
def test_kernel_equals_the_reference_on_every_chain_link(name):
    if name == "b5":
        L, T = make_b5(), b5_tensor()
    else:
        d = int(name[1])
        L, T = make_c_algebra_rotated(d), c_tensor_rotated(d)
    chain = connection_chain(L)
    separated = ScalarForm.zero()  # the reference subspace_separation
    for big, small in zip(chain, chain[1:]):
        assert homotopy_curvature(big, small, L) == \
            reference_homotopy_curvature(big, small, L)
        link = reference_transgression(big, small, T, T.rank - 1, L)
        assert transgression(big, small, T, T.rank - 1, L) == link
        separated.add_form(link)
    assert subspace_separation(chain, T, 2 * T.rank - 1, L) == separated


def test_homotopy_curvature_equals_the_reference_on_seeded_connections():
    """Connections with sqrt2, ell and rational coefficients on c3_rotated,
    including A = Abar and a zero endpoint."""
    rng = random.Random(512)
    L = make_c_algebra_rotated(3)
    full = build_connection(L)
    for _ in range(20):
        ends = []
        for _ in range(2):
            A = LieValuedForm()
            for i in rng.sample(sorted(full.components), rng.randint(0, 6)):
                A.add_component(i, full.components[i].scaled(
                    ScalarExpr.const(Q2(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                                        rng.choice([0, 1])), rng.randint(-1, 1))))
            ends.append(A)
        for A, Abar in (ends, (ends[0], ends[0])):
            assert homotopy_curvature(A, Abar, L) == reference_homotopy_curvature(A, Abar, L)


def test_seven_dimensional_middle_transgression_is_pinned():
    """sha256 of the JSON of the d = 7 middle transgression (w+e <- w on
    c7_rotated, general alphas), recorded with the ScalarExpr-coefficient
    kernel before the integer kernel replaced it."""
    L = make_c_algebra_rotated(7)
    q = transgression(build_connection(L, ("w", "e")), build_connection(L, ("w",)),
                      c_tensor_rotated(7), 3, L)
    assert len(q.terms) == 14729
    text = json.dumps(scalar_form_to_json_dict(q), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "e1e5eecf012625cf7fb1f25af7b913ff0f45a5e5625e1f4ff372af1ac1896d6e"
