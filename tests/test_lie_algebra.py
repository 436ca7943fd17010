import itertools
import json
import random
from fractions import Fraction

import pytest

from sexpansion.expansion import h_reduce
from sexpansion.fixtures import (make_b5, make_c_algebra, make_c_algebra_rotated,
                                 mixing_rotation, random_nilpotent,
                                 random_solvable_4d)
from sexpansion.lie_algebra import (AxiomReport, Label, LieAlgebra,
                                    LieAlgebraError, change_basis, check_axioms,
                                    eps3, killing_profile, make_ads, make_named,
                                    mat_identity, mat_inverse)
from sexpansion.scalars import Q2, SQRT2

FIXTURES = ["so3", "so31", "so4", "ads3", "ads5"]


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_axioms(name):
    assert check_axioms(make_named(name)).ok


def test_ads_axioms_in_seven_dimensions():
    ads7 = make_ads(7)
    assert ads7.dim == 28 and check_axioms(ads7).ok


def test_unknown_name():
    with pytest.raises(LieAlgebraError):
        make_named("e8")


def test_so3_bracket():
    so3 = make_named("so3")
    out = so3.bracket(so3.basis_vector(0), so3.basis_vector(1))
    assert out == [Q2(0), Q2(0), Q2(1)]  # [J1, J2] = J3


def test_bracket_antisymmetry_on_repeated_argument():
    so3 = make_named("so3")
    rng = random.Random(3)
    for _ in range(10):
        x = [Q2(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(3)]
        assert all(not c for c in so3.bracket(x, x))


def test_boost_boost_bracket_sign():
    so31 = make_named("so31")
    # [K1, K2] = -J3 distinguishes the Lorentz form from the compact one
    out = so31.bracket(so31.basis_vector(3), so31.basis_vector(4))
    assert out[2] == Q2(-1) and all(not out[i] for i in (0, 1, 3, 4, 5))
    so4 = make_named("so4")
    out4 = so4.bracket(so4.basis_vector(3), so4.basis_vector(4))
    assert out4[2] == Q2(1)


def test_bracket_length_mismatch():
    so3 = make_named("so3")
    with pytest.raises(LieAlgebraError):
        so3.bracket([1, 2], [3, 4, 5])


def test_flipped_sign_breaks_jacobi():
    # a rank-3 algebra with one pair mapping to the third generator satisfies
    # Jacobi for any signs, so the broken fixture needs the 6-dim form
    so31 = make_named("so31")
    broken = {k: dict(v) for k, v in so31.constants.items()}
    broken[(0, 1)] = {2: Q2(-1)}
    report = check_axioms(LieAlgebra("broken", so31.labels, broken))
    assert not report.ok
    assert report.violation is not None
    a, b, d = report.violation
    assert a < b < d


def test_abelian_axioms_and_killing():
    ab = LieAlgebra("abelian", [Label("T", (i,)) for i in range(4)], {})
    assert check_axioms(ab).ok
    prof = killing_profile(ab)
    assert prof.signature == (0, 0, 4)
    assert prof.derived_dim == 0 and prof.center_dim == 4


def test_killing_profiles():
    assert killing_profile(make_named("so3")).signature == (0, 3, 0)
    p31 = killing_profile(make_named("so31"))
    p4 = killing_profile(make_named("so4"))
    assert p31.signature == (3, 3, 0)
    assert p4.signature == (0, 6, 0)
    assert p31.signature != p4.signature
    for p in (p31, p4):
        assert p.derived_dim == 6 and p.center_dim == 0


def test_ads_generator_counts():
    ads5 = make_named("ads5")
    assert ads5.dim == 15
    assert sum(1 for l in ads5.labels if l.base == "J") == 10
    assert sum(1 for l in ads5.labels if l.base == "P") == 5
    # [P_a, P_b] = J_ab
    ads3 = make_named("ads3")
    out = ads3.bracket(ads3.basis_vector(3), ads3.basis_vector(4))
    assert out[0] == Q2(1)  # J_(0,1) is the first generator


def test_change_basis_identity_and_scaling():
    so3 = make_named("so3")
    ident = change_basis(so3, mat_identity(3))
    assert ident.constants_equal(so3)
    two = [[Q2(2 if i == j else 0) for j in range(3)] for i in range(3)]
    doubled = change_basis(so3, two)
    for key, row in so3.constants.items():
        assert doubled.constants[key] == {c: v * Q2(2) for c, v in row.items()}


def test_change_basis_rejects_singular():
    so3 = make_named("so3")
    singular = [[Q2(1), Q2(1), Q2(0)], [Q2(1), Q2(1), Q2(0)], [Q2(0)] * 3]
    with pytest.raises(LieAlgebraError):
        change_basis(so3, singular)


def _random_q2(rng, nonzero=False):
    while True:
        x = Q2(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
               rng.choice([0, 0, Fraction(rng.randint(-2, 2), 2)]))
        if x or not nonzero:
            return x


def _mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Q2(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_mat_inverse_over_q_sqrt2():
    """Seeded L*U products (invertible by construction) over Q(sqrt2); the
    same matrix with its last row made dependent must raise."""
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        lower = [[Q2(1) if i == j else _random_q2(rng) if j < i else Q2(0)
                  for j in range(n)] for i in range(n)]
        upper = [[_random_q2(rng, nonzero=True) if i == j else
                  _random_q2(rng) if j > i else Q2(0)
                  for j in range(n)] for i in range(n)]
        m = _mat_mul(lower, upper)
        inv = mat_inverse(m)
        assert _mat_mul(m, inv) == mat_identity(n) == _mat_mul(inv, m), seed
        c = _random_q2(rng)
        m[-1] = [c * x for x in m[0]] if n > 1 else [Q2(0)]
        with pytest.raises(LieAlgebraError):
            mat_inverse(m)


def test_killing_profile_leaves_constants_unchanged():
    """The row reduction works in place on its rows; it must never reach
    the algebra's own constant table."""
    for name in FIXTURES:
        L = make_named(name)
        before = {key: dict(row) for key, row in L.constants.items()}
        killing_profile(L)
        assert L.constants == before, name


def _random_invertible(n, rng):
    while True:
        m = [[Q2(Fraction(rng.randint(-2, 2), rng.randint(1, 2))) for _ in range(n)]
             for _ in range(n)]
        try:
            mat_inverse([row[:] for row in m])
            return m
        except LieAlgebraError:
            continue


@pytest.mark.parametrize("name", ["so3", "so31"])
def test_killing_profile_invariant_under_basis_change(name):
    L = make_named(name)
    rng = random.Random(11)
    before = killing_profile(L)
    for _ in range(3):
        m = _random_invertible(L.dim, rng)
        after = killing_profile(change_basis(L, m))
        assert after == before


def test_bracket_bilinearity():
    L = make_named("ads3")
    rng = random.Random(5)
    for _ in range(5):
        a = Q2(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        b = Q2(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        x = [Q2(rng.randint(-2, 2)) for _ in range(L.dim)]
        y = [Q2(rng.randint(-2, 2)) for _ in range(L.dim)]
        z = [Q2(rng.randint(-2, 2)) for _ in range(L.dim)]
        left = L.bracket([a * xi + b * yi for xi, yi in zip(x, y)], z)
        right_a = L.bracket(x, z)
        right_b = L.bracket(y, z)
        assert left == [a * u + b * v for u, v in zip(right_a, right_b)]


def test_json_round_trip():
    for name in ("so31", "ads3"):
        L = make_named(name)
        text = json.dumps(L.to_json_dict())
        again = LieAlgebra.from_json_dict(json.loads(text))
        assert again.constants_equal(L)
        assert again.labels == L.labels
        assert json.dumps(again.to_json_dict()) == text


@pytest.mark.parametrize("constants, message", [
    ({(0, 3): {1: 1}}, "constant index out of range"),
    ({(3, 0): {1: 1}}, "constant index out of range"),
    ({(-1, 0): {1: 1}}, "constant index out of range"),
    ({(0, 1): {3: 1}}, "constant target out of range"),
    ({(1, 0): {-1: Q2(0, 1)}}, "constant target out of range"),
    ({(1, 1): {0: Fraction(1, 2)}}, "nonzero bracket"),
])
def test_constructor_rejects_out_of_range_constants(constants, message):
    with pytest.raises(LieAlgebraError, match=message):
        LieAlgebra("x", [Label("T", (i,)) for i in range(3)], constants)


def test_eps3_total_antisymmetry():
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                assert eps3(i, j, k) == -eps3(j, i, k)


def dense_check_axioms(L):
    """Reference: the Jacobiator of every index triple A < B < D in
    lexicographic order, built from L.pair; the first nonzero one is the
    violation."""
    for a, b, d in itertools.combinations(range(L.dim), 3):
        acc = {}
        for (x, y, z) in ((a, b, d), (b, d, a), (d, a, b)):
            for c, c1 in L.pair(x, y).items():
                for e, c2 in L.pair(c, z).items():
                    v = acc.get(e, Q2(0)) + c1 * c2
                    if v:
                        acc[e] = v
                    elif e in acc:
                        del acc[e]
        if acc:
            return AxiomReport(False, True, False, (a, b, d))
    return AxiomReport(True, True, True)


def _perturb_one_constant(L, rng):
    """L with one structure constant changed: an existing one or a new one set
    to a random element of Q(sqrt2), which may be zero (the constant is
    dropped)."""
    constants = {key: dict(row) for key, row in L.constants.items()}
    if constants and rng.random() < 0.5:
        key = rng.choice(sorted(constants))
        c = rng.choice(sorted(constants[key]))
    else:
        key = tuple(sorted(rng.sample(range(L.dim), 2)))
        c = rng.randrange(L.dim)
    constants.setdefault(key, {})[c] = Q2(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        Fraction(rng.choice((0, 0, 1, -1)), rng.randint(1, 2)))
    return LieAlgebra(f"{L.name}~", L.labels, constants)


def _jacobi_bases():
    """Lie algebras with rational, sqrt2 and dense random constants."""
    bases = [h_reduce(n, make_named(name))
             for name in ("so3", "so31", "ads3") for n in (1, 2, 3)]
    bases += [h_reduce(2, make_named("ads5")), make_c_algebra_rotated(5)]
    for seed in (3, 8):
        bases += [h_reduce(n, random_nilpotent(4, seed)) for n in (1, 2)]
        bases += [h_reduce(n, random_solvable_4d(seed)) for n in (1, 3)]
    ads3 = make_named("ads3")
    stretch = [[SQRT2 if i == j == 0 else Q2(int(i == j)) for j in range(ads3.dim)]
               for i in range(ads3.dim)]
    bases.append(change_basis(ads3, stretch))  # constants with a sqrt2 part
    return bases


def test_sparse_jacobi_matches_dense():
    rng = random.Random(20160409)
    bases = _jacobi_bases()
    assert any(not v.is_rational for row in bases[-1].constants.values()
               for v in row.values())
    cases = bases + [_perturb_one_constant(rng.choice(bases), rng) for _ in range(120)]
    verdicts = set()
    for L in cases:
        sparse, dense = check_axioms(L), dense_check_axioms(L)
        assert sparse == dense, L.name
        verdicts.add(sparse.ok)
    assert verdicts == {True, False}


def reference_change_basis(L, m, name=None, labels=None):
    """Reference: the constants summed in Q2, through L.pair and the
    validating constructor."""
    n = L.dim
    m = [[Q2.of(x) for x in row] for row in m]
    minv = mat_inverse(m)
    minv_cols = [[(k, minv[k][c]) for k in range(n) if minv[k][c]] for c in range(n)]
    sparse_cols = [[(a, m[a][i]) for a in range(n) if m[a][i]] for i in range(n)]
    constants = {}
    for i in range(n):
        for j in range(i + 1, n):
            acc = {}
            for a, ma in sparse_cols[i]:
                for b, mb in sparse_cols[j]:
                    row = L.pair(a, b)
                    if not row:
                        continue
                    f = ma * mb
                    for c, v in row.items():
                        w = acc.get(c, Q2(0)) + f * v
                        if w:
                            acc[c] = w
                        elif c in acc:
                            del acc[c]
            if not acc:
                continue
            out = {}
            for c, v in acc.items():
                for k, mk in minv_cols[c]:
                    w = out.get(k, Q2(0)) + mk * v
                    if w:
                        out[k] = w
                    elif k in out:
                        del out[k]
            if out:
                constants[(i, j)] = out
    return LieAlgebra(name or f"{L.name}'",
                      list(labels) if labels is not None else list(L.labels),
                      constants)


def _table(L):
    """The constant table with its key order and each row's target order."""
    return [(key, list(row.items())) for key, row in L.constants.items()]


def _change_basis_cases():
    """(algebra, matrix): c3, c5 and c7 by their mixing rotations; b5, the
    Z_6 halvings and the seeded random algebras by seeded invertible Q(sqrt2)
    matrices, sparse above the diagonal or dense."""
    rng = random.Random(20160409)
    cases = [(make_c_algebra(d), mixing_rotation(d)) for d in (3, 5, 7)]

    def sparse(dim):
        m = [[_random_q2(rng, nonzero=True) if i == j else Q2(0) for j in range(dim)]
             for i in range(dim)]
        for _ in range(dim):
            i, j = sorted(rng.sample(range(dim), 2))
            m[i][j] = _random_q2(rng, nonzero=True)
        return m

    algebras = [make_b5()] + [h_reduce(n, make_ads(3)) for n in (1, 2, 3, 4)] \
        + [h_reduce(n, make_ads(5)) for n in (1, 2, 3)]
    cases += [(L, sparse(L.dim)) for L in algebras]
    for L in (random_nilpotent(4, 20160409), random_solvable_4d(20160409), make_named("ads3")):
        cases += [(L, _random_invertible(L.dim, rng)), (L, sparse(L.dim))]
    return cases


def test_change_basis_matches_the_reference():
    """Same name, labels and constants, in the same key and target order,
    as the sum in Q2; and some case has a sqrt2 part in its constants."""
    irrational = False
    for L, m in _change_basis_cases():
        new, ref = change_basis(L, m, name="x"), reference_change_basis(L, m, name="x")
        assert (new.name, new.labels, _table(new)) == (ref.name, ref.labels, _table(ref)), L.name
        irrational |= any(v.b for row in new.constants.values() for v in row.values())
    assert irrational
