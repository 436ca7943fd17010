import itertools
import json
import random
from fractions import Fraction

import pytest

from sexpansion.expansion import h_reduce, s_expand, zero_reduce
from sexpansion.fixtures import (b5_tensor, c_tensor, c_tensor_rotated, make_b5,
                                 make_c_algebra, make_c_algebra_rotated,
                                 mixing_rotation, random_nilpotent,
                                 random_solvable_4d)
from sexpansion.invariant_tensor import (InvarianceReport, InvariantTensor,
                                         TensorError, epsilon_tensor,
                                         family_table, latex_family_table,
                                         lift_0s, lift_h, perm_sign,
                                         rotate_tensor, verify_invariance)
from sexpansion.lie_algebra import (change_basis, killing_matrix, make_ads,
                                    make_named, mat_identity, mat_inverse, pair_basis)
from sexpansion.scalars import Q2, SQRT2, ScalarExpr
from sexpansion.semigroup import make_cyclic, make_se


def test_epsilon_tensor_base_invariance():
    assert verify_invariance(make_named("ads5"), epsilon_tensor(5)).ok
    assert verify_invariance(make_named("ads3"), epsilon_tensor(3)).ok


def hand_epsilon_tensor(d):
    """Reference: the hand-written d = 3 and d = 5 epsilon tensors that the
    generic permutation loop replaced."""
    pairs = pair_basis(d)
    pidx = {p: i for i, p in enumerate(pairs)}
    npairs = len(pairs)
    if d == 5:
        t = InvariantTensor(3)
        for (a, b) in pairs:
            rest = [x for x in range(d) if x not in (a, b)]
            for (c, dd) in itertools.combinations(rest, 2):
                e = next(x for x in rest if x not in (c, dd))
                sign = perm_sign((a, b, c, dd, e))
                if sign:
                    t.set_entry((pidx[(a, b)], pidx[(c, dd)], npairs + e),
                                ScalarExpr.const(Q2(sign)))
        return t
    assert d == 3
    t = InvariantTensor(2)
    for (a, b) in pairs:
        c = next(x for x in range(d) if x not in (a, b))
        t.set_entry((pidx[(a, b)], npairs + c), ScalarExpr.const(Q2(perm_sign((a, b, c)))))
    return t


def reference_epsilon_tensor(d):
    """Reference: the loop over all d! permutations that the pair matchings
    replaced."""
    pidx = {p: i for i, p in enumerate(pair_basis(d))}
    t = InvariantTensor((d + 1) // 2)
    for perm in itertools.permutations(range(d)):
        pairs = list(zip(perm[:-1:2], perm[1::2]))
        if all(a < b for a, b in pairs):
            t.set_entry([pidx[p] for p in pairs] + [len(pidx) + perm[-1]],
                        ScalarExpr.const(perm_sign(perm)))
    return t


def test_epsilon_tensor_matches_hand_written_branches():
    for d in (3, 5):
        assert json.dumps(epsilon_tensor(d).to_json_dict()) == \
            json.dumps(hand_epsilon_tensor(d).to_json_dict())


@pytest.mark.parametrize("d", [3, 5, 7])
def test_epsilon_tensor_matches_the_permutation_loop(d):
    """Same entries, in the same order, as the walk over all d! permutations."""
    t, ref = epsilon_tensor(d), reference_epsilon_tensor(d)
    assert list(t.entries.items()) == list(ref.entries.items())


@pytest.mark.parametrize("d", [1, 2, 4])
def test_epsilon_tensor_needs_odd_dimension(d):
    with pytest.raises(TensorError, match="odd d >= 3"):
        epsilon_tensor(d)


def test_seven_dimensional_chain():
    """ads7, its epsilon tensor and the halved Z4 lift, with no d = 7 code."""
    ads7 = make_ads(7)
    eps7 = epsilon_tensor(7)
    assert eps7.rank == 4 and len(eps7.entries) == 105
    assert verify_invariance(ads7, eps7).ok
    c7, t7 = make_c_algebra(7), c_tensor(7)
    assert c7.dim == 56 and len(t7.entries) == 1680
    rep = verify_invariance(c7, t7)
    assert not rep.ok and rep.violation == (28, (1, 15, 20, 49))
    assert rep.value == ScalarExpr.alpha(0) + ScalarExpr.alpha(2)
    assert verify_invariance(c7, _on_family(t7)).ok


def test_tensor_beyond_the_algebra_raises():
    with pytest.raises(TensorError, match=r"entry \[0, 7, 14\] has an index outside "
                                          "the 6 generators of ads3"):
        verify_invariance(make_named("ads3"), epsilon_tensor(5))
    negative = InvariantTensor(2, {(-1, 3): ScalarExpr.const(1)})
    with pytest.raises(TensorError, match="outside the 6 generators"):
        verify_invariance(make_named("ads3"), negative)


def test_zero_tensor_is_invariant():
    assert verify_invariance(make_named("ads3"), InvariantTensor(2)).ok


def test_broken_tensor_is_caught():
    t = epsilon_tensor(3)
    key = next(iter(t.entries))
    t.set_entry(key, t.entries[key].scaled(Q2(2)))
    rep = verify_invariance(make_named("ads3"), t)
    assert not rep.ok and rep.violation is not None


def _families(tensor, algebra):
    return {names: coeff for names, coeff in family_table(tensor, algebra)}


def test_halved_lift_reproduces_six_row_table():
    c5 = make_c_algebra(5)
    fam = _families(c_tensor(5), c5)
    expected = {
        ("J[ab]@0", "J[ab]@0", "P[a]@0"): ScalarExpr.alpha(0),
        ("J[ab]@0", "J[ab]@0", "Z[a]@1"): ScalarExpr.alpha(1),
        ("J[ab]@0", "P[a]@0", "Z[ab]@1"): ScalarExpr.alpha(1),
        ("J[ab]@0", "Z[ab]@1", "Z[a]@1"): ScalarExpr.alpha(2),
        ("P[a]@0", "Z[ab]@1", "Z[ab]@1"): ScalarExpr.alpha(2),
        ("Z[ab]@1", "Z[ab]@1", "Z[a]@1"): ScalarExpr.alpha(3),
    }
    assert fam == expected


def test_halved_lift_rank2_table():
    c3 = make_c_algebra(3)
    fam = _families(c_tensor(3), c3)
    assert fam == {
        ("J[ab]@0", "P[a]@0"): ScalarExpr.alpha(0),
        ("J[ab]@0", "Z[a]@1"): ScalarExpr.alpha(1),
        ("P[a]@0", "Z[ab]@1"): ScalarExpr.alpha(1),
        ("Z[ab]@1", "Z[a]@1"): ScalarExpr.alpha(2),
    }


def test_trivial_halved_lift_scales_by_alpha0():
    ads3 = make_named("ads3")
    target = h_reduce(1, ads3)
    lifted = lift_h(1, target, epsilon_tensor(3))
    base = epsilon_tensor(3)
    assert lifted.entries == {k: v * ScalarExpr.alpha(0)
                              for k, v in base.entries.items()}


def test_rotated_tensor_tables():
    c5r = make_c_algebra_rotated(5)
    fam = _families(c_tensor_rotated(5), c5r)
    a = ScalarExpr.alpha
    assert fam == {
        ("J[ab]", "J[ab]", "P[a]"): a(0) + a(1),
        ("J[ab]", "J[ab]", "Z[a]"): a(0) - a(1),
        ("J[ab]", "P[a]", "Z[ab]"): a(1) + a(2),
        ("J[ab]", "Z[ab]", "Z[a]"): a(1) - a(2),
        ("P[a]", "Z[ab]", "Z[ab]"): a(2) + a(3),
        ("Z[ab]", "Z[ab]", "Z[a]"): a(2) - a(3),
    }
    c3r = make_c_algebra_rotated(3)
    fam3 = _families(c_tensor_rotated(3), c3r)
    assert fam3 == {
        ("J[ab]", "P[a]"): a(0) + a(1),
        ("J[ab]", "Z[a]"): a(0) - a(1),
        ("P[a]", "Z[ab]"): a(1) + a(2),
        ("Z[ab]", "Z[a]"): a(1) - a(2),
    }


def test_rotation_by_identity_is_identity():
    t = c_tensor(3)
    assert rotate_tensor(t, mat_identity(12)) == t


def test_zero_reduced_lift_on_truncated_expansion():
    # rank-2 lift through the order-1 truncated semigroup: the entry on tags
    # (i, j) carries alpha_{i+j} and vanishes once i + j exceeds the cutoff
    ads3 = make_named("ads3")
    s = make_se(1)
    target = zero_reduce(s_expand(s, ads3), s)
    lifted = lift_0s(s, target, ads3.dim, epsilon_tensor(3))
    base = epsilon_tensor(3)
    for (i1, i2), val in base.entries.items():
        for ti in range(2):
            for tj in range(2):
                entry = lifted.get((ti * 6 + i1, tj * 6 + i2))
                if ti + tj <= 1:
                    assert entry == val * ScalarExpr.alpha(ti + tj)
                else:
                    assert entry.is_zero()


def test_b5_lift_nonzero_families():
    b5 = make_b5()
    fam = _families(b5_tensor(), b5)
    a = ScalarExpr.alpha
    assert fam == {
        ("J[ab]@0", "J[ab]@0", "P[a]@1"): a(1),
        ("J[ab]@0", "J[ab]@0", "Z[a]@3"): a(3),
        ("J[ab]@0", "P[a]@1", "Z[ab]@2"): a(3),
    }


def test_all_alphas_zero_gives_zero_tensor():
    t = c_tensor(5)
    zeroed = InvariantTensor(t.rank, {
        k: v.substitute_alpha_values([0, 0, 0, 0]) for k, v in t.entries.items()})
    assert zeroed.is_zero()


def test_classic_lift_is_invariant_for_all_alphas():
    assert verify_invariance(make_b5(), b5_tensor()).ok


def test_halved_lift_invariance_needs_shift_compatible_alphas():
    """The halved lift is ad-invariant exactly on the subfamily
    alpha_{g+n} = -alpha_g; with four independent symbols the defect is
    proportional to (alpha_0+alpha_2) and (alpha_1+alpha_3)."""
    c3 = make_c_algebra(3)
    t3 = c_tensor(3)
    rep = verify_invariance(c3, t3)
    assert not rep.ok
    comps = {a for (a, e) in rep.value.terms}
    assert comps in ({0, 2}, {1, 3})
    constrained = InvariantTensor(t3.rank)
    for key, v in t3.entries.items():
        out = ScalarExpr.zero()
        for (a, e), q in v.terms.items():
            if a == 2:
                out = out + ScalarExpr.alpha(0, -q, e)
            elif a == 3:
                out = out + ScalarExpr.alpha(1, -q, e)
            else:
                out = out + ScalarExpr({(a, e): q})
        constrained.set_entry(key, out)
    assert verify_invariance(c3, constrained).ok


def test_rotation_commutes_with_invariance():
    # rotated tensor against rotated algebra reproduces the unrotated verdict
    c3 = make_c_algebra(3)
    c3r = make_c_algebra_rotated(3)
    m = mixing_rotation(3)
    plain = verify_invariance(c3, c_tensor(3))
    rotated = verify_invariance(c3r, rotate_tensor(c_tensor(3), m))
    assert plain.ok == rotated.ok
    # and for an actually invariant tensor both sides pass
    base = epsilon_tensor(5)
    ads5 = make_named("ads5")
    rot = [[Q2(1 if i == j else 0) for j in range(15)] for i in range(15)]
    assert verify_invariance(ads5, rotate_tensor(base, rot)).ok


def test_sqrt2_absorption_keeps_entries_rational():
    t = c_tensor_rotated(5)
    for val in t.entries.values():
        for coeff in val.terms.values():
            assert coeff.is_rational


def test_json_round_trip():
    t = c_tensor_rotated(3)
    text = json.dumps(t.to_json_dict())
    again = InvariantTensor.from_json_dict(json.loads(text))
    assert again == t
    assert json.dumps(again.to_json_dict()) == text
    # a sqrt2 part, a negative ell power and an alpha-free term
    mixed = InvariantTensor(2, {
        (0, 3): ScalarExpr.alpha(2, Q2(Fraction(1, 3), 2), -2) + ScalarExpr.const(-1),
        (1, 1): ScalarExpr.const(Q2(0, -1), 4)})
    again = InvariantTensor.from_json_dict(json.loads(json.dumps(mixed.to_json_dict())))
    assert again == mixed
    assert mixed.to_json_dict()["entries"][0]["coeff"] == [
        {"alpha": None, "ell_pow": 0, "q": "-1"},
        {"alpha": 2, "ell_pow": -2, "q": "1/3", "q_sqrt2": "2"}]


def test_latex_table_emits_rows():
    c3r = make_c_algebra_rotated(3)
    tex = latex_family_table(c_tensor_rotated(3), c3r)
    assert tex.count(r"\langle") == 4
    assert r"\varepsilon_{abc}" in tex


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((0, 0, 1)) == 0


def test_rank_guard():
    with pytest.raises(TensorError):
        InvariantTensor(1)


def test_negative_tensor_indices_raise():
    """A negative index names no generator: rotating or lifting a tensor
    that has one raises instead of wrapping to the last generator or
    dropping the entry."""
    t = InvariantTensor.from_json_dict(
        {"rank": 2, "entries": [{"indices": [-1, 0], "coeff": ScalarExpr.const(1).to_json_list()}]})
    with pytest.raises(TensorError, match=r"entry \[-1, 0\] has an index outside"):
        rotate_tensor(t, mat_identity(3))
    with pytest.raises(TensorError, match="base tensor index -1 is negative"):
        lift_h(1, h_reduce(1, make_named("ads3")), t)


def test_lift_rejects_base_indices_beyond_base_dim():
    # c5 is the halved Z4 expansion, so n = 3 reads base_dim 10 < 15
    with pytest.raises(TensorError, match="not below base_dim 10"):
        lift_h(3, make_c_algebra(5), epsilon_tensor(5))


def dense_verify_invariance(L, T):
    """Reference: every generator A0 and every sorted slot tuple in
    lexicographic order, each slot rotated by ad_{A0} in turn; the first
    nonzero sum is the violation."""
    dim = L.dim
    for a0 in range(dim):
        pairs = [L.pair(a0, x) for x in range(dim)]
        if not any(pairs):
            continue
        for combo in itertools.combinations_with_replacement(range(dim), T.rank):
            total = ScalarExpr.zero()
            for p in range(T.rank):
                rest = combo[:p] + combo[p + 1:]
                for b, coeff in pairs[combo[p]].items():
                    val = T.get(rest + (b,))
                    if not val.is_zero():
                        total = total + val.scaled(coeff)
            if not total.is_zero():
                return InvarianceReport(False, (a0, combo), total)
    return InvarianceReport(True)


def _on_family(tensor):
    """The tensor on the invariant family alpha_2 = -alpha_0, alpha_3 = -alpha_1."""
    return InvariantTensor(tensor.rank, {
        key: val.specialize_alphas([1, Fraction(2, 3), -1, Fraction(-2, 3)])
        for key, val in tensor.entries.items()})


def _perturb_one_entry(L, T, rng):
    """T with one entry, existing or new (slots may repeat), set to a random
    alpha-linear value, which may be zero (the entry is dropped)."""
    out = InvariantTensor(T.rank, T.entries)
    if rng.random() < 0.5 and T.entries:
        key = rng.choice(sorted(T.entries))
    else:
        key = tuple(rng.randrange(L.dim) for _ in range(T.rank))
    value = ScalarExpr.zero() if rng.random() < 0.2 else ScalarExpr.alpha(
        rng.randrange(4), Q2(rng.randint(-2, 2), rng.choice((0, 0, 1))),
        rng.choice((0, 0, -2))) + ScalarExpr.const(rng.randint(-1, 1))
    out.set_entry(key, value)
    return out


def _random_tensor(L, rank, rng):
    """A rank-r tensor with a few random entries."""
    T = InvariantTensor(rank)
    for _ in range(5):
        T = _perturb_one_entry(L, T, rng)
    return T


def _killing_tensor(L):
    """The Killing form, which is invariant on every Lie algebra."""
    k = killing_matrix(L)
    return InvariantTensor(2, {(a, b): ScalarExpr.const(k[a][b])
                               for a in range(L.dim) for b in range(a, L.dim)})


def test_sparse_invariance_matches_dense():
    c3, c5, b5 = make_c_algebra(3), make_c_algebra(5), make_b5()
    ads3 = make_named("ads3")
    bases = [(c3, c_tensor(3)), (c3, _on_family(c_tensor(3))),
             (c5, c_tensor(5)), (c5, _on_family(c_tensor(5))),
             (b5, b5_tensor()), (ads3, epsilon_tensor(3))]
    rng = random.Random(20160409)
    cases = list(bases)
    for (L, T), count in zip(bases, (20, 20, 6, 6, 6, 10)):
        cases += [(L, _perturb_one_entry(L, T, rng)) for _ in range(count)]
    # constants with denominators of up to 4 digits, and an algebra and a
    # tensor that both have sqrt2 parts
    bases = [(L, _random_tensor(L, 3, rng)) for L in (random_nilpotent(4, 3),
                                                       random_nilpotent(4, 8))]
    bases += [(L, _killing_tensor(L)) for L in (random_solvable_4d(3), random_solvable_4d(8))]
    stretch = [[SQRT2 if i == j == 0 else Q2(int(i == j)) for j in range(ads3.dim)]
               for i in range(ads3.dim)]
    bases.append((change_basis(ads3, stretch), rotate_tensor(epsilon_tensor(3), stretch)))
    assert any(coeff.b for val in bases[-1][1].entries.values() for coeff in val.terms.values())
    assert any(1000 < v.a.denominator for L, _ in bases[:4]
               for row in L.constants.values() for v in row.values())
    cases += bases
    for L, T in bases:
        cases += [(L, _perturb_one_entry(L, T, rng)) for _ in range(10)]
    verdicts = set()
    for L, T in cases:
        sparse, dense = verify_invariance(L, T), dense_verify_invariance(L, T)
        assert (sparse.ok, sparse.violation, sparse.value) == \
            (dense.ok, dense.violation, dense.value)
        verdicts.add(sparse.ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rotating_back_by_the_inverse_gives_the_tensor(seed):
    """rotate_tensor by a seeded invertible M with sqrt2 parts, then by M^-1,
    is the identity on ads3's epsilon."""
    rng = random.Random(seed)
    m = [[Q2(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-1, 1))
          for _ in range(6)] for _ in range(6)]
    t = epsilon_tensor(3)
    rotated = rotate_tensor(t, m)
    assert rotated != t
    assert rotate_tensor(rotated, mat_inverse(m)) == t


def dense_lift_0s(s, target, base_dim, base_tensor):
    """Reference: the lift that walks every sorted index tuple of the target
    and reads the base entry on its base indices."""
    top = max((key[-1] for key in base_tensor.entries), default=-1)
    if top >= base_dim:
        raise TensorError(f"base tensor index {top} is not below base_dim {base_dim}")
    tags = [lab.tags[0] for lab in target.labels]
    out = InvariantTensor(base_tensor.rank)
    for combo in itertools.combinations_with_replacement(range(target.dim), base_tensor.rank):
        val = base_tensor.get([i % base_dim for i in combo])
        if val.is_zero():
            continue
        gamma = s.product([tags[i] for i in combo])
        if gamma == s.zero_index:
            continue
        out.set_entry(combo, ScalarExpr.alpha(gamma) * val)
    return out


def reference_rotate_tensor(T, m):
    """Reference: every distinct ordering of every entry's key, every row
    choice, accumulated in Q2 and ScalarExpr on the sorted targets."""
    n = len(m)
    rows = [[(i, m[a][i]) for i in range(n) if m[a][i]] for a in range(n)]
    acc = {}
    for key, val in T.entries.items():
        if any(a >= n for a in key):
            raise TensorError("basis matrix too small for tensor indices")
        for perm in set(itertools.permutations(key)):
            for choice in itertools.product(*(rows[a] for a in perm)):
                tgt = tuple(i for i, _ in choice)
                if any(tgt[p] > tgt[p + 1] for p in range(len(tgt) - 1)):
                    continue
                coeff = Q2(1)
                for _, c in choice:
                    coeff = coeff * c
                prev = acc.get(tgt, ScalarExpr.zero())
                acc[tgt] = prev + val.scaled(coeff)
    out = InvariantTensor(T.rank)
    for key, val in acc.items():
        out.set_entry(key, val)
    return out


def _lift_cases():
    """(name, semigroup, target, base_dim, base tensor): c3, c5, c7, b5 and
    the Z_6 halvings, each as lift_h or b5_tensor would call lift_0s."""
    cases = []
    for d, n in [(3, 2), (5, 2), (7, 2), (3, 1), (3, 3), (3, 4), (5, 1), (5, 3)]:
        target = h_reduce(n, make_ads(d))
        cases.append((f"d{d}_n{n}", make_cyclic(2 * n), target, target.dim // n,
                      epsilon_tensor(d)))
    cases.append(("b5", make_se(3), make_b5(), len(pair_basis(5)) + 5, epsilon_tensor(5)))
    return cases


@pytest.mark.parametrize("case", _lift_cases(), ids=lambda case: case[0])
def test_lift_matches_the_dense_lift(case):
    """Same entries, values and insertion order as the dense walk."""
    _, s, target, base_dim, base = case
    lifted = lift_0s(s, target, base_dim, base)
    assert list(lifted.entries.items()) == \
        list(dense_lift_0s(s, target, base_dim, base).entries.items())


def _sparse_invertible(dim, rng, extra):
    """A seeded invertible Q(sqrt2) matrix: random nonzero diagonal and
    `extra` random entries above it."""
    def value():
        while True:
            v = Q2(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1))
            if v:
                return v
    m = [[value() if i == j else Q2(0) for j in range(dim)] for i in range(dim)]
    for _ in range(extra):
        i, j = sorted(rng.sample(range(dim), 2))
        m[i][j] = value()
    return m


def _rotation_cases():
    """(name, tensor, matrix): the c3, c5 and c7 lifts by their mixing
    rotations; every lift case by a seeded sparse invertible matrix; and
    seeded dense ones on a tensor with repeated indices, sqrt2 parts, ell
    powers and several terms per entry."""
    rng = random.Random(20160409)
    cases = [(f"c{d}_mixing", c_tensor(d), mixing_rotation(d)) for d in (3, 5, 7)]
    for name, s, target, base_dim, base in _lift_cases():
        cases.append((name + "_sparse", lift_0s(s, target, base_dim, base),
                      _sparse_invertible(target.dim, rng, target.dim // 2)))
    mixed = InvariantTensor(3, {
        (0, 0, 0): ScalarExpr.alpha(1, Q2(Fraction(1, 3), 2), -2) + ScalarExpr.const(-1),
        (0, 0, 4): ScalarExpr.const(Q2(0, Fraction(-5, 2)), 1),
        (1, 2, 2): ScalarExpr.alpha(0, 2) + ScalarExpr.alpha(3, Q2(1, 1)),
        (2, 3, 5): ScalarExpr.alpha(2, Fraction(7, 4)),
        (4, 4, 5): ScalarExpr.const(3)})
    for k in range(3):
        cases.append((f"dense_{k}", mixed,
                      [[Q2(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-1, 1))
                        for _ in range(6)] for _ in range(6)]))
    cases.append(("eps3_dense", epsilon_tensor(3), cases[-1][2]))
    return cases


@pytest.mark.parametrize("case", _rotation_cases(), ids=lambda case: case[0])
def test_rotation_matches_the_reference(case):
    """Same entries and values as the walk over every ordering; the entries
    go in in sorted key order."""
    _, t, m = case
    rotated = rotate_tensor(t, m)
    assert rotated == reference_rotate_tensor(t, m)
    assert list(rotated.entries) == sorted(rotated.entries)
    assert rotated.entries
