import random

import pytest

from sexpansion.expansion import (ExpansionError, PairingError, ResonanceSpec,
                                  ResonanceViolation, check_resonance,
                                  greater_interval_algebra, h_reduce,
                                  impose_sign_identification,
                                  resonant_subalgebra, s_expand, zero_reduce)
from sexpansion.fixtures import (b5_resonance_spec, make_b5, make_c_algebra,
                                 make_c_algebra_rotated, random_nilpotent,
                                 random_solvable_4d)
from sexpansion.lie_algebra import (LieAlgebra, check_axioms, killing_profile, make_ads,
                                   make_named)
from sexpansion.scalars import Q2
from sexpansion.semigroup import Semigroup, direct_product, make_cyclic, make_klein, make_se


def test_trivial_expansion_is_identity():
    so3 = make_named("so3")
    assert s_expand(make_cyclic(1), so3).constants_equal(so3)


def test_z2_expansion_of_so3_is_the_compact_form():
    z2 = s_expand(make_cyclic(2), make_named("so3"))
    assert z2.constants_equal(make_named("so4"))
    assert killing_profile(z2) == killing_profile(make_named("so4"))


def test_z4_expansion_bracket_families():
    so3 = make_named("so3")
    G = s_expand(make_cyclic(4), so3)
    assert G.dim == 12
    # [J_(i,tag_a), J_(j,tag_b)] = eps_ij^k J_(k, tag_a+tag_b mod 4)
    for ta in range(4):
        for tb in range(4):
            out = G.bracket(G.basis_vector(ta * 3 + 0), G.basis_vector(tb * 3 + 1))
            target = ((ta + tb) % 4) * 3 + 2
            assert out[target] == Q2(1)
            assert sum(1 for c in out if c) == 1


@pytest.mark.parametrize("order", [1, 2, 4])
def test_expansion_closure_under_axioms(order):
    for L in (make_named("so3"), make_named("ads3")):
        for s in (make_cyclic(order), make_klein() if order == 4 else make_cyclic(order)):
            assert check_axioms(s_expand(s, L)).ok


def test_zero_reduction_dimension():
    g = make_named("so3")
    s = make_se(1)
    reduced = zero_reduce(s_expand(s, g), s)
    assert reduced.dim == 2 * g.dim
    assert check_axioms(reduced).ok


def test_zero_reduction_of_pure_zero_semigroup():
    trivial = Semigroup("zero_only", 1, ((0,),), zero_index=0)
    reduced = zero_reduce(s_expand(trivial, make_named("so3")), trivial)
    assert reduced.dim == 0


def test_zero_reduce_requires_zero():
    g = make_named("so3")
    z2 = make_cyclic(2)
    with pytest.raises(ExpansionError):
        zero_reduce(s_expand(z2, g), z2)


def test_truncated_reduction_matches_tag_sum_rule():
    # after reducing the truncated expansion, a bracket survives exactly
    # when the tag sum stays within the truncation order
    g = make_named("so3")
    s = make_se(2)
    reduced = zero_reduce(s_expand(s, g), s)
    assert reduced.dim == 3 * g.dim
    for ti in range(3):
        for tj in range(3):
            out = reduced.bracket(reduced.basis_vector(ti * 3 + 0),
                                  reduced.basis_vector(tj * 3 + 1))
            if ti + tj <= 2:
                assert out[(ti + tj) * 3 + 2] == Q2(1)
            else:
                assert all(not c for c in out)


def test_b5_pipeline_dimensions_and_axioms():
    b5 = make_b5()
    assert b5.dim == 30
    assert check_axioms(b5).ok
    counts = {}
    for lab in b5.labels:
        counts[(lab.base, len(lab.index))] = counts.get((lab.base, len(lab.index)), 0) + 1
    assert counts == {("J", 2): 10, ("Z", 2): 10, ("P", 1): 5, ("Z", 1): 5}


def test_resonance_checker_accepts_b5_split():
    ads5 = make_named("ads5")
    check_resonance(make_se(3), ads5, b5_resonance_spec())


def test_resonance_checker_reports_violations():
    ads5 = make_named("ads5")
    spec = b5_resonance_spec()
    broken = ResonanceSpec.make(spec.partition,
                                [set(spec.subsets[0]) | {1}, spec.subsets[1]])
    with pytest.raises(ResonanceViolation) as err:
        check_resonance(make_se(3), ads5, broken)
    assert err.value.element is not None


def test_resonance_allows_anything_where_the_bracket_is_zero():
    """[J2, J2] = 0 reaches no part, so S_1 * S_1 is unconstrained: the full
    expansion, every subset all of Z2, is resonant."""
    check_resonance(make_cyclic(2), make_named("so3"),
                    ResonanceSpec.make([0, 0, 1], [[0, 1], [0, 1]]))


def test_resonance_wants_the_intersection_of_the_reached_subsets():
    """[V_0, V_0] reaches parts 0 and 1 of ads3 (P2 alone in part 1), so
    S_0 * S_0 must lie in S_0 & S_1 = {2, 3}; SE2's 0 * 0 = 0 does not.  The
    union {0, 1, 2, 3} would let the family through to a closure failure."""
    ads3, se2 = make_named("ads3"), make_se(2)
    spec = ResonanceSpec.make([0, 0, 0, 0, 0, 1], [[0, 1, 2, 3], [2, 3]])
    with pytest.raises(ResonanceViolation, match="outside the allowed intersection") as err:
        resonant_subalgebra(s_expand(se2, ads3), se2, ads3, spec)
    assert (err.value.p, err.value.q, err.value.element) == (0, 0, 0)


@pytest.mark.parametrize("partition, subsets", [
    ([0, 0, 0], [[0, 1], []]),  # part 1 has a subset but no generator
    ([0, 0, 1], [[0, 1]]),      # part 1 has a generator but no subset
    ([0, 2, 2], [[0], [1], [0, 1]]),
])
def test_resonance_checker_wants_one_part_per_subset(partition, subsets):
    """The parts of the partition are exactly 0..len(subsets) - 1, or the
    check raises ExpansionError before any bracket is looked at."""
    with pytest.raises(ExpansionError, match="the partition must use the parts"):
        check_resonance(make_cyclic(2), make_named("so3"),
                        ResonanceSpec.make(partition, subsets))


def test_trivial_resonance_returns_everything():
    g = make_named("so3")
    s = make_se(1)
    G = s_expand(s, g)
    spec = ResonanceSpec.make([0] * g.dim, [set(s.elements())])
    assert resonant_subalgebra(G, s, g, spec).dim == G.dim


def test_lorentz_recovery():
    assert h_reduce(2, make_named("so3")).constants_equal(make_named("so31"))


HALVING_FIXTURES = ["so3", "ads3", "ads5"]


@pytest.mark.parametrize("name", HALVING_FIXTURES)
def test_halving_trivial_case(name):
    L = make_named(name)
    assert h_reduce(1, L).constants_equal(L)


def test_halving_trivial_case_random():
    L = random_nilpotent(4, seed=20160409)
    assert L.dim == 6
    assert h_reduce(1, L).constants_equal(L)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_halving_dimension_law(n):
    for name in HALVING_FIXTURES:
        L = make_named(name)
        assert h_reduce(n, L).dim == n * L.dim


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_halving_preserves_axioms(n):
    fixtures = [make_named(n_) for n_ in HALVING_FIXTURES]
    fixtures.append(random_solvable_4d(seed=77))
    for L in fixtures:
        assert check_axioms(h_reduce(n, L)).ok


def test_halved_ads5_bracket_table():
    """The halved Z4 expansion reproduces the expected ten bracket families:
    same-tag rotation brackets stay, shifted ones pick up the minus sign."""
    ads5 = make_ads(5)
    c5 = make_c_algebra(5)
    npairs, d = 10, 5
    # [Z_ab, Z_cd] = -f J_ef: tags (1,1) with base [J,J]
    for (i, j), row in ads5.constants.items():
        if i < npairs and j < npairs:  # [J, J] base bracket
            got = c5.pair(15 + i, 15 + j)
            assert got == {c: -v for c, v in row.items()}
    # [Z_a, Z_b] = -J_ab; [P_a, Z_b] = Z_ab
    for a in range(d):
        for b in range(a + 1, d):
            pidx = [(x, y) for x in range(5) for y in range(x + 1, 5)].index((a, b))
            assert c5.pair(15 + npairs + a, 15 + npairs + b).get(pidx) == Q2(-1)
            assert c5.pair(npairs + a, 15 + npairs + b).get(15 + pidx) == Q2(1)


def test_rotated_c5_vector_brackets():
    """The mixed vector basis P' = (P+Z)/sqrt2, Z' = (P-Z)/sqrt2 turns the
    halved algebra into the form with [P,P] = Z_ab, [P,Z] = J_ab,
    [Z,Z] = -Z_ab, and flips the sign of the k-block action on P'."""
    from sexpansion.fixtures import make_c_algebra_rotated
    c5r = make_c_algebra_rotated(5)
    pairs = [(x, y) for x in range(5) for y in range(x + 1, 5)]
    for a in range(5):
        for b in range(a + 1, 5):
            pidx = pairs.index((a, b))
            assert c5r.pair(10 + a, 10 + b) == {15 + pidx: Q2(1)}       # [P,P] = Z_ab
            assert c5r.pair(10 + a, 25 + b) == {pidx: Q2(1)}            # [P,Z] = J_ab
            assert c5r.pair(25 + a, 25 + b) == {15 + pidx: Q2(-1)}      # [Z,Z] = -Z_ab
    # [Z_ab, P'_c] = -f Z'_d while [J_ab, P'_c] = +f P'_d
    ads5 = make_named("ads5")
    for (i, j), row in ads5.constants.items():
        if i < 10 and 10 <= j < 15:  # base [J, P] bracket
            c = j - 10
            got_j = c5r.pair(i, 10 + c)
            assert got_j == {10 + (t - 10): v for t, v in row.items()}
            got_z = c5r.pair(15 + i, 10 + c)
            assert got_z == {25 + (t - 10): -v for t, v in row.items()}
    # all structure constants stay rational after the sqrt2 rotation
    for row in c5r.constants.values():
        assert all(v.is_rational for v in row.values())


def direct_h_reduce(n: int, L):
    """Reference: the halved Z_{2n} table written out directly, the bracket of
    (A, i), (B, j) landing on (C, (i+j) mod n), negated when i + j wraps."""
    dim = L.dim
    labels = [L.labels[a].tagged(t) for t in range(n) for a in range(dim)]
    constants = {}
    for (a, b), targets in L.constants.items():
        for ti in range(n):
            for tj in range(n):
                k, sign = (ti + tj, 1) if ti + tj < n else (ti + tj - n, -1)
                row = constants.setdefault((ti * dim + a, tj * dim + b), {})
                for c, v in targets.items():
                    row[k * dim + c] = v if sign > 0 else -v
    return LieAlgebra("direct", labels, constants)


def test_halving_equals_sign_identification():
    for L in [make_named(name) for name in ("so3", "ads3", "ads5")] + \
            [random_nilpotent(4, seed=7), random_solvable_4d(seed=7)]:
        for n in (1, 2, 3):
            s = make_cyclic(2 * n)
            pairing = {i: (i + n) % (2 * n) for i in range(2 * n)}
            quotient = impose_sign_identification(s_expand(s, L), s, pairing)
            halved = h_reduce(n, L)
            assert quotient.constants_equal(halved)
            # h_reduce is built as that quotient; the direct table is the
            # independent route
            direct = direct_h_reduce(n, L)
            assert halved.constants_equal(direct)
            assert halved.labels == direct.labels
            assert halved.name == f"(Z{2 * n}x{L.name})_H"


def test_greater_interval_witness():
    for name in ("so3", "ads5"):
        L = make_named(name)
        greater = greater_interval_algebra(2, L)
        minor = h_reduce(2, L)
        assert greater.dim == minor.dim
        for key, row in minor.constants.items():
            assert greater.constants[key] == {c: -v for c, v in row.items()}
        assert {lab.tags[0] for lab in greater.labels} == {2, 3}


def test_greater_interval_trivial():
    L = make_named("so3")
    greater = greater_interval_algebra(1, L)
    assert {lab.tags[0] for lab in greater.labels} == {1}
    assert check_axioms(greater).ok


def test_klein_sign_identification_is_z2_expansion():
    for name in ("so3", "ads3"):
        g = make_named(name)
        d4 = make_klein()
        quotient = impose_sign_identification(
            s_expand(d4, g), d4, {0: 2, 2: 0, 1: 3, 3: 1})
        assert quotient.constants_equal(s_expand(make_cyclic(2), g))


def test_inconsistent_pairing_is_rejected():
    g = make_named("so3")
    z4 = make_cyclic(4)
    G = s_expand(z4, g)
    with pytest.raises(PairingError):
        impose_sign_identification(G, z4, {0: 1, 1: 0, 2: 3, 3: 2})


def test_fixed_points_and_non_involutions_rejected():
    g = make_named("so3")
    z4 = make_cyclic(4)
    G = s_expand(z4, g)
    with pytest.raises(ExpansionError):
        impose_sign_identification(G, z4, {0: 0, 1: 1, 2: 2, 3: 3})
    with pytest.raises(ExpansionError):
        impose_sign_identification(G, z4, {0: 1, 1: 2, 2: 3, 3: 0})


def test_random_algebras_are_lie_algebras():
    for seed in (1, 2, 20160409):
        assert check_axioms(random_nilpotent(4, seed)).ok
        assert check_axioms(random_solvable_4d(seed)).ok


def reference_subalgebra_on(G, keep, name):
    """Reference: restrict to the listed generators; brackets landing outside
    raise."""
    keep = list(keep)
    remap = {old: new for new, old in enumerate(keep)}
    labels = [G.labels[i] for i in keep]
    constants = {}
    for (a, b), targets in G.constants.items():
        if a not in remap or b not in remap:
            continue
        row = {}
        for c, v in targets.items():
            if c not in remap:
                raise ExpansionError(
                    f"not closed: [{G.labels[a]}, {G.labels[b]}] hits {G.labels[c]}")
            row[remap[c]] = v
        if row:
            constants[(remap[a], remap[b])] = row
    return LieAlgebra(name, labels, constants)


def reference_zero_reduce(G, s, name=None):
    """Reference: delete the zero-tagged generators and every bracket target
    on them."""
    keep = [i for i, lab in enumerate(G.labels) if lab.tags and lab.tags[0] != s.zero_index]
    remap = {old: new for new, old in enumerate(keep)}
    labels = [G.labels[i] for i in keep]
    constants = {}
    for (a, b), targets in G.constants.items():
        if a not in remap or b not in remap:
            continue
        row = {}
        for c, v in targets.items():
            if c in remap:
                row[remap[c]] = v
        if row:
            constants[(remap[a], remap[b])] = row
    return LieAlgebra(name or f"{G.name}_0red", labels, constants)


def resonant_keep(G, L, spec):
    """The generators `resonant_subalgebra` keeps."""
    return [i for i, lab in enumerate(G.labels)
            if lab.tags[0] in spec.subsets[spec.partition[i % L.dim]]]


def assert_same_algebra(got, want):
    assert got.name == want.name
    assert got.labels == want.labels
    assert got.constants == want.constants
    # the rows come out in the same order too
    assert list(got.constants) == list(want.constants)


def se_split(L, N):
    """The resonance of S_E^(N) with the rotation/translation split of an
    AdS algebra (even and odd tags, the zero in both), or the one-part spec
    that keeps everything for any other algebra."""
    zero = N + 1
    if L.name.startswith("ads"):
        partition = [0 if lab.base == "J" else 1 for lab in L.labels]
        return ResonanceSpec.make(partition, [[*range(0, N + 1, 2), zero],
                                              [*range(1, N + 1, 2), zero]])
    return ResonanceSpec.make([0] * L.dim, [range(N + 2)])


REDUCTION_BASES = {"so3": lambda: make_named("so3"), "ads3": lambda: make_named("ads3"),
                   "ads5": lambda: make_named("ads5"),
                   "nilpotent": lambda: random_nilpotent(4, seed=7),
                   "solvable": lambda: random_solvable_4d(seed=7)}


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("base", REDUCTION_BASES)
def test_reductions_equal_the_references_on_truncated_expansions(base, N):
    L = REDUCTION_BASES[base]()
    s = make_se(N)
    G = s_expand(s, L)
    assert_same_algebra(zero_reduce(G, s), reference_zero_reduce(G, s))
    spec = se_split(L, N)
    res = resonant_subalgebra(G, s, L, spec)
    assert_same_algebra(res, reference_subalgebra_on(G, resonant_keep(G, L, spec),
                                                     f"{G.name}_res"))
    if L.name.startswith("ads"):
        assert res.dim < G.dim
    assert_same_algebra(zero_reduce(res, s, name="r"), reference_zero_reduce(res, s, "r"))


def test_reductions_equal_the_references_on_the_b5_resonance():
    s, ads5, spec = make_se(3), make_named("ads5"), b5_resonance_spec()
    G = s_expand(s, ads5)
    res = resonant_subalgebra(G, s, ads5, spec)
    assert_same_algebra(res, reference_subalgebra_on(G, resonant_keep(G, ads5, spec),
                                                     f"{G.name}_res"))
    reduced = zero_reduce(res, s, name="b5")
    assert_same_algebra(reduced, reference_zero_reduce(res, s, name="b5"))
    assert reduced.constants == make_b5().constants


def test_non_closed_keep_set_raises_the_reference_message():
    # move one kept bracket target onto a generator the resonance drops
    s, ads3 = make_se(2), make_named("ads3")
    spec = se_split(ads3, 2)
    G = s_expand(s, ads3)
    keep = resonant_keep(G, ads3, spec)
    (a, b), row = next((key, row) for key, row in G.constants.items()
                       if key[0] in keep and key[1] in keep)
    dropped = next(i for i in range(G.dim) if i not in keep)
    constants = dict(G.constants)
    constants[(a, b)] = {**row, dropped: Q2(1)}
    broken = LieAlgebra(G.name, G.labels, constants)
    with pytest.raises(ExpansionError) as got:
        resonant_subalgebra(broken, s, ads3, spec)
    with pytest.raises(ExpansionError) as want:
        reference_subalgebra_on(broken, keep, "x")
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("not closed: ")


@pytest.mark.parametrize("seed", [0, 5, 7])
def test_expansion_by_a_product_semigroup_keeps_jacobi(seed):
    """s_expand by Z_a x S_E^(b), for seeded a and b, is a Lie algebra over
    so3 and over a random nilpotent algebra."""
    rng = random.Random(seed)
    s = direct_product(make_cyclic(rng.randint(2, 4)), make_se(rng.randint(0, 2)))
    for L in (make_named("so3"), random_nilpotent(3, seed)):
        assert check_axioms(s_expand(s, L)).ok


def _adopted_algebras():
    """Algebras whose tables are taken over without the constructor's
    checks: the 20 halved reductions of the algebra-verify benchmark, the
    c algebras plain and rotated, b5 with its expansion and resonant steps,
    and the two random-basis algebras."""
    seed = 20160409
    bases = [make_named(name) for name in ("so3", "ads3", "ads5")]
    bases += [random_nilpotent(4, seed=seed), random_solvable_4d(seed=seed)]
    out = [h_reduce(n, L) for L in bases for n in (1, 2, 3, 4)]
    out += [make_c_algebra(d) for d in (3, 5, 7)]
    out += [make_c_algebra_rotated(d) for d in (3, 5, 7)]
    s, ads5 = make_se(3), make_ads(5)
    expanded = s_expand(s, ads5)
    resonant = resonant_subalgebra(expanded, s, ads5, b5_resonance_spec())
    out += [expanded, resonant, zero_reduce(resonant, s), make_b5()]
    out += bases[3:]
    return out


def test_adopted_tables_are_canonical():
    """The validating constructor gives each adopted table back unchanged:
    the same constants, in the same key and target order."""
    algebras = _adopted_algebras()
    assert len(algebras) == 32
    for L in algebras:
        again = LieAlgebra(L.name, L.labels, L.constants)
        assert [(k, list(row.items())) for k, row in again.constants.items()] == \
            [(k, list(row.items())) for k, row in L.constants.items()], L.name
