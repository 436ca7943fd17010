import itertools
import json
import random

import pytest

from sexpansion.pipeline import semigroup_from_config
from sexpansion.semigroup import (SelectorQuery, Semigroup, SemigroupError,
                                  check_even_cyclic_identities, direct_product,
                                  find_isomorphism, make_cyclic, make_klein,
                                  make_se, selector, selector_of)


def test_cyclic_table_values():
    z4 = make_cyclic(4)
    assert z4.table[1][1] == 2
    z1 = make_cyclic(1)
    assert z1.order == 1 and z1.table[0][0] == 0


def test_cyclic_against_modular_oracle():
    z6 = make_cyclic(6)
    for a in range(6):
        for b in range(6):
            assert z6.table[a][b] == (a + b) % 6
    assert z6.table[5][5] == 4


def test_cyclic_rejects_zero_order():
    with pytest.raises(SemigroupError):
        make_cyclic(0)


def test_klein_table():
    d4 = make_klein()
    assert d4.table[1][1] == 0
    assert d4.table[2][3] == 1
    assert d4.table[3][3] == 0
    for a in range(4):
        assert d4.table[0][a] == a
        assert d4.table[a][a] == 0  # every element is an involution


def test_klein_is_z2_squared_up_to_relabeling():
    prod = direct_product(make_cyclic(2), make_cyclic(2))
    # flat index of (a, b) is 2a + b; the relabeling below pairs the
    # generators exactly as the two tables are written
    relabel = {0: 0, 2: 1, 1: 2, 3: 3}
    d4 = make_klein()
    for a in range(4):
        for b in range(4):
            assert relabel[prod.table[a][b]] == d4.table[relabel[a]][relabel[b]]


def test_truncated_family():
    s3 = make_se(3)
    assert s3.order == 5 and s3.zero_index == 4
    assert s3.table[2][2] == 4
    for b in range(4):
        assert s3.table[0][b] == b
    s1 = make_se(1)
    assert s1.order == 3 and s1.table[1][1] == 2 == s1.zero_index
    # oracle: direct evaluation of min(a+b, n+1)
    for a in range(3):
        for b in range(3):
            assert s1.table[a][b] == min(a + b, 2)


def test_direct_product_zero_needs_both_factors():
    assert direct_product(make_se(1), make_se(2)).zero_index is not None
    assert direct_product(make_se(1), make_cyclic(3)).zero_index is None
    assert direct_product(make_cyclic(2), make_cyclic(2)).zero_index is None


def test_direct_product_identity_factor():
    s = make_se(2)
    prod = direct_product(make_cyclic(1), s)
    assert prod.table == s.table


def test_direct_product_isomorphisms():
    z2z3 = direct_product(make_cyclic(2), make_cyclic(3))
    perm = find_isomorphism(z2z3, make_cyclic(6))
    assert perm is not None
    # independent check that the found bijection really preserves products
    z6 = make_cyclic(6)
    for a in range(6):
        for b in range(6):
            assert perm[z2z3.table[a][b]] == z6.table[perm[a]][perm[b]]


def test_isomorphism_distinguishes_order_four_groups():
    assert find_isomorphism(make_cyclic(4), make_klein()) is None
    ident = find_isomorphism(make_cyclic(4), make_cyclic(4))
    assert ident == (0, 1, 2, 3)
    assert find_isomorphism(make_cyclic(2), make_cyclic(3)) is None


def test_isomorphism_order_cap():
    with pytest.raises(SemigroupError):
        find_isomorphism(make_cyclic(9), make_cyclic(9))


def test_selector_values():
    z4 = make_cyclic(4)
    assert selector(z4, SelectorQuery((1, 1), 2)) == 1
    for gamma in (0, 1, 3):
        assert selector(z4, SelectorQuery((1, 1), gamma)) == 0
    for beta in range(4):
        assert selector_of(z4, (0, beta), beta) == 1
    # r = 3 chain vs brute-force product
    assert selector_of(z4, (1, 2, 3), 2) == 1
    assert z4.product((1, 2, 3)) == (1 + 2 + 3) % 4


def test_selector_completeness_and_symmetry():
    for s in (make_cyclic(4), make_klein(), make_se(2)):
        for a in range(s.order):
            for b in range(s.order):
                hits = [g for g in range(s.order) if selector_of(s, (a, b), g)]
                assert len(hits) == 1
                assert selector_of(s, (a, b), hits[0]) == selector_of(s, (b, a), hits[0])


def test_r_selector_symmetric_in_lower_indices():
    rng = random.Random(7)
    for s in (make_cyclic(6), make_klein(), make_se(3)):
        for _ in range(25):
            lowers = tuple(rng.randrange(s.order) for _ in range(4))
            upper = s.product(lowers)
            for perm in itertools.permutations(lowers):
                assert selector_of(s, perm, upper) == 1


def test_selector_chain_identity():
    # K_{abg}^d = sum_e K_{ab}^e K_{eg}^d, exhaustively for small orders
    for s in (make_cyclic(4), make_cyclic(8), make_klein(), make_se(2)):
        for a in range(s.order):
            for b in range(s.order):
                for g in range(s.order):
                    for d in range(s.order):
                        chain = sum(selector_of(s, (a, b), e) * selector_of(s, (e, g), d)
                                    for e in range(s.order))
                        assert chain == selector_of(s, (a, b, g), d)


@pytest.mark.parametrize("n", range(1, 9))
def test_even_cyclic_shift_identities(n):
    report = check_even_cyclic_identities(n)
    assert report.ok, report.counterexample


def test_constructed_semigroups_validate():
    # associativity/commutativity are enforced eagerly
    with pytest.raises(SemigroupError):
        Semigroup("bad", 2, ((0, 1), (0, 1)))  # not commutative
    with pytest.raises(SemigroupError):
        Semigroup("bad", 2, ((1, 1), (1, 0)))  # not associative
    with pytest.raises(SemigroupError):
        Semigroup("bad", 2, ((0, 1), (1, 0)), zero_index=0)  # 0 not absorbing


def test_json_round_trip_is_canonical():
    s = make_se(2)
    text = json.dumps(s.to_json_dict())
    again = semigroup_from_config(json.loads(text))
    assert again == s
    assert json.dumps(again.to_json_dict()) == text
    assert json.loads(text)["zero"] == 3
    assert list(json.loads(text)) == ["name", "order", "table", "zero"]
