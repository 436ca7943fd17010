import copy
import itertools
import json
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from sexpansion.fixtures import (build_connection, c_tensor_rotated,
                                 make_c_algebra_rotated)
from sexpansion.forms import (FormSymbol, IntForm, LieValuedForm, ScalarForm,
                              _odd_bits, canonical_monomial, contract, curvature,
                              exterior_d, int_d, int_wedge, lie_bracket_form,
                              parse_symbol,
                              scalar_form_from_json_dict,
                              scalar_form_to_json_dict, sym, wedge)
from sexpansion.invariant_tensor import InvariantTensor, epsilon_tensor
from sexpansion.scalars import AlphaLinearityError, Q2, ScalarExpr


def S(*symbols) -> ScalarForm:
    sign, mono = canonical_monomial(symbols)
    return ScalarForm({mono: ScalarExpr.const(sign)}) if sign else ScalarForm.zero()


def test_odd_square_vanishes():
    e1 = S(sym("e", 1))
    assert wedge(e1, e1).is_zero()


def test_odd_odd_anticommute():
    e1, e2 = S(sym("e", 1)), S(sym("e", 2))
    assert wedge(e1, e2) == wedge(e2, e1).scaled(Q2(-1))


def test_even_commutes_with_anything():
    dw = S(sym("w", 1, 2, d=True))
    e3 = S(sym("e", 3))
    assert wedge(dw, e3) == wedge(e3, dw)
    dk = S(sym("k", 0, 1, d=True))
    assert wedge(dw, dk) == wedge(dk, dw)


def test_even_symbol_square_survives():
    dw = S(sym("w", 0, 1, d=True))
    assert not wedge(dw, dw).is_zero()


def test_graded_commutativity_random():
    rng = random.Random(13)
    universe = [sym("e", i) for i in range(3)] + [sym("w", 0, 1), sym("h", 2)] \
        + [sym("e", 0, d=True), sym("w", 0, 2, d=True)]
    for _ in range(40):
        m1 = [rng.choice(universe) for _ in range(rng.randint(1, 3))]
        m2 = [rng.choice(universe) for _ in range(rng.randint(1, 3))]
        f = S(*m1)
        g = S(*m2)
        if f.is_zero() or g.is_zero():
            continue
        d1 = sum(s.degree for s in m1)
        d2 = sum(s.degree for s in m2)
        sign = Q2(-1 if (d1 * d2) % 2 else 1)
        assert wedge(f, g) == wedge(g, f).scaled(sign)


def test_wedge_associativity_random():
    rng = random.Random(29)
    universe = [sym("e", i) for i in range(3)] + [sym("k", 0, 1), sym("h", 1),
                                                  sym("w", 1, 2, d=True)]
    for _ in range(30):
        forms = []
        for _ in range(3):
            f = ScalarForm.zero()
            for _ in range(2):
                m = [rng.choice(universe) for _ in range(rng.randint(0, 2))]
                sign, mono = canonical_monomial(m)
                if sign:
                    f.add_term(mono, ScalarExpr.const(rng.randint(-2, 2)))
            forms.append(f)
        a, b, c = forms
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_leibniz_on_degree_one():
    e1, e2 = sym("e", 1), sym("e", 2)
    got = exterior_d(S(e1, e2))
    expected = wedge(S(sym("e", 1, d=True)), S(e2)) \
        - wedge(S(e1), S(sym("e", 2, d=True)))
    assert got == expected


def test_d_squared_zero_random():
    rng = random.Random(4)
    universe = [sym("e", i) for i in range(3)] + [sym("w", 0, 1), sym("w", 0, 2),
                                                  sym("k", 1, 2), sym("h", 0)]
    for _ in range(30):
        f = ScalarForm.zero()
        for _ in range(3):
            m = [rng.choice(universe) for _ in range(rng.randint(1, 3))]
            sign, mono = canonical_monomial(m)
            if sign:
                f.add_term(mono, ScalarExpr.const(Q2(rng.randint(-3, 3))))
        assert exterior_d(exterior_d(f)).is_zero()


def reference_recanonicalized(f: ScalarForm) -> ScalarForm:
    """The deleted `ScalarForm.recanonicalized`: every monomial rebuilt by
    `canonical_monomial`, which must give f back."""
    out = ScalarForm()
    for m, c in f.terms.items():
        sign, mono = canonical_monomial(m)
        if sign:
            out.add_term(mono, c if sign > 0 else -c)
    return out


def test_recanonicalization_is_identity():
    c5r = make_c_algebra_rotated(5)
    A = build_connection(c5r)
    F = curvature(A, c5r)
    for comp in F.components.values():
        assert reference_recanonicalized(comp) == comp


def test_curvature_components_are_homogeneous():
    c5r = make_c_algebra_rotated(5)
    A = build_connection(c5r)
    F = curvature(A, c5r)
    for comp in F.components.values():
        assert comp.degrees() == {2}
    # dA part of the curvature is exactly the d-image of the connection
    dA = A.d()
    for i, comp in dA.components.items():
        for mono in comp.terms:
            assert mono in F.components[i].terms


def test_translation_bracket_lands_on_pair_block():
    c5r = make_c_algebra_rotated(5)
    e = build_connection(c5r, ("e",))
    ee = lie_bracket_form(e, e, c5r)
    for i in ee.components:
        lab = c5r.labels[i]
        assert lab.base == "Z" and len(lab.index) == 2


def test_even_valued_self_bracket_vanishes():
    c5r = make_c_algebra_rotated(5)
    A = build_connection(c5r)
    F = curvature(A, c5r)
    assert lie_bracket_form(F, F, c5r).is_zero()


def test_torsion_shape():
    c5r = make_c_algebra_rotated(5)
    w = build_connection(c5r, ("w",))
    e = build_connection(c5r, ("e",))
    torsion = e.d() + lie_bracket_form(w, e, c5r)
    for i in torsion.components:
        assert c5r.labels[i].base == "P"


def test_bianchi_identity():
    for d in (3, 5):
        L = make_c_algebra_rotated(d)
        A = build_connection(L)
        F = curvature(A, L)
        assert (F.d() + lie_bracket_form(A, F, L)).is_zero()


def test_contract_rejects_rank_mismatch():
    c5r = make_c_algebra_rotated(5)
    A = build_connection(c5r)
    with pytest.raises(ValueError):
        from sexpansion.forms import contract
        contract(c_tensor_rotated(5), [A, A])


def test_contract_with_zero_tensor():
    from sexpansion.forms import contract
    c5r = make_c_algebra_rotated(5)
    A = build_connection(c5r)
    assert contract(InvariantTensor(3), [A, A, A]).is_zero()


def test_pure_rotation_cube_has_no_invariant():
    from sexpansion.forms import contract
    c5r = make_c_algebra_rotated(5)
    w = build_connection(c5r, ("w",))
    assert contract(c_tensor_rotated(5), [w, w, w]).is_zero()


def test_json_round_trip():
    c3r = make_c_algebra_rotated(3)
    A = build_connection(c3r)
    F = curvature(A, c3r)
    comp = next(iter(F.components.values()))
    d = scalar_form_to_json_dict(comp)
    assert scalar_form_from_json_dict(d) == comp
    # a sqrt2 part, a negative ell power and an alpha-free term
    mixed = ScalarForm({(sym("w", 1, 2), sym("e", 0)): ScalarExpr.alpha(1, Q2(3, -1), -2)
                        + ScalarExpr.const(Fraction(-2, 5)),
                        (sym("h", 1),): ScalarExpr.const(Q2(0, Fraction(1, 2)), 1)})
    d = scalar_form_to_json_dict(mixed)
    assert scalar_form_from_json_dict(json.loads(json.dumps(d))) == mixed
    assert d["monomials"][0]["coeff"] == [
        {"alpha": None, "ell_pow": 0, "q": "-2/5"},
        {"alpha": 1, "ell_pow": -2, "q": "3", "q_sqrt2": "-1"}]


def _item(alpha=1, ell_pow=-1, q="3/2", **extra) -> dict:
    return dict({"alpha": alpha, "ell_pow": ell_pow, "q": q}, **extra)


def _read(*coeffs) -> ScalarForm:
    """scalar_form_from_json_dict of one monomial per coeff list, e0, e1, ..."""
    return scalar_form_from_json_dict({"monomials": [
        {"monomial": f"e{i}", "coeff": c} for i, c in enumerate(coeffs)]})


@pytest.mark.parametrize("good, bad", [
    (_item(q=1), _item(q=1.0)), (_item(q=1), _item(q=True)),
    (_item(q="1", q_sqrt2=1), _item(q="1", q_sqrt2=1.0)),
    (_item(alpha=1), _item(alpha=True)), (_item(alpha=1), _item(alpha=1.0)),
    (_item(ell_pow=1), _item(ell_pow=True)), (_item(ell_pow=0), _item(ell_pow=False)),
    (_item(ell_pow=1), _item(ell_pow=1.0)),
])
def test_a_read_coefficient_is_not_shared_with_a_value_json_tells_apart(good, bad):
    """1, 1.0 and true are equal in Python, but only 1 is an integer: a list
    read once and shared does not stand in for the same list with 1.0 or
    true, which is still refused, also when it comes first."""
    assert good == bad
    f = _read([good], [good])
    assert f.terms[(sym("e", 0),)] is f.terms[(sym("e", 1),)]
    with pytest.raises(ValueError):
        _read([good], [bad])
    with pytest.raises(ValueError):
        _read([bad], [good])


def test_a_repeated_term_in_a_read_coefficient_still_raises():
    for coeffs in ([[_item(), _item()]], [[_item()], [_item(), _item()]],
                   [[_item()], [_item(), _item(q="1/2")]]):
        with pytest.raises(ValueError, match=r"\(1, -1\) is stated twice"):
            _read(*coeffs)


def test_a_coefficient_the_reader_cannot_key_is_read_on_its_own():
    """A list holding an unhashable extra value is read as before; a coeff
    that is not a list of dicts raises as `from_json_list` does."""
    f = _read([_item(note=[1])], [_item(note=[1])], [_item()])
    assert f == _read([_item()], [_item()], [_item()])
    with pytest.raises(TypeError):
        _read(["alpha"])
    with pytest.raises(TypeError):
        _read(3)


def test_changing_one_read_monomial_leaves_the_monomials_sharing_its_coefficient():
    c = ScalarExpr.alpha(1, Q2(Fraction(3, 2), 1), -1)
    monos = [(sym("e", i),) for i in range(4)]
    f = scalar_form_from_json_dict(json.loads(json.dumps(
        scalar_form_to_json_dict(ScalarForm({m: c for m in monos})))))
    assert len({id(v) for v in f.terms.values()}) == 1
    f.add_term(monos[0], ScalarExpr.const(1))
    f.add_term(monos[1], -c)
    f.add_form(ScalarForm({monos[2]: c}), 2)
    assert f == ScalarForm({monos[0]: c + ScalarExpr.const(1), monos[2]: c.scaled(3),
                            monos[3]: c})


def test_symbol_validation():
    with pytest.raises(ValueError):
        FormSymbol("x", (0,))
    with pytest.raises(ValueError):
        FormSymbol("w", (1, 0))
    with pytest.raises(ValueError):
        FormSymbol("e", (0, 1))
    # monomial names write each index as one digit
    for field, indices in (("e", (10,)), ("h", (-1,)), ("w", (3, 10)), ("k", (-1, 2))):
        with pytest.raises(ValueError, match="must lie in 0..9"):
            FormSymbol(field, indices)
    assert str(FormSymbol("w", (0, 9), True)) == "dw09"


def _random_scalar(rng, alpha: bool) -> ScalarExpr:
    q = Q2(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
           rng.choice([0, 0, Fraction(rng.randint(-2, 2), 2)]))
    ell = rng.randint(-2, 2)
    if alpha and rng.random() < 0.7:
        return ScalarExpr.alpha(rng.randint(0, 3), q, ell)
    return ScalarExpr.const(q, ell)


def _random_form(rng, symbols, alpha: bool) -> ScalarForm:
    out = ScalarForm()
    for _ in range(rng.randint(0, 8)):
        sign, mono = canonical_monomial(rng.sample(symbols, rng.randint(1, 3)))
        if sign:
            out.add_term(mono, _random_scalar(rng, alpha))
    return out


def test_add_form_equals_copying_add():
    rng = random.Random(2016)
    symbols = [sym("e", i) for i in range(3)] + [sym("w", 0, 1), sym("w", 0, 1, d=True)]
    for _ in range(300):
        f = _random_form(rng, symbols, alpha=True)
        g = _random_form(rng, symbols, alpha=True)
        c = rng.choice([None, 0, -1, 2, Q2(1, -1), _random_scalar(rng, alpha=False)])
        expected = f + (g if c is None else g.scaled(c))
        g_before = scalar_form_to_json_dict(g)
        f.add_form(g, c)
        assert f == expected
        assert list(f.terms) == list(expected.terms)  # same insertion order
        f.add_form(g, c)  # accumulating again must not reach back into g
        assert scalar_form_to_json_dict(g) == g_before


def test_add_form_onto_itself_and_cancellation():
    rng = random.Random(5)
    symbols = [sym("e", i) for i in range(4)] + [sym("k", 1, 2)]
    for _ in range(50):
        f = _random_form(rng, symbols, alpha=True)
        expected = f + f.scaled(3)
        f.add_form(f, 3)
        assert f == expected
        f.add_form(f, -1)
        assert f.is_zero()


def test_contract_leaves_its_input_forms_unchanged():
    from sexpansion.forms import contract
    c3r = make_c_algebra_rotated(3)
    A = build_connection(c3r)
    F = curvature(A, c3r)
    before = {i: scalar_form_to_json_dict(f) for i, f in F.components.items()}
    first = contract(c_tensor_rotated(3), [F, A])
    assert contract(c_tensor_rotated(3), [F, A]) == first
    assert {i: scalar_form_to_json_dict(f) for i, f in F.components.items()} == before


# -- the symmetric contraction against the dense one it replaced ----------------


def dense_contract(T, forms):
    """The reference contraction: every ordered tuple of components, its
    entry looked up in T, and one wedge chain per tuple."""
    if len(forms) != T.rank:
        raise ValueError("number of forms must equal the tensor rank")
    out = ScalarForm()
    comp_lists = [list(f.components.items()) for f in forms]
    for combo in itertools.product(*comp_lists):
        val = T.get(tuple(i for i, _ in combo))
        if val.is_zero():
            continue
        prod = combo[0][1]
        for _, sf in combo[1:]:
            prod = wedge(prod, sf)
            if prod.is_zero():
                break
        else:
            out.add_form(prod, val)
    return out


# -- the ScalarExpr-coefficient kernel that the integer kernel replaced ---------


def reference_wedge(f, g):
    out = ScalarForm()
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            sign, mono = canonical_monomial(m1 + m2)
            if sign:
                c = c1 * c2
                out.add_term(mono, c if sign > 0 else -c)
    return out


def reference_exterior_d(f):
    out = ScalarForm()
    for m, c in f.terms.items():
        before_odd = 0
        for i, s in enumerate(m):
            ds = s.d()
            if ds is not None:
                sign, mono = canonical_monomial(m[:i] + (ds,) + m[i + 1:])
                if sign:
                    if before_odd % 2:
                        sign = -sign
                    out.add_term(mono, c if sign > 0 else -c)
            before_odd += s.degree % 2
    return out


def reference_lie_scaled(f, c):
    out = LieValuedForm()
    for i, sf in f.components.items():
        out.add_component(i, sf.scaled(c))
    return out


def reference_lie_sub(f, g):
    return f + reference_lie_scaled(g, Q2(-1))


def reference_lie_d(f):
    out = LieValuedForm()
    for i, sf in f.components.items():
        out.add_component(i, reference_exterior_d(sf))
    return out


def reference_lie_bracket_form(f, g, L):
    out = LieValuedForm()
    for a, fa in f.components.items():
        for b, gb in g.components.items():
            row = L.pair(a, b)
            if not row:
                continue
            prod = reference_wedge(fa, gb)
            if prod.is_zero():
                continue
            for c, coeff in row.items():
                out.add_component(c, prod.scaled(coeff))
    return out


def reference_curvature(A, L):
    return reference_lie_d(A) + reference_lie_scaled(
        reference_lie_bracket_form(A, A, L), Q2(Fraction(1, 2)))


def reference_contract(T, forms):
    """The symmetric contraction on ScalarExpr coefficients."""
    if len(forms) != T.rank:
        raise ValueError("number of forms must equal the tensor rank")
    comps = [f.components for f in forms]
    slots_of = {}
    for slot, f in enumerate(forms):
        slots_of.setdefault(id(f), []).append(slot)
    groups = [slots for slots in slots_of.values()
              if len(slots) > 1 and all(sum(s.degree for s in m) % 2 == 0
                                        for sf in forms[slots[0]].components.values()
                                        for m in sf.terms)]
    out = ScalarForm()
    for key, val in T.entries.items():
        counts = {}
        for order in set(itertools.permutations(key)):
            if not all(i in c for i, c in zip(order, comps)):
                continue
            order = list(order)
            for slots in groups:
                for slot, i in zip(slots, sorted(order[s] for s in slots)):
                    order[slot] = i
            order = tuple(order)
            counts[order] = counts.get(order, 0) + 1
        for order, n in sorted(counts.items()):
            prod = comps[0][order[0]]
            for c, i in zip(comps[1:], order[1:]):
                prod = reference_wedge(prod, c[i])
                if prod.is_zero():
                    break
            else:
                out.add_form(prod, val if n == 1 else val.scaled(n))
    return out


_ODD = [sym("e", i) for i in range(4)] + [sym("w", 0, 1), sym("k", 1, 2)]
_EVEN = [s.d() for s in _ODD]


def _random_lie_form(rng, generators, degrees, size=4):
    """Components on up to size of the generators; each monomial has a degree
    drawn from degrees, so (1, 2) gives components of mixed degree."""
    out = LieValuedForm()
    for i in rng.sample(generators, rng.randint(1, min(size, len(generators)))):
        f = ScalarForm()
        for _ in range(rng.randint(1, 3)):
            degree = rng.choice(degrees)
            n_even = rng.randint(0, degree // 2)
            sign, mono = canonical_monomial(rng.sample(_ODD, degree - 2 * n_even)
                                            + rng.sample(_EVEN, n_even))
            if sign:
                f.add_term(mono, _random_scalar(rng, alpha=False))
        out.add_component(i, f)
    return out


def _random_symmetric_tensor(rng, rank, dim):
    t = InvariantTensor(rank)
    for _ in range(rng.randint(1, 12)):
        t.set_entry([rng.randrange(dim) for _ in range(rank)], _random_scalar(rng, alpha=True))
    return t


def _twin(f):
    """Equal to f but not the same object, so contract cannot group it with f."""
    return LieValuedForm({i: ScalarForm(dict(sf.terms)) for i, sf in f.components.items()})


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_contract_equals_dense_contract_on_random_slots(rank):
    """Repeated even and odd form objects, equal-but-distinct twins, mixed
    degrees and alpha-carrying entries, drawn into the slots with repeats."""
    rng = random.Random(20160409 + rank)
    dim = 5
    for _ in range(60):
        T = _random_symmetric_tensor(rng, rank, dim)
        pool = [_random_lie_form(rng, range(dim), degrees)
                for degrees in ((2,), (2, 4), (1,), (3,), (1, 2))]
        pool.append(_twin(rng.choice(pool)))
        forms = [rng.choice(pool) for _ in range(rank)]
        assert contract(T, forms) == dense_contract(T, forms)


def test_contract_equals_dense_contract_on_repeated_objects():
    rng = random.Random(7)
    for _ in range(40):
        T = _random_symmetric_tensor(rng, 3, 4)
        F = _random_lie_form(rng, range(4), (2,))
        A = _random_lie_form(rng, range(4), (1,))
        M = _random_lie_form(rng, range(4), (1, 2))
        for forms in ([A, F, F], [F, A, F], [F, F, F], [A, A, A], [M, M, M],
                      [F, _twin(F), F], [A, _twin(A), A]):
            assert contract(T, forms) == dense_contract(T, forms)


def test_contract_equals_dense_contract_on_eps7():
    """The rank-4 epsilon invariant of ads7 on forms over the generators of
    two of its entries, so that some products land on an entry."""
    rng = random.Random(11)
    T = epsilon_tensor(7)
    keys = sorted(T.entries)
    for _ in range(10):
        generators = sorted(set(rng.choice(keys)) | set(rng.choice(keys)))
        F = _random_lie_form(rng, generators, (2,), size=8)
        A = _random_lie_form(rng, generators, (1,), size=8)
        for forms in ([A, F, F, F], [F, F, F, F], [A, A, F, F],
                      [F, A, _twin(F), F]):
            assert contract(T, forms) == dense_contract(T, forms)


@pytest.mark.parametrize("d", [3, 5])
def test_contract_equals_dense_contract_on_curvatures(d):
    L = make_c_algebra_rotated(d)
    T = c_tensor_rotated(d)
    A = build_connection(L, ("w", "e"))
    F = curvature(A, L)
    for forms in ([A] + [F] * (T.rank - 1), [F] * T.rank):
        assert contract(T, forms) == dense_contract(T, forms)


# -- the interned symbol kernel against the dataclass one it replaced ------------


@dataclass(frozen=True)
class DataclassSymbol:
    """The reference symbol: a frozen dataclass ordered by its sort_key."""

    field: str
    indices: tuple[int, ...]
    differentiated: bool = False

    @property
    def degree(self) -> int:
        return 2 if self.differentiated else 1

    @property
    def sort_key(self) -> tuple:
        return ({"w": 0, "e": 1, "k": 2, "h": 3}[self.field], self.differentiated, self.indices)


def reference_canonical_monomial(seq):
    """The reference kernel: sign from the odd symbols' sort keys, order by sort_key."""
    odd_keys = [s.sort_key for s in seq if s.degree % 2 == 1]
    sign = 1
    for i in range(len(odd_keys)):
        for j in range(i + 1, len(odd_keys)):
            if odd_keys[i] == odd_keys[j]:
                return 0, None
            if odd_keys[i] > odd_keys[j]:
                sign = -sign
    return sign, tuple(sorted(seq, key=lambda s: s.sort_key))


def _specs():
    """(field, indices, differentiated) of every symbol with indices <= 9."""
    for field in "wekh":
        index_sets = (itertools.combinations(range(10), 2) if field in "wk"
                      else ((i,) for i in range(10)))
        for indices in index_sets:
            for d in (False, True):
                yield field, indices, d


_SPECS = list(_specs())


def _spec(s):
    return (s.field, s.indices, s.differentiated)


def test_symbol_order_equals_the_dataclass_sort_key_order():
    assert len(_SPECS) == 220
    rng = random.Random(3)
    shuffled = rng.sample(_SPECS, len(_SPECS))
    expected = sorted(shuffled, key=lambda spec: DataclassSymbol(*spec).sort_key)
    assert [_spec(s) for s in sorted(FormSymbol(*spec) for spec in shuffled)] == expected
    for spec in _SPECS:
        s, ref = FormSymbol(*spec), DataclassSymbol(*spec)
        assert (s.sort_key, s.degree) == (ref.sort_key, ref.degree)


def test_canonical_monomial_equals_the_dataclass_kernel():
    """Seeded symbol sequences over all four fields, both d flags and indices
    0..9; a small pool per sequence makes repeated odd symbols common."""
    rng = random.Random(20161010)
    new_monos, ref_monos = [], []
    for _ in range(3000):
        pool = rng.sample(_SPECS, rng.randint(1, 8))
        specs = [rng.choice(pool) for _ in range(rng.randint(0, 7))]
        sign, mono = canonical_monomial([FormSymbol(*spec) for spec in specs])
        ref_sign, ref_mono = reference_canonical_monomial([DataclassSymbol(*spec)
                                                           for spec in specs])
        assert sign == ref_sign
        if ref_mono is None:
            assert mono is None
            continue
        assert [_spec(s) for s in mono] == [_spec(s) for s in ref_mono]
        new_monos.append(mono)
        ref_monos.append(ref_mono)
    assert 0 < len(new_monos) < 3000  # both outcomes occur
    # monomials of different lengths sort as the tuples of their sort keys
    expected = [[_spec(s) for s in m]
                for m in sorted(set(ref_monos), key=lambda m: tuple(s.sort_key for s in m))]
    assert [[_spec(s) for s in m] for m in sorted(set(new_monos))] == expected


def test_symbols_are_interned_values():
    for spec in _SPECS:
        s = FormSymbol(*spec)
        assert parse_symbol(str(s)) is s
        assert FormSymbol(spec[0], list(spec[1]), int(spec[2])) is s
        assert copy.deepcopy(s) is s and pickle.loads(pickle.dumps(s)) is s
        assert hash(s) == hash(int(s))  # a value hash, the same in every process
        if not s.differentiated:
            assert s.d() is FormSymbol(s.field, s.indices, True)
    assert FormSymbol("w", (0, 1)) is sym("w", 0, 1)
    assert FormSymbol("e", (3,), True) is sym("e", 3, d=True)
    assert repr(sym("k", 1, 2)) == "FormSymbol(field='k', indices=(1, 2), differentiated=False)"
    with pytest.raises(AttributeError):
        sym("e", 0).field = "h"
    with pytest.raises(AttributeError):
        del sym("e", 0).indices


# -- the integer kernel against the ScalarExpr-coefficient reference ------------


def _outcome(fn, *args):
    """fn's result, or AlphaLinearityError when it raises that."""
    try:
        return fn(*args)
    except AlphaLinearityError:
        return AlphaLinearityError


_KERNEL_SYMBOLS = [sym("e", i) for i in range(4)] + [sym("w", 0, 1), sym("h", 1),
                                                     sym("e", 0, d=True),
                                                     sym("w", 0, 1, d=True)]


def test_kernel_wedge_and_d_equal_the_reference_on_seeded_forms():
    """sqrt2 parts, ell powers -2..2, alpha terms and cancellations: half the
    pairs share the odd 1-form u = e0 + e1, whose square cancels."""
    rng = random.Random(20060606)
    u = S(sym("e", 0)) + S(sym("e", 1))
    raised = cancelled = 0
    for _ in range(500):
        f = _random_form(rng, _KERNEL_SYMBOLS, alpha=True)
        g = _random_form(rng, _KERNEL_SYMBOLS, alpha=rng.random() < 0.3)
        if rng.random() < 0.5:
            f.add_form(u, _random_scalar(rng, alpha=False))
            g.add_form(u, _random_scalar(rng, alpha=False))
        got = _outcome(wedge, f, g)
        assert got == _outcome(reference_wedge, f, g)
        assert exterior_d(f) == reference_exterior_d(f)
        if got is AlphaLinearityError:
            raised += 1
            continue
        products = {mono for m1 in f.terms for m2 in g.terms
                    for sign, mono in [canonical_monomial(m1 + m2)] if sign}
        cancelled += not products <= set(got.terms)
    assert raised > 20 and cancelled > 20


def test_kernel_contract_equals_the_reference_contract():
    """Alpha-carrying entries and components, sqrt2 parts, repeated objects."""
    rng = random.Random(1995)
    raised = 0
    for _ in range(80):
        rank = rng.choice([2, 3])
        T = _random_symmetric_tensor(rng, rank, 4)
        pool = [_random_lie_form(rng, range(4), degrees) for degrees in ((2,), (1,), (1, 2))]
        alpha_form = _random_lie_form(rng, range(4), (1, 2))
        for sf in alpha_form.components.values():
            for m in list(sf.terms):
                sf.terms[m] = sf.terms[m] + ScalarExpr.alpha(rng.randint(0, 3))
        pool.append(alpha_form)
        forms = [rng.choice(pool) for _ in range(rank)]
        got = _outcome(contract, T, forms)
        assert got == _outcome(reference_contract, T, forms)
        raised += got is AlphaLinearityError
    assert raised > 5


def test_kernel_curvature_and_bracket_equal_the_reference():
    for d in (3, 5):
        L = make_c_algebra_rotated(d)
        A = build_connection(L)
        w, e = build_connection(L, ("w",)), build_connection(L, ("e",))
        assert curvature(A, L) == reference_curvature(A, L)
        assert lie_bracket_form(w, e, L) == reference_lie_bracket_form(w, e, L)
        assert A.d() == reference_lie_d(A)


def _kernel_value(k: IntForm) -> dict:
    return {(key, m): Fraction(c, k.den) for key, part in k.parts.items()
            for m, c in part.items()}


def test_kernel_conversions_round_trip():
    rng = random.Random(31)
    for _ in range(200):
        f = _random_form(rng, _KERNEL_SYMBOLS, alpha=True)
        k = IntForm.of(f)
        assert all(type(c) is int and c for part in k.parts.values() for c in part.values())
        assert k.into_scalar_form() == f
        assert not k.parts  # the conversion out empties its kernel form
    for _ in range(200):
        parts = {}
        for _ in range(rng.randint(0, 6)):
            key = (rng.choice([None, 0, 3]), rng.randint(-2, 2), rng.randint(0, 1))
            sign, mono = canonical_monomial(rng.sample(_KERNEL_SYMBOLS, rng.randint(0, 3)))
            if sign:
                parts.setdefault(key, {})[mono] = rng.choice([-1, 1]) * rng.randint(1, 30)
        k = IntForm(parts, rng.randint(1, 12))
        value = _kernel_value(k)
        assert _kernel_value(IntForm.of(k.into_scalar_form())) == value


def test_alpha_product_raises_only_when_a_nonzero_product_forms():
    e0, e1 = sym("e", 0), sym("e", 1)
    a0 = ScalarForm({(e0,): ScalarExpr.alpha(0)})
    a1 = ScalarForm({(e1,): ScalarExpr.alpha(1, Q2(1, 1), -1)})
    with pytest.raises(AlphaLinearityError):
        wedge(a0, a1)
    assert wedge(a0, a0).is_zero()  # e0 e0 = 0: no product is formed
    assert wedge(a0 + S(e1), a0) == ScalarForm({(e0, e1): ScalarExpr.alpha(0, -1)})
    T = InvariantTensor(2, {(0, 0): ScalarExpr.alpha(2), (0, 1): ScalarExpr.const(3)})
    assert contract(T, [LieValuedForm({0: a0}), LieValuedForm({0: a0})]).is_zero()
    A = LieValuedForm({0: S(e0), 1: a1})
    with pytest.raises(AlphaLinearityError):
        contract(InvariantTensor(2, {(0, 1): ScalarExpr.alpha(0)}), [A, A])
    assert contract(T, [A, A]) == reference_contract(T, [A, A])


# -- the kernel's monomial product against canonical_monomial -------------------


def _symbol_set(d):
    """The symbols of a d-dimensional connection and their d-images, and
    every symbol with index 9."""
    return [FormSymbol(*spec) for spec in _SPECS if spec[1][-1] < d or 9 in spec[1]]


def _random_canonical(rng, symbols, odd_from=()):
    """A canonical monomial of up to four odd and two even symbols; with
    odd_from it holds one odd symbol of that monomial."""
    odd = [s for s in symbols if s.degree == 1]
    even = [s for s in symbols if s.degree == 2]
    seq = rng.sample(odd, rng.randint(0, 4))
    seq += [rng.choice(even) for _ in range(rng.randint(0, 2))]
    shared = [s for s in odd_from if s.degree == 1]
    if shared:
        seq.append(rng.choice(shared))
    rng.shuffle(seq)
    sign, mono = canonical_monomial(seq)
    return mono if sign else ()


_KEY = (None, 0, 0)


def _kernel_pair(m1, m2):
    """(sign, monomial) of m1 ^ m2 as int_wedge forms it from two one-term
    forms; (0, None) when it vanishes."""
    part = int_wedge(IntForm({_KEY: {m1: 1}}), IntForm({_KEY: {m2: 1}})).parts.get(_KEY)
    if not part:
        return 0, None
    [(mono, sign)] = part.items()
    return sign, mono


@pytest.mark.parametrize("d", [3, 5, 7])
def test_kernel_products_and_d_equal_the_references(d):
    """Pairs of canonical monomials, a third of them sharing an odd symbol,
    with the empty monomial on either side: each product against both
    canonical_monomial and the dataclass reference kernel, and the d of the
    first factor against reference_exterior_d."""
    rng = random.Random(20161010 + d)
    symbols = _symbol_set(d)
    outcomes = {-1: 0, 0: 0, 1: 0}
    for i in range(3000):
        m1 = _random_canonical(rng, symbols)
        m2 = _random_canonical(rng, symbols, m1 if i % 3 == 0 else ())
        if i % 50 == 0:
            m1 = ()
        elif i % 50 == 1:
            m2 = ()
        sign, mono = _kernel_pair(m1, m2)
        assert (sign, mono) == canonical_monomial(m1 + m2)
        ref_sign, ref_mono = reference_canonical_monomial(
            [DataclassSymbol(*_spec(s)) for s in m1 + m2])
        assert sign == ref_sign
        assert (mono is None and ref_mono is None) or \
            [_spec(s) for s in mono] == [_spec(s) for s in ref_mono]
        outcomes[sign] += 1
        f = ScalarForm({m1: ScalarExpr.const(i % 7 + 1)})
        assert int_d(IntForm.of(f)).into_scalar_form() == reference_exterior_d(f)
    assert all(n > 300 for n in outcomes.values()), outcomes
    assert _kernel_pair((), ()) == (1, ())


@pytest.mark.parametrize("d", [3, 5, 7])
def test_odd_bits_follow_their_definition(d):
    """mask holds the odd symbols; par's bit at any symbol p is the parity
    of the odd symbols below p.  The products alone cannot tell par from
    the XOR of the bits at and above each b: the two differ only on the
    monomial's own odd bits, which the other factor of a nonzero product
    never holds."""
    rng = random.Random(31 + d)
    symbols = _symbol_set(d)
    for _ in range(300):
        m = _random_canonical(rng, symbols)
        odd = [s for s in m if s.degree == 1]
        mask, par = _odd_bits(m)
        assert mask == sum(1 << s for s in odd)
        for p in symbols:
            assert (par >> p) & 1 == sum(s < p for s in odd) & 1

