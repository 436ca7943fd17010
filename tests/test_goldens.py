import itertools
import random
from fractions import Fraction

import pytest

from sexpansion import goldens
from sexpansion.fixtures import (b5_tensor, c_tensor_rotated, connection_chain,
                                 make_b5, make_c_algebra_rotated)
from sexpansion.forms import IntForm, ScalarForm, sym
from sexpansion.goldens import (FamilyReport, Golden, TermAgreement, _families,
                                compare_golden, golden_names, load_golden,
                                per_term_report, solve_families)
from sexpansion.invariant_tensor import InvariantTensor
from sexpansion.lagrangian import compare_forms, subspace_separation, transgression
from sexpansion.lie_algebra import row_reduce
from sexpansion.scalars import Q2, ScalarExpr
from sexpansion.targets import expand_target, expand_terms

# 30 single-symbol monomials, in canonical order
MONOS = sorted([(sym("w", a, b),) for a in range(5) for b in range(a + 1, 5)]
               + [(sym(f, a),) for f in "eh" for a in range(5)]
               + [(sym("k", a, b),) for a in range(5) for b in range(a + 1, 5)],
               key=lambda m: m[0].sort_key)


def dense_gauss_jordan(rows, ncols):
    """Reference: Gauss-Jordan on the dense matrix, written back as sparse rows.

    Columns from ncols on are right-hand sides, eliminated along but never
    pivots."""
    width = max([ncols] + [j + 1 for row in rows for j in row])
    matrix = [[row.get(j, Q2(0)) for j in range(width)] for row in rows]
    rowi = 0
    pivots = {}
    for col in range(ncols):
        piv = next((r for r in range(rowi, len(matrix)) if matrix[r][col]), None)
        if piv is None:
            continue
        matrix[rowi], matrix[piv] = matrix[piv], matrix[rowi]
        sc = matrix[rowi][col].inverse()
        matrix[rowi] = [x * sc for x in matrix[rowi]]
        for r in range(len(matrix)):
            if r != rowi and matrix[r][col]:
                f = matrix[r][col]
                matrix[r] = [x - f * y for x, y in zip(matrix[r], matrix[rowi])]
        pivots[col] = rowi
        rowi += 1
    rows[:] = [{j: x for j, x in enumerate(row) if x} for row in matrix]
    return pivots


def random_q2(rng):
    return Q2(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
              rng.choice([0, 0, 0, Fraction(rng.randint(-2, 2), 2)]))


def random_expr(rng):
    out = ScalarExpr()
    for _ in range(rng.randint(0, 2)):
        out.add_term((rng.choice([None, 0, 1]), rng.randint(-1, 1)), random_q2(rng))
    return out


def random_system(rng):
    """Columns with some dependent on earlier ones, a right-hand side in their
    span, and a few rows pushed out of it."""
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 7)
    columns = []
    for _ in range(ncols):
        if columns and rng.random() < 0.3:
            a, b = rng.choice(columns), rng.choice(columns)
            ca, cb = random_q2(rng), random_q2(rng)
            columns.append([ca * x + cb * y for x, y in zip(a, b)])
        else:
            columns.append([random_q2(rng) if rng.random() < 0.5 else Q2(0)
                            for _ in range(nrows)])
    rows = [{j: col[r] for j, col in enumerate(columns) if col[r]} for r in range(nrows)]
    xs = [random_expr(rng) for _ in range(ncols)]
    rhs = [ScalarExpr() for _ in range(nrows)]
    for j, col in enumerate(columns):
        for r in range(nrows):
            rhs[r] = rhs[r] + xs[j].scaled(col[r])
    for r in rng.sample(range(nrows), rng.randint(0, min(2, nrows))):
        rhs[r] = rhs[r] + random_expr(rng)
    return rows, rhs, ncols


def augmented(rows, rhs, ncols):
    """The rows with one right-hand-side column per (alpha, ell) key of rhs."""
    columns = {}
    out = []
    for row, r in zip(rows, rhs):
        row = dict(row)
        for key, q in r.terms.items():
            row[columns.setdefault(key, ncols + len(columns))] = q
        out.append(row)
    return out


@pytest.mark.parametrize("seed", range(40))
def test_sparse_solve_matches_dense(seed):
    rows, rhs, ncols = random_system(random.Random(seed))
    rows = augmented(rows, rhs, ncols)
    dense_rows = [dict(r) for r in rows]
    pivots = row_reduce(rows, ncols)
    assert pivots == dense_gauss_jordan(dense_rows, ncols)
    # pivot rows: solutions and dependency coefficients; the rest: residuals
    assert rows == dense_rows
    assert all(j >= ncols for row in rows[len(pivots):] for j in row)


@pytest.mark.parametrize("seed", range(20))
def test_per_term_report_matches_dense(monkeypatch, seed):
    """Random term families with sqrt2 shapes as stand-ins for expanded
    golden terms."""
    rng = random.Random(1000 + seed)
    rows, _, ncols = random_system(rng)
    monos = rng.sample(MONOS, len(rows))
    printed = [random_expr(rng) or ScalarExpr.alpha(0) for _ in range(ncols)]
    families = [(f"+ t{j}", printed[j], {m: row[j] for m, row in zip(monos, rows) if j in row})
                for j in range(ncols)]
    computed = ScalarForm()
    for _, anchor, shape in families:
        family = ScalarForm({m: anchor.scaled(q) for m, q in shape.items()})
        computed.add_form(family, rng.choice([Q2(1), Q2(-2), random_q2(rng)]))
    if rng.random() < 0.5:
        computed.add_term(rng.choice(monos), random_expr(rng))
    scale = rng.choice([None, (Q2(-1), 0), (Q2(Fraction(1, 2)), 1)])

    def summary():
        report = solve_families(computed, families, scale)
        return report.residual_monomials, [
            (t.term, t.machine_coefficient, t.agrees) for t in report.agreements]

    sparse = summary()
    monkeypatch.setattr(goldens, "row_reduce", dense_gauss_jordan)
    assert sparse == summary()


def test_per_term_report_solves_every_alpha_ell_key():
    """Each (alpha, ell) key of the computed coefficients is its own
    right-hand side, so a printed coefficient with several keys comes back
    whole, and a stray monomial counts once as a residual."""
    printed = [ScalarExpr.alpha(0, 2) + ScalarExpr.const(Q2(0, 1), -1),
               ScalarExpr.alpha(1, ell=2) + ScalarExpr.const(3, 2)]
    families = [("+ t0", printed[0], {MONOS[0]: Q2(1), MONOS[1]: Q2(2)}),
                ("+ t1", printed[1], {MONOS[1]: Q2(1), MONOS[2]: Q2(-1)})]
    computed = ScalarForm({MONOS[0]: printed[0], MONOS[1]: printed[0].scaled(2)}) \
        + ScalarForm({MONOS[1]: printed[1], MONOS[2]: printed[1].scaled(-1)})
    report = solve_families(computed, families)
    assert [t.machine_coefficient for t in report.agreements] == printed
    assert report.all_agree
    computed.add_term(MONOS[3], printed[0] + printed[1])
    report = solve_families(computed, families)
    assert [t.machine_coefficient for t in report.agreements] == printed
    assert report.residual_monomials == 1


def test_vanishing_term_is_reported_and_does_not_agree():
    golden = Golden("rre", 5, "eps[abcdf] R[ab] R[cd] e[f]\n"
                              "+ eps[abcdf] k[ab] k[cd] h[f]\n"
                              "+ 0 eps[abcdf] R[ab] e[c] e[d] e[f]")
    computed = expand_target("eps[abcdf] R[ab] R[cd] e[f]", 5)
    report = per_term_report(computed, golden)
    first, *vanishing = report.agreements
    assert first.agrees and not first.vanishes
    assert first.machine_coefficient == ScalarExpr.const(24)  # printed 1 times n_0
    for t in vanishing:
        assert t.vanishes and t.machine_coefficient is None and not t.agrees
    assert not report.all_agree
    assert report.residual_monomials == 0


def test_no_registered_golden_has_a_vanishing_term():
    for name in golden_names():
        g = load_golden(name)
        assert all(counts for _, counts in expand_terms(g.text, g.dimension)), name


def _c3_lagrangian():
    c3r = make_c_algebra_rotated(3)
    return subspace_separation(connection_chain(c3r), c_tensor_rotated(3), 3, c3r)


def _b5_lagrangian():
    b5 = make_b5()
    return subspace_separation(connection_chain(b5), b5_tensor(), 5, b5)


def _c5_outer_transgression():
    c5r = make_c_algebra_rotated(5)
    tensor = c_tensor_rotated(5)
    tensor = InvariantTensor(tensor.rank, {
        k: v.specialize_alphas([1, -1, -1, -1]) for k, v in tensor.entries.items()})
    chain = connection_chain(c5r)
    return transgression(chain[0], chain[1], tensor, 2, c5r)


@pytest.mark.parametrize("build, name", [
    (_c3_lagrangian, "c3_lagrangian"),
    (_b5_lagrangian, "b5_lagrangian"),
    (_c5_outer_transgression, "c5_outer_transgression_alpha0"),
], ids=["c3", "b5", "c5-outer"])
def test_compare_golden_equals_two_expansions(build, name):
    computed = build()
    golden = load_golden(name)
    rep = compare_forms(computed, golden.form(), up_to_scale=True)
    fam = per_term_report(computed, golden, rep.scale)
    assert rep.matched and fam.all_agree
    assert compare_golden(computed, golden, True) == (rep, fam)


def reference_solve_families(computed, families, scale=None):
    """Reference: the whole system as Q2 rows built monomial by monomial,
    each scanning every family, solved by `row_reduce`."""
    monos = sorted(set(itertools.chain(computed.terms, *(s for _, _, s in families))))
    ncols = len(families)
    rhs_cols = {}
    rows = []
    for m in monos:
        row = {j: shape[m] for j, (_, _, shape) in enumerate(families) if m in shape}
        if m in computed.terms:
            for key, q in computed.terms[m].terms.items():
                row[rhs_cols.setdefault(key, ncols + len(rhs_cols))] = q
        rows.append(row)
    pivots = row_reduce(rows, ncols)
    residual = sum(1 for r in rows[len(pivots):] if r)
    dependents = [c for c in range(ncols) if c not in pivots]
    agreements = []
    for col, (text, anchor, shape) in enumerate(families):
        if col not in pivots:
            agreements.append(TermAgreement(text, not shape, None, anchor is not None))
            continue
        pivot = rows[pivots[col]]
        machine = ScalarExpr({key: pivot[j] for key, j in rhs_cols.items() if j in pivot})
        printed_coeff = anchor
        for dep in dependents:
            c = pivot.get(dep)
            if c:
                printed_coeff = printed_coeff + families[dep][1].scaled(c)
        if scale is not None:
            agrees = printed_coeff == machine.scaled(scale[0], scale[1])
        else:
            agrees = printed_coeff == machine
        agreements.append(TermAgreement(text, False, machine, agrees))
    return FamilyReport(agreements, residual, scale)


SCALES = [None, (Q2(-1), 0), (Q2(Fraction(1, 2)), 1)]


def random_families(rng):
    """Term families from `random_system`'s columns (sqrt2 entries, columns
    dependent on earlier ones), a vanishing family now and then, and a
    computed form in their span with a few monomials pushed out of it."""
    rows, _, ncols = random_system(rng)
    monos = rng.sample(MONOS, len(rows) + 2)
    families = []
    for j in range(ncols):
        shape = {m: row[j] for m, row in zip(monos, rows) if j in row}
        anchor = (random_expr(rng) or ScalarExpr.alpha(0)) if shape else None
        families.append((f"+ t{j}", anchor, shape))
    for _ in range(rng.choice([0, 0, 1, 2])):
        families.insert(rng.randint(0, len(families)), ("+ v", None, {}))
    computed = ScalarForm()
    for _, anchor, shape in families:
        if anchor is not None and rng.random() < 0.8:
            family = ScalarForm({m: anchor.scaled(q) for m, q in shape.items()})
            computed.add_form(family, rng.choice([Q2(1), Q2(-2), random_q2(rng)]))
    for m in rng.sample(monos, rng.randint(0, 2)):  # the last two sit in no family
        computed.add_term(m, random_expr(rng))
    return computed, families


@pytest.mark.parametrize("seed", range(45))
def test_solve_families_equals_the_reference_on_random_families(seed):
    rng = random.Random(5000 + seed)
    computed, families = random_families(rng)
    scale = SCALES[seed % 3]
    report = solve_families(computed, families, scale)
    assert report == reference_solve_families(computed, families, scale)
    assert len(report.agreements) == len(families)


@pytest.mark.parametrize("seed", range(0, 45, 4))
def test_solve_families_reads_a_kernel_form_as_its_scalar_form(seed):
    rng = random.Random(5000 + seed)
    computed, families = random_families(rng)
    scale = SCALES[seed % 3]
    assert solve_families(IntForm.of(computed), families, scale) == \
        reference_solve_families(computed, families, scale)


def test_random_families_cover_the_cases():
    """The seeds above give residual rows, sqrt2 shapes, dependent and
    vanishing families, and agreeing as well as disagreeing terms."""
    seen = set()
    for seed in range(45):
        computed, families = random_families(random.Random(5000 + seed))
        report = solve_families(computed, families, SCALES[seed % 3])
        if report.residual_monomials:
            seen.add("residual")
        if any(not q.is_rational for _, _, s in families for q in s.values()):
            seen.add("sqrt2")
        for t, (_, _, shape) in zip(report.agreements, families):
            if t.vanishes:
                seen.add("vanishing")
            elif t.machine_coefficient is None:
                seen.add("dependent")
            seen.add("agrees" if t.agrees else "disagrees")
    assert seen == {"residual", "sqrt2", "vanishing", "dependent", "agrees", "disagrees"}


def _sector(algebra, tensor, fields, dimension):
    return subspace_separation(connection_chain(algebra, fields), tensor, dimension, algebra)


def _alpha0(tensor):
    return InvariantTensor(tensor.rank, {
        k: v.specialize_alphas([1, -1, -1, -1]) for k, v in tensor.entries.items()})


def _c5_middle_transgression():
    c5r = make_c_algebra_rotated(5)
    chain = connection_chain(c5r)
    return transgression(chain[1], chain[2], c_tensor_rotated(5), 2, c5r)


# each registered golden with the form its acceptance criterion compares it
# with (criteria 9-12; b5 as in test_comparison_algebra_lagrangian_matches_its_golden)
GOLDEN_FORMS = {
    "c5_middle_transgression": _c5_middle_transgression,
    "c5_outer_transgression_alpha0": _c5_outer_transgression,
    "c5_lagrangian_alpha0": lambda: _sector(
        make_c_algebra_rotated(5), _alpha0(c_tensor_rotated(5)), ("w", "e", "k", "h"), 5),
    "c5_lagrangian_kh0_sector": lambda: _sector(
        make_c_algebra_rotated(5), _alpha0(c_tensor_rotated(5)), ("w", "e"), 5),
    "c5_lagrangian_h0_sector": lambda: _sector(
        make_c_algebra_rotated(5), _alpha0(c_tensor_rotated(5)), ("w", "e", "k"), 5),
    "c5_lagrangian_k0_sector": lambda: _sector(
        make_c_algebra_rotated(5), _alpha0(c_tensor_rotated(5)), ("w", "e", "h"), 5),
    "c3_lagrangian": _c3_lagrangian,
    "c3_lagrangian_kh0_sector": lambda: _sector(
        make_c_algebra_rotated(3), c_tensor_rotated(3), ("w", "e"), 3),
    "c3_lagrangian_h0_sector": lambda: _sector(
        make_c_algebra_rotated(3), c_tensor_rotated(3), ("w", "e", "k"), 3),
    "b5_lagrangian": _b5_lagrangian,
}


def test_every_golden_has_its_form():
    assert sorted(GOLDEN_FORMS) == golden_names()


@pytest.mark.parametrize("name", sorted(GOLDEN_FORMS))
def test_solve_families_equals_the_reference_on_every_golden(name):
    computed = GOLDEN_FORMS[name]()
    golden = load_golden(name)
    families = _families(golden, expand_terms(golden.text, golden.dimension))
    scale = compare_forms(computed, golden.form(), up_to_scale=True).scale
    for s in {scale, None}:
        assert solve_families(computed, families, s) == \
            reference_solve_families(computed, families, s)
