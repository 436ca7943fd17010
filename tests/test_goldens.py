import random
from fractions import Fraction

import pytest

from sexpansion import goldens
from sexpansion.forms import ScalarForm, sym
from sexpansion.goldens import Golden, per_term_report
from sexpansion.lie_algebra import row_reduce
from sexpansion.scalars import Q2, ScalarExpr

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
    """Random term families as stand-ins for expanded golden terms."""
    rng = random.Random(1000 + seed)
    rows, _, ncols = random_system(rng)
    monos = rng.sample(MONOS, len(rows))
    printed = [random_expr(rng) or ScalarExpr.alpha(0) for _ in range(ncols)]
    families = {f"+ t{j}": ScalarForm({m: printed[j].scaled(row[j])
                                       for m, row in zip(monos, rows) if j in row})
                for j in range(ncols)}
    golden = Golden("random", 5, "\n".join(f"t{j}" for j in range(ncols)))
    monkeypatch.setattr(goldens, "expand_target", lambda text, d: families[text])
    computed = ScalarForm()
    for j in range(ncols):
        computed.add_form(families[f"+ t{j}"], rng.choice([Q2(1), Q2(-2), random_q2(rng)]))
    if rng.random() < 0.5:
        computed.add_term(rng.choice(monos), random_expr(rng))
    scale = rng.choice([None, (Q2(-1), 0), (Q2(Fraction(1, 2)), 1)])

    def summary():
        report = per_term_report(computed, golden, scale)
        return report.residual_monomials, [
            (t.term, t.machine_coefficient, t.agrees) for t in report.agreements]

    sparse = summary()
    monkeypatch.setattr(goldens, "row_reduce", dense_gauss_jordan)
    assert sparse == summary()


def test_per_term_report_solves_every_alpha_ell_key(monkeypatch):
    """Each (alpha, ell) key of the computed coefficients is its own
    right-hand side, so a printed coefficient with several keys comes back
    whole, and a stray monomial counts once as a residual."""
    printed = [ScalarExpr.alpha(0, 2) + ScalarExpr.const(Q2(0, 1), -1),
               ScalarExpr.alpha(1, ell=2) + ScalarExpr.const(3, 2)]
    families = {
        "+ t0": ScalarForm({MONOS[0]: printed[0], MONOS[1]: printed[0].scaled(2)}),
        "+ t1": ScalarForm({MONOS[1]: printed[1], MONOS[2]: printed[1].scaled(-1)}),
    }
    monkeypatch.setattr(goldens, "expand_target", lambda text, d: families[text])
    golden = Golden("two", 5, "t0\nt1")
    computed = families["+ t0"] + families["+ t1"]
    report = per_term_report(computed, golden)
    assert [t.machine_coefficient for t in report.agreements] == printed
    assert report.all_agree
    computed.add_term(MONOS[3], printed[0] + printed[1])
    report = per_term_report(computed, golden)
    assert [t.machine_coefficient for t in report.agreements] == printed
    assert report.residual_monomials == 1
