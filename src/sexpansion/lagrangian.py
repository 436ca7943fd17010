"""Transgression forms, Chern-Simons Lagrangians, and comparison machinery.

The homotopy parameter t is a formal polynomial variable: every quantity
along the interpolation is a dict from t-power to a Lie-valued form, and the
final integral over [0, 1] is taken coefficient-wise as 1/(m+1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence

from .expansion import h_reduce
from .forms import (HALF, MINUS_ONE, IntForm, IntLieForm, LieValuedForm,
                    Monomial, ScalarForm, TensorEntry, int_bracket_into,
                    int_contract, int_d, int_entries, int_lie_form,
                    int_lie_nonzero, lie_valued_form, monomial_name)
from .invariant_tensor import InvariantTensor
from .lie_algebra import LieAlgebra, change_basis
from .scalars import Q2, ScalarExpr
from .semigroup import make_cyclic


def _homotopy_curvature(Abar: IntLieForm, delta: IntLieForm,
                        L: LieAlgebra) -> dict[int, IntLieForm]:
    """F_t by t-power on kernel forms, with A_t = Abar + t delta."""
    at = {m: f for m, f in ((0, Abar), (1, delta)) if f}
    ft = {m: {i: int_d(k) for i, k in f.items()} for m, f in at.items()}
    for m1, f1 in at.items():
        for m2, f2 in at.items():
            int_bracket_into(ft.setdefault(m1 + m2, {}), f1, f2, L, HALF)
    ft = {m: int_lie_nonzero(f) for m, f in ft.items()}
    return {m: f for m, f in ft.items() if f}


def _difference(A: IntLieForm, Abar: IntLieForm) -> IntLieForm:
    delta: IntLieForm = {}
    for f, scale in ((A, None), (Abar, MINUS_ONE)):
        for i, k in f.items():
            delta.setdefault(i, IntForm()).add(k, scale)
    return int_lie_nonzero(delta)


def homotopy_curvature(A: LieValuedForm, Abar: LieValuedForm,
                       L: LieAlgebra) -> dict[int, LieValuedForm]:
    """F_t = d A_t + (1/2)[A_t, A_t] with A_t = Abar + t (A - Abar)."""
    kbar = int_lie_form(Abar)
    ft = _homotopy_curvature(kbar, _difference(int_lie_form(A), kbar), L)
    return {m: lie_valued_form(f) for m, f in ft.items()}


def _transgression(A: IntLieForm, Abar: IntLieForm,
                   entries: list[TensorEntry], k: int,
                   L: LieAlgebra) -> IntForm:
    out = IntForm()
    delta = _difference(A, Abar)
    if not delta:
        return out
    ft = _homotopy_curvature(Abar, delta, L)
    # the components of F_t are 2-forms and T is symmetric, so every ordering
    # of one multiset of t-powers gives the same piece: contract it once
    for powers in itertools.combinations_with_replacement(sorted(ft), k):
        piece = int_contract(entries, [delta] + [ft[m] for m in powers])
        if piece.is_zero():
            continue
        orderings = factorial(k)
        for m in set(powers):
            orderings //= factorial(powers.count(m))
        out.add(piece, IntForm.scalar(Fraction((k + 1) * orderings, sum(powers) + 1)))
    return out


def transgression(A: LieValuedForm, Abar: LieValuedForm,
                  T: InvariantTensor, k: int, L: LieAlgebra) -> ScalarForm:
    """Q^(2k+1)(A, Abar) = (k+1) * integral_0^1 <(A - Abar) F_t^k> dt."""
    if T.rank != k + 1:
        raise ValueError(f"rank-{T.rank} tensor cannot build a 2k+1 = {2*k+1} form")
    return _transgression(int_lie_form(A), int_lie_form(Abar), int_entries(T),
                          k, L).into_scalar_form()


def chern_simons(A: LieValuedForm, T: InvariantTensor, dimension: int,
                 L: LieAlgebra) -> ScalarForm:
    """Q(A, 0), the one-link chain [A, 0]; the overall kappa prefactor is left
    symbolic (reported alongside, never mixed into the coefficients)."""
    return int_separation([A, LieValuedForm.zero()], T, dimension, L).into_scalar_form()


def subspace_separation(chain: Sequence[LieValuedForm], T: InvariantTensor,
                        dimension: int, L: LieAlgebra) -> ScalarForm:
    """Sum of transgressions along a chain A = A_m > ... > A_0; equals the
    Chern-Simons form of the chain head up to an exact form, which is
    deliberately dropped.  The dimension must be 2 * T.rank - 1."""
    return int_separation(chain, T, dimension, L).into_scalar_form()


def int_separation(chain: Sequence[LieValuedForm], T: InvariantTensor,
                   dimension: int, L: LieAlgebra) -> IntForm:
    """`subspace_separation` as a kernel form, for callers that read it
    there (the CLI's writers and comparisons)."""
    if dimension != 2 * T.rank - 1:
        raise ValueError(f"dimension {dimension} is not 2 * rank - 1 for a rank-{T.rank} tensor")
    entries = int_entries(T)
    links = [int_lie_form(A) for A in chain]
    out = IntForm()
    for big, small in zip(links, links[1:]):
        link = _transgression(big, small, entries, T.rank - 1, L)
        if out.parts:
            out.add(link)
        else:  # the first link is the sum so far: no copy of it
            out = link
    return out


# -- exactness detection -------------------------------------------------------


def is_d_exact(f: ScalarForm) -> bool:
    """Whether f = d g for some form g, decided by d alone.

    The form algebra is free graded-commutative on the odd 1-form symbols x
    and their even d-images dx: Lambda[x] (x) S[dx], with d x = dx and
    d dx = 0.  Over a field of characteristic 0 its d-cohomology is the
    constants alone (the Poincare lemma of this Koszul complex), so a form
    is exact iff it has no degree-0 part and d f = 0.  The subalgebra on
    f's own symbols is of the same kind, so a primitive may be sought among
    them and nothing changes.  The criterion holds degree by degree and for
    each alpha/ell/sqrt2 component, so an inhomogeneous form gets a verdict
    too."""
    g = IntForm.of(f)
    return not any(() in part for part in g.parts.values()) and int_d(g).is_zero()


# -- comparisons -----------------------------------------------------------------


@dataclass
class TermDiff:
    monomial: str
    computed: str
    expected: str


@dataclass
class ComparisonReport:
    matched: bool
    scale: Optional[tuple[Q2, int]] = None
    diffs: list[TermDiff] = field(default_factory=list)
    note: str = ""

    def __bool__(self):
        return self.matched


def _monomials(f: IntForm) -> set[Monomial]:
    return set().union(*f.parts.values())


def _coefficient(f: IntForm, m: Monomial) -> ScalarExpr:
    """The coefficient of one monomial of a kernel form."""
    one = IntForm({key: {m: part[m]} for key, part in f.parts.items() if m in part}, f.den)
    return one.into_scalar_form().terms.get(m, ScalarExpr.zero())


def compare_int_forms(lhs: IntForm, rhs: IntForm,
                      up_to_scale: bool = False) -> ComparisonReport:
    """`compare_forms` on kernel forms: with the scale c * ell^k solved on
    the anchor, the monomials of lhs * c * ell^k - rhs are the diffs."""
    scale = (Q2(1), 0)
    if up_to_scale:
        anchor = min(_monomials(lhs) & _monomials(rhs), default=None)
        if anchor is None:
            if lhs.is_zero() and rhs.is_zero():
                return ComparisonReport(True, scale)
            # into_scalar_form empties its form: convert shallow copies
            computed, expected = (str(IntForm(dict(f.parts), f.den).into_scalar_form())
                                  for f in (lhs, rhs))
            return ComparisonReport(False, None, [TermDiff("<none shared>", computed, expected)])
        # c and k from the computed first term and the lowest ell power of
        # its alpha in the expected coefficient; c must be alpha-free
        base, target = _coefficient(lhs, anchor), _coefficient(rhs, anchor)
        (a0, e0), c0 = base.sorted_terms()[0]
        e1 = min((e for a, e in target.terms if a == a0), default=None)
        if e1 is not None:
            scale = (target.terms[(a0, e1)] / c0, e1 - e0)
        if e1 is None or base.scaled(*scale) != target:
            return ComparisonReport(False, None, [TermDiff(
                monomial_name(anchor), str(base), str(target))],
                "no admissible scalar on the anchor term")
    diff = IntForm()
    diff.add(lhs, IntForm.scalar(ScalarExpr.const(*scale)))
    diff.add(rhs, MINUS_ONE)
    diffs = [TermDiff(monomial_name(m), str(_coefficient(lhs, m).scaled(*scale)),
                      str(_coefficient(rhs, m)))
             for m in sorted(_monomials(diff))]
    return ComparisonReport(not diffs, scale, diffs)


def compare_forms(computed: ScalarForm, expected: ScalarForm,
                  up_to_scale: bool = False) -> ComparisonReport:
    """Monomial-map equality, optionally up to one global c * ell^k factor.

    When a scale is allowed it is solved for on the anchor, the first shared
    monomial, and must map its whole coefficient; every monomial is then
    compared at that scale, and each discrepancy is returned with both
    coefficients printed.  The comparison runs on the kernel forms of both
    sides (`compare_int_forms`).
    """
    return compare_int_forms(IntForm.of(computed), IntForm.of(expected), up_to_scale)


# -- dual (Maurer-Cartan) verification --------------------------------------------


@dataclass
class DualMCReport:
    constants_match_doubled: bool
    shift_consistent: bool
    witness_ok: bool
    reduced: LieAlgebra

    @property
    def ok(self) -> bool:
        return self.constants_match_doubled and self.shift_consistent and self.witness_ok

    def __bool__(self):
        return self.ok


def dual_mc_check(n: int, L: LieAlgebra) -> DualMCReport:
    """Impose the shifted-form identification on the expanded Maurer-Cartan
    system and read off the reduced structure constants.

    The reduction replaces every shifted 1-form by minus its unshifted
    partner inside d w^(C,k) = -(1/2) K C w w, collects the quadratic form on
    the ordered basis, and reports
      - whether the collected constants equal exactly twice the constants of
        the algebraic reduction (they carry an explicit factor 2),
      - whether the shifted components give the negated equations (the
        identification is consistent), and
      - whether rescaling all generators by 2 witnesses the isomorphism.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s = make_cyclic(2 * n)
    dim = L.dim
    minor = h_reduce(n, L)

    def collected(target_tag: int) -> dict[tuple[int, int], dict[int, Q2]]:
        """Coefficient of w^X w^Y (X < Y) in the substituted quadratic form
        K_{ab}^{target} C_AB^C w^(A,a) w^(B,b)."""
        out: dict[tuple[int, int], dict[int, Q2]] = {}
        for (a, b), targets in L.constants.items():
            for ta in range(2 * n):
                for tb in range(2 * n):
                    if s.table[ta][tb] != target_tag:
                        continue
                    sgn = (1 if ta < n else -1) * (1 if tb < n else -1)
                    i = (ta % n) * dim + a
                    j = (tb % n) * dim + b
                    if i == j:
                        continue
                    key, flip = ((i, j), 1) if i < j else ((j, i), -1)
                    row = out.setdefault(key, {})
                    for c, v in targets.items():
                        w = row.get(c, Q2(0)) + v * Q2(sgn * flip)
                        if w:
                            row[c] = w
                        elif c in row:
                            del row[c]
        return {k: v for k, v in out.items() if v}

    # reduced constants from the k components
    # each (i, j, k * dim + c) is written once: the k blocks are disjoint
    reduced_constants: dict[tuple[int, int], dict[int, Q2]] = {}
    for k in range(n):
        for (i, j), row in collected(k).items():
            dest = reduced_constants.setdefault((i, j), {})
            for c, v in row.items():
                dest[k * dim + c] = v
    labels = [L.labels[a].tagged(t) for t in range(n) for a in range(dim)]
    reduced = LieAlgebra(f"dual(Z{2*n}x{L.name})_H", labels, reduced_constants)

    doubled = LieAlgebra(
        "2x", minor.labels,
        {key: {c: v * Q2(2) for c, v in row.items()}
         for key, row in minor.constants.items()})
    constants_match = reduced.constants_equal(doubled)

    # the k+n components must reproduce the same equations with a global sign
    shift_ok = True
    for k in range(n):
        lower = collected(k)
        upper = collected(k + n)
        keys = set(lower) | set(upper)
        for key in keys:
            lo = lower.get(key, {})
            up = upper.get(key, {})
            if set(lo) != set(up) or any(up[c] != -lo[c] for c in lo):
                shift_ok = False
                break
        if not shift_ok:
            break

    two = [[Q2(2 if i == j else 0) for j in range(minor.dim)] for i in range(minor.dim)]
    witness = change_basis(minor, two, name="witness")
    witness_ok = witness.constants_equal(reduced)
    return DualMCReport(constants_match, shift_ok, witness_ok, reduced)
