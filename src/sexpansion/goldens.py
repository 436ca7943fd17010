"""Loading and decomposing the versioned golden Lagrangian expressions."""

from __future__ import annotations

from fractions import Fraction
from importlib import resources
from typing import NamedTuple, Optional

from .forms import IntForm, Monomial, ScalarForm, sorted_coefficients
from .lagrangian import ComparisonReport, compare_int_forms
from .lie_algebra import row_reduce
from .pipeline import registry
from .scalars import Q2, ScalarExpr
from .targets import _parse_terms, expand_target, expand_terms, sum_terms


def golden_names() -> list[str]:
    return sorted(registry()["goldens"])


class Golden(NamedTuple):
    name: str
    dimension: int
    text: str

    def terms(self) -> list[str]:
        """Each term's signed text, as `targets._parse_terms` reads it."""
        return [term.text for term in _parse_terms(self.text)]

    def form(self) -> ScalarForm:
        return expand_target(self.text, self.dimension)


def load_golden(name: str) -> Golden:
    reg = registry()["goldens"]
    if name not in reg:
        raise KeyError(f"unknown golden expression {name!r}; "
                       f"known: {', '.join(sorted(reg))}")
    entry = reg[name]
    text = resources.files("sexpansion.data").joinpath(
        "goldens/" + entry["file"]).read_text()
    return Golden(name, entry["dimension"], text)


class TermAgreement(NamedTuple):
    term: str
    vanishes: bool  # the printed term expands to zero, so it spans no family
    machine_coefficient: Optional[ScalarExpr]  # None: dependent on earlier terms, or vanishing
    agrees: bool


class FamilyReport(NamedTuple):
    agreements: list[TermAgreement]
    residual_monomials: int
    scale: Optional[tuple[Q2, int]]

    @property
    def all_agree(self) -> bool:
        return self.residual_monomials == 0 and all(t.agrees for t in self.agreements)


# one printed term as (text, anchor, shape): its expansion is
# anchor * shape[m] on each monomial m; anchor is None when it vanishes
Family = tuple[str, Optional[ScalarExpr], dict[Monomial, Q2]]


def _families(golden: Golden,
              terms: list[tuple[ScalarExpr, dict[Monomial, int]]]) -> list[Family]:
    """Each term's shape from its integer counts, in units of n_0, the count
    of its first sorted monomial: the anchor is coefficient * n_0."""
    out = []
    for text, (coeff, counts) in zip(golden.terms(), terms, strict=True):
        if not counts or not coeff:
            out.append((text, None, {}))
            continue
        n0 = counts[min(counts)]
        ratios = {n: Q2(Fraction(n, n0)) for n in set(counts.values())}
        out.append((text, coeff.scaled(n0), {m: ratios[n] for m, n in counts.items()}))
    return out


def per_term_report(computed: ScalarForm, golden: Golden,
                    scale: Optional[tuple[Q2, int]] = None) -> FamilyReport:
    """Decompose the computed form exactly onto the golden's term families;
    each machine coefficient is in units of the term's n_0 (`_families`)."""
    terms = expand_terms(golden.text, golden.dimension)
    return solve_families(computed, _families(golden, terms), scale)


def compare_golden(computed: ScalarForm | IntForm, golden: Golden,
                   up_to_scale: bool) -> tuple[ComparisonReport, FamilyReport]:
    """`compare_forms` against the whole golden and `per_term_report` at the
    solved scale, from one expansion of the golden, compared as kernel forms."""
    terms = expand_terms(golden.text, golden.dimension)
    kernel = computed if isinstance(computed, IntForm) else IntForm.of(computed)
    rep = compare_int_forms(kernel, sum_terms(terms), up_to_scale)
    return rep, solve_families(computed, _families(golden, terms), rep.scale)


def solve_families(computed: ScalarForm | IntForm, families: list[Family],
                   scale: Optional[tuple[Q2, int]] = None) -> FamilyReport:
    """Solve the computed form exactly onto the term families.

    Each family's shape is one column; solving the exact linear system gives
    the machine coefficient per family, in units of its anchor, compared
    against the anchor (after the global scale when one is supplied).
    Families that are linearly dependent on earlier ones are reported
    without a coefficient, and so are vanishing ones, which never agree.
    """
    # one row per monomial, filled family by family; one right-hand-side
    # column per (alpha, ell) key of the computed form.  A ScalarForm's
    # coefficients are read as they are, a kernel form's are built once per
    # distinct coefficient (converting a ScalarForm would cost more)
    ncols = len(families)
    table: dict[Monomial, dict] = {}
    for j, (_, _, shape) in enumerate(families):
        for m, q in shape.items():
            table.setdefault(m, {})[j] = q
    rhs_cols: dict = {}
    coeffs = computed.terms.items() if isinstance(computed, ScalarForm) \
        else sorted_coefficients(computed)
    for m, coeff in coeffs:
        row = table.setdefault(m, {})
        for key, q in coeff.terms.items():
            row[rhs_cols.setdefault(key, ncols + len(rhs_cols))] = q
    rows = [table[m] for m in sorted(table)]
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
        # a dependent printed family folds into its pivot partners: the
        # reduced matrix row holds the dependency coefficients
        printed_coeff = anchor
        for dep in dependents:
            c = pivot.get(dep)
            if c:
                printed_coeff = printed_coeff + families[dep][1].scaled(c)
        if scale is not None:
            # printed display = scale * machine result
            agrees = printed_coeff == machine.scaled(scale[0], scale[1])
        else:
            agrees = printed_coeff == machine
        agreements.append(TermAgreement(text, False, machine, agrees))
    return FamilyReport(agreements, residual, scale)
