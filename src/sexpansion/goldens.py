"""Loading and decomposing the versioned golden Lagrangian expressions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .forms import ScalarForm
from .lie_algebra import row_reduce
from .pipeline import registry
from .scalars import Q2, ScalarExpr, scalar_quotient
from .targets import expand_target


def golden_names() -> list[str]:
    return sorted(registry()["goldens"])


@dataclass(frozen=True)
class Golden:
    name: str
    dimension: int
    text: str

    def terms(self) -> list[str]:
        """One signed term per line of the golden file."""
        out = []
        for line in self.text.splitlines():
            line = line.strip()
            if line:
                out.append(line if line.startswith(("+", "-")) else "+ " + line)
        return out

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


@dataclass
class TermAgreement:
    term: str
    printed: ScalarForm
    machine_coefficient: Optional[ScalarExpr]  # None: dependent on earlier terms
    agrees: bool


@dataclass
class FamilyReport:
    agreements: list[TermAgreement]
    residual_monomials: int
    scale: Optional[tuple[Q2, int]]

    @property
    def all_agree(self) -> bool:
        return self.residual_monomials == 0 and all(t.agrees for t in self.agreements)


def per_term_report(computed: ScalarForm, golden: Golden,
                    scale: Optional[tuple[Q2, int]] = None) -> FamilyReport:
    """Decompose the computed form exactly onto the golden's term families.

    Each golden term (divided by its own printed coefficient) spans one
    family of monomials; solving the exact linear system gives the machine
    coefficient per family, compared against the printed coefficient (after
    the global scale when one is supplied).  Families that are linearly
    dependent on earlier ones are reported without a coefficient.
    """
    term_texts = golden.terms()
    bases = [expand_target(t, golden.dimension) for t in term_texts]
    monos = sorted(set(itertools.chain(computed.terms, *(b.terms for b in bases))))
    # matrix over the alpha-free field is not possible when printed terms
    # carry alpha symbols; instead solve with each basis coefficient treated
    # per-monomial as its full ScalarExpr and demand proportionality by a
    # rational multiple.  Use the alpha-free "shape": divide out the printed
    # coefficient monomial-wise.
    shape_bases: list[dict] = []
    for f in bases:
        shape: dict = {}
        anchor = None
        for m, c in f.sorted_items():
            if anchor is None:
                anchor = c
            # every monomial coefficient within one printed term is a rational
            # multiple of the term's scalar coefficient
            q = scalar_quotient(c, anchor)
            if q is None or q[1] != 0:
                raise ValueError("golden term is not a single scalar family")
            shape[m] = q[0]
        shape_bases.append((anchor, shape))
    # one right-hand-side column per (alpha, ell) key of the computed form
    ncols = len(bases)
    rhs_cols: dict = {}
    rows = []
    for m in monos:
        row = {j: shape[m] for j, (_, shape) in enumerate(shape_bases) if m in shape}
        if m in computed.terms:
            for key, q in computed.terms[m].terms.items():
                row[rhs_cols.setdefault(key, ncols + len(rhs_cols))] = q
        rows.append(row)
    pivots = row_reduce(rows, ncols)
    residual = sum(1 for r in rows[len(pivots):] if r)
    dependents = [c for c in range(ncols) if c not in pivots]
    agreements = []
    for col, text in enumerate(term_texts):
        if col not in pivots:
            agreements.append(TermAgreement(text, bases[col], None, True))
            continue
        pivot = rows[pivots[col]]
        machine = ScalarExpr({key: pivot[j] for key, j in rhs_cols.items() if j in pivot})
        # a dependent printed family folds into its pivot partners: the
        # reduced matrix row holds the dependency coefficients
        printed_coeff = shape_bases[col][0]
        for dep in dependents:
            c = pivot.get(dep)
            if c:
                printed_coeff = printed_coeff + shape_bases[dep][0].scaled(c)
        if scale is not None:
            # printed display = scale * machine result
            agrees = printed_coeff == machine.scaled(scale[0], scale[1])
        else:
            agrees = printed_coeff == machine
        agreements.append(TermAgreement(text, bases[col], machine, agrees))
    return FamilyReport(agreements, residual, scale)
