"""golden-c5: the criterion-10 path, in process.

One pass builds the outer transgression of the c5_rotated connection
(w+e+k+h <- w+e) at alphas [l, -l, -l, -l], expands the 18-term golden
`c5_outer_transgression_alpha0`, compares up to one global scale and
decomposes the result onto the golden's term families.
"""

from fractions import Fraction

from sexpansion.fixtures import (c_tensor_rotated, connection_chain,
                                 make_c_algebra_rotated)
from sexpansion.goldens import load_golden, per_term_report
from sexpansion.invariant_tensor import InvariantTensor
from sexpansion.lagrangian import compare_forms, transgression
from sexpansion.scalars import Q2

from seeds import golden_lambda

GOLDEN = "c5_outer_transgression_alpha0"


def setup(seed: int) -> dict:
    lam = golden_lambda(seed)
    algebra = make_c_algebra_rotated(5)
    tensor = c_tensor_rotated(5)
    ratios = [lam, -lam, -lam, -lam]
    tensor = InvariantTensor(tensor.rank, {
        k: v.specialize_alphas(ratios) for k, v in tensor.entries.items()})
    return {"lambda": lam, "algebra": algebra, "tensor": tensor,
            "chain": connection_chain(algebra), "golden": load_golden(GOLDEN)}


def run_pass(state: dict) -> dict:
    chain = state["chain"]
    q = transgression(chain[0], chain[1], state["tensor"], 2, state["algebra"])
    golden = state["golden"]
    rep = compare_forms(q, golden.form(), up_to_scale=True)
    fam = per_term_report(q, golden, rep.scale)
    return {"form": q, "comparison": rep, "families": fam}


def check(state: dict, out: dict) -> list[str]:
    """The printed display matches at exactly -1/2 (divided by the seed's
    factor), every family agrees and no monomial is left over."""
    problems = []
    rep, fam = out["comparison"], out["families"]
    expected = (Q2(Fraction(-1, 2) / state["lambda"]), 0)
    if not rep.matched:
        problems.append(f"{GOLDEN}: {len(rep.diffs)} monomials differ")
    if rep.scale != expected:
        problems.append(f"{GOLDEN}: solved scale {rep.scale}, expected {expected}")
    if len(fam.agreements) != 18:
        problems.append(f"{GOLDEN}: {len(fam.agreements)} families, expected 18")
    bad = [t.term for t in fam.agreements if not t.agrees]
    if bad:
        problems.append(f"{GOLDEN}: families disagree: {bad}")
    if fam.residual_monomials:
        problems.append(f"{GOLDEN}: {fam.residual_monomials} residual monomials")
    return problems
