"""chern-weil-c5: the second route to the c5 Lagrangian, in process.

On the invariant alpha family [1, r, -1, -r] of the c5_rotated tensor and
the connection A = w + e + h, one pass builds L by subspace separation
(chain A, w+e, w, 0), then d L, F = curvature(A) and <F F F>. The
Chern-Weil identity says d L = <F F F>.
"""

from sexpansion.fixtures import (build_connection, c_tensor_rotated,
                                 make_c_algebra_rotated)
from sexpansion.forms import LieValuedForm, contract, curvature, exterior_d
from sexpansion.invariant_tensor import InvariantTensor
from sexpansion.lagrangian import subspace_separation

from seeds import family_r

FIELDS = ("w", "e", "h")


def setup(seed: int) -> dict:
    r = family_r(seed)
    algebra = make_c_algebra_rotated(5)
    tensor = c_tensor_rotated(5)
    tensor = InvariantTensor(tensor.rank, {
        k: v.specialize_alphas([1, r, -1, -r]) for k, v in tensor.entries.items()})
    chain = [build_connection(algebra, [f for f in sub if f in FIELDS])
             for sub in (("w", "e", "k", "h"), ("w", "e"), ("w",))]
    chain.append(LieValuedForm.zero())
    return {"r": r, "algebra": algebra, "tensor": tensor, "chain": chain}


def run_pass(state: dict) -> dict:
    algebra, tensor, chain = state["algebra"], state["tensor"], state["chain"]
    lagrangian = subspace_separation(chain, tensor, 5, algebra)
    d_lagrangian = exterior_d(lagrangian)
    F = curvature(chain[0], algebra)
    return {"L": lagrangian, "dL": d_lagrangian, "FFF": contract(tensor, [F, F, F])}


def check(state: dict, out: dict) -> list[str]:
    """d L equals <F F F>, and neither side is zero."""
    problems = []
    if out["dL"].is_zero() or out["FFF"].is_zero():
        problems.append("chern-weil: a side of d L = <F F F> is zero")
    dl, fff = out["dL"].terms, out["FFF"].terms
    diff = [m for m in set(dl) | set(fff) if dl.get(m) != fff.get(m)]
    if diff:
        problems.append(f"chern-weil: d L != <F F F> on {len(diff)} monomials")
    return problems
