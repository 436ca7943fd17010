"""algebra-verify: the algebra layers, in process, with no form algebra.

One pass applies the halved Z_2n reduction for n = 1..4 to so3, ads3, ads5
and two random-basis algebras chosen by the seed, checks the axioms of every
reduction, rebuilds each one by the sign-identification route, runs the dual
Maurer-Cartan check, the Killing profiles, the selector shift identities,
the tensor invariance checks and the README `expand` pipelines.
"""

from fractions import Fraction

from sexpansion.expansion import h_reduce, impose_sign_identification, s_expand
from sexpansion.fixtures import (b5_tensor, c_tensor, c_tensor_rotated,
                                 make_b5, make_c_algebra, make_c_algebra_rotated,
                                 random_nilpotent, random_solvable_4d)
from sexpansion.invariant_tensor import InvariantTensor, verify_invariance
from sexpansion.lagrangian import dual_mc_check
from sexpansion.lie_algebra import check_axioms, killing_profile, make_named
from sexpansion.pipeline import run_pipeline
from sexpansion.scalars import Q2
from sexpansion.semigroup import check_even_cyclic_identities, make_cyclic

from seeds import family_r

NS = (1, 2, 3, 4)
PIPELINES = {  # the README `expand` configs
    "lorentz": ("so3", [{"op": "h_reduce", "n": 2}]),
    "b5": ("ads5", [{"op": "s_expand", "semigroup": "SE3"},
                    {"op": "resonant", "resonance": "b5"},
                    {"op": "zero_reduce"}]),
}


def _on_family(tensor: InvariantTensor, r: int) -> InvariantTensor:
    return InvariantTensor(tensor.rank, {
        k: v.specialize_alphas([1, r, -1, -r]) for k, v in tensor.entries.items()})


def setup(seed: int) -> dict:
    r = family_r(seed)
    fixtures = {name: make_named(name) for name in ("so3", "ads3", "ads5")}
    fixtures["random_nilpotent"] = random_nilpotent(4, seed=seed)
    fixtures["random_solvable"] = random_solvable_4d(seed=seed)
    c5 = make_c_algebra(5)
    c5_rotated = make_c_algebra_rotated(5)
    return {
        "r": r, "fixtures": fixtures, "so31": make_named("so31"),
        "pipeline_start": {k: make_named(a) for k, (a, _) in PIPELINES.items()},
        "invariance": {
            "b5": (make_b5(), b5_tensor()),
            "c5_rotated_family": (c5_rotated, _on_family(c_tensor_rotated(5), r)),
            "c5_family": (c5, _on_family(c_tensor(5), r)),
            "c5_general": (c5, c_tensor(5)),
        },
    }


def run_pass(state: dict) -> dict:
    reductions = []
    for name, L in state["fixtures"].items():
        for n in NS:
            R = h_reduce(n, L)
            s = make_cyclic(2 * n)
            pairing = {t: (t + n) % (2 * n) for t in range(2 * n)}
            route = impose_sign_identification(s_expand(s, L), s, pairing)
            reductions.append((name, n, L, R, check_axioms(R), route))
    so3 = state["fixtures"]["so3"]
    out = {
        "reductions": reductions,
        "dual": {name: dual_mc_check(2, state["fixtures"][name])
                 for name in ("so3", "ads5")},
        "killing": (killing_profile(s_expand(make_cyclic(2), so3)).signature,
                    killing_profile(h_reduce(2, so3)).signature),
        "identities": [check_even_cyclic_identities(n).ok for n in range(1, 9)],
        "invariance": {name: verify_invariance(L, T)
                       for name, (L, T) in state["invariance"].items()},
    }
    pipelines = {}
    for name, (_, steps) in PIPELINES.items():
        result = run_pipeline(state["pipeline_start"][name], steps)
        pipelines[name] = (result, check_axioms(result))
    out["pipelines"] = pipelines
    return out


def _doubled_equal(reduced, minor) -> bool:
    """Constants of `reduced` are exactly twice those of `minor`."""
    keys = set(reduced.constants) | set(minor.constants)
    return reduced.dim == minor.dim and all(
        reduced.pair(a, b) == {c: v * Q2(2) for c, v in minor.pair(a, b).items()}
        for a, b in keys)


def check(state: dict, out: dict) -> list[str]:
    problems = []
    minors = {}
    for name, n, L, R, axioms, route in out["reductions"]:
        tag = f"h_reduce({n}, {name})"
        minors[(name, n)] = R
        if not axioms.ok:
            problems.append(f"{tag}: Jacobi fails at {axioms.violation}")
        if R.dim != n * L.dim:
            problems.append(f"{tag}: dim {R.dim}, expected {n * L.dim}")
        if n == 1 and not R.constants_equal(L):
            problems.append(f"{tag}: differs from the algebra itself")
        if not R.constants_equal(route) or \
                [str(x) for x in R.labels] != [str(x) for x in route.labels]:
            problems.append(f"{tag}: differs from the sign-identification route")
    for name, rep in out["dual"].items():
        if not (rep.ok and _doubled_equal(rep.reduced, minors[(name, 2)])):
            problems.append(f"dual_mc_check(2, {name}): constants are not twice "
                            "the reduced ones")
    if out["killing"] != ((0, 6, 0), (3, 3, 0)):
        problems.append(f"Killing signatures {out['killing']}, expected "
                        "(0, 6, 0) and (3, 3, 0)")
    if not all(out["identities"]):
        problems.append("selector shift identities fail")
    inv = out["invariance"]
    for name in ("b5", "c5_rotated_family", "c5_family"):
        if not inv[name].ok:
            problems.append(f"{name}: tensor is not invariant ({inv[name].value})")
    general = inv["c5_general"]
    if general.ok:
        problems.append("c_tensor(5) with independent alphas should not be invariant")
    else:
        x, y = Fraction(3), Fraction(-5, 7)
        if not general.value.substitute_alpha_values([x, y, -x, -y]).is_zero():
            problems.append("c_tensor(5) defect does not vanish at a2 = -a0, a3 = -a1")
    lorentz, lorentz_axioms = out["pipelines"]["lorentz"]
    if not (lorentz_axioms.ok and lorentz.constants_equal(state["so31"])):
        problems.append("so3 halved Z4 pipeline is not so31")
    b5, b5_axioms = out["pipelines"]["b5"]
    if not (b5_axioms.ok and b5.dim == 30
            and b5.constants_equal(state["invariance"]["b5"][0])):
        problems.append("b5 pipeline does not give the 30-generator b5 algebra")
    return problems
