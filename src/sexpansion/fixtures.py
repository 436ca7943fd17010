"""Concrete named constructions: the halved-Z4 gravity algebras in any odd
dimension, their invariant tensors, the resonant comparison algebra, gauge
connections, and seeded random algebras for property tests.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

from .expansion import ResonanceSpec, h_reduce, resonant_subalgebra, s_expand, zero_reduce
from .forms import IntForm, LieValuedForm, component_symbol
from .invariant_tensor import (InvariantTensor, epsilon_tensor, lift_0s, lift_h,
                               rotate_tensor)
from .lie_algebra import (Label, LieAlgebra, LieAlgebraError, change_basis,
                          make_ads, make_named, mat_inverse, pair_basis)
from .scalars import HALF_SQRT2, Q2, SQRT2, ScalarExpr
from .semigroup import Semigroup, make_cyclic, make_klein, make_se


# -- the halved-Z4 gravity algebras --------------------------------------------


def _relabel_c(L: LieAlgebra) -> list[Label]:
    """Pretty labels for the halved Z4 expansion of an AdS-type algebra:
    tag 0 keeps the base name, tag 1 becomes the Z partner."""
    out = []
    for lab in L.labels:
        base = {"J": ("J", "Z"), "P": ("P", "Z")}[lab.base][lab.tags[0]]
        out.append(Label(base, lab.index, lab.tags))
    return out


def make_c_algebra(d: int) -> LieAlgebra:
    """Halved Z4 expansion of the AdS-type algebra: generators J, Z (pairs)
    and P, Z (vectors)."""
    L = h_reduce(2, make_ads(d), name=f"c{d}")
    return LieAlgebra._adopt(f"c{d}", _relabel_c(L), L.constants)


def mixing_rotation(d: int) -> list[list[Q2]]:
    """Basis change mixing the two vector blocks:
    P' = (P + Z)/sqrt2, Z' = (P - Z)/sqrt2, identity on the pair blocks.

    Block layout is the tag-major one: J pairs, P vectors, Z pairs, Z vectors.
    """
    npairs = len(pair_basis(d))
    base_dim = npairs + d
    n = 2 * base_dim
    m = [[Q2(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = Q2(1)
    p0 = npairs             # P block inside the tag-0 half
    z0 = base_dim + npairs  # vector Z block inside the tag-1 half
    for a in range(d):
        m[p0 + a][p0 + a] = HALF_SQRT2
        m[z0 + a][p0 + a] = HALF_SQRT2
        m[p0 + a][z0 + a] = HALF_SQRT2
        m[z0 + a][z0 + a] = -HALF_SQRT2
    return m


def make_c_algebra_rotated(d: int) -> LieAlgebra:
    base = make_c_algebra(d)
    rotated = change_basis(base, mixing_rotation(d), name=f"c{d}_rotated",
                           labels=[Label(l.base, l.index) for l in base.labels])
    return rotated


def c_tensor(d: int) -> InvariantTensor:
    """Lifted epsilon tensor of the halved Z4 expansion, all four alphas."""
    return lift_h(2, h_reduce(2, make_ads(d)), epsilon_tensor(d))


def c_tensor_rotated(d: int) -> InvariantTensor:
    """Same tensor in the mixed vector basis, with the 1/sqrt2 absorbed."""
    return rotate_tensor(c_tensor(d), mixing_rotation(d)).scaled(
        ScalarExpr.const(SQRT2))


# -- the resonant comparison algebra -------------------------------------------


def b5_resonance_spec() -> ResonanceSpec:
    """Subset split of ads5 pairing the rotation block with the even truncated-
    power elements and the translation block with the odd ones; the top element
    sits in both subsets.  Always re-validated by the resonance checker."""
    partition = [0] * len(pair_basis(5)) + [1] * 5
    return ResonanceSpec.make(partition, [[0, 2, 4], [1, 3, 4]])


def make_b5() -> LieAlgebra:
    s = make_se(3)
    ads = make_ads(5)
    expanded = s_expand(s, ads)
    res = resonant_subalgebra(expanded, s, ads, b5_resonance_spec())
    out = zero_reduce(res, s, name="b5")
    labels = []
    for lab in out.labels:
        base = {("J", 0): "J", ("J", 2): "Z", ("P", 1): "P", ("P", 3): "Z"}[
            (lab.base, lab.tags[0])]
        labels.append(Label(base, lab.index, lab.tags))
    return LieAlgebra._adopt("b5", labels, out.constants)


def b5_tensor() -> InvariantTensor:
    return lift_0s(make_se(3), make_b5(), len(pair_basis(5)) + 5, epsilon_tensor(5))


# -- gauge connections ----------------------------------------------------------


FIELD_BLOCKS = {
    # base label -> (field symbol, ell power of the component prefactor)
    ("J", 2): ("w", 0),
    ("Z", 2): ("k", 0),
    ("P", 1): ("e", -1),
    ("Z", 1): ("h", -1),
}


def build_connection(L: LieAlgebra, fields: Iterable[str] = ("w", "e", "k", "h"),
                     ) -> LieValuedForm:
    """The standard gauge connection on a gravity-type algebra: one component
    symbol per generator, with the vector blocks carrying 1/ell.

    Components attach by label: pair-index generators named J carry w, pair
    generators named Z carry k, vector P carries e, vector Z carries h.
    """
    wanted = set(fields)
    components = {}
    for i, lab in enumerate(L.labels):
        key = (lab.base, len(lab.index))
        if key not in FIELD_BLOCKS:
            raise ValueError(f"no field assignment for generator {lab}")
        fieldname, ellpow = FIELD_BLOCKS[key]
        if fieldname not in wanted:
            continue
        s, symbol = component_symbol(fieldname, lab.index)
        if s:
            components[i] = IntForm({(None, ellpow, 0): {(symbol,): s}})
    return LieValuedForm(components)


def connection_chain(L: LieAlgebra, fields: Iterable[str] = ("w", "e", "k", "h"),
                     ) -> list[LieValuedForm]:
    """The nested connections used by subspace separation,
    [w+e+k+h, w+e, w, 0], each keeping only the given fields."""
    wanted = set(fields)
    chain = [build_connection(L, wanted.intersection(subset))
             for subset in (("w", "e", "k", "h"), ("w", "e"), ("w",))]
    return chain + [LieValuedForm.zero()]


# -- seeded random algebras ------------------------------------------------------


def _elementary_nilpotent(n: int) -> LieAlgebra:
    """Strictly upper triangular n x n matrices in the elementary basis."""
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pos = {s: i for i, s in enumerate(slots)}
    labels = [Label("N", s) for s in slots]
    constants = {}
    for x, (i, j) in enumerate(slots):
        for y in range(x + 1, len(slots)):
            k, l = slots[y]
            row = {}
            # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj; at most one term
            # applies, as j == k and l == i would give i < j = k < l = i
            if j == k and (i, l) in pos:
                row[pos[(i, l)]] = Q2(1)
            if l == i and (k, j) in pos:
                row[pos[(k, j)]] = Q2(-1)
            if row:
                constants[(x, y)] = row
    return LieAlgebra(f"n{n}", labels, constants)


def _random_invertible(dim: int, rng: random.Random) -> list[list[Q2]]:
    while True:
        m = [[Q2(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(dim)]
             for _ in range(dim)]
        try:
            mat_inverse([row[:] for row in m])
            return m
        except LieAlgebraError:
            continue


def random_nilpotent(dim_matrix: int, seed: int) -> LieAlgebra:
    """Strictly-upper-triangular subalgebra of gl(n) in a random basis."""
    base = _elementary_nilpotent(dim_matrix)
    rng = random.Random(seed)
    m = _random_invertible(base.dim, rng)
    return change_basis(base, m, name=f"random_nilpotent_{dim_matrix}_{seed}")


def random_solvable_4d(seed: int) -> LieAlgebra:
    """Upper-triangular 2x2 matrices plus an abelian direction, random basis."""
    labels = [Label("S", (i,)) for i in range(4)]
    constants = {
        (0, 1): {1: Q2(1)},   # [D, N] = N
        (1, 2): {1: Q2(-1)},  # [N, E] = -N
    }
    base = LieAlgebra("solv4", labels, constants)
    rng = random.Random(seed)
    return change_basis(base, _random_invertible(4, rng),
                        name=f"random_solvable_4_{seed}")


# -- registry --------------------------------------------------------------------


def algebra_by_name(name: str) -> LieAlgebra:
    special = {
        "c5": lambda: make_c_algebra(5),
        "c3": lambda: make_c_algebra(3),
        "c5_rotated": lambda: make_c_algebra_rotated(5),
        "c3_rotated": lambda: make_c_algebra_rotated(3),
        "b5": make_b5,
        "random6": lambda: random_nilpotent(4, seed=20160409),
        "solvable4": lambda: random_solvable_4d(seed=20160409),
    }
    if name in special:
        return special[name]()
    return make_named(name)


def tensor_by_name(name: str) -> InvariantTensor:
    builders = {
        "ads5_eps": lambda: epsilon_tensor(5),
        "ads3_eps": lambda: epsilon_tensor(3),
        "c5": lambda: c_tensor(5),
        "c3": lambda: c_tensor(3),
        "c5_rotated": lambda: c_tensor_rotated(5),
        "c3_rotated": lambda: c_tensor_rotated(3),
        "b5": b5_tensor,
    }
    if name not in builders:
        raise ValueError(f"unknown tensor name: {name!r}")
    return builders[name]()


def semigroup_by_name(name: str) -> Semigroup:
    if name.startswith("Z") and name[1:].isdigit():
        return make_cyclic(int(name[1:]))
    if name.startswith("SE") and name[2:].isdigit():
        return make_se(int(name[2:]))
    if name in ("D4", "Klein", "klein"):
        return make_klein()
    raise ValueError(f"unknown semigroup name: {name!r}")
