"""Symmetric invariant tensors with symbolic alpha coefficients.

Tensors are stored sparsely on sorted generator-index tuples; lookups sort
their argument, which is exactly the statement that the multilinear form is
symmetric under slot permutation (form-degree signs live in the exterior
algebra, never in the tensor).
"""

from __future__ import annotations

import itertools
import string
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .lie_algebra import LieAlgebra, integer_constants, pair_basis, perm_sign
from .scalars import Q2, ScalarExpr, common_denominator, int_parts
from .semigroup import Semigroup, make_cyclic


class TensorError(ValueError):
    pass


class InvariantTensor:
    def __init__(self, rank: int, entries: Optional[dict[tuple[int, ...], ScalarExpr]] = None):
        if rank < 2:
            raise TensorError("tensor rank must be >= 2")
        self.rank = rank
        self.entries: dict[tuple[int, ...], ScalarExpr] = {}
        if entries:
            for key, val in entries.items():
                self.set_entry(key, val)

    def set_entry(self, indices: Iterable[int], value: ScalarExpr) -> None:
        key = tuple(sorted(indices))
        if len(key) != self.rank:
            raise TensorError("index tuple length does not match rank")
        if value.is_zero():
            self.entries.pop(key, None)
        else:
            self.entries[key] = value

    def get(self, indices: Iterable[int]) -> ScalarExpr:
        return self.entries.get(tuple(sorted(indices)), ScalarExpr.zero())

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return isinstance(other, InvariantTensor) and self.rank == other.rank \
            and self.entries == other.entries

    def scaled(self, c) -> "InvariantTensor":
        return InvariantTensor(self.rank,
                               {k: v * ScalarExpr.of(c) for k, v in self.entries.items()})

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"rank": self.rank,
                "entries": [{"indices": list(key), "coeff": self.entries[key].to_json_list()}
                            for key in sorted(self.entries)]}

    @staticmethod
    def from_json_dict(d: dict) -> "InvariantTensor":
        """The tensor a to_json_dict value describes; a rank or an index
        that is not a JSON int, or two entries on the same sorted indices
        (where set_entry would keep the last one), raise TensorError."""
        rank = d["rank"]
        if type(rank) is not int:
            raise TensorError(f"rank must be an integer, got {rank!r}")
        t = InvariantTensor(rank)
        seen = set()
        for item in d["entries"]:
            indices = item["indices"]
            if not isinstance(indices, list) or not all(type(i) is int for i in indices):
                raise TensorError(f"entry indices must be integers, got {indices!r}")
            key = tuple(sorted(indices))
            if key in seen:
                raise TensorError(f"entry {list(key)} is stated twice")
            seen.add(key)
            t.set_entry(key, ScalarExpr.from_json_list(item["coeff"]))
        return t


# -- epsilon tensors of the base algebras -------------------------------------


def epsilon_tensor(d: int) -> InvariantTensor:
    """The epsilon invariant of ads_d, odd d >= 3: rank (d+1)/2, the entry on
    J_{p0 p1} ... J_{p(d-3) p(d-2)} P_{p(d-1)} being the sign of the permutation
    p.  The customary normalization (1/4 for d = 3, 1/8 for d = 5) is absorbed."""
    if d < 3 or d % 2 == 0:
        raise TensorError(f"epsilon tensor needs an odd d >= 3, got {d}")
    pidx = {p: i for i, p in enumerate(pair_basis(d))}
    t = InvariantTensor((d + 1) // 2)
    for perm in itertools.permutations(range(d)):
        pairs = list(zip(perm[:-1:2], perm[1::2]))
        if all(a < b for a, b in pairs):
            t.set_entry([pidx[p] for p in pairs] + [len(pidx) + perm[-1]],
                        ScalarExpr.const(perm_sign(perm)))
    return t


# -- lifting -------------------------------------------------------------------


def lift_0s(s: Semigroup, target: LieAlgebra, base_dim: int,
            base_tensor: InvariantTensor) -> InvariantTensor:
    """Lift through an S-expansion: the entry on generators with tags
    (g_1..g_r) carries alpha_g, g the semigroup product of the tags, times the
    base entry; when s has a zero, entries whose product is the zero vanish.

    The target may be any tag-carrying algebra built over s (a full or
    zero-reduced expansion, a resonant subalgebra of one, or a
    sign-identification quotient); tags are read from its labels.  Target
    generator i has base generator i % base_dim, so a base tensor index at or
    above base_dim means the lift does not fit the target and raises.
    """
    top = max((key[-1] for key in base_tensor.entries), default=-1)
    if top >= base_dim:
        raise TensorError(f"base tensor index {top} is not below base_dim {base_dim}")
    tags = []
    for lab in target.labels:
        if not lab.tags or not 0 <= lab.tags[0] < s.order:
            raise TensorError(f"target generator {lab} carries no tag of {s.name}")
        tags.append(lab.tags[0])
    out = InvariantTensor(base_tensor.rank)
    for combo in itertools.combinations_with_replacement(range(target.dim), base_tensor.rank):
        bases = [i % base_dim for i in combo]
        val = base_tensor.get(bases)
        if val.is_zero():
            continue
        gamma = s.product([tags[i] for i in combo])
        if gamma == s.zero_index:  # never true when s has no zero
            continue
        out.set_entry(combo, ScalarExpr.alpha(gamma) * val)
    return out


def lift_h(n: int, target: LieAlgebra, base_tensor: InvariantTensor) -> InvariantTensor:
    """Lift through the halved Z_{2n} expansion: the Z_{2n} lift, so the entry
    on tags (i_1..i_r) picks up alpha_g with g = sum of tags mod 2n, g running
    over the whole group."""
    if n < 1:
        raise TensorError("n must be >= 1")
    if target.dim % n:
        raise TensorError("target dimension is not divisible by n")
    return lift_0s(make_cyclic(2 * n), target, target.dim // n, base_tensor)


# -- invariance ----------------------------------------------------------------


class InvarianceReport:
    def __init__(self, ok: bool, violation=None, value: Optional[ScalarExpr] = None):
        self.ok = ok
        self.violation = violation
        self.value = value

    def __bool__(self):
        return self.ok


def require_fit(L: LieAlgebra, T: InvariantTensor) -> None:
    """Raise TensorError when an index of T names no generator of L."""
    for key in T.entries:
        if key[0] < 0 or key[-1] >= L.dim:
            raise TensorError(f"tensor entry {list(key)} has an index outside "
                              f"the {L.dim} generators of {L.name}")


def _integer_entries(T: InvariantTensor) -> tuple[int, list]:
    """(D_T, view): D_T is the lcm of the denominators of all entry
    coefficients, and view lists every entry as (slots, terms, irr).  slots
    holds (b, K - b) for each distinct slot value b of the entry's key K,
    terms holds (term key, p, q) with p + q*sqrt2 = D_T * coefficient, and
    irr tells whether some q is nonzero."""
    den = common_denominator(v for val in T.entries.values() for v in val.terms.values())
    view = []
    for key, val in T.entries.items():
        terms = tuple((term, *int_parts(v, den)) for term, v in val.terms.items())
        slots = tuple((b, key[:i] + key[i + 1:]) for i, b in enumerate(key)
                      if not (i and key[i - 1] == b))
        view.append((slots, terms, any(q for _, _, q in terms)))
    return den, view


def verify_invariance(L: LieAlgebra, T: InvariantTensor) -> InvarianceReport:
    """Check that the adjoint action annihilates the tensor, from its entries.

    For every generator X = T_{A0} and every sorted slot tuple, the sum of the
    tensor with one slot rotated by ad_X must vanish identically in the alpha
    symbols (each alpha and ell term separately).  The sums are scattered from
    the entries: an entry on K feeds, for each distinct slot value b of K and
    each x with C_{A0 x}^b != 0, the slot tuple combo = sorted(K - b + x),
    once for each slot of combo that holds x.  The arithmetic is on integers:
    the constants are scaled by their common denominator D and the entries by
    theirs, D_T, and only the reported sum is divided back by D * D_T.  The
    violation reported is the first A0 with a nonzero sum and, within it, the
    smallest slot tuple.  A tensor index outside the algebra raises
    TensorError.
    """
    require_fit(L, T)
    den, rows = integer_constants(L)
    # a0 -> {b: [(x, p, q)]} with p + q*sqrt2 = D * C_{a0 x}^b
    images: list[dict[int, list]] = [{} for _ in range(L.dim)]
    for x, y, row in rows:
        for b, p, q in row:
            images[x].setdefault(b, []).append((y, p, q))
            images[y].setdefault(b, []).append((x, -p, -q))
    den_t, view = _integer_entries(T)
    for a0 in range(L.dim):
        ad = images[a0]
        if not ad:
            continue
        # rational and sqrt2 parts of each sum, keyed by (combo, term key)
        rat: dict[tuple, int] = {}
        irr: dict[tuple, int] = {}
        for slots, terms, t_irr in view:
            for b, rest in slots:
                if b not in ad:
                    continue
                for x, p, q in ad[b]:
                    combo = tuple(sorted(rest + (x,)))
                    n = combo.count(x)
                    pn = n * p
                    if q or t_irr:
                        qn = n * q
                        for term, tp, tq in terms:
                            key = (combo, term)
                            rat[key] = rat.get(key, 0) + pn * tp + 2 * qn * tq
                            irr[key] = irr.get(key, 0) + pn * tq + qn * tp
                    else:
                        for term, tp, _ in terms:
                            key = (combo, term)
                            rat[key] = rat.get(key, 0) + pn * tp
        bad = [key[0] for acc in (rat, irr) for key, v in acc.items() if v]
        if bad:
            combo = min(bad)
            scale = den * den_t
            terms = dict.fromkeys(key[1] for acc in (rat, irr) for key in acc
                                  if key[0] == combo)
            value = ScalarExpr({term: Q2(Fraction(rat.get((combo, term), 0), scale),
                                         Fraction(irr.get((combo, term), 0), scale))
                                for term in terms})
            return InvarianceReport(False, (a0, combo), value)
    return InvarianceReport(True)


def rotate_tensor(T: InvariantTensor, m: list[list[Q2]]) -> InvariantTensor:
    """Pull the tensor back along the basis change T'_i = sum_A m[A][i] T_A."""
    n = len(m)
    rows = [[(i, m[a][i]) for i in range(n) if m[a][i]] for a in range(n)]
    acc: dict[tuple[int, ...], ScalarExpr] = {}
    for key, val in T.entries.items():
        if any(a >= n for a in key):
            raise TensorError("basis matrix too small for tensor indices")
        for perm in set(itertools.permutations(key)):
            for choice in itertools.product(*(rows[a] for a in perm)):
                tgt = tuple(i for i, _ in choice)
                if any(tgt[p] > tgt[p + 1] for p in range(len(tgt) - 1)):
                    continue  # only accumulate the sorted representative
                coeff = Q2(1)
                for _, c in choice:
                    coeff = coeff * c
                prev = acc.get(tgt, ScalarExpr.zero())
                acc[tgt] = prev + val.scaled(coeff)
    out = InvariantTensor(T.rank)
    for key, val in acc.items():
        out.set_entry(key, val)
    return out


# -- human-readable output ------------------------------------------------------


def _slot_name(base: str, arity: int, tags: tuple[int, ...]) -> str:
    name = base + ("[ab]" if arity == 2 else "[a]")
    if tags:
        name += "@" + ",".join(map(str, tags))
    return name


def family_table(T: InvariantTensor, L: LieAlgebra) -> list[tuple[tuple[str, ...], ScalarExpr]]:
    """Group entries into slot families (by base symbol, index arity and tags)
    and factor out the epsilon sign; each family must carry one common
    coefficient or a TensorError is raised."""
    fams: dict[tuple, ScalarExpr] = {}
    for key, val in sorted(T.entries.items()):
        fam = tuple((L.labels[i].base, len(L.labels[i].index), L.labels[i].tags)
                    for i in key)
        flat = []
        for i in key:
            flat.extend(L.labels[i].index)
        sign = perm_sign(flat)
        if sign == 0:
            raise TensorError("entry does not look like an epsilon contraction")
        coeff = val.scaled(Q2(sign))
        if fam in fams:
            if fams[fam] != coeff:
                raise TensorError(f"family {fam} has non-uniform coefficients")
        else:
            fams[fam] = coeff
    return [(tuple(_slot_name(*slot) for slot in fam), fams[fam])
            for fam in sorted(fams, key=str)]


def latex_family_table(T: InvariantTensor, L: LieAlgebra) -> str:
    """The family table as LaTeX; a rank-r tensor contracts the 2r - 1
    letters of the epsilon symbol."""
    eps_name = string.ascii_lowercase[:2 * T.rank - 1]
    lines = [r"\begin{array}{l}"]
    for names, coeff in family_table(T, L):
        slots = ", ".join(names)
        lines.append(rf"\langle {slots} \rangle = ({coeff.latex()})\,\varepsilon_{{{eps_name}}} \\")
    lines.append(r"\end{array}")
    return "\n".join(lines)
