"""Symmetric invariant tensors with symbolic alpha coefficients.

Tensors are stored sparsely on sorted generator-index tuples; lookups sort
their argument, which is exactly the statement that the multilinear form is
symmetric under slot permutation (form-degree signs live in the exterior
algebra, never in the tensor).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Optional

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
        """The tensor times c.  Entries that share one value object share
        its product too; the values stay alive in self meanwhile, so no two
        of them share an id."""
        c = ScalarExpr.of(c)
        products: dict[int, ScalarExpr] = {}
        out = InvariantTensor(self.rank)
        for k, v in self.entries.items():
            w = products.get(id(v))
            if w is None:
                w = products[id(v)] = v * c
            out.set_entry(k, w)
        return out

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
    p.  The customary normalization (1/4 for d = 3, 1/8 for d = 5) is absorbed.

    Each entry is one vector index and a matching of the other d - 1 indices
    into ascending pairs; the entries go in in the lexicographic order of
    their permutations p with the pairs ordered by their first index."""
    if d < 3 or d % 2 == 0:
        raise TensorError(f"epsilon tensor needs an odd d >= 3, got {d}")
    pidx = {p: i for i, p in enumerate(pair_basis(d))}
    perms = []
    for v in range(d):
        for pairs in _matchings(tuple(x for x in range(d) if x != v)):
            perms.append((sum(pairs, ()) + (v,), [pidx[p] for p in pairs] + [len(pidx) + v]))
    t = InvariantTensor((d + 1) // 2)
    for perm, key in sorted(perms):
        t.set_entry(key, ScalarExpr.const(perm_sign(perm)))
    return t


def _matchings(rest: tuple[int, ...]):
    """Every split of the ascending tuple rest into ascending pairs, each
    split as its pairs ordered by their first element."""
    if not rest:
        yield ()
        return
    a = rest[0]
    for j in range(1, len(rest)):
        for tail in _matchings(rest[1:j] + rest[j + 1:]):
            yield ((a, rest[j]),) + tail


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
    above base_dim means the lift does not fit the target and raises, as does
    a negative one.  Each base entry feeds the sorted tuples of target
    generators over its base indices; the entries go in in sorted key order.
    """
    entries = base_tensor.entries
    top = max((key[-1] for key in entries), default=-1)
    if top >= base_dim:
        raise TensorError(f"base tensor index {top} is not below base_dim {base_dim}")
    bottom = min((key[0] for key in entries), default=0)
    if bottom < 0:
        raise TensorError(f"base tensor index {bottom} is negative")
    tags = []
    for lab in target.labels:
        if not lab.tags or not 0 <= lab.tags[0] < s.order:
            raise TensorError(f"target generator {lab} carries no tag of {s.name}")
        tags.append(lab.tags[0])
    over = [range(b, target.dim, base_dim) for b in range(base_dim)]
    # a sorted target tuple has exactly one sorted tuple of base indices, so
    # the base entries feed disjoint sets of targets
    lifted = []
    for key, val in entries.items():
        values: dict[int, ScalarExpr] = {}  # gamma -> alpha_gamma * val, shared
        for combo in {tuple(sorted(choice))
                      for choice in itertools.product(*(over[b] for b in key))}:
            gamma = s.product([tags[i] for i in combo])
            if gamma == s.zero_index:  # never true when s has no zero
                continue
            value = values.get(gamma)
            if value is None:
                value = values[gamma] = ScalarExpr.alpha(gamma) * val
            lifted.append((combo, value))
    lifted.sort(key=lambda item: item[0])
    out = InvariantTensor(base_tensor.rank)
    for combo, value in lifted:
        out.set_entry(combo, value)
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
    coefficients, and view lists every entry as (key, terms, irr).  terms
    holds (term key, p, q) with p + q*sqrt2 = D_T * coefficient, and irr
    tells whether some q is nonzero; entries that share one value object
    share these.  The values stay alive in T meanwhile, so no two of them
    share an id."""
    den = common_denominator(v for val in T.entries.values() for v in val.terms.values())
    parts: dict[int, tuple] = {}
    view = []
    for key, val in T.entries.items():
        part = parts.get(id(val))
        if part is None:
            terms = tuple((term, *int_parts(v, den)) for term, v in val.terms.items())
            part = parts[id(val)] = (terms, any(q for _, _, q in terms))
        view.append((key, *part))
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
    den_t, entries = _integer_entries(T)
    # per entry, (b, K - b) for each distinct slot value b of its key K
    view = [(tuple((b, key[:i] + key[i + 1:]) for i, b in enumerate(key)
                   if not (i and key[i - 1] == b)), terms, t_irr)
            for key, terms, t_irr in entries]
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
    """Pull the tensor back along the basis change T'_i = sum_A m[A][i] T_A.

    The sum over every ordering of an entry's key K is walked in K's own slot
    order only: each choice of one target per slot lands on its sorted tuple
    I, and weighting it by orderings(K) / orderings(I) makes up for the
    orderings skipped.  The arithmetic is on integers, over the common
    denominators of the entries and of m; at the end one ScalarExpr is built
    per distinct coefficient, shared by the targets that carry it, and the
    targets go in in sorted order.  An index below 0 or beyond m raises
    TensorError.
    """
    n = len(m)
    for key in T.entries:
        if key[0] < 0 or key[-1] >= n:
            raise TensorError(f"tensor entry {list(key)} has an index outside "
                              f"the {n} rows of the basis matrix")
    m = [[Q2.of(x) for x in row[:n]] for row in m]
    den_m = common_denominator(x for row in m for x in row)
    # a -> ((i, p, q), ...) with p + q*sqrt2 = den_m * m[a][i]
    rows = [tuple((i, *int_parts(x, den_m)) for i, x in enumerate(row) if x) for row in m]
    den_t, entries = _integer_entries(T)
    rank = T.rank
    fact = [math.factorial(k) for k in range(rank + 1)]
    # rational and sqrt2 parts of each target's terms, keyed by (target, term)
    # and scaled by rank! * den_t * den_m^rank
    rat: dict[tuple, int] = {}
    irr: dict[tuple, int] = {}
    for key, terms, t_irr in entries:
        # the number of distinct orderings of key
        weight = fact[rank]
        if len(set(key)) < rank:
            for count in Counter(key).values():
                weight //= fact[count]
        for choice in itertools.product(*(rows[a] for a in key)):
            p, q = weight, 0
            for _, x, y in choice:
                p, q = p * x + 2 * q * y, p * y + q * x
            tgt = tuple(sorted(i for i, _, _ in choice))
            if len(set(tgt)) < rank:
                for count in Counter(tgt).values():
                    p, q = p * fact[count], q * fact[count]
            for term, tp, tq in terms:
                k = (tgt, term)
                rat[k] = rat.get(k, 0) + p * tp + 2 * q * tq
                if q or t_irr:
                    irr[k] = irr.get(k, 0) + p * tq + q * tp
    acc: dict[tuple[int, ...], list] = {}
    for k, p in rat.items():
        q = irr.get(k, 0)
        if p or q:
            acc.setdefault(k[0], []).append((k[1], p, q))
    scale = fact[rank] * den_t * den_m ** rank
    values: dict[tuple, ScalarExpr] = {}
    out = InvariantTensor(rank)
    for tgt in sorted(acc):
        parts = tuple(acc[tgt])
        value = values.get(parts)
        if value is None:
            value = values[parts] = ScalarExpr(
                {term: Q2(Fraction(p, scale), Fraction(q, scale)) for term, p, q in parts})
        out.entries[tgt] = value
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
    eps_name = "abcdefghijklmnopqrstuvwxyz"[:2 * T.rank - 1]
    lines = [r"\begin{array}{l}"]
    for names, coeff in family_table(T, L):
        slots = ", ".join(names)
        lines.append(rf"\langle {slots} \rangle = ({coeff.latex()})\,\varepsilon_{{{eps_name}}} \\")
    lines.append(r"\end{array}")
    return "\n".join(lines)
