"""Expansion and reduction constructions on Lie algebras.

All four constructions live here: the semigroup product expansion, the
absorbing-element reduction, resonant subalgebra extraction, and the
sign-identification quotient by a fixed-point-free tag pairing.  The halved
Z_{2n} reduction `h_reduce` is that quotient of the Z_{2n} expansion with
g paired to g + n; it has no construction of its own.  The three
reductions map bracket targets through one loop, `_quotient`.

Expanded generators are ordered tag-major: dense index = tag * dim + base,
so the tag-0 block is a verbatim copy of the original ordering.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .lie_algebra import LieAlgebra, PairTable, change_basis, mat_identity
from .semigroup import Semigroup, make_cyclic


class ExpansionError(ValueError):
    pass


def s_expand(s: Semigroup, L: LieAlgebra, name: Optional[str] = None) -> LieAlgebra:
    """Product algebra on generators (A, a) with constants weighted by the
    semigroup selector: the bracket of (A, a) and (B, b) lands on (C, ab)."""
    dim = L.dim
    labels = [L.labels[a].tagged(t) for t in s.elements() for a in range(dim)]
    constants: PairTable = {}
    for (a, b), targets in L.constants.items():
        negated = {c: -v for c, v in targets.items()}
        for ta in s.elements():
            for tb in s.elements():
                shift = s.table[ta][tb] * dim
                i, j = ta * dim + a, tb * dim + b
                # every stored key has a < b, so each (i, j) is met once
                key, row = ((i, j), targets) if i < j else ((j, i), negated)
                constants[key] = {shift + c: v for c, v in row.items()}
    return LieAlgebra._adopt(name or f"{s.name}x{L.name}", labels, constants)


def _quotient(G: LieAlgebra, keep: Sequence[int],
              image: dict[int, tuple[int, int]], name: str) -> LieAlgebra:
    """The algebra on the generators `keep` (ascending) whose brackets are
    G's with every target c sent to image[c] = (new index, sign), or
    dropped when c has no image; targets that meet are summed."""
    remap = {old: new for new, old in enumerate(keep)}
    constants: PairTable = {}
    for (a, b), targets in G.constants.items():
        if a not in remap or b not in remap:
            continue
        row = {}
        for c, v in targets.items():
            img = image.get(c)
            if img is None:
                continue
            qc, sc = img
            v = v if sc > 0 else -v
            w = row.get(qc)
            w = v if w is None else w + v
            if w:
                row[qc] = w
            else:
                del row[qc]
        if row:
            # keep is ascending, so remap[a] < remap[b]
            constants[(remap[a], remap[b])] = row
    return LieAlgebra._adopt(name, [G.labels[i] for i in keep], constants)


def zero_reduce(G: LieAlgebra, s: Semigroup, name: Optional[str] = None) -> LieAlgebra:
    """Delete every generator tagged by the absorbing element; brackets that
    landed on a deleted generator become zero."""
    if s.zero_index is None:
        raise ExpansionError("semigroup has no designated zero element")
    keep = [i for i, lab in enumerate(G.labels) if lab.tags and lab.tags[0] != s.zero_index]
    image = {old: (new, 1) for new, old in enumerate(keep)}
    return _quotient(G, keep, image, name or f"{G.name}_0red")


class ResonanceSpec(NamedTuple):
    """Subspace partition of the base algebra plus a semigroup subset per part.

    partition[A] is the part index of base generator A; subsets[p] is the set
    of semigroup elements paired with part p.  Subsets may overlap but must
    cover the whole semigroup.
    """

    partition: tuple[int, ...]
    subsets: tuple[frozenset[int], ...]

    @staticmethod
    def make(partition: Sequence[int], subsets: Sequence[Sequence[int]]) -> "ResonanceSpec":
        return ResonanceSpec(tuple(partition),
                             tuple(frozenset(s) for s in subsets))


class ResonanceViolation(ExpansionError):
    def __init__(self, p: int, q: int, element: int):
        self.p, self.q, self.element = p, q, element
        super().__init__(
            f"subset resonance fails: product of subsets {p} and {q} "
            f"contains element {element} outside the allowed intersection")


def bracket_part_map(L: LieAlgebra, partition: Sequence[int]) -> dict[tuple[int, int], set[int]]:
    """Which parts the bracket of two subspaces can land on, read off the
    structure constants."""
    nparts = max(partition) + 1
    out = {(p, q): set() for p in range(nparts) for q in range(nparts)}
    for (a, b), targets in L.constants.items():
        p, q = partition[a], partition[b]
        for c, v in targets.items():
            if v:
                out[(p, q)].add(partition[c])
                out[(q, p)].add(partition[c])
    return out


def check_resonance(s: Semigroup, L: LieAlgebra, spec: ResonanceSpec) -> None:
    """Raise ResonanceViolation if the subset family is not in resonance with
    the subspace decomposition: S_p * S_q must lie in the intersection of the
    S_r over the parts r that [V_p, V_q] reaches, which holds trivially when
    the bracket is zero (arXiv:hep-th/0606215)."""
    if len(spec.partition) != L.dim:
        raise ExpansionError("partition length must equal the base dimension")
    if set(spec.partition) != set(range(len(spec.subsets))):
        raise ExpansionError("the partition must use the parts 0..len(subsets) - 1, "
                             "one per subset")
    cover = set().union(*spec.subsets) if spec.subsets else set()
    if cover != set(s.elements()):
        raise ExpansionError("subsets must cover the whole semigroup")
    parts = bracket_part_map(L, spec.partition)
    nparts = len(spec.subsets)
    for p in range(nparts):
        for q in range(nparts):
            allowed = set(s.elements())
            for r in parts[(p, q)]:
                allowed &= spec.subsets[r]
            for x in spec.subsets[p]:
                for y in spec.subsets[q]:
                    prod = s.table[x][y]
                    if prod not in allowed:
                        raise ResonanceViolation(p, q, prod)


def resonant_subalgebra(G: LieAlgebra, s: Semigroup, L: LieAlgebra,
                        spec: ResonanceSpec, name: Optional[str] = None) -> LieAlgebra:
    """Extract the subalgebra spanned by (A, a) with a in the subset of A's part.

    G must be the full semigroup expansion of L, tag-major ordered.  Both the
    subspace-closure data and the subset resonance condition are verified
    before anything is removed.
    """
    if G.dim != s.order * L.dim:
        raise ExpansionError("expanded algebra does not match |S| * dim")
    check_resonance(s, L, spec)
    keep = []
    for i, lab in enumerate(G.labels):
        base = i % L.dim
        assert lab.tags and lab.tags[0] == i // L.dim, "tag-major ordering expected"
        if lab.tags[0] in spec.subsets[spec.partition[base]]:
            keep.append(i)
    image = {old: (new, 1) for new, old in enumerate(keep)}
    for (a, b), targets in G.constants.items():
        if a in image and b in image:
            for c in targets:
                if c not in image:
                    raise ExpansionError(
                        f"not closed: [{G.labels[a]}, {G.labels[b]}] hits {G.labels[c]}")
    return _quotient(G, keep, image, name or f"{G.name}_res")


def h_reduce(n: int, L: LieAlgebra, name: Optional[str] = None) -> LieAlgebra:
    """Halve a Z_{2n} expansion by identifying the shifted generators with
    minus the unshifted ones: the sign-identification quotient of
    s_expand(Z_{2n}, L) by T_(A, g+n) = -T_(A, g).

    The survivors carry tags 0..n-1 and the bracket of (A, i), (B, j) lands on
    (C, (i+j) mod n) with a minus sign exactly when i + j wraps past n.
    """
    if n < 1:
        raise ExpansionError("n must be >= 1")
    s = make_cyclic(2 * n)
    return impose_sign_identification(
        s_expand(s, L), s, {g: (g + n) % (2 * n) for g in s.elements()},
        name=name or f"(Z{2*n}x{L.name})_H")


def greater_interval_algebra(n: int, L: LieAlgebra) -> LieAlgebra:
    """The same reduction built from the shifted-tag generators instead.

    Carries tags n..2n-1 and every structure constant flips sign relative to
    h_reduce; the claimed isomorphism witness (negating all generators) is
    verified here by exact constant equality, and the witnessed algebra is
    returned with its shifted-tag labels.
    """
    if n < 1:
        raise ExpansionError("n must be >= 1")
    dim = L.dim
    minor = h_reduce(n, L)
    labels = [L.labels[a].tagged(t + n) for t in range(n) for a in range(dim)]
    constants: PairTable = {
        key: {c: -v for c, v in targets.items()}
        for key, targets in minor.constants.items()
    }
    greater = LieAlgebra(f"(Z{2*n}x{L.name})_Hgreater", labels, constants)
    flipped = change_basis(greater,
                           [[-x for x in row] for row in mat_identity(greater.dim)],
                           name="witness")
    if not flipped.constants_equal(minor):
        raise ExpansionError("sign-flip witness failed to match the minor-interval algebra")
    return greater


class PairingError(ExpansionError):
    def __init__(self, a: int, b: int, detail: str):
        self.a, self.b, self.detail = a, b, detail
        super().__init__(
            f"inconsistent identification at product ({a}, {b}): {detail}")


def impose_sign_identification(G: LieAlgebra, s: Semigroup,
                               pairing: dict[int, int],
                               name: Optional[str] = None) -> LieAlgebra:
    """Quotient an expanded algebra by T_(A, pairing[a]) = -T_(A, a).

    The pairing must be a fixed-point-free involution on the tag set, and the
    induced signed quotient of the multiplication table must be well defined;
    both are checked before the quotient is formed.
    """
    tags = set(s.elements())
    if set(pairing) != tags or set(pairing.values()) != tags:
        raise ExpansionError("pairing must be defined on the whole tag set")
    for a, b in pairing.items():
        if a == b:
            raise ExpansionError(f"tag {a} identified with itself would delete it")
        if pairing[b] != a:
            raise ExpansionError("pairing is not an involution")
    rep = {a: min(a, pairing[a]) for a in tags}
    sgn = {a: 1 if rep[a] == a else -1 for a in tags}
    # consistency: the signed image of a product may depend only on the classes
    seen: dict[tuple[int, int], tuple[int, int]] = {}
    for a in sorted(tags):
        for b in sorted(tags):
            prod = s.table[a][b]
            key = (rep[a], rep[b])
            img = (rep[prod], sgn[a] * sgn[b] * sgn[prod])
            if key in seen and seen[key] != img:
                raise PairingError(a, b,
                                   f"classes {key} map to both {seen[key]} and {img}")
            seen[key] = img

    dim = G.dim // s.order
    if dim * s.order != G.dim:
        raise ExpansionError("expanded algebra does not match the tag set")
    reps = sorted({rep[a] for a in tags})
    rep_pos = {t: i for i, t in enumerate(reps)}
    keep = [t * dim + a for t in reps for a in range(dim)]
    image = {t * dim + a: (rep_pos[rep[t]] * dim + a, sgn[t])
             for t in tags for a in range(dim)}
    return _quotient(G, keep, image, name or f"{G.name}_sig")
