"""Finite abelian semigroups, their selector tensors, and the standard families.

Elements are dense integer indices 0..order-1; the multiplication table is the
single source of truth and every constructor validates closure, associativity
and commutativity eagerly.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Sequence


class SemigroupError(ValueError):
    pass


class _SemigroupFields(NamedTuple):
    name: str
    order: int
    table: tuple[tuple[int, ...], ...]
    zero_index: Optional[int] = None


class Semigroup(_SemigroupFields):
    """Finite abelian semigroup given by its multiplication table.

    table[a][b] is the index of the product of elements a and b; zero_index,
    when set, marks an absorbing element (0_S * x = 0_S for every x).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n = self.order
        if n <= 0:
            raise SemigroupError("semigroup order must be positive")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise SemigroupError("table shape does not match order")
        for a in range(n):
            for b in range(n):
                v = self.table[a][b]
                if not (0 <= v < n):
                    raise SemigroupError(f"table entry out of range at ({a},{b})")
                if self.table[b][a] != v:
                    raise SemigroupError(f"not commutative at ({a},{b})")
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise SemigroupError(f"not associative at ({a},{b},{c})")
        z = self.zero_index
        if z is not None:
            if not (0 <= z < n):
                raise SemigroupError("zero index out of range")
            if any(self.table[z][a] != z for a in range(n)):
                raise SemigroupError("designated zero is not absorbing")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` runs the checks too

    def product(self, indices: Sequence[int]) -> int:
        """Product of a nonempty chain of elements."""
        it = iter(indices)
        acc = next(it)
        for x in it:
            acc = self.table[acc][x]
        return acc

    def elements(self) -> range:
        return range(self.order)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "order": self.order,
            "table": [list(row) for row in self.table],
            "zero": self.zero_index,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Semigroup":
        return Semigroup(
            name=d["name"],
            order=d["order"],
            table=tuple(tuple(row) for row in d["table"]),
            zero_index=d["zero"],
        )


class _SelectorQueryFields(NamedTuple):
    lower_indices: tuple[int, ...]
    upper_index: int


class SelectorQuery(_SelectorQueryFields):
    """Lower index chain and upper index of an r-selector lookup."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.lower_indices) < 2:
            raise SemigroupError("selector needs at least two lower indices")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` runs the check too


def make_cyclic(n: int) -> Semigroup:
    """Cyclic group Z_n under addition mod n."""
    if n < 1:
        raise SemigroupError("cyclic group order must be >= 1")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return Semigroup(name=f"Z{n}", order=n, table=table)


def make_klein() -> Semigroup:
    """The Klein four-group: every element is its own inverse."""
    table = (
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    )
    return Semigroup(name="D4", order=4, table=table)


def make_se(n: int) -> Semigroup:
    """Truncated additive semigroup with absorbing top element.

    Elements 0..n represent powers of a formal expansion parameter; element
    n+1 absorbs every product whose exponent would exceed n.
    """
    if n < 0:
        raise SemigroupError("truncation order must be >= 0")
    order = n + 2
    table = tuple(tuple(min(a + b, n + 1) for b in range(order)) for a in range(order))
    return Semigroup(name=f"SE{n}", order=order, table=table, zero_index=n + 1)


def direct_product(s1: Semigroup, s2: Semigroup) -> Semigroup:
    """Cartesian product with componentwise multiplication.

    Element (a, a') maps to flat index a*|s2| + a'.  The product has a
    designated zero only when both factors do: a product element absorbs only
    if it absorbs in both coordinates.
    """
    n1, n2 = s1.order, s2.order
    table = []
    for a in range(n1):
        for ap in range(n2):
            row = []
            for b in range(n1):
                for bp in range(n2):
                    row.append(s1.table[a][b] * n2 + s2.table[ap][bp])
            table.append(tuple(row))
    zero = None
    if s1.zero_index is not None and s2.zero_index is not None:
        zero = s1.zero_index * n2 + s2.zero_index
    return Semigroup(name=f"{s1.name}x{s2.name}", order=n1 * n2,
                     table=tuple(table), zero_index=zero)


def selector(s: Semigroup, q: SelectorQuery) -> int:
    """r-selector value: 1 iff the chain product of the lowers is the upper."""
    return 1 if s.product(q.lower_indices) == q.upper_index else 0


def selector_of(s: Semigroup, lowers: Sequence[int], upper: int) -> int:
    return selector(s, SelectorQuery(tuple(lowers), upper))


class IdentityReport(NamedTuple):
    ok: bool
    counterexample: Optional[tuple[str, tuple[int, ...]]] = None


def check_even_cyclic_identities(n: int) -> IdentityReport:
    """Exhaustively verify the four selector shift identities on Z_{2n}."""
    if n < 1:
        raise SemigroupError("n must be >= 1")
    s = make_cyclic(2 * n)
    m2 = 2 * n
    K = lambda a, b, c: 1 if s.table[a % m2][b % m2] == c % m2 else 0
    for k, l, m in itertools.product(range(m2), repeat=3):
        if K(k + n, l, m) != K(k, l, m + n):
            return IdentityReport(False, ("shift-upper", (k, l, m)))
        if K(k + n, l, m + n) != K(k, l, m):
            return IdentityReport(False, ("double-shift", (k, l, m)))
        if K(k, l + n, m) != K(k + n, l, m):
            return IdentityReport(False, ("shift-swap", (k, l, m)))
    for i, j, g in itertools.product(range(m2), repeat=3):
        if K(i + n, j + n, g) != K(i, j, g):
            return IdentityReport(False, ("both-lower-shift", (i, j, g)))
    return IdentityReport(True)


_ISO_ORDER_CAP = 8


def find_isomorphism(s1: Semigroup, s2: Semigroup) -> Optional[tuple[int, ...]]:
    """Search for a table-preserving relabeling; None when sizes differ or
    no bijection works.  Exhaustive, so orders above 8 are rejected."""
    if s1.order != s2.order:
        return None
    if s1.order > _ISO_ORDER_CAP:
        raise SemigroupError(
            f"isomorphism search is exhaustive and capped at order {_ISO_ORDER_CAP}")
    n = s1.order
    for perm in itertools.permutations(range(n)):
        if all(perm[s1.table[a][b]] == s2.table[perm[a]][perm[b]]
               for a in range(n) for b in range(n)):
            return perm
    return None
