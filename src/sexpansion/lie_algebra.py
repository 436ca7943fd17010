"""Lie algebras over exact scalars, given by sparse structure constants.

Constants are stored canonically on pairs (A, B) with A < B; the (B, A)
entries are synthesized by sign on lookup, so antisymmetry holds by
construction and check_axioms is really a Jacobi verification.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .scalars import Q2, common_denominator, int_parts, json_rational

PairTable = dict[tuple[int, int], dict[int, Q2]]


class Label(NamedTuple):
    """Structured generator name: base symbol, index tuple, expansion tags.

    Tags accumulate outermost-first: tags[0] is the tag added by the most
    recent expansion step.
    """

    base: str
    index: tuple[int, ...] = ()
    tags: tuple[int, ...] = ()

    def tagged(self, tag: int) -> "Label":
        return Label(self.base, self.index, (tag,) + self.tags)

    def __str__(self) -> str:
        s = self.base
        if self.index:
            s += "(" + ",".join(map(str, self.index)) + ")"
        for t in self.tags:
            s += f"@{t}"
        return s


class LieAlgebraError(ValueError):
    pass


class LieAlgebra:
    """Structure constants C_{AB}^C over Q(sqrt2), indexed densely."""

    def __init__(self, name: str, labels: Sequence[Label],
                 constants: PairTable):
        self.name = name
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.constants: PairTable = {}
        for (a, b), targets in constants.items():
            if a == b:
                if any(Q2.of(c) for c in targets.values()):
                    raise LieAlgebraError(f"nonzero bracket [T_{a}, T_{a}]")
                continue
            key, sign = ((a, b), 1) if a < b else ((b, a), -1)
            row = self.constants.setdefault(key, {})
            for c, coeff in targets.items():
                v = Q2.of(coeff) if sign == 1 else -Q2.of(coeff)
                acc = row.get(c)
                acc = v if acc is None else acc + v
                if acc:
                    row[c] = acc
                elif c in row:
                    del row[c]
            if not row:
                del self.constants[key]
        for (a, b), row in self.constants.items():
            if a < 0 or b >= self.dim:
                raise LieAlgebraError("constant index out of range")
            if min(row) < 0 or max(row) >= self.dim:
                raise LieAlgebraError("constant target out of range")

    @classmethod
    def _adopt(cls, name: str, labels: Sequence[Label],
               constants: PairTable) -> "LieAlgebra":
        """The algebra on a table that is canonical by construction, taken
        over as it is, with nothing checked or copied.  The caller owns the
        table and guarantees what the constructor would make of it: every
        key (a, b) has 0 <= a < b < len(labels), and every row is a nonempty
        map from targets in 0..len(labels)-1 to nonzero Q2 values."""
        self = cls.__new__(cls)
        self.name = name
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.constants = constants
        return self

    # -- bracket ------------------------------------------------------------

    def pair(self, a: int, b: int) -> dict[int, Q2]:
        """Constants of [T_a, T_b] as a sparse target map."""
        if a == b:
            return {}
        if a < b:
            return self.constants.get((a, b), {})
        return {c: -v for c, v in self.constants.get((b, a), {}).items()}

    def bracket(self, x: Sequence[Q2 | Fraction | int],
                y: Sequence[Q2 | Fraction | int]) -> list[Q2]:
        if len(x) != self.dim or len(y) != self.dim:
            raise LieAlgebraError("coefficient vector length mismatch")
        out = [Q2(0) for _ in range(self.dim)]
        for (a, b), targets in self.constants.items():
            coeff = Q2.of(x[a]) * Q2.of(y[b]) - Q2.of(x[b]) * Q2.of(y[a])
            if not coeff:
                continue
            for c, v in targets.items():
                out[c] = out[c] + coeff * v
        return out

    def basis_vector(self, i: int) -> list[Q2]:
        v = [Q2(0)] * self.dim
        v[i] = Q2(1)
        return v

    def constants_equal(self, other: "LieAlgebra") -> bool:
        if self.dim != other.dim:
            return False
        keys = set(self.constants) | set(other.constants)
        return all(self.pair(a, b) == other.pair(a, b) for (a, b) in keys)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        triples = []
        for (a, b) in sorted(self.constants):
            for c in sorted(self.constants[(a, b)]):
                v = self.constants[(a, b)][c]
                entry = {"A": a, "B": b, "C": c, "c": str(v.a)}
                if v.b:
                    entry["c_sqrt2"] = str(v.b)
                triples.append(entry)
        return {
            "name": self.name,
            "dim": self.dim,
            "labels": [{"base": l.base, "index": list(l.index),
                        "tags": list(l.tags)} for l in self.labels],
            "constants": triples,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "LieAlgebra":
        """The algebra a to_json_dict value describes.  Unlike the
        constructor, which adds up what it is given and drops what is zero, a
        file states each constant once and only on generators it has: a
        triple stated twice (in either orientation of A, B), an A, B or C
        outside 0..dim-1 or with A == B (even with c = 0), or a dim that is
        not a JSON int or not the number of labels raises LieAlgebraError; a
        c or c_sqrt2 that is not an int or a string raises ValueError
        (`json_rational`)."""
        labels = [Label(l["base"], tuple(l["index"]), tuple(l.get("tags", ())))
                  for l in d["labels"]]
        dim = d.get("dim", len(labels))
        if type(dim) is not int:
            raise LieAlgebraError(f"dim must be an integer, got {dim!r}")
        if dim != len(labels):
            raise LieAlgebraError(f"dim {dim} does not match the {len(labels)} labels")
        constants: PairTable = {}
        seen = set()
        for t in d["constants"]:
            a, b, c = t["A"], t["B"], t["C"]
            if not all(type(i) is int and 0 <= i < len(labels) for i in (a, b, c)):
                raise LieAlgebraError(f"constant (A, B, C) = ({a!r}, {b!r}, {c!r}) names "
                                      f"a generator outside 0..{len(labels) - 1}")
            if a == b:
                raise LieAlgebraError(f"constant (A, B, C) = ({a}, {b}, {c}) has A == B")
            triple = (min(a, b), max(a, b), c)
            if triple in seen:
                raise LieAlgebraError(f"constant (A, B, C) = {triple} is stated twice")
            seen.add(triple)
            coeff = Q2(json_rational(t["c"], "c"),
                       json_rational(t.get("c_sqrt2", 0), "c_sqrt2"))
            constants.setdefault((a, b), {})[c] = coeff
        return LieAlgebra(d["name"], labels, constants)

    def commutator_lines(self) -> list[str]:
        """Human-readable nonzero brackets, one line each."""
        lines = []
        for (a, b) in sorted(self.constants):
            parts = []
            for c in sorted(self.constants[(a, b)]):
                v = self.constants[(a, b)][c]
                parts.append(f"{v} {self.labels[c]}")
            lines.append(f"[{self.labels[a]}, {self.labels[b]}] = " + " + ".join(parts))
        return lines


# -- axiom verification ------------------------------------------------------


class AxiomReport(NamedTuple):
    ok: bool
    antisymmetry_ok: bool
    jacobi_ok: bool
    violation: Optional[tuple[int, int, int]] = None

    def __bool__(self):
        return self.ok


def integer_constants(L: LieAlgebra) -> tuple[int, list]:
    """(D, rows): D is the lcm of the denominators of all constants, and rows
    lists every stored pair x < y as (x, y, ((c, p, q), ...)) with
    p + q*sqrt2 = D * C_xy^c, all ints."""
    den = common_denominator(v for row in L.constants.values() for v in row.values())
    rows = [(x, y, tuple((c, *int_parts(v, den)) for c, v in row.items()))
            for (x, y), row in L.constants.items()]
    return den, rows


def _jacobi_terms(a: int, adj: list, producers: list):
    """The terms f * (p + q*sqrt2) * row of the Jacobiator on (a, b, d),
    a < b < d, as (b, d, f, p, q, row, row_irr), row_irr telling whether the
    row has a sqrt2 part.

    [[a,y],z] is walked from the neighbours y of a, and enters the triple
    (a, y, z) or (a, z, y) by the sign of the order of y and z; [[b,d],a] is
    walked from the producers of the neighbours c of a.
    """
    for y, row, _, s in adj[a]:
        if y < a:
            continue
        for c, p, q in row:
            for z, row2, irr2, s2 in adj[c]:
                if z > a and z != y:
                    if y < z:
                        yield y, z, s * s2, p, q, row2, irr2
                    else:
                        yield z, y, -s * s2, p, q, row2, irr2
    for c, row, irr, s in adj[a]:
        for x, y, p, q in producers[c]:
            if x > a:
                yield x, y, -s, p, q, row, irr


def check_axioms(L: LieAlgebra) -> AxiomReport:
    """Sparse Jacobi verification.

    Antisymmetry holds structurally for this storage format, so the report
    marks it true; the Jacobi identity is checked on the index triples
    A < B < D (the Jacobiator is alternating once antisymmetry holds).  The
    Jacobiator is built from the nonzero constants only, one smallest index
    A at a time, and the violation reported is the lexicographically
    smallest triple whose Jacobiator is nonzero.  The arithmetic is on
    integers: scaling every constant by one common denominator D scales the
    Jacobiator by D^2, which keeps exactly the triples where it vanishes.
    """
    dim = L.dim
    adj: list[list] = [[] for _ in range(dim)]        # x -> [(y, [x,y] row, irr, sign)]
    producers: list[list] = [[] for _ in range(dim)]  # c -> [(x, y, D*C_xy^c)], x < y
    for x, y, row in integer_constants(L)[1]:
        irr = any(q for _, _, q in row)
        adj[x].append((y, row, irr, 1))
        adj[y].append((x, row, irr, -1))
        for c, p, q in row:
            producers[c].append((x, y, p, q))
    for a in range(dim):
        # rational and sqrt2 parts of the Jacobiator's e component on
        # (a, b, d), keyed by (b*dim + d)*dim + e, which orders like (b, d, e)
        rat: dict[int, int] = {}
        irr: dict[int, int] = {}
        for b, d, f, p1, q1, row, row_irr in _jacobi_terms(a, adj, producers):
            base = (b * dim + d) * dim
            fp = f * p1
            if q1 or row_irr:
                fq = f * q1
                for e, p2, q2 in row:
                    key = base + e
                    rat[key] = rat.get(key, 0) + fp * p2 + 2 * fq * q2
                    irr[key] = irr.get(key, 0) + fp * q2 + fq * p2
            else:
                for e, p2, _ in row:
                    key = base + e
                    rat[key] = rat.get(key, 0) + fp * p2
        bad = [key for acc in (rat, irr) for key, v in acc.items() if v]
        if bad:
            return AxiomReport(False, True, False, (a,) + divmod(min(bad) // dim, dim))
    return AxiomReport(True, True, True)


# -- exact linear algebra over Q(sqrt2) ---------------------------------------


def mat_identity(n: int) -> list[list[Q2]]:
    return [[Q2(1) if i == j else Q2(0) for j in range(n)] for i in range(n)]


def row_reduce(rows: list[dict[int, Q2]], ncols: int) -> dict[int, int]:
    """Sparse Gauss-Jordan elimination in place; returns {column: pivot row}.

    Each row maps a column to its nonzero entry.  Columns below ncols are
    taken in order, and a column's pivot is the first row at or below the
    next pivot position that holds it, after the row swaps made for earlier
    columns.  Columns from ncols on are right-hand sides: they are carried
    along and never pivot.  On return pivot row p holds 1 at its column and
    the dependency coefficients at the non-pivot columns; the rows from
    len(pivots) on hold right-hand-side entries only, so the system is
    consistent iff they are all empty.  The row dicts are rewritten in
    place, so callers pass rows they own.

    Inside, a row is a dict of Z[sqrt2] int pairs (p, q), for p + q*sqrt2,
    over one positive int denominator, kept in lowest terms; Q2 values
    appear only on the way in and out.  An index from each column to the
    rows holding it replaces the scans over all rows.
    """
    nrows = len(rows)
    ents: list[dict[int, tuple[int, int]]] = []
    dens: list[int] = []
    # each entry as ((p, q), d) with p + q*sqrt2 = d * entry; a Q2 repeated
    # across the rows is read once.  The entries of all rows are alive
    # together when the call starts, so no two of them share an id.
    seen: dict[int, tuple[tuple[int, int], int]] = {}
    for row in rows:
        den = 1
        parts = {}
        for j, v in row.items():
            x = seen.get(id(v))
            if x is None:
                d = math.lcm(v.a.denominator, v.b.denominator)
                x = seen[id(v)] = (int_parts(v, d), d)
            parts[j] = x
            den = math.lcm(den, x[1])
        ents.append({j: pq for j, (pq, _) in parts.items()} if den == 1 else
                    {j: (p * (den // d), q * (den // d)) for j, ((p, q), d) in parts.items()})
        dens.append(den)
        row.clear()
    holders: list[set[int]] = [set() for _ in range(ncols)]
    for r, row in enumerate(ents):
        for j in row:
            if j < ncols:
                holders[j].add(r)
    order = list(range(nrows))  # position -> row
    where = list(range(nrows))  # row -> position
    pivots: dict[int, int] = {}
    for col in range(ncols):
        rowi = len(pivots)
        piv = min((where[r] for r in holders[col] if where[r] >= rowi), default=None)
        if piv is None:
            continue
        p, o = order[piv], order[rowi]
        order[rowi], order[piv] = p, o
        where[p], where[o] = rowi, piv
        # the pivot row over its own entry at col: times that entry's
        # conjugate s - t*sqrt2, over its norm
        prow = ents[p]
        s, t = prow[col]
        if t:
            prow = {j: (x * s - 2 * y * t, y * s - x * t) for j, (x, y) in prow.items()}
            s = s * s - 2 * t * t
        if s < 0:
            prow = {j: (-x, -y) for j, (x, y) in prow.items()}
            s = -s
        prow, den = _lowest_terms(prow, s)
        ents[p], dens[p] = prow, den
        others = [(j, x, y) for j, (x, y) in prow.items() if j != col]
        for r in holders[col]:
            if r == p:
                continue
            row = ents[r]
            s, t = row.pop(col)
            if den != 1:
                row = {j: (x * den, y * den) for j, (x, y) in row.items()}
            for j, x, y in others:
                x, y = (s * x + 2 * t * y, s * y + t * x) if t else (s * x, s * y)
                old = row.get(j)
                if old is None:
                    row[j] = (-x, -y)
                    if j < ncols:
                        holders[j].add(r)
                elif old[0] != x or old[1] != y:
                    row[j] = (old[0] - x, old[1] - y)
                else:
                    del row[j]
                    if j < ncols:
                        holders[j].discard(r)
            ents[r], dens[r] = _lowest_terms(row, dens[r] * den)
        holders[col] = {p}
        pivots[col] = rowi
    owned = list(rows)
    for i, r in enumerate(order):
        den = dens[r]
        row = owned[r]
        row.update({j: Q2(Fraction(x, den), Fraction(y, den)) for j, (x, y) in ents[r].items()})
        rows[i] = row
    return pivots


def _lowest_terms(row: dict[int, tuple[int, int]], den: int) -> tuple[dict[int, tuple[int, int]], int]:
    """The row and its denominator divided by the gcd of all their ints."""
    if den == 1:
        return row, 1
    g = math.gcd(den, *itertools.chain.from_iterable(row.values()))
    if g == 1:
        return row, den
    return {j: (x // g, y // g) for j, (x, y) in row.items()}, den // g


def mat_inverse(m: list[list[Q2]]) -> list[list[Q2]]:
    """Inverse by reducing [m | I]; raises LieAlgebraError when m is singular."""
    n = len(m)
    rows = [{j: Q2.of(x) for j, x in enumerate(row) if x} for row in m]
    for i, row in enumerate(rows):
        row[n + i] = Q2(1)
    if len(row_reduce(rows, n)) < n:
        raise LieAlgebraError("matrix is singular")
    return [[row.get(n + j, Q2(0)) for j in range(n)] for row in rows]


def symmetric_signature(m: list[list[Q2]]) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric matrix, exactly.

    Congruence reduction: symmetric row+column elimination, with the usual
    rank-two trick when no nonzero diagonal pivot is available.
    """
    n = len(m)
    a = [[Q2.of(x) for x in row] for row in m]
    pos = neg = 0
    used = 0
    while used < n:
        piv = next((i for i in range(used, n) if a[i][i]), None)
        if piv is None:
            off = next(((i, j) for i in range(used, n)
                        for j in range(i + 1, n) if a[i][j]), None)
            if off is None:
                break
            i, j = off
            # row/col add makes a nonzero diagonal entry at i
            for t in range(n):
                a[i][t] = a[i][t] + a[j][t]
            for t in range(n):
                a[t][i] = a[t][i] + a[t][j]
            piv = i
        if piv != used:
            a[used], a[piv] = a[piv], a[used]
            for t in range(n):
                a[t][used], a[t][piv] = a[t][piv], a[t][used]
        d = a[used][used]
        if d.sign() > 0:
            pos += 1
        else:
            neg += 1
        for r in range(used + 1, n):
            if a[r][used]:
                f = a[r][used] / d
                for t in range(n):
                    a[r][t] = a[r][t] - f * a[used][t]
                for t in range(n):
                    a[t][r] = a[t][r] - f * a[t][used]
        used += 1
    return pos, neg, n - pos - neg


# -- invariants ---------------------------------------------------------------


class KillingProfile(NamedTuple):
    signature: tuple[int, int, int]
    derived_dim: int
    center_dim: int


def killing_matrix(L: LieAlgebra) -> list[list[Q2]]:
    n = L.dim
    k = [[Q2(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            acc = Q2(0)
            for c in range(n):
                row = L.pair(a, c)
                if not row:
                    continue
                for d, c1 in row.items():
                    c2 = L.pair(b, d).get(c)
                    if c2 is not None:
                        acc = acc + c1 * c2
            k[a][b] = acc
            k[b][a] = acc
    return k


def killing_profile(L: LieAlgebra) -> KillingProfile:
    sig = symmetric_signature(killing_matrix(L))
    # the kernel reduces in place: copy the rows, never L.constants itself
    derived = len(row_reduce([dict(t) for t in L.constants.values()], L.dim))
    # center: x with x^A C_{AB}^C = 0 for all B, C
    rows = []
    for b in range(L.dim):
        cols: dict[int, dict[int, Q2]] = {}
        for a in range(L.dim):
            for c, v in L.pair(a, b).items():
                cols.setdefault(c, {})[a] = v
        rows.extend(cols.values())
    center = L.dim - len(row_reduce(rows, L.dim))
    return KillingProfile((sig[0], sig[1], sig[2]), derived, center)


def _int_matrix(m: list[list[Q2]]) -> tuple[int, list[list[tuple[int, int, int]]]]:
    """(D, cols): D is the lcm of the denominators of m's entries, and
    cols[i] lists the nonzero entries of column i as (row, p, q), ascending
    in row, with p + q*sqrt2 = D * m[row][i]."""
    den = common_denominator(x for row in m for x in row)
    n = len(m)
    cols = [[(a, *int_parts(m[a][i], den)) for a in range(n) if m[a][i]] for i in range(n)]
    return den, cols


def change_basis(L: LieAlgebra, m: list[list[Q2]],
                 name: Optional[str] = None,
                 labels: Optional[Sequence[Label]] = None) -> LieAlgebra:
    """Transform to the basis T'_i = sum_A m[A][i] T_A.

    The constants C'_ij^k = sum m[a][i] m[b][j] C_ab^c minv[k][c] are summed
    on integers, over the common denominators of the constants, of m and of
    its inverse, and divided back once per distinct value, whose Q2 the rows
    share.  A sum that cancels to zero is dropped where it cancels, so the
    rows keep the key order of a running sum."""
    n = L.dim
    if len(m) != n or any(len(row) != n for row in m):
        raise LieAlgebraError("basis matrix shape mismatch")
    m = [[Q2.of(x) for x in row] for row in m]
    den_m, cols = _int_matrix(m)
    den_inv, inv_cols = _int_matrix(mat_inverse(m))
    den_l, rows = integer_constants(L)
    # (a, b) -> ((c, p, q), ...) with p + q*sqrt2 = den_l * C_ab^c, both orders
    pairs: dict[tuple[int, int], tuple] = {}
    for a, b, row in rows:
        pairs[(a, b)] = row
        pairs[(b, a)] = tuple((c, -p, -q) for c, p, q in row)
    scale = den_l * den_m * den_m * den_inv
    values: dict[tuple[int, int], Q2] = {}  # one Q2 per distinct constant
    constants: PairTable = {}
    for i in range(n):
        for j in range(i + 1, n):
            acc: dict[int, tuple[int, int]] = {}
            for a, x1, y1 in cols[i]:
                for b, x2, y2 in cols[j]:
                    row = pairs.get((a, b))
                    if not row:
                        continue
                    fx, fy = x1 * x2 + 2 * y1 * y2, x1 * y2 + y1 * x2
                    for c, p, q in row:
                        _accumulate(acc, c, fx * p + 2 * fy * q, fx * q + fy * p)
            if not acc:
                continue
            out: dict[int, tuple[int, int]] = {}
            for c, (p, q) in acc.items():
                for k, x, y in inv_cols[c]:
                    _accumulate(out, k, x * p + 2 * y * q, x * q + y * p)
            if not out:
                continue
            constants[(i, j)] = new_row = {}
            for k, (p, q) in out.items():
                v = values.get((p, q))
                if v is None:
                    v = values[(p, q)] = Q2(Fraction(p, scale), Fraction(q, scale))
                new_row[k] = v
    return LieAlgebra._adopt(name or f"{L.name}'",
                             list(labels) if labels is not None else list(L.labels),
                             constants)


def _accumulate(acc: dict[int, tuple[int, int]], k: int, p: int, q: int) -> None:
    """acc[k] += (p, q), deleting the key where the sum is zero."""
    old = acc.get(k)
    if old is not None:
        p, q = old[0] + p, old[1] + q
    if p or q:
        acc[k] = (p, q)
    elif old is not None:
        del acc[k]


# -- named algebras -----------------------------------------------------------


def perm_sign(values: Sequence[int]) -> int:
    """Sign of the permutation taking sorted(values) to values; 0 on repeats."""
    n = len(values)
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if values[i] == values[j]:
                return 0
            if values[i] > values[j]:
                sign = -sign
    return sign


def eps3(i: int, j: int, k: int) -> int:
    """Levi-Civita symbol on {1,2,3}."""
    return perm_sign((i, j, k)) if {i, j, k} == {1, 2, 3} else 0


def _so3_like(name: str, kk_sign: int) -> LieAlgebra:
    """Rotations J_i plus a second triplet K_i with [K,K] = kk_sign * eps J."""
    labels = [Label("J", (i,)) for i in (1, 2, 3)] + [Label("K", (i,)) for i in (1, 2, 3)]
    constants: PairTable = {}
    for i, j in itertools.combinations((1, 2, 3), 2):
        k = next(t for t in (1, 2, 3) if t not in (i, j))
        e = eps3(i, j, k)
        constants[(i - 1, j - 1)] = {k - 1: Q2(e)}            # [J,J] = eps J
        constants[(i + 2, j + 2)] = {k - 1: Q2(kk_sign * e)}  # [K,K] = +-eps J
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i == j:
                continue
            k = next(t for t in (1, 2, 3) if t not in (i, j))
            # [J_i, K_j] = eps K, with J_i before K_j: i - 1 < 3 <= j + 2
            constants.setdefault((i - 1, j + 2), {})[k + 2] = Q2(eps3(i, j, k))
    return LieAlgebra(name, labels, constants)


def make_so3() -> LieAlgebra:
    labels = [Label("J", (i,)) for i in (1, 2, 3)]
    constants: PairTable = {}
    for i, j in itertools.combinations((1, 2, 3), 2):
        k = next(t for t in (1, 2, 3) if t not in (i, j))
        constants[(i - 1, j - 1)] = {k - 1: Q2(eps3(i, j, k))}
    return LieAlgebra("so3", labels, constants)


def make_so31() -> LieAlgebra:
    return _so3_like("so31", -1)


def make_so4() -> LieAlgebra:
    return _so3_like("so4", +1)


def lorentz_eta(d: int) -> list[int]:
    return [-1] + [1] * (d - 1)


def pair_basis(d: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(d) for b in range(a + 1, d)]


def rotation_coeff(eta: Sequence[int], ab: tuple[int, int], cd: tuple[int, int],
                   ef: tuple[int, int]) -> Q2:
    """Component of [J_ab, J_cd] on J_ef (e < f), from the quadratic
    delta/eta expression, with the full antisymmetric double sum folded
    onto the e < f basis."""
    a, b = ab
    c, d = cd

    def term(x, y, p, q, e, f):
        # eta_{xy} (delta_p^e delta_q^f - delta_q^e delta_p^f), diagonal eta
        if x != y:
            return 0
        return eta[x] * (int(p == e and q == f) - int(q == e and p == f))

    acc = 0
    for (e, f), s in ((ef, 1), ((ef[1], ef[0]), -1)):
        v = (term(a, c, b, d, e, f) + term(b, d, a, c, e, f)
             + term(c, b, d, a, e, f) + term(d, a, c, b, e, f))
        acc += s * v
    return Q2(Fraction(-acc, 2))


def boost_coeff(eta: Sequence[int], ab: tuple[int, int], c: int, e: int) -> Q2:
    """Component of [J_ab, P_c] on P_e."""
    a, b = ab
    val = 0
    if a == c:
        val -= eta[a] * (1 if b == e else 0)
    if b == c:
        val += eta[b] * (1 if a == e else 0)
    return Q2(val)


def make_ads(d: int) -> LieAlgebra:
    """Anti-de-Sitter-type algebra in d spacetime dimensions: rotations J_ab
    (a < b), translations P_a, with [P_a, P_b] = J_ab and the metric
    diag(-1, +1, ..., +1)."""
    eta = lorentz_eta(d)
    pairs = pair_basis(d)
    npairs = len(pairs)
    labels = [Label("J", p) for p in pairs] + [Label("P", (a,)) for a in range(d)]
    pidx = {p: i for i, p in enumerate(pairs)}
    constants: PairTable = {}
    for i, ab in enumerate(pairs):
        for j in range(i + 1, npairs):
            # [J_ab, J_cd] is zero unless the pairs share exactly one index,
            # and then it lies on J of the other two
            cd = pairs[j]
            rest = set(ab) ^ set(cd)
            if len(rest) == 2:
                ef = tuple(sorted(rest))
                v = rotation_coeff(eta, ab, cd, ef)
                if v:
                    constants[(i, j)] = {pidx[ef]: v}
    for i, ab in enumerate(pairs):
        for c in range(d):
            row = {}
            for e in range(d):
                v = boost_coeff(eta, ab, c, e)
                if v:
                    row[npairs + e] = v
            if row:
                constants[(i, npairs + c)] = row
    for a in range(d):
        for b in range(a + 1, d):
            constants[(npairs + a, npairs + b)] = {pidx[(a, b)]: Q2(1)}
    return LieAlgebra(f"ads{d}", labels, constants)


def make_named(name: str) -> LieAlgebra:
    builders = {
        "so3": make_so3,
        "so31": make_so31,
        "so4": make_so4,
        "ads3": lambda: make_ads(3),
        "ads5": lambda: make_ads(5),
    }
    if name not in builders:
        raise LieAlgebraError(f"unknown algebra name: {name!r}")
    return builders[name]()
