"""Finitely generated groups, canonical coordinates, length functions, metric balls.

Elements are plain tuples in a canonical form fixed by the group kind:

* free abelian Z^m        -> (x1, ..., xm)
* Z^m x Z/n               -> (x1, ..., xm, r) with 0 <= r < n
* discrete Heisenberg H3  -> (x, y, z) with law (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y')
* finite cyclic Z/n       -> (k,) with 0 <= k < n

All group arithmetic is exact integer arithmetic; word lengths are exact
breadth-first distances in the Cayley graph.  The BFS grows one whole
sphere at a time on integer coordinate arrays: the law translates the last
sphere by each generator, the translates are keyed by their mixed-radix
position in their bounding box (key order is tuple order), and the keys of
the last two spheres are dropped.  The word-length cache keeps those spheres
as int32 rows, and one sorted key index over it (_KeyIndex) serves every
lookup; a word ball is a prefix of the cache whose tuples are made only on
request.  Exact elimination (rref) runs on integer rows and divides once at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice, product
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

DEFAULT_BALL_CAP = 5_000_000
# Largest |coordinate| in the int64 arrays of ball translation: a Heisenberg
# product z + z' + x y' of two such elements stays below 2**63.
COORD_LIMIT = 2**31 - 1
# Most points a bounding box may hold: its mixed-radix keys (_mixed_radix)
# are int64.  A literal, since np.iinfo at import adds to the peak RSS.
_INT64_MAX = 2**63 - 1
# Entries of the polytope kernel's rows x subsets side-test matrix per block
# of subsets: bounds its memory whatever the number of rows.
_KERNEL_BLOCK = 2**20

FREE_ABELIAN = "free_abelian"
FREE_ABELIAN_TIMES_CYCLIC = "free_abelian_times_cyclic"
HEISENBERG3 = "heisenberg3"
FINITE_CYCLIC = "finite_cyclic"

Element = tuple


class BallCapError(RuntimeError):
    """A ball enumeration would exceed the configured element cap."""


class GroupMismatchError(ValueError):
    """An element is not in canonical form for the group it was used with."""


class CoordinateOverflowError(ValueError):
    """Coordinates or ball keys would not fit the int64 arrays of ball translation."""


# Standard Heisenberg generators and the central commutator a^-1 b^-1 a b.
H3_A = (1, 0, 0)
H3_B = (0, 1, 0)
H3_C = (0, 0, 1)


# ---------------------------------------------------------------------------
# Group laws: one object per kind holds all of that kind's arithmetic.  A new
# kind supplies identity, fits and shape_error (the element check), product,
# inverse, abelianization, abelianization_rank, translate and, where the
# default is wrong, membership (the integer span of the generators and the
# torsion relations).  Each function closes over rank and torsion, and
# product is the raw product that GroupSpec.multiply calls after checking
# its operands.  translate(g, h) is the same product vectorised over the rows
# of an int64 array h: the left translates g h of a ball's coordinates
# (BallTable.translate) or of a BFS sphere.

# isinstance(c, int) without a generator frame per element: element checks
# run on every validated product and length lookup.
_is_int = int.__instancecheck__


class _Law:
    """The arithmetic of one group kind (see the table comment above)."""

    abelian = True
    finite = False
    relations: tuple = ()

    def check(self, g: Element) -> None:
        if not isinstance(g, tuple) or not all(map(_is_int, g)):
            raise GroupMismatchError(f"element {g!r} is not an integer tuple")
        if not self.fits(g):
            raise GroupMismatchError(self.shape_error.format(g=g))

    def membership(self, generators: Sequence[Element]):
        """Exact test of g in the subgroup the generators generate: here the
        integer span of the generators and the torsion relations."""
        lattice = _integer_echelon([*generators, *self.relations])
        return lambda g: _in_lattice(lattice, g)


_LATTICE_SUMS = {
    1: lambda a, b: (a[0] + b[0],),
    2: lambda a, b: (a[0] + b[0], a[1] + b[1]),
    3: lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
}


class _FreeAbelian(_Law):
    """Z^m, coordinatewise addition."""

    def __init__(self, rank: int, torsion: int):
        self.abelianization_rank = rank
        self.identity = (0,) * rank
        self.fits = lambda g: len(g) == rank
        self.shape_error = f"expected {rank} coordinates, got {{g!r}}"
        self.product = _LATTICE_SUMS.get(rank, lambda a, b: tuple(x + y for x, y in zip(a, b)))
        self.inverse = lambda g: tuple(-x for x in g)
        self.abelianization = lambda g: g
        self.translate = lambda g, h: h + g


class _FreeAbelianTimesCyclic(_Law):
    """Z^m x Z/n, the residue last."""

    def __init__(self, rank: int, torsion: int):
        n = torsion
        self.abelianization_rank = rank
        self.identity = (0,) * (rank + 1)
        self.relations = ((0,) * rank + (n,),)
        self.fits = lambda g: len(g) == rank + 1 and 0 <= g[-1] < n
        self.shape_error = "bad Z^m x Z/n element {g!r}"
        self.product = lambda a, b: (
            tuple(x + y for x, y in zip(a[:-1], b[:-1])) + ((a[-1] + b[-1]) % n,))
        self.inverse = lambda g: tuple(-x for x in g[:-1]) + ((-g[-1]) % n,)
        self.abelianization = lambda g: g[:-1]

        def translate(g, h):
            out = h + g
            out[:, -1] %= n
            return out

        self.translate = translate


class _Heisenberg(_Law):
    """(x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y')."""

    abelian = False

    def __init__(self, rank: int, torsion: int):
        self.abelianization_rank = 2
        self.identity = (0, 0, 0)
        self.fits = lambda g: len(g) == 3
        self.shape_error = "bad Heisenberg element {g!r}"
        self.product = lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])
        self.inverse = lambda g: (-g[0], -g[1], g[0] * g[1] - g[2])
        self.abelianization = lambda g: (g[0], g[1])

        def translate(g, h):
            out = h + g
            out[:, 2] += g[0] * h[:, 1]
            return out

        self.translate = translate

    def membership(self, generators: Sequence[Element]):
        """Exact membership through a Mal'cev basis of the subgroup.

        Euclid with group products down the x and then the y coordinate
        gives a = (x1, y1, z1) with x1 > 0, b = (0, y2, z2) with y2 > 0 (each
        None where the column is 0) and relation words (0, 0, z).  The centre
        part of the subgroup is (0, 0, cZ) with c the gcd of the commutator
        [a, b] = (0, 0, x1 y2) and the relations' z, and g is in the subgroup
        exactly when sifting it through a and b leaves (0, 0, kc).
        """
        product = self.product

        def power(g, n):
            return (n * g[0], n * g[1], n * g[2] + g[0] * g[1] * (n * (n - 1) // 2))

        def euclid(elements, col):
            """(the element with the column's gcd, made positive, or None;
            the elements with 0 in the column) after Nielsen moves
            r -> r p^-q, which keep the subgroup."""
            live = [g for g in elements if g[col]]
            rest = [g for g in elements if not g[col]]
            while len(live) > 1:
                i = min(range(len(live)), key=lambda k: abs(live[k][col]))
                p = live.pop(i)
                moved = [product(r, power(p, -(r[col] // p[col]))) for r in live]
                live = [p] + [r for r in moved if r[col]]
                rest += [r for r in moved if not r[col]]
            if not live:
                return None, rest
            return (live[0] if live[0][col] > 0 else power(live[0], -1)), rest

        a, rest = euclid(generators, 0)
        b, centre = euclid(rest, 1)
        c = math.gcd(a[0] * b[1] if a and b else 0, *(z for _, _, z in centre))

        def generated(g):
            for v, col in ((a, 0), (b, 1)):
                if v is None:
                    if g[col]:
                        return False
                    continue
                q, rem = divmod(g[col], v[col])
                if rem:
                    return False
                g = product(power(v, -q), g)
            return g[2] % c == 0 if c else g[2] == 0

        return generated


class _FiniteCyclic(_Law):
    """Z/n."""

    finite = True

    def __init__(self, rank: int, torsion: int):
        n = torsion
        self.abelianization_rank = 0
        self.identity = (0,)
        self.relations = ((n,),)
        self.fits = lambda g: len(g) == 1 and 0 <= g[0] < n
        self.shape_error = f"bad Z/{n} element {{g!r}}"
        self.product = lambda a, b: ((a[0] + b[0]) % n,)
        self.inverse = lambda g: ((-g[0]) % n,)
        self.abelianization = lambda g: ()
        self.translate = lambda g, h: (h + g) % n


_LAWS = {
    FREE_ABELIAN: _FreeAbelian,
    FREE_ABELIAN_TIMES_CYCLIC: _FreeAbelianTimesCyclic,
    HEISENBERG3: _Heisenberg,
    FINITE_CYCLIC: _FiniteCyclic,
}


@dataclass(frozen=True)
class GroupSpec:
    """A concrete finitely generated group with a fixed symmetric generating set."""

    kind: str
    rank: int = 0
    torsion: int = 0
    generators: tuple[Element, ...] = ()
    law: _Law = field(init=False, repr=False, compare=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def free_abelian(cls, rank: int) -> "GroupSpec":
        if rank < 1:
            raise ValueError("free abelian rank must be >= 1")
        return cls(FREE_ABELIAN, rank=rank, generators=_standard_lattice_generators(rank))

    @classmethod
    def free_abelian_times_cyclic(cls, rank: int, torsion: int) -> "GroupSpec":
        if rank < 1 or torsion < 2:
            raise ValueError("need rank >= 1 and torsion order >= 2")
        gens = [g + (0,) for g in _standard_lattice_generators(rank)]
        gens += [(0,) * rank + (1,), (0,) * rank + (torsion - 1,)]  # one when torsion is 2
        return cls(FREE_ABELIAN_TIMES_CYCLIC, rank=rank, torsion=torsion,
                   generators=tuple(dict.fromkeys(gens)))

    @classmethod
    def heisenberg3(cls) -> "GroupSpec":
        return cls(HEISENBERG3, rank=2, generators=(H3_A, (-1, 0, 0), H3_B, (0, -1, 0)))

    @classmethod
    def finite_cyclic(cls, order: int) -> "GroupSpec":
        if order < 2:
            raise ValueError("cyclic order must be >= 2")
        gens = dict.fromkeys([(1,), (order - 1,)])  # one when order is 2
        return cls(FINITE_CYCLIC, torsion=order, generators=tuple(gens))

    def __post_init__(self):
        object.__setattr__(self, "law", _LAWS[self.kind](self.rank, self.torsion))
        for g in self.generators:
            self.validate(g)
            if g == self.identity():
                raise ValueError("identity must not be a generator")
        gen_set = set(self.generators)
        for g in self.generators:
            if self.inverse(g) not in gen_set:
                raise ValueError(f"generating set is not symmetric: missing inverse of {g}")

    def __reduce__(self):
        # The law holds closures, so pickles carry the fields and rebuild it.
        return type(self), (self.kind, self.rank, self.torsion, self.generators)

    # -- basic structure ---------------------------------------------------

    @property
    def abelianization_rank(self) -> int:
        return self.law.abelianization_rank

    @property
    def is_abelian(self) -> bool:
        return self.law.abelian

    @property
    def is_finite(self) -> bool:
        return self.law.finite

    @property
    def is_free_abelian(self) -> bool:
        return isinstance(self.law, _FreeAbelian)

    @property
    def is_heisenberg(self) -> bool:
        return isinstance(self.law, _Heisenberg)

    def is_torsion(self, g: Element) -> bool:
        """g has finite order.  In the abelian kinds that is exactly p(g) = 0;
        H3 is torsion-free although its centre projects to 0."""
        return self.is_finite or (self.is_abelian and not any(self.abelianization(g)))

    def identity(self) -> Element:
        return self.law.identity

    def validate(self, g: Element) -> None:
        self.law.check(g)

    # -- arithmetic --------------------------------------------------------

    def multiply(self, a: Element, b: Element) -> Element:
        law = self.law
        law.check(a)
        law.check(b)
        return law.product(a, b)

    def inverse(self, a: Element) -> Element:
        self.law.check(a)
        return self.law.inverse(a)

    def power(self, g: Element, n: int) -> Element:
        if n < 0:
            return self.power(self.inverse(g), -n)
        result = self.identity()
        base = g
        while n:
            if n & 1:
                result = self.multiply(result, base)
            base = self.multiply(base, base)
            n >>= 1
        return result

    def abelianization(self, g: Element) -> tuple[int, ...]:
        """Projection to the torsion-free part of the abelianization, Z^m."""
        self.law.check(g)
        return self.law.abelianization(g)


def _standard_lattice_generators(rank: int) -> tuple[Element, ...]:
    gens = []
    for i in range(rank):
        e = [0] * rank
        e[i] = 1
        gens.append(tuple(e))
        e[i] = -1
        gens.append(tuple(e))
    return tuple(gens)


def hexagonal_generators() -> tuple[Element, ...]:
    """Z^2 generating set {±e1, ±e2, ±(e1+e2)}."""
    return ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))


# ---------------------------------------------------------------------------
# Norm specifications for length functions that restrict a norm on R^m.


@dataclass(frozen=True)
class NormSpec:
    """A norm on R^m: l1, l2, linf, or a polytope norm max_F sigma_F(x)."""

    kind: str  # "l1" | "l2" | "linf" | "polytope"
    functionals: tuple[tuple[Fraction, ...], ...] = ()

    @classmethod
    def l1(cls) -> "NormSpec":
        return cls("l1")

    @classmethod
    def l2(cls) -> "NormSpec":
        return cls("l2")

    @classmethod
    def linf(cls) -> "NormSpec":
        return cls("linf")

    @classmethod
    def polytope(cls, functionals: Iterable[Sequence]) -> "NormSpec":
        rows = tuple(tuple(Fraction(c) for c in row) for row in functionals)
        if not rows:
            raise ValueError("polytope norm needs at least one functional")
        return cls("polytope", functionals=rows)

    def evaluate(self, x: Sequence[int]):
        if self.kind == "l1":
            return sum(abs(c) for c in x)
        if self.kind == "l2":
            return math.sqrt(sum(c * c for c in x))
        if self.kind == "linf":
            return max(abs(c) for c in x) if x else 0
        return max(sum(f * c for f, c in zip(row, x)) for row in self.functionals)

    def box_halfwidth(self, dim: int) -> list[Fraction]:
        """Per-coordinate halfwidth of the unit ball's bounding box."""
        if self.kind in ("l1", "l2", "linf"):
            return [Fraction(1)] * dim
        verts = _polytope_vertices(self.functionals, dim)
        return [max(abs(v[i]) for v in verts) for i in range(dim)]


def rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q: (reduced rows, pivot columns).

    The package's one exact-elimination kernel.  The rank is len(pivots);
    the pivot columns of the transpose index the greedy (first independent)
    row basis; a null vector and the solution of a square system are read off
    the reduced rows.  Fraction-free: each row is scaled to integers,
    Gauss-Jordan runs on integer row updates reduced by their gcd, and each
    pivot row is divided by its pivot once at the end (the reduced form is
    unique, so the Fractions are those of rational elimination).
    """
    mat = [_primitive(_integer_row(r)[0]) for r in rows]
    pivots: list[int] = []
    for col in range(len(mat[0]) if mat else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        p = mat[top]
        pv = p[col]
        for r, row in enumerate(mat):
            f = row[col]
            if f and r != top:
                mat[r] = _primitive([pv * a - f * b for a, b in zip(row, p)])
        pivots.append(col)
    reduced = [[Fraction(a, row[col]) for a in row] for row, col in zip(mat, pivots)]
    return reduced + [[Fraction(0)] * len(row) for row in mat[len(pivots):]], pivots


def _integer_row(values: Sequence) -> tuple[list[int], int]:
    """(integer numerators, common positive denominator) of a rational vector."""
    if all(map(_is_int, values)):
        return list(values), 1
    fracs = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (a zero row unchanged)."""
    g = math.gcd(*row)
    return row if g <= 1 else [a // g for a in row]


def _integer_echelon(rows: Sequence[Sequence[int]]) -> list[tuple[int, tuple[int, ...]]]:
    """Echelon basis of the integer lattice the rows span: (pivot column, row)
    pairs in increasing column order, each row zero before its positive pivot."""
    rows = [list(r) for r in rows]
    basis = []
    for col in range(len(rows[0]) if rows else 0):
        live = [r for r in rows if r[col]]
        while len(live) > 1:
            # Euclid down the column: reduce every row by the smallest entry
            p = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not p:
                    q = r[col] // p[col]
                    r[:] = [a - q * b for a, b in zip(r, p)]
            live = [r for r in live if r[col]]
        if live:
            p = live[0]
            rows = [r for r in rows if r is not p]
            basis.append((col, tuple(p) if p[col] > 0 else tuple(-c for c in p)))
    return basis


def _in_lattice(basis: Sequence[tuple[int, tuple[int, ...]]], v: Sequence[int]) -> bool:
    """v is an integer combination of the rows of an _integer_echelon basis."""
    v = list(v)
    for col, row in basis:
        q, rem = divmod(v[col], row[col])
        if rem:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def _polytope_vertices(functionals: Sequence[Sequence[Fraction]], dim: int):
    """Vertices of {x : sigma(x) <= 1 for all sigma}, exact, from the vertex
    kernel on the functionals' integer rows (numerators, denominator); a
    ValueError if that set is unbounded."""
    if len(rref(functionals)[1]) < dim:
        raise ValueError("polytope norm functionals do not span; unit ball is unbounded")
    rows = [nums + [den] for nums, den in map(_integer_row, functionals)]
    verts, _, ray = _polyhedron_vertices(rows, combinations(range(len(rows)), dim))
    if ray is not None:
        raise ValueError(f"polytope norm unit ball contains the ray t*{ray}; it is unbounded")
    return verts


def _polyhedron_vertices(rows: Sequence[Sequence[int]], subsets: Iterable[Sequence[int]]):
    """The exact polytope kernel: vertices of P = {x : a_i . x <= b_i}, for
    integer rows (a_i, b_i), b_i > 0, over candidate m-subsets of row indices.
    Per block of subsets, each subset's null vector w comes from its signed
    m x m minors, x = -w[:m] / w[m], one integer product tests every row's
    side, and vertices are deduplicated by the gcd-normalised w.  Returns
    (vertices as Fraction tuples, first met first; the rows tight at each;
    ray): ray is None, or u = w[:m] with every a_i . u <= 0 (P unbounded, no
    vertices) from a one-sided subset with 0 on its hyperplane or beyond.
    int64 while (m+1)! max|entry|^(m+1), bounding every minor's partial sums
    and row product, is below 2**63, else the same code on Python ints.
    """
    m = len(rows[0]) - 1
    top = max(abs(c) for row in rows for c in row)
    dtype = np.int64 if math.factorial(m + 1) * top ** (m + 1) < 2**63 else object
    mat = np.array(rows, dtype=dtype)
    found: dict = {}
    subsets = iter(subsets)
    while chunk := list(islice(subsets, max(1, _KERNEL_BLOCK // len(rows)))):
        w = _null_vectors(mat[np.array(chunk)])
        w = w[w.any(axis=1)]
        side = mat @ w.T
        # the one-sided subsets, each oriented so that every row reads <= 0
        keep = np.concatenate([(side <= 0).all(axis=0), (side >= 0).all(axis=0)])
        w, side = np.concatenate([w, -w])[keep], np.concatenate([side, -side], axis=1)[:, keep]
        w //= np.gcd.reduce(w, axis=1)[:, None]
        if (w[:, m] >= 0).any():
            return [], [], tuple(w[w[:, m] >= 0][0, :m].tolist())
        for face, on in zip(map(tuple, w.tolist()), (side == 0).T):
            found.setdefault(face, tuple(np.flatnonzero(on).tolist()))
    return [tuple(Fraction(c, -w[m]) for c in w[:m]) for w in found], list(found.values()), None


def _null_vectors(sub: np.ndarray) -> np.ndarray:
    """w with w[j] = (-1)^j det(sub without column j), so sub @ w = 0, for a
    stack of m x (m+1) integer matrices: Laplace expansion from the last row
    up, each row's minors kept by column set for the row above."""
    m, n = sub.shape[1:]
    minors = {(c,): sub[:, m - 1, c] for c in range(n)}
    for r in range(m - 2, -1, -1):
        minors = {cols: sum((-1) ** i * sub[:, r, c] * minors[cols[:i] + cols[i + 1:]]
                            for i, c in enumerate(cols))
                  for cols in combinations(range(n), m - r)}
    return np.stack([(-1) ** j * minors[tuple(c for c in range(n) if c != j)]
                     for j in range(n)], axis=1)


# ---------------------------------------------------------------------------
# Length functions and metric balls.


@dataclass(frozen=True, eq=False)
class BallTable:
    """All elements with length <= radius, in (length, lexicographic) order,
    held as `lengths` (int64 for word lengths, the length's objects otherwise)
    and integer coordinate `rows`: a prefix of the word length's int32 BFS
    cache, or int64 rows (object rows beyond int64) for norm and table
    balls.  `coords`, `elements`, `values` and `index` are made on first use."""

    group: GroupSpec
    radius: float
    lengths: np.ndarray
    complete_group: bool
    spec: "LengthFunction"
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: Element) -> bool:
        return g in self.index

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        return tuple(_tuples(self.rows))

    @cached_property
    def values(self) -> dict[Element, object]:
        return dict(zip(self.elements, self.lengths.tolist()))

    @cached_property
    def index(self) -> dict[Element, int]:
        return dict(zip(self.elements, range(len(self))))

    @cached_property
    def coords(self) -> np.ndarray:
        """int64 coordinates of the elements, one row each, in ball order;
        column-major, so the law's per-column numpy work is contiguous."""
        return np.asfortranarray(_int64_coordinates(self.rows, self.group))

    @cached_property
    def _keys(self) -> "_KeyIndex":
        return _KeyIndex(self.coords)

    def left_translates(self, g: Element) -> np.ndarray:
        """int64 coordinates of g h for every ball element h, in ball order."""
        self.group.validate(g)
        return self.group.law.translate(_int64_coordinates([g], self.group)[0], self.coords)

    def find(self, coords: np.ndarray) -> np.ndarray:
        """Ball index of each row of an int64 coordinate array, -1 for a row
        outside the ball.  A word ball's index is the cache position."""
        index = self.spec._cache_index() if self.spec.kind == LengthFunction.WORD else self._keys
        out = index.find(coords)
        out[out >= len(self)] = -1
        return out

    def translate(self, g: Element) -> np.ndarray:
        """Ball index of g h for every ball element h, in ball order; -1 where
        g h lies outside the ball."""
        return self.find(self.left_translates(g))


class _KeyIndex:
    """The sorted mixed-radix keys (_box_keys) of an array's rows over their
    bounding box, with the row each came from: finds rows by key."""

    def __init__(self, coords: np.ndarray):
        self.lo, self.hi = coords.min(axis=0).astype(np.int64), coords.max(axis=0).astype(np.int64)
        self.strides = _mixed_radix(self.lo, self.hi)[0]
        keys = _box_keys(coords, self.lo, self.strides)
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Position of each int64 row among the indexed rows, or -1.  Keys of
        rows outside the box wrap silently and are masked."""
        inside = np.all((rows >= self.lo) & (rows <= self.hi), axis=1)
        codes = _box_keys(rows, self.lo, self.strides)
        pos = np.minimum(np.searchsorted(self.keys, codes), len(self.keys) - 1)
        return np.where(inside & (self.keys[pos] == codes), self.order[pos], -1)


def _mixed_radix(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(strides, spans) of the mixed-radix keys of the box [lo, hi]
    (_box_keys): exact in int64 and in tuple order, or
    CoordinateOverflowError."""
    spans = (hi - lo + 1).tolist()
    strides, size = [], 1
    for span in reversed(spans):
        strides.append(size)
        size *= span
    if size > _INT64_MAX:
        raise CoordinateOverflowError(f"bounding box of {size} points does not fit int64 keys")
    return np.array(strides[::-1], dtype=np.int64), np.array(spans, dtype=np.int64)


def _box_keys(coords: np.ndarray, lo: np.ndarray, strides: np.ndarray) -> np.ndarray:
    """The mixed-radix keys (coords - lo) @ strides, one column at a time."""
    keys = (coords[:, 0] - lo[0]) * strides[0]
    for j in range(1, coords.shape[1]):
        keys += (coords[:, j] - lo[j]) * strides[j]
    return keys


def _next_sphere(translate, generators: np.ndarray, previous: np.ndarray,
                 sphere: np.ndarray) -> np.ndarray:
    """The BFS sphere after `sphere` (the one before it is `previous`), in
    tuple order; spheres are int32 (COORD_LIMIT fits) and column-major.  The
    translates s h of the last sphere lie in it, in the one before or in the
    next: mixed-radix keys over their bounding box (tuple order) find the new
    ones.  Each generator's translates are formed once in int64, which gives
    the box and the limit test, and kept narrowed in one int32 stack."""
    n, wide = len(sphere), sphere.astype(np.int64)
    moved = np.empty((len(generators) * n, wide.shape[1]), dtype=np.int32, order="F")
    lo, hi = previous.min(axis=0), previous.max(axis=0)
    for i, s in enumerate(generators):
        moved[i * n:(i + 1) * n] = part = translate(s, wide)
        lo, hi = np.minimum(lo, part.min(axis=0)), np.maximum(hi, part.max(axis=0))
    del wide, part  # the keys need only the int32 stack
    lo, hi = np.minimum(lo, sphere.min(axis=0)), np.maximum(hi, sphere.max(axis=0))
    if lo.min() < -COORD_LIMIT or hi.max() > COORD_LIMIT:
        raise CoordinateOverflowError(f"a coordinate exceeds the translation limit {COORD_LIMIT}")
    strides, spans = _mixed_radix(lo, hi)
    keys = _box_keys(moved, lo, strides)
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    for old in (previous, sphere):
        known = _box_keys(old, lo, strides)  # sorted: old is in tuple order
        pos = np.minimum(np.searchsorted(known, keys), len(known) - 1)
        keys = keys[known[pos] != keys]
    new = np.empty((len(keys), len(lo)), dtype=np.int32, order="F")
    for j, (low, stride, span) in enumerate(zip(lo, strides, spans)):
        new[:, j] = keys // stride % span + low
    return new


def _tuples(coords: np.ndarray) -> Iterator[Element]:
    """The rows of a coordinate array as tuples of Python ints, made one by
    one from the columns."""
    return zip(*[coords[:, j].tolist() for j in range(coords.shape[1])])


def _int64_coordinates(elements: Sequence[Element], group: GroupSpec) -> np.ndarray:
    """Rows of int64 coordinates; CoordinateOverflowError beyond COORD_LIMIT."""
    if group.torsion > COORD_LIMIT:
        raise CoordinateOverflowError(f"torsion order {group.torsion} exceeds {COORD_LIMIT}")
    try:
        coords = np.array(elements, dtype=np.int64)
    except OverflowError:
        coords = None
    if coords is None or np.any((coords > COORD_LIMIT) | (coords < -COORD_LIMIT)):
        raise CoordinateOverflowError(f"a coordinate exceeds the translation limit {COORD_LIMIT}")
    return coords


@dataclass(frozen=True)
class AxiomReport:
    identity_violation: float
    symmetry_violation: float
    subadditivity_violation: float
    pairs_checked: int
    pairs_skipped: int

    @property
    def max_violation(self) -> float:
        return max(self.identity_violation, self.symmetry_violation, self.subadditivity_violation)


class LengthFunction:
    """A (pseudo-)length on a group: word length, norm restriction, or table.

    Word lengths grow a breadth-first search one whole sphere at a time and
    cache every sphere as int32 rows in tuple order; a row's exact length is
    the number of sphere ends (`_ends`) at or before its position.  One key
    index over the cache, rebuilt when a lookup follows growth, finds rows
    for `length`, `lengths`, `ball` and `BallTable.translate`.
    """

    WORD = "word"
    NORM = "norm"
    TABLE = "table"

    def __init__(self, group, kind, *, generators=None, norm=None, table=None,
                 cap=DEFAULT_BALL_CAP):
        self.group = group
        self.kind = kind
        self.cap = int(cap)
        self._ball_cache: dict[float, BallTable] = {}
        if kind == self.WORD:
            self.generators = tuple(generators) if generators is not None else group.generators
            if not self.generators:
                raise ValueError("word length needs a generating set")
            gen_set = set(self.generators)
            for s in self.generators:
                if group.inverse(s) not in gen_set:
                    raise ValueError("word-length generating set must be symmetric")
            # the cache: whole spheres, concatenated lazily; _ends[k] = number
            # of elements of length <= k; _spheres, the last two (the identity
            # stands in for the empty one before it: it is known either way)
            sphere = np.array([group.identity()], dtype=np.int32, order="F")
            self._parts, self._ends, self._spheres = [sphere], [1], (sphere, sphere)
            self._index: Optional[_KeyIndex] = None  # None after growth
            self._exhausted = False
            self._refused = 0  # size of the next sphere once the cap refused it
            # Elements the generators do not reach are refused at once rather
            # than after the BFS has grown to the cap; the test is exact.
            self._generated = group.law.membership(self.generators)
        elif kind == self.NORM:
            if not group.is_free_abelian:
                raise ValueError("norm restrictions are supported on free abelian groups only")
            if norm is None:
                raise ValueError("norm restriction needs a NormSpec")
            self.norm = norm
        elif kind == self.TABLE:
            if table is None:
                raise ValueError("explicit length needs a table")
            self.table = dict(table)
            e = group.identity()
            if e not in self.table:
                self.table[e] = 0
        else:
            raise ValueError(f"unknown length kind {kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def word(cls, group: GroupSpec, generators=None, cap=DEFAULT_BALL_CAP) -> "LengthFunction":
        return cls(group, cls.WORD, generators=generators, cap=cap)

    @classmethod
    def norm_restriction(cls, group: GroupSpec, norm: NormSpec, cap=DEFAULT_BALL_CAP) -> "LengthFunction":
        return cls(group, cls.NORM, norm=norm, cap=cap)

    @classmethod
    def explicit_table(cls, group: GroupSpec, table: Mapping[Element, object]) -> "LengthFunction":
        return cls(group, cls.TABLE, table=table)

    # -- evaluation --------------------------------------------------------

    def length(self, g: Element):
        self.group.validate(g)
        if self.kind == self.WORD:
            return int(self._gather([g])[0][0])
        if self.kind == self.NORM:
            return self.norm.evaluate(g)
        try:
            return self.table[g]
        except KeyError:
            raise ValueError(f"element {g!r} is outside the tabulated domain") from None

    def lengths(self, points) -> np.ndarray:
        """Exact lengths of the elements given as the rows of an int64
        coordinate array (BallTable.coords, BallTable.left_translates) or as
        canonical tuples (all validated first), in order: int64 for word
        lengths, found through the cache's key index; a row it misses is
        refused (GroupMismatchError) unless canonical and generated, or the
        BFS grows just as far as the row needs (BallCapError at the cap).
        Objects, row by row as `length`, otherwise."""
        return self._gather(points)[0]

    def _gather(self, points, skip_errors: bool = False) -> tuple[np.ndarray, list[int]]:
        """(lengths, failed rows); with skip_errors a row whose length raises
        ValueError or BallCapError is listed in failed with length 0.  Each new
        sphere is matched against every word row still missing."""
        failed = []
        if self.kind != self.WORD:
            rows = list(_tuples(points)) if isinstance(points, np.ndarray) else points
            table, found = self.table if self.kind == self.TABLE else {}, []
            for i, g in enumerate(rows):
                try:
                    found.append(table[g] if g in table else self.length(g))
                except ValueError:
                    if not skip_errors:
                        raise
                    found.append(0)
                    failed.append(i)
            return np.array(found, dtype=object), failed
        if not isinstance(points, np.ndarray):
            for g in points:
                self.group.validate(g)
            points = _int64_coordinates(points, self.group).reshape(len(points), len(self.group.identity()))
        pos = self._cache_index().find(points)
        todo = np.flatnonzero(pos < 0)
        for i in todo:
            if pos[i] >= 0:
                continue
            g = tuple(points[i].tolist())
            try:
                self.group.validate(g)
                reached = self._generated(g)
                while pos[i] < 0:
                    start, new = self._ends[-1], self._grow() if reached else None
                    if new is None:
                        raise GroupMismatchError(f"element {g!r} is not generated by the generating set")
                    missing = todo[pos[todo] < 0]
                    hit = _KeyIndex(new).find(points[missing])
                    pos[missing[hit >= 0]] = start + hit[hit >= 0]
            except (ValueError, BallCapError):
                if not skip_errors:
                    raise
                failed.append(i)
        return np.searchsorted(self._ends, pos, side="right"), failed

    def _grow(self) -> Optional[np.ndarray]:
        """Add the next sphere to the cache, whole, and return it, or mark the
        cache exhausted and return None when it is empty.  BallCapError, with
        the cache intact, past the cap; the refused sphere's size is kept, so
        a later call refuses it without forming it again.
        CoordinateOverflowError past int64."""
        if not self._refused or self._ends[-1] + self._refused <= self.cap:
            new = _next_sphere(self.group.law.translate, self._generator_coords, *self._spheres)
            self._exhausted = not len(new)
            if self._exhausted:
                return None
            self._refused = len(new) if self._ends[-1] + len(new) > self.cap else 0
        if self._refused:
            raise BallCapError(f"ball cap {self.cap} exceeded while expanding radius {len(self._ends)}")
        self._spheres = (self._spheres[1], new)
        self._parts.append(new)
        self._ends.append(self._ends[-1] + len(new))
        self._index = None
        return new

    def _cache_rows(self) -> np.ndarray:
        if len(self._parts) > 1:
            out = np.empty((self._ends[-1], self._parts[0].shape[1]), dtype=np.int32, order="F")
            self._parts = [np.concatenate(self._parts, out=out)]
        return self._parts[0]

    def _cache_index(self) -> _KeyIndex:
        self._index = self._index or _KeyIndex(self._cache_rows())
        return self._index

    @cached_property
    def _generator_coords(self) -> np.ndarray:
        return _int64_coordinates(self.generators, self.group)

    def _ensure_radius(self, radius: float):
        """Grow the cache to every sphere of length <= radius (all of them at
        an infinite radius), or until it is exhausted."""
        target = radius if math.isinf(radius) else math.floor(radius)
        while not self._exhausted and len(self._ends) - 1 < target:
            self._grow()

    # -- balls ---------------------------------------------------------------

    def ball(self, radius: float) -> BallTable:
        if not radius >= 0:  # NaN too
            raise ValueError(f"radius must be non-negative, got {radius}")
        if radius in self._ball_cache:
            return self._ball_cache[radius]
        if self.kind == self.WORD:
            if math.isinf(radius) and not self.group.is_finite:
                raise ValueError("infinite radius needs a finite group")
            self._ensure_radius(radius)
            ends = self._ends[:int(min(len(self._ends) - 1, radius)) + 1]
            rows = self._cache_rows()[:ends[-1]]
            lengths = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
            complete = self._exhausted and ends[-1] == self._ends[-1]
        else:
            if self.kind == self.NORM:
                items = self._norm_ball_items(radius)
                complete = False
            else:
                items = [(g, v) for g, v in self.table.items() if v <= radius]
                complete = self.group.is_finite and len(items) == self.group.torsion
            values = dict(items)
            e = self.group.identity()
            if e not in values:  # only a table can set l(e) above the radius
                values[e] = self.length(e)
            elements = (e, *sorted((g for g in values if g != e), key=lambda g: (values[g], g)))
            lengths = np.array([values[g] for g in elements], dtype=object)
            if self.kind == self.TABLE:  # the rows hold canonical elements only
                for g in elements:
                    self.group.validate(g)
            try:
                rows = np.array(elements, dtype=np.int64)
            except OverflowError:  # kept exact here; coords refuses it
                rows = np.array(elements, dtype=object)
        table = BallTable(self.group, radius, lengths, complete, self, rows)
        if len(table) > self.cap:
            raise BallCapError(f"ball at radius {radius} has {len(table)} > cap {self.cap} elements")
        self._ball_cache[radius] = table
        return table

    def ball_holding(self, coords: np.ndarray) -> BallTable:
        """The smallest ball holding every row of an int64 coordinate array
        of distinct elements; GroupMismatchError or BallCapError as `lengths`.
        A word ball holding them has at least as many elements as there are
        rows, so the BFS first grows that far without matching any row."""
        while self.kind == self.WORD and not self._exhausted and self._ends[-1] < len(coords):
            self._grow()
        return self.ball(max(self.lengths(coords).tolist()))

    def _norm_ball_items(self, radius):
        m = self.group.rank
        halfwidth = self.norm.box_halfwidth(m)
        bounds = [int(math.floor(hw * Fraction(radius))) for hw in halfwidth]
        count = 1
        for b in bounds:
            count *= 2 * b + 1
        if count > 4 * self.cap:
            raise BallCapError(f"norm ball bounding box of {count} points exceeds cap {self.cap}")
        items = []
        for point in product(*[range(-b, b + 1) for b in bounds]):
            v = self.norm.evaluate(point)
            if v <= radius:
                items.append((point, v))
        return items

    # -- axioms --------------------------------------------------------------

    def check_axioms(self, radius: float) -> AxiomReport:
        """Verify l(e)=0, symmetry, and subadditivity over pairs in the r/2 ball."""
        half = self.ball(radius / 2)
        identity_violation = abs(float(self.length(self.group.identity())))
        # |l(g) - l(g^-1)|, skipping g when the group or the length refuses it
        inverses = {}
        for i, g in enumerate(half):
            try:
                inverses[i] = self.group.inverse(g)
            except ValueError:
                pass
        l_inv, failed = self._gather(list(inverses.values()), skip_errors=True)
        lengths = half.lengths.astype(float)
        gap = np.abs(lengths[list(inverses)] - l_inv.astype(float))
        gap[failed] = 0.0
        symmetry = float(gap.max(initial=0.0))
        skipped = len(half) - len(inverses) + len(failed)
        # l(gh) - l(g) - l(h) for one g against the whole half ball at a time
        coords, subadd, checked = half.coords, 0.0, 0
        for g, lg in zip(coords, lengths):
            lgh, failed = self._gather(self.group.law.translate(g, coords), skip_errors=True)
            slack = lgh.astype(float) - lg - lengths
            slack[failed] = -math.inf
            skipped += len(failed)
            checked += len(slack) - len(failed)
            subadd = max(subadd, float(slack.max()))
        return AxiomReport(identity_violation, symmetry, max(0.0, subadd), checked, skipped)


def central_heisenberg_table(horizon: int) -> dict[Element, int]:
    """Explicit table on Z of the Heisenberg central word lengths 2*ceil(2*sqrt(|k|))."""
    four = 4 * np.abs(np.arange(-horizon, horizon + 1, dtype=np.int64))
    # the float root is within one of the exact one; correct it to ceil(sqrt(4|k|))
    root = np.sqrt(four).astype(np.int64)
    root -= root * root > four
    root += root * root < four
    return dict(zip(zip(range(-horizon, horizon + 1)), (2 * root).tolist()))
