"""Finitely generated groups, canonical coordinates, length functions, metric balls.

Elements are plain tuples in a canonical form fixed by the group kind:

* free abelian Z^m        -> (x1, ..., xm)
* Z^m x Z/n               -> (x1, ..., xm, r) with 0 <= r < n
* discrete Heisenberg H3  -> (x, y, z) with law (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y')
* finite cyclic Z/n       -> (k,) with 0 <= k < n

All group arithmetic is exact integer arithmetic; word lengths are exact
breadth-first distances in the Cayley graph.  The BFS cache inserts elements
in non-decreasing length and records where each sphere ends, so a word ball
is a prefix of the cache with each sphere sorted, sharing the cache's tuples.
Loops over a ball gather lengths instead of asking one element at a time:
the law translates the ball's int64 coordinates (BallTable.left_translates)
and LengthFunction.lengths looks the rows up in the cache.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice, product
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

DEFAULT_BALL_CAP = 5_000_000
# Largest |coordinate| in the int64 arrays of ball translation: a Heisenberg
# product z + z' + x y' of two such elements stays below 2**63.
COORD_LIMIT = 2**31 - 1

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
# default sum |c_i| is wrong, weight.  Each function closes over rank and
# torsion, and product is the raw product that both GroupSpec.multiply (after
# checking its operands) and the BFS in LengthFunction call.  translate(g, h)
# is the same product vectorised over the rows of an int64 array h: the left
# translates g h of a ball's coordinates (BallTable.translate).

# isinstance(c, int) without a generator frame per element: element checks
# run on every validated product and length lookup.
_is_int = int.__instancecheck__


class _Law:
    """The arithmetic of one group kind (see the table comment above)."""

    abelian = True
    finite = False

    def check(self, g: Element) -> None:
        if not isinstance(g, tuple) or not all(map(_is_int, g)):
            raise GroupMismatchError(f"element {g!r} is not an integer tuple")
        if not self.fits(g):
            raise GroupMismatchError(self.shape_error.format(g=g))

    def weight(self, g: Element) -> int:
        """Coordinate weight that every reducing generator step lowers."""
        return sum(abs(c) for c in g)


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
        self.fits = lambda g: len(g) == rank + 1 and 0 <= g[-1] < n
        self.shape_error = "bad Z^m x Z/n element {g!r}"
        self.product = lambda a, b: (
            tuple(x + y for x, y in zip(a[:-1], b[:-1])) + ((a[-1] + b[-1]) % n,))
        self.inverse = lambda g: tuple(-x for x in g[:-1]) + ((-g[-1]) % n,)
        self.abelianization = lambda g: g[:-1]
        self.weight = lambda g: sum(abs(c) for c in g[:-1]) + min(g[-1], n - g[-1])

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


class _FiniteCyclic(_Law):
    """Z/n."""

    finite = True

    def __init__(self, rank: int, torsion: int):
        n = torsion
        self.abelianization_rank = 0
        self.identity = (0,)
        self.fits = lambda g: len(g) == 1 and 0 <= g[0] < n
        self.shape_error = f"bad Z/{n} element {{g!r}}"
        self.product = lambda a, b: ((a[0] + b[0]) % n,)
        self.inverse = lambda g: ((-g[0]) % n,)
        self.abelianization = lambda g: ()
        self.weight = lambda g: min(g[0], n - g[0])
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
    def free_abelian(cls, rank: int, generators: Optional[Iterable[Element]] = None) -> "GroupSpec":
        if rank < 1:
            raise ValueError("free abelian rank must be >= 1")
        if generators is None:
            generators = _standard_lattice_generators(rank)
        return cls(FREE_ABELIAN, rank=rank, generators=_closed_generators(generators))

    @classmethod
    def free_abelian_times_cyclic(
        cls, rank: int, torsion: int, generators: Optional[Iterable[Element]] = None
    ) -> "GroupSpec":
        if rank < 1 or torsion < 2:
            raise ValueError("need rank >= 1 and torsion order >= 2")
        if generators is None:
            gens = [g + (0,) for g in _standard_lattice_generators(rank)]
            gens += [(0,) * rank + (1,), (0,) * rank + (torsion - 1,)]
            generators = gens
        return cls(
            FREE_ABELIAN_TIMES_CYCLIC,
            rank=rank,
            torsion=torsion,
            generators=_closed_generators(generators),
        )

    @classmethod
    def heisenberg3(cls, generators: Optional[Iterable[Element]] = None) -> "GroupSpec":
        if generators is None:
            generators = [H3_A, (-1, 0, 0), H3_B, (0, -1, 0)]
        return cls(HEISENBERG3, rank=2, generators=_closed_generators(generators))

    @classmethod
    def finite_cyclic(cls, order: int, generators: Optional[Iterable[Element]] = None) -> "GroupSpec":
        if order < 2:
            raise ValueError("cyclic order must be >= 2")
        if generators is None:
            generators = [(1,), (order - 1,)]
        return cls(FINITE_CYCLIC, torsion=order, generators=_closed_generators(generators))

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


def _standard_lattice_generators(rank: int) -> list[Element]:
    gens = []
    for i in range(rank):
        e = [0] * rank
        e[i] = 1
        gens.append(tuple(e))
        e[i] = -1
        gens.append(tuple(e))
    return gens


def _closed_generators(generators: Iterable[Element]) -> tuple[Element, ...]:
    seen = []
    for g in generators:
        t = tuple(g)
        if t not in seen:
            seen.append(t)
    return tuple(seen)


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
    the reduced rows.
    """
    mat = [[Fraction(c) for c in r] for r in rows]
    pivots: list[int] = []
    for col in range(len(mat[0]) if mat else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        pv = mat[top][col]
        mat[top] = [v / pv for v in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[top])]
        pivots.append(col)
    return mat, pivots


def _solve_linear(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Exact rational solve of a square system; None if singular."""
    m = len(rows)
    mat, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots != list(range(m)):
        return None
    return tuple(r[m] for r in mat)


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
    """Vertices of {x : sigma(x) <= 1 for all sigma}; errors if unbounded."""
    from itertools import combinations

    rows = [tuple(Fraction(c) for c in f) for f in functionals]
    if len(rref(rows)[1]) < dim:
        raise ValueError("polytope norm functionals do not span; unit ball is unbounded")
    verts = []
    ones = [Fraction(1)] * dim
    for subset in combinations(rows, dim):
        x = _solve_linear(subset, ones)
        if x is None:
            continue
        if all(sum(f * c for f, c in zip(row, x)) <= 1 for row in rows):
            if x not in verts:
                verts.append(x)
    if not verts:
        raise ValueError("polytope norm unit ball has no vertices")
    return verts


# ---------------------------------------------------------------------------
# Length functions and metric balls.


@dataclass(frozen=True, eq=False)
class BallTable:
    """All elements with length <= radius, in (length, lexicographic) order."""

    group: GroupSpec
    radius: float
    elements: tuple[Element, ...]
    values: Mapping[Element, object]
    index: Mapping[Element, int]
    complete_group: bool
    spec: "LengthFunction"

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: Element) -> bool:
        return g in self.index

    @cached_property
    def coords(self) -> np.ndarray:
        """int64 coordinates of the elements, one row each, in ball order."""
        return _int64_coordinates(self.elements, self.group)

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(low corner, high corner, strides, sorted keys, ball index of each key).

        A key is the mixed-radix position of an element in the ball's
        bounding box, exact in int64 or refused.
        """
        coords = self.coords
        lo, hi = coords.min(axis=0), coords.max(axis=0)
        strides, size = [], 1
        for span in reversed((hi - lo + 1).tolist()):
            strides.append(size)
            size *= span
        if size > np.iinfo(np.int64).max:
            raise CoordinateOverflowError(
                f"ball bounding box of {size} points does not fit int64 keys")
        strides = np.array(strides[::-1], dtype=np.int64)
        keys = (coords - lo) @ strides
        order = np.argsort(keys)
        return lo, hi, strides, keys[order], order

    def left_translates(self, g: Element) -> np.ndarray:
        """int64 coordinates of g h for every ball element h, in ball order."""
        self.group.validate(g)
        return self.group.law.translate(_int64_coordinates([g], self.group)[0], self.coords)

    def translate(self, g: Element) -> np.ndarray:
        """Ball index of g h for every ball element h, in ball order; -1 where
        g h lies outside the ball."""
        moved = self.left_translates(g)
        lo, hi, strides, keys, order = self._lookup
        inside = np.flatnonzero(np.all((moved >= lo) & (moved <= hi), axis=1))
        codes = (moved[inside] - lo) @ strides
        pos = np.minimum(np.searchsorted(keys, codes), len(keys) - 1)
        hit = keys[pos] == codes
        out = np.full(len(self.elements), -1, dtype=np.intp)
        out[inside[hit]] = order[pos[hit]]
        return out


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

    Word lengths run an incremental breadth-first search from the identity and
    memoize every distance computed so far, in BFS order with the end of each
    sphere recorded; balls are sorted prefixes of that cache, and `lengths`
    gathers cached lengths for whole coordinate arrays.  Values are exact
    integers for word lengths.
    """

    WORD = "word"
    NORM = "norm"
    TABLE = "table"

    def __init__(self, group, kind, *, generators=None, norm=None, table=None,
                 pseudo=False, cap=DEFAULT_BALL_CAP):
        self.group = group
        self.kind = kind
        self.pseudo = bool(pseudo)
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
            e = group.identity()
            self._dist: dict[Element, int] = {e: 0}
            # _ends[k] = number of elements of length <= k, known from the
            # first expansion of a length-k element on
            self._ends: list[int] = []
            self._queue: deque[Element] = deque([e])
            self._exhausted = False
            self._mult = group.law.product
            # Elements the generators do not reach are refused at once rather
            # than after the BFS has grown to the cap.  In the abelian kinds
            # that is exact: g must lie in the integer span of the generators
            # and the torsion relation.  On H3 it is necessary only: p(g) must
            # lie in the integer span of the p(s).
            self._image = group.law.abelianization if not group.is_abelian else tuple
            relations = [self._image(s) for s in self.generators]
            if group.torsion:
                relations.append((0,) * (len(e) - 1) + (group.torsion,))
            self._lattice = _integer_echelon(relations)
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
    def explicit_table(cls, group: GroupSpec, table: Mapping[Element, object],
                       pseudo=False) -> "LengthFunction":
        return cls(group, cls.TABLE, table=table, pseudo=pseudo)

    @property
    def proper(self) -> bool:
        # Sub-level sets of everything offered here are finite by construction.
        return not self.pseudo

    # -- evaluation --------------------------------------------------------

    def length(self, g: Element):
        self.group.validate(g)
        if self.kind == self.WORD:
            dist = self._dist
            if g in dist:
                return dist[g]
            if not _in_lattice(self._lattice, self._image(g)):
                raise GroupMismatchError(f"element {g!r} is not generated by the generating set")
            while self._queue and g not in dist:
                self._expand_one()
            if g not in dist:
                raise GroupMismatchError(f"element {g!r} is not generated by the generating set")
            return dist[g]
        if self.kind == self.NORM:
            return self.norm.evaluate(g)
        try:
            return self.table[g]
        except KeyError:
            raise ValueError(f"element {g!r} is outside the tabulated domain") from None

    def lengths(self, points) -> np.ndarray:
        """Exact lengths of the elements given as the rows of an int64
        coordinate array (BallTable.left_translates) or as canonical tuples
        (BallTable.elements), in order.

        Word lengths are C-level lookups in the BFS cache; rows outside it
        take the `length` path, which grows the BFS just as far as they need
        and raises its errors.  Norm and table lengths evaluate each row as
        `length` does.  Word lengths come back as int64, others as objects.
        """
        return self._gather(points)[0]

    def _gather(self, points, skip_errors: bool = False) -> tuple[np.ndarray, list[int]]:
        """(lengths, failed rows); with skip_errors a row whose length raises
        ValueError or BallCapError is listed in failed with length 0."""
        rows = list(map(tuple, points.tolist())) if isinstance(points, np.ndarray) else points
        cache = self._dist if self.kind == self.WORD else self.table if self.kind == self.TABLE else {}
        found = list(map(cache.get, rows))
        failed = []
        if None in found:
            for i, v in enumerate(found):
                if v is None:
                    try:
                        found[i] = self.length(rows[i])
                    except (ValueError, BallCapError):
                        if not skip_errors:
                            raise
                        found[i] = 0
                        failed.append(i)
        return np.array(found, dtype=np.int64 if self.kind == self.WORD else object), failed

    def _expand_one(self):
        queue = self._queue
        u = queue.popleft()
        mark = len(queue)
        du = self._dist[u]
        dist = self._dist
        if du == len(self._ends):
            # u is the first of its sphere to expand, so the sphere is complete
            self._ends.append(len(dist))
        mult = self._mult
        for s in self.generators:
            v = mult(u, s)
            if v not in dist:
                if len(dist) >= self.cap:
                    # Undo this expansion so that a later, larger cap resumes
                    # from an intact frontier and lengths stay exact.
                    while len(queue) > mark:
                        del dist[queue.pop()]
                    queue.appendleft(u)
                    raise BallCapError(
                        f"ball cap {self.cap} exceeded while expanding radius {du + 1}"
                    )
                dist[v] = du + 1
                queue.append(v)
        if not queue:
            self._exhausted = True

    def _ensure_radius(self, r: int):
        while self._queue and self._dist[self._queue[0]] < r:
            self._expand_one()
        if not self._queue:
            self._exhausted = True

    # -- balls ---------------------------------------------------------------

    def ball(self, radius: float) -> BallTable:
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if radius in self._ball_cache:
            return self._ball_cache[radius]
        if self.kind == self.WORD:
            if math.isinf(radius):
                if not self.group.is_finite:
                    raise ValueError("infinite radius needs a finite group")
                while self._queue:
                    self._expand_one()
            else:
                self._ensure_radius(int(math.floor(radius)))
            elements, values = self._sorted_spheres(radius)
            complete = self._exhausted and len(values) == len(self._dist)
        else:
            if self.kind == self.NORM:
                items = self._norm_ball_items(radius)
                complete = False
            else:
                items = [(g, v) for g, v in self.table.items() if v <= radius]
                complete = self.group.is_finite and len(items) == self.group.torsion
            values = dict(items)
            e = self.group.identity()
            elements = (e, *sorted((g for g in values if g != e), key=lambda g: (values[g], g)))
        index = {g: i for i, g in enumerate(elements)}
        table = BallTable(self.group, radius, elements, values, index, complete, self)
        if len(table) > self.cap:
            raise BallCapError(f"ball at radius {radius} has {len(table)} > cap {self.cap} elements")
        self._ball_cache[radius] = table
        return table

    def _sorted_spheres(self, radius: float) -> tuple[tuple[Element, ...], dict[Element, int]]:
        """The cached elements of length <= radius, sphere by sphere in tuple
        order, and their lengths: (length, lexicographic) order without a key."""
        dist, ends = self._dist, self._ends
        keys = iter(dist)
        elements: list[Element] = []
        values: dict[Element, int] = {}
        k = 0
        while k <= radius and len(elements) < len(dist):
            end = ends[k] if k < len(ends) else len(dist)
            sphere = sorted(islice(keys, end - len(elements)))
            elements += sphere
            values.update(dict.fromkeys(sphere, k))
            k += 1
        return tuple(elements), values

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
        symmetry = 0.0
        skipped = 0
        for g in half:
            try:
                symmetry = max(symmetry, abs(float(self.length(g)) - float(self.length(self.group.inverse(g)))))
            except (ValueError, BallCapError):
                skipped += 1
        # l(gh) - l(g) - l(h) for one g against the whole half ball at a time
        lengths = np.array([float(half.values[h]) for h in half.elements])
        coords = half.coords
        subadd = 0.0
        checked = 0
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
    table = {}
    for k in range(-horizon, horizon + 1):
        a = abs(k)
        root = math.isqrt(4 * a)
        if root * root < 4 * a:
            root += 1
        table[(k,)] = 2 * root
    return table
