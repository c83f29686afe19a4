"""Horofunction data on metric balls.

The function phi_g(h) = l(h) - l(g^-1 h) extends continuously to the
horofunction compactification; this module evaluates it on balls, estimates
Busemann-point limits along almost geodesic rays, and enumerates the exact
rational facet support functionals of the generator polytope
conv(p(S)) in the torsion-free abelianization.

phi and cocycle_defect work on whole balls at once: the group law translates
the ball's int64 coordinates and LengthFunction.lengths gathers the lengths
of the translates, exact int64 for word lengths, the length's own objects
(floats, Fractions) otherwise, in the arithmetic the per-element formulas use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterable, Optional, Sequence

import numpy as np

from .groups import (
    BallTable,
    Element,
    GroupSpec,
    LengthFunction,
    _integer_row,
    _polyhedron_vertices,
    rref,
)


class DegeneratePolytopeError(ValueError):
    """0 is not an interior point of the hull of the projected generators:
    they lie in the hyperplane {x : normal . x = 0}, or, with half_space, in
    the closed half-space {x : normal . x <= 0}."""

    def __init__(self, normal: tuple[Fraction, ...], half_space: bool = False):
        self.normal = normal
        super().__init__(
            f"generators project into the {'half-space' if half_space else 'hyperplane'} {{x : "
            + " + ".join(f"({c})*x{i+1}" for i, c in enumerate(normal) if c != 0)
            + (" <= 0}" if half_space else " = 0}")
        )


@dataclass(frozen=True)
class PhiFunction:
    """phi_g restricted to a ball: h -> l(h) - l(g^-1 h)."""

    g: Element
    ball: BallTable
    values: dict

    def __call__(self, h: Element):
        return self.values[h]

    def max_abs(self) -> float:
        return max(abs(float(v)) for v in self.values.values())


def _grown_by(ball: BallTable, spec: Optional[LengthFunction]) -> LengthFunction:
    """The length function that grew the ball.  `spec` may name it again, as
    older callers do; any other length function is refused."""
    if spec is not None and spec is not ball.spec:
        raise ValueError("phi and cocycle_defect take the length function that grew the ball")
    return ball.spec


def phi(g: Element, ball: BallTable, spec: Optional[LengthFunction] = None) -> PhiFunction:
    spec = _grown_by(ball, spec)
    values = ball.lengths - spec.lengths(ball.left_translates(ball.group.inverse(g)))
    return PhiFunction(g, ball, dict(zip(ball.elements, values.tolist())))


def cocycle_defect(g: Element, h: Element, ball: BallTable,
                   spec: Optional[LengthFunction] = None) -> float:
    """max over the ball of |phi_{gh} - (g.phi_h + phi_g)|; 0 for any length.

    With (g.phi_h)(x) = phi_h(g^-1 x) = l(g^-1 x) - l(h^-1 g^-1 x) and
    h^-1 g^-1 = (gh)^-1, two translates of the ball give every term.
    """
    spec = _grown_by(ball, spec)
    group = ball.group
    lx = ball.lengths
    l_gx = spec.lengths(ball.left_translates(group.inverse(g)))
    l_ghx = spec.lengths(ball.left_translates(group.inverse(group.multiply(g, h))))
    defect = (lx - l_ghx) - (l_gx - l_ghx) - (lx - l_gx)
    return max(map(abs, map(float, defect.tolist())))


# ---------------------------------------------------------------------------
# Exact facet enumeration of conv(p(S)).


@dataclass(frozen=True)
class SupportFunctional:
    """Linear functional equal to 1 exactly on one facet of the generator polytope."""

    coefficients: tuple[Fraction, ...]
    facet: tuple[tuple, ...]
    # (integer numerators, common denominator) of the coefficients
    _integers: tuple[list[int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_integers", _integer_row(self.coefficients))

    def __call__(self, x: Sequence) -> Fraction:
        nums, den = self._integers
        xs, q = _integer_row(x)
        return Fraction(sum(map(mul, nums, xs)), den * q)

    def __str__(self) -> str:
        return " + ".join(f"({c})*x{i+1}" for i, c in enumerate(self.coefficients))


def facets(group: GroupSpec, generators: Optional[Iterable[Element]] = None
           ) -> tuple[SupportFunctional, ...]:
    """Exact facet support functionals of conv(p(S)) for the generating set S."""
    m = group.abelianization_rank
    if m == 0:
        return ()
    if m > 4:
        raise ValueError("facet enumeration is limited to abelianization rank <= 4")
    gens = tuple(generators) if generators is not None else group.generators
    return facet_functionals([group.abelianization(s) for s in gens], m)


def facet_functionals(points: Sequence[tuple[Fraction, ...]], m: int
                      ) -> tuple[SupportFunctional, ...]:
    """Facets of conv(points), for a point set whose hull has 0 in its interior:
    the vertices of the polar {sigma : sigma(p) <= 1}, from the polytope
    kernel on the points' integer rows over their extreme points (m = 1),
    hull edges (m = 2) or all m-subsets.  DegeneratePolytopeError if 0 is not
    interior, naming a hyperplane or closed half-space through 0 that holds
    every point."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    pts = list(dict.fromkeys(pts))
    if len(rref(pts)[1]) < m:
        raise DegeneratePolytopeError(_span_normal(pts, m))
    if m == 1:
        vals = [p[0] for p in pts]
        if not max(vals) > 0 > min(vals):
            side = Fraction(1 if max(vals) <= 0 else -1)
            raise DegeneratePolytopeError((side,), half_space=True)
        subsets = [(vals.index(max(vals)),), (vals.index(min(vals)),)]
    else:
        subsets = _hull_edges(pts) if m == 2 else combinations(range(len(pts)), m)
    rows = [xs + [q] for xs, q in map(_integer_row, pts)]
    sigmas, tight, ray = _polyhedron_vertices(rows, subsets)
    if ray is not None:
        raise DegeneratePolytopeError(tuple(map(Fraction, ray)), half_space=True)
    return tuple(sorted(
        (SupportFunctional(sigma, tuple(sorted(pts[i] for i in on)))
         for sigma, on in zip(sigmas, tight)),
        key=lambda f: f.coefficients))


def _span_normal(pts, m) -> tuple[Fraction, ...]:
    """A non-zero rational vector orthogonal to every point (the points span a
    proper subspace when this is called)."""
    mat, pivots = rref(pts)
    j = next(c for c in range(m) if c not in pivots)
    nu = [Fraction(0)] * m
    nu[j] = Fraction(1)
    for r, col in enumerate(pivots):
        nu[col] = -mat[r][j]
    return tuple(nu)


def _hull_edges(pts) -> list[tuple[int, int]]:
    """Index pairs of consecutive vertices of the planar convex hull
    (Andrew's monotone chain; points on an edge are not vertices)."""
    order = sorted(range(len(pts)), key=pts.__getitem__)

    def cross(o, a, b):
        o, a, b = pts[o], pts[a], pts[b]
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull = []
    for chain in (order, order[::-1]):  # lower, then upper
        part = []
        for p in chain:
            while len(part) >= 2 and cross(part[-2], part[-1], p) <= 0:
                part.pop()
            part.append(p)
        hull += part[:-1]
    return list(zip(hull, hull[1:] + hull[:1]))


# ---------------------------------------------------------------------------
# Rays and Busemann estimates.


@dataclass(frozen=True)
class RaySpec:
    """A discrete ray: schedule of (time, group element) pairs starting at (0, e)."""

    group: GroupSpec
    schedule: tuple[tuple[float, Element], ...]

    @classmethod
    def lattice_direction(cls, group: GroupSpec, direction: Sequence, steps: int) -> "RaySpec":
        """Exact rational direction: denominators cleared so every point is a lattice point."""
        if not group.is_free_abelian:
            raise ValueError("lattice rays need a free abelian group")
        v = tuple(Fraction(c) for c in direction)
        if all(c == 0 for c in v):
            raise ValueError("direction must be non-zero")
        q = 1
        for c in v:
            q = q * c.denominator // math.gcd(q, c.denominator)
        u = tuple(int(c * q) for c in v)
        schedule = [(0.0, group.identity())]
        for i in range(1, steps + 1):
            schedule.append((float(i * q), tuple(i * c for c in u)))
        return cls(group, tuple(schedule))

    @classmethod
    def word_repetition(cls, group: GroupSpec, word: Sequence[Element], repeats: int) -> "RaySpec":
        letters = [tuple(w) for w in word]
        if not letters:
            raise ValueError("word must be non-empty")
        schedule = [(0.0, group.identity())]
        current = group.identity()
        for k in range(repeats * len(letters)):
            current = group.multiply(current, letters[k % len(letters)])
            schedule.append((float(k + 1), current))
        return cls(group, tuple(schedule))


@dataclass(frozen=True)
class BusemannEstimate:
    g: Element
    value: float
    tail_variation: float
    evaluations: tuple[float, ...]


def busemann_along_ray(ray: RaySpec, g: Element, spec: LengthFunction) -> BusemannEstimate:
    """phi_g along the ray; the limit value is read off at the last schedule point.

    tail_variation is the oscillation of phi_g over the last quarter of the
    schedule; callers decide what variation they accept.
    """
    group = ray.group
    g_inv = group.inverse(g)
    # l(x) and l(g^-1 x) interleaved, so the first failing lookup is the one
    # a per-point loop would meet first
    rows = [y for _, x in ray.schedule[1:] for y in (x, group.multiply(g_inv, x))]
    lengths = spec.lengths(rows)
    vals = [float(v) for v in (lengths[0::2] - lengths[1::2]).tolist()]
    if not vals:
        raise ValueError("ray schedule is empty")
    window = max(2, len(vals) // 4)
    tail = vals[-window:]
    return BusemannEstimate(g, vals[-1], max(tail) - min(tail), tuple(vals))


@dataclass(frozen=True)
class GeodesicReport:
    max_defect: float
    pairs_checked: int


def check_ray_geodesic(ray: RaySpec, spec: LengthFunction) -> GeodesicReport:
    """Almost-geodesic defect max |d(y(t),y(s)) + d(y(s),y(0)) - t| over s <= t."""
    group, sched = ray.group, ray.schedule
    # l(y(s)), then l(y(s)^-1 y(t)) for t >= s, for each s in turn: the
    # order a per-pair loop looks them up in
    rows, s_rows, times = [], [], []
    for i in range(1, len(sched)):
        xs = sched[i][1]
        xs_inv = group.inverse(xs)
        s_rows.append(len(rows))
        rows += [xs] + [group.multiply(xs_inv, xt) for _, xt in sched[i:]]
        times += [t for t, _ in sched[i:]]
    lengths = spec.lengths(rows).astype(float)
    d = np.delete(lengths, np.array(s_rows, dtype=int))
    # l(y(s)) once per pair (s, t): len(sched) - i pairs for the i-th s
    ls = np.repeat(lengths[s_rows], np.arange(len(s_rows), 0, -1))
    defects = np.abs(d + ls - np.array(times))
    return GeodesicReport(float(defects.max(initial=0.0)), len(defects))
