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
    _solve_linear,
    rref,
)


class DegeneratePolytopeError(ValueError):
    """The projected generators lie in a proper hyperplane."""

    def __init__(self, normal: tuple[Fraction, ...]):
        self.normal = normal
        super().__init__(
            "generators project into the hyperplane {x : "
            + " + ".join(f"({c})*x{i+1}" for i, c in enumerate(normal) if c != 0)
            + " = 0}"
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


def phi(g: Element, ball: BallTable, spec: Optional[LengthFunction] = None) -> PhiFunction:
    spec = spec or ball.spec
    values = spec.lengths(ball.coords) - spec.lengths(ball.left_translates(ball.group.inverse(g)))
    return PhiFunction(g, ball, dict(zip(ball.elements, values.tolist())))


def cocycle_defect(g: Element, h: Element, ball: BallTable,
                   spec: Optional[LengthFunction] = None) -> float:
    """max over the ball of |phi_{gh} - (g.phi_h + phi_g)|; 0 for any length.

    With (g.phi_h)(x) = phi_h(g^-1 x) = l(g^-1 x) - l(h^-1 g^-1 x) and
    h^-1 g^-1 = (gh)^-1, two translates of the ball give every term.
    """
    spec = spec or ball.spec
    group = ball.group
    lx = spec.lengths(ball.coords)
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

    def scaled(self, factor) -> "SupportFunctional":
        f = Fraction(factor)
        return SupportFunctional(tuple(c * f for c in self.coefficients), self.facet)

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
    points = []
    for s in gens:
        p = tuple(Fraction(c) for c in group.abelianization(s))
        if p not in points:
            points.append(p)
    return facet_functionals(points, m)


def facet_functionals(points: Sequence[tuple[Fraction, ...]], m: int
                      ) -> tuple[SupportFunctional, ...]:
    """Facets of conv(points) for a point set whose hull has 0 in its interior."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    pts = list(dict.fromkeys(pts))
    if len(rref(pts)[1]) < m:
        raise DegeneratePolytopeError(_span_normal(pts, m))
    if m == 1:
        return _facets_1d(pts)
    if m == 2:
        return _facets_2d(pts)
    return _facets_brute(pts, m)


def _span_normal(pts, m) -> tuple[Fraction, ...]:
    """A non-zero rational vector orthogonal to every point (the points span a
    proper subspace when this is called)."""
    mat, pivots = rref(pts)
    free = [c for c in range(m) if c not in pivots]
    if not free:
        return tuple([Fraction(1)] + [Fraction(0)] * (m - 1))
    j = free[0]
    nu = [Fraction(0)] * m
    nu[j] = Fraction(1)
    for r, col in enumerate(pivots):
        nu[col] = -mat[r][j]
    return tuple(nu)


def _facets_1d(pts) -> tuple[SupportFunctional, ...]:
    vals = [p[0] for p in pts]
    hi, lo = max(vals), min(vals)
    if not (hi > 0 > lo):
        raise DegeneratePolytopeError((Fraction(1),))
    out = [
        SupportFunctional((Fraction(1) / hi,), ((hi,),)),
        SupportFunctional((Fraction(1) / lo,), ((lo,),)),
    ]
    return tuple(sorted(out, key=lambda f: f.coefficients))


def _hull_2d(pts):
    pts = sorted(set(pts))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _facets_2d(pts) -> tuple[SupportFunctional, ...]:
    hull = _hull_2d(pts)
    scaled = [_integer_row(p) for p in pts]
    out = {}
    n = len(hull)
    ones = [Fraction(1), Fraction(1)]
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        sigma = _solve_linear([list(a), list(b)], ones)
        if sigma is None:
            raise DegeneratePolytopeError(_span_normal(pts, 2))
        out[sigma] = _contact(pts, _levels(sigma, scaled))
    return tuple(
        SupportFunctional(s, c) for s, c in sorted(out.items(), key=lambda kv: kv[0])
    )


def _facets_brute(pts, m) -> tuple[SupportFunctional, ...]:
    out = {}
    scaled = [_integer_row(p) for p in pts]
    for subset in combinations(scaled, m):
        # sigma(xs / q) = 1 is sigma(xs) = q: an integer system
        sigma = _solve_linear([xs for xs, _ in subset], [q for _, q in subset])
        if sigma is None:
            continue
        levels = _levels(sigma, scaled)
        if max(levels) <= 0:
            out[sigma] = _contact(pts, levels)
    return tuple(
        SupportFunctional(s, c) for s, c in sorted(out.items(), key=lambda kv: kv[0])
    )


def _levels(sigma, scaled) -> list[int]:
    """sigma(p) - 1 times a positive integer, for each point p given as
    (integer numerators, common denominator): negative below the level set
    sigma = 1, zero on it, positive above."""
    nums, den = _integer_row(sigma)
    return [sum(map(mul, nums, xs)) - den * q for xs, q in scaled]


def _contact(pts, levels) -> tuple:
    """The points on the level set sigma = 1, sorted."""
    return tuple(sorted(p for p, v in zip(pts, levels) if v == 0))


# ---------------------------------------------------------------------------
# Rays and Busemann estimates.


@dataclass(frozen=True)
class RaySpec:
    """A discrete ray: schedule of (time, group element) pairs starting at (0, e)."""

    group: GroupSpec
    kind: str  # "lattice_direction" | "word_repetition"
    schedule: tuple[tuple[float, Element], ...]
    direction: Optional[tuple[Fraction, ...]] = None
    word: Optional[tuple[Element, ...]] = None

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
        return cls(group, "lattice_direction", tuple(schedule), direction=v)

    @classmethod
    def lattice_direction_float(cls, group: GroupSpec, direction: Sequence[float],
                                steps: int, search_cap: int = 200_000) -> "RaySpec":
        """Irrational direction: bounded search for lattice points x_i with
        |x_i - t_i v| < 1/i in the euclidean norm; fails loudly past the cap."""
        if not group.is_free_abelian:
            raise ValueError("lattice rays need a free abelian group")
        v = tuple(float(c) for c in direction)
        schedule = [(0.0, group.identity())]
        t = 0.0
        tried = 0
        for i in range(1, steps + 1):
            found = None
            while found is None:
                t += 0.25
                tried += 1
                if tried > search_cap:
                    raise ValueError(
                        f"no lattice point within 1/{i} of the ray after {search_cap} trial times"
                    )
                x = tuple(round(t * c) for c in v)
                err = math.sqrt(sum((xi - t * ci) ** 2 for xi, ci in zip(x, v)))
                if err < 1.0 / i:
                    found = (t, x)
            schedule.append(found)
        return cls(group, "lattice_direction", tuple(schedule))

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
        return cls(group, "word_repetition", tuple(schedule), word=tuple(letters))


@dataclass(frozen=True)
class BusemannEstimate:
    g: Element
    value: float
    tail_variation: float
    times: tuple[float, ...]
    evaluations: tuple[float, ...]


def busemann_along_ray(ray: RaySpec, g: Element, spec: LengthFunction) -> BusemannEstimate:
    """phi_g along the ray; the limit value is read off at the last schedule point.

    tail_variation is the oscillation of phi_g over the last quarter of the
    schedule; callers decide what variation they accept.
    """
    group = ray.group
    g_inv = group.inverse(g)
    times = [t for t, _ in ray.schedule[1:]]
    # l(x) and l(g^-1 x) interleaved, so the first failing lookup is the one
    # a per-point loop would meet first
    rows = [y for _, x in ray.schedule[1:] for y in (x, group.multiply(g_inv, x))]
    lengths = spec.lengths(rows)
    vals = [float(v) for v in (lengths[0::2] - lengths[1::2]).tolist()]
    if not vals:
        raise ValueError("ray schedule is empty")
    window = max(2, len(vals) // 4)
    tail = vals[-window:]
    return BusemannEstimate(g, vals[-1], max(tail) - min(tail), tuple(times), tuple(vals))


@dataclass(frozen=True)
class GeodesicReport:
    max_defect: float
    pairs_checked: int


def check_ray_geodesic(ray: RaySpec, spec: LengthFunction,
                       horizon: Optional[int] = None) -> GeodesicReport:
    """Almost-geodesic defect max |d(y(t),y(s)) + d(y(s),y(0)) - t| over s <= t."""
    group = ray.group
    sched = ray.schedule if horizon is None else ray.schedule[: horizon + 1]
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
