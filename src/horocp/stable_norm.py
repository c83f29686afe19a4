"""Asymptotic (stable) semi-norms via Fekete limits and their exact polytope dual.

For a length l on Z^m the limit lim l(i*g)/i exists and equals inf_i l(i*g)/i
by subadditivity.  This module truncates that infimum at a finite horizon and
pairs it with the exact rational polytope norm whose unit ball is the convex
hull of the generating set; the two routes cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .groups import BallTable, Element, GroupSpec, LengthFunction, _integer_row, _tuples
from .horoboundary import SupportFunctional

DEFAULT_HORIZON = 40


@dataclass(frozen=True)
class StableNormResult:
    value: float
    fekete_gap: float
    horizon: int
    ratios: tuple[float, ...]


def _check_power_domain(group: GroupSpec, g: Element) -> None:
    if group.is_abelian:
        return
    if group.is_heisenberg and g[0] == 0 and g[1] == 0:
        return
    raise ValueError("asymptotic lengths need an abelian group or a central Heisenberg element")


def asymptotic_length(g: Element, spec: LengthFunction, horizon: int = DEFAULT_HORIZON
                      ) -> StableNormResult:
    """Truncated Fekete infimum min_{i<=I} l(i*g)/i; non-increasing in I."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    group = spec.group
    _check_power_domain(group, g)
    group.validate(g)
    powers = [g]
    for _ in range(1, horizon):
        powers.append(group.law.product(powers[-1], g))
    lengths = spec.lengths(powers).tolist()
    ratios = [float(v) / i for i, v in enumerate(lengths, start=1)]
    value = min(ratios)
    return StableNormResult(value, ratios[-1] - value, horizon, tuple(ratios))


def stable_norm_dual(x: Sequence, functionals: Sequence[SupportFunctional]) -> Fraction:
    """Exact polytope norm max_F sigma_F(x) with unit ball conv(S).

    The maximum is taken over integers: each functional's integer value
    nums . xs brought to the common denominator of all of them, so one
    Fraction is built.
    """
    if not functionals:
        raise ValueError("no support functionals given")
    xs, q = _integer_row(x)
    lcm = math.lcm(*(f._integers[1] for f in functionals))
    best = max(sum(map(mul, nums, xs)) * (lcm // den) for nums, den in (f._integers for f in functionals))
    return Fraction(best, lcm * q)


@dataclass(frozen=True)
class DeviationReport:
    deviation: float
    constant: float
    envelope: float
    points: int


def uniform_deviation(g: Element, i: int, ball: BallTable, spec: LengthFunction,
                      functionals: Optional[Sequence[SupportFunctional]] = None
                      ) -> DeviationReport:
    """max over the ball of |phi_{ig} under l minus phi_{ig} under the stable
    norm| / i, with the 4C/i envelope where C bounds |l - l_as| on every point
    the evaluation touches.  functionals=None means the stable norm is 0.

    Certifies uniform convergence over the computed ball only; the envelope is
    reported, not asserted.
    """
    if i < 1:
        raise ValueError("need i >= 1")
    group = spec.group
    _check_power_domain(group, g)
    ig = group.power(g, i)
    ig_inv = group.inverse(ig)

    def dual(element) -> float:
        if functionals is None:
            return 0.0
        return float(stable_norm_dual(group.abelianization(element), functionals))

    shifted = ball.left_translates(ig_inv)
    worst = 0.0
    big_c = 0.0
    for h, s, lh, ls in zip(ball.elements, _tuples(shifted),
                            spec.lengths(ball.coords).tolist(), spec.lengths(shifted).tolist()):
        lh, ls = float(lh), float(ls)
        phi_l = lh - ls
        phi_as = dual(h) - dual(s)
        worst = max(worst, abs(phi_l - phi_as) / i)
        big_c = max(big_c, abs(lh - dual(h)), abs(ls - dual(s)))
    return DeviationReport(worst, big_c, 4.0 * big_c / i, len(ball))
