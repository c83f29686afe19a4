"""Separatedness certificates.

A pair (group, length) is certified separated when boundary-point support
functionals span the dual of the torsion-free abelianization.  Failure is
never reported from a rank-deficient finite sample, but it is not always an
exact witness either: `sublinearity_witness` judges a cyclic direction
sublinear when its Fekete ratio l(g^i)/i drops below SUBLINEAR_TOL, or when
five sampled ratios decrease with a fitted power-law decay exponent of at
least MIN_DECAY_EXPONENT.  That fit is a heuristic and can call a direction
with a positive stable norm sublinear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional

import numpy as np

from .groups import Element, GroupSpec, LengthFunction, _is_int, rref
from .horoboundary import SupportFunctional, facet_functionals, facets

WITNESS_FACET_SPAN = "facet_span"
WITNESS_SUBLINEARITY = "sublinearity_failure"

SUBLINEAR_TOL = 1e-6
MIN_DECAY_EXPONENT = 0.25

_is_tuple = tuple.__instancecheck__


@dataclass(frozen=True)
class SublinearityReport:
    g: Element
    horizon: int
    ratio_at_horizon: float
    fekete_value: float
    sample_points: tuple[int, ...]
    sample_ratios: tuple[float, ...]
    decay_exponent: float
    sublinear: bool
    message: str


@dataclass(frozen=True)
class SeparationCertificate:
    group: GroupSpec
    functionals: tuple[SupportFunctional, ...]
    rank: int
    separated: bool
    witness_kind: str
    basis_indices: tuple[int, ...]
    sublinearity: Optional[SublinearityReport] = None


def sublinearity_witness(spec: LengthFunction, g: Element,
                         horizon: int = 10_000) -> SublinearityReport:
    """Fekete ratios l(g^i)/i along the cyclic subgroup generated by g.

    The limit is certified as 0 when the ratio either drops below
    SUBLINEAR_TOL or decays like a power law (fitted exponent >= 0.25 across
    geometric samples); every induced boundary homomorphism then vanishes on
    p(g).
    """
    group = spec.group
    if g == group.identity():
        raise ValueError("need a non-trivial element")
    if group.is_torsion(g):
        raise ValueError(f"{g!r} is a torsion element; its cyclic subgroup is finite")
    samples = sorted({max(1, horizon // 2**k) for k in range(5)})
    lengths = spec.lengths([group.power(g, i) for i in samples]).tolist()
    ratios = [float(v) / i for v, i in zip(lengths, samples)]
    ratio_at_horizon = ratios[-1]
    fekete_value = min(ratios)
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    if ratios[-1] > 0 and samples[-1] > samples[0]:
        exponent = math.log(max(ratios[0], 1e-300) / ratios[-1]) / math.log(samples[-1] / samples[0])
    else:
        exponent = math.inf if ratios[-1] == 0 else 0.0
    sublinear = ratio_at_horizon <= SUBLINEAR_TOL or (decreasing and exponent >= MIN_DECAY_EXPONENT)
    if sublinear:
        message = (
            "asymptotic length along the cyclic subgroup is 0; every induced "
            "homomorphism vanishes on its abelianization image, so the pair is "
            "not separated"
        )
    else:
        message = "no sublinearity detected at this horizon"
    return SublinearityReport(
        g, horizon, ratio_at_horizon, fekete_value, tuple(samples), tuple(ratios),
        exponent, sublinear, message,
    )


def separation_certificate(group: GroupSpec, spec: LengthFunction) -> SeparationCertificate:
    """Certificate that boundary functionals span Hom(Z^m, R), or a witness of failure."""
    m = group.abelianization_rank
    if m == 0:
        return SeparationCertificate(group, (), 0, True, WITNESS_FACET_SPAN, ())
    if spec.kind == LengthFunction.WORD:
        functionals = facets(group, spec.generators)
    elif spec.kind == LengthFunction.NORM:
        functionals = _norm_functionals(group, spec)
    elif spec.kind == LengthFunction.TABLE:
        return _table_certificate(group, spec)
    else:  # pragma: no cover
        raise ValueError(f"unsupported length kind {spec.kind}")
    basis = _greedy_basis(functionals)
    return SeparationCertificate(group, functionals, len(basis), len(basis) == m,
                                 WITNESS_FACET_SPAN, tuple(basis))


def _norm_functionals(group: GroupSpec, spec: LengthFunction):
    from itertools import product

    m = group.abelianization_rank
    norm = spec.norm
    if norm.kind == "l1":
        pts = [tuple(Fraction(c) for c in signs) for signs in product((-1, 1), repeat=m)]
        return tuple(SupportFunctional(p, ()) for p in sorted(pts))
    if norm.kind == "linf":
        rows = []
        for i in range(m):
            for s in (-1, 1):
                row = [Fraction(0)] * m
                row[i] = Fraction(s)
                rows.append(tuple(row))
        return tuple(SupportFunctional(r, ()) for r in sorted(rows))
    if norm.kind == "polytope":
        rows = sorted(set(norm.functionals))
        return tuple(SupportFunctional(r, ()) for r in rows)
    raise ValueError(
        "separation certificates need a polytopal unit ball; the l2 restriction "
        "has no finite facet system"
    )


def _table_certificate(group: GroupSpec, spec: LengthFunction) -> SeparationCertificate:
    m = group.abelianization_rank
    if not group.is_free_abelian:
        raise ValueError("table certificates are supported on free abelian groups only")
    # The keys must be elements, as in LengthFunction.ball: checked in bulk,
    # and key by key (naming the first bad one) only when that fails.
    keys = spec.table.keys()
    if not (all(map(_is_tuple, keys)) and all(map(_is_int, chain.from_iterable(keys)))
            and set(map(len, keys)) == {m}):
        for g in keys:
            group.validate(g)

    # Failure first: a direction with sublinear growth kills separatedness.
    horizon = _table_direction_horizon(group, spec)
    for j in range(m):
        direction = tuple(1 if k == j else 0 for k in range(m))
        if horizon[j] < 4:
            continue
        report = sublinearity_witness(spec, direction, horizon=horizon[j])
        if report.sublinear:
            return SeparationCertificate(group, (), 0, False,
                                         WITNESS_SUBLINEARITY, (), report)

    # Success needs exact positive homogeneity: then the table is the
    # restriction of its own stable norm and the hull of x/l(x) is exact.
    points = _homogeneous_unit_points(group, spec)
    functionals = facet_functionals(points, m)
    basis = _greedy_basis(functionals)
    return SeparationCertificate(group, functionals, len(basis), len(basis) == m,
                                 WITNESS_FACET_SPAN, tuple(basis))


def _table_direction_horizon(group: GroupSpec, spec: LengthFunction) -> list[int]:
    """Per coordinate axis j, the largest i with e_j, 2 e_j, ..., i e_j all in the table.

    The keys, checked to be elements, are read into one array (object dtype
    where they exceed int64); along each axis the run 1, 2, ..., i of positive
    steps ends at the first sorted step that is not its own rank.
    """
    m = group.abelianization_rank
    count = len(spec.table) * m
    try:
        keys = np.fromiter(chain.from_iterable(spec.table), dtype=np.int64, count=count)
    except OverflowError:
        keys = np.fromiter(chain.from_iterable(spec.table), dtype=object, count=count)
    keys = keys.reshape(len(spec.table), m)
    horizons = []
    for j in range(m):
        steps = keys[~(np.delete(keys, j, axis=1) != 0).any(axis=1), j]
        steps = np.sort(steps[steps > 0])
        horizons.append(int(np.argmin(np.append(steps == np.arange(1, len(steps) + 1), False))))
    return horizons


def _homogeneous_unit_points(group: GroupSpec, spec: LengthFunction):
    e = group.identity()
    entries = {g: Fraction(v) for g, v in spec.table.items()}
    m = group.abelianization_rank
    for j in range(m):
        double = tuple(2 if k == j else 0 for k in range(m))
        if double not in entries:
            raise ValueError(
                "table is too small to certify: no multiple available along "
                f"coordinate direction {j + 1}"
            )
    for g, v in entries.items():
        if g == e:
            continue
        if v == 0:
            raise ValueError(
                f"table vanishes at {g!r}; pseudo-lengths certify failure via "
                "sublinearity, not facet spans"
            )
        k = 2
        while True:
            kg = tuple(k * c for c in g)
            if kg not in entries:
                break
            if entries[kg] != k * v:
                raise ValueError(
                    "table is not exactly homogeneous (l({}) != {}*l({})); a finite "
                    "table cannot certify separatedness without homogeneity".format(kg, k, g)
                )
            k += 1
    points = []
    for g, v in entries.items():
        if g == e:
            continue
        points.append(tuple(Fraction(c) / v for c in g))
    return points


def _greedy_basis(functionals) -> list[int]:
    """Indices of the first functionals that are linearly independent, in order:
    the pivot columns of the matrix whose columns are the functionals."""
    return rref(list(zip(*(f.coefficients for f in functionals))))[1]
