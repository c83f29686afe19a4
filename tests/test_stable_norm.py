from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocp import (
    GroupSpec,
    LengthFunction,
    asymptotic_length,
    central_heisenberg_table,
    facets,
    hexagonal_generators,
    stable_norm_dual,
    uniform_deviation,
)
from horocp.horoboundary import facet_functionals


def test_z_homogeneous_direction(len_z1):
    result = asymptotic_length((5,), len_z1, 12)
    assert result.value == 5.0
    assert result.fekete_gap == 0.0


def test_heisenberg_center(len_h3):
    result = asymptotic_length((0, 0, 1), len_h3, 9)
    assert result.value == pytest.approx(12 / 9)
    shorter = asymptotic_length((0, 0, 1), len_h3, 4)
    assert shorter.value >= result.value  # monotone non-increasing in the horizon
    assert result.value <= len_h3.length((0, 0, 1))


def test_hexagonal_direction(len_z2_hex):
    for i in range(1, 7):
        assert len_z2_hex.length((i, -i)) == 2 * i  # BFS oracle
    result = asymptotic_length((1, -1), len_z2_hex, 12)
    assert result.value == 2.0


def test_dual_examples(z2):
    diamond = facets(z2)
    hexa = facets(z2, hexagonal_generators())
    assert stable_norm_dual((3, -2), diamond) == 5
    assert stable_norm_dual((2, 1), hexa) == 2
    assert stable_norm_dual((0, 0), diamond) == 0
    with pytest.raises(ValueError):
        stable_norm_dual((1, 0), [])


@given(st.integers(min_value=-7, max_value=7), st.integers(min_value=-7, max_value=7),
       st.integers(min_value=-5, max_value=5))
@settings(max_examples=60, deadline=None)
def test_dual_homogeneity_exact(x, y, k):
    z2 = GroupSpec.free_abelian(2)
    funs = facets(z2, hexagonal_generators())
    assert stable_norm_dual((k * x, k * y), funs) == abs(k) * stable_norm_dual((x, y), funs)


rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(st.integers(2, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_dual_matches_max_over_functionals(m, data):
    # the integer argmax against max(f(x)) in Fractions, on rational x and on
    # functionals with denominators (facets of rational symmetric point sets)
    extra = data.draw(st.lists(st.tuples(*[rational] * m), max_size=3))
    pts = [tuple(Fraction(s if i == j else 0) for i in range(m)) for j in range(m) for s in (2, -1)]
    pts += [p for q in extra for p in (q, tuple(-c for c in q))]
    funs = facet_functionals(pts, m)
    for x in data.draw(st.lists(st.tuples(*[rational] * m), min_size=1, max_size=5)):
        assert stable_norm_dual(x, funs) == max(f(x) for f in funs)


def test_oracle_agreement_small(len_z2, len_z2_hex, z2):
    rng = np.random.default_rng(3)
    for spec, gens in ((len_z2, None), (len_z2_hex, hexagonal_generators())):
        funs = facets(z2, gens)
        ball = spec.ball(5)
        picks = rng.choice(len(ball), size=6, replace=False)
        for idx in picks:
            g = ball.elements[int(idx)]
            if g == (0, 0):
                continue
            fekete = asymptotic_length(g, spec, 20)
            dual = float(stable_norm_dual(g, funs))
            assert abs(fekete.value - dual) <= fekete.fekete_gap + 1e-9


def test_bilipschitz_lower_bound(z2):
    # dual norm >= l1 / max_s |s|_1, witnessed pointwise
    for gens, c_s in ((None, 1), (hexagonal_generators(), 2)):
        funs = facets(z2, gens)
        for point in [(1, 0), (2, -3), (4, 4), (-5, 2)]:
            l1 = abs(point[0]) + abs(point[1])
            assert stable_norm_dual(point, funs) >= Fraction(l1, c_s)


def test_uniform_deviation_z(len_z1, z1):
    funs = facets(z1)
    ball = len_z1.ball(10)
    report = uniform_deviation((1,), 5, ball, len_z1, funs)
    assert report.deviation == 0.0


def test_uniform_deviation_hexagonal_envelope(len_z2_hex, z2):
    funs = facets(z2, hexagonal_generators())
    ball = len_z2_hex.ball(12)
    report = uniform_deviation((1, 0), 8, ball, len_z2_hex, funs)
    assert report.deviation <= report.envelope + 1e-12


def test_uniform_deviation_sublinear_center(z1):
    # central Heisenberg lengths: no uniform convergence to a non-zero norm
    spec = LengthFunction.explicit_table(z1, central_heisenberg_table(64))
    ball = spec.ball(10)
    report = uniform_deviation((1,), 4, ball, spec, None)
    assert report.deviation > 1.0


def test_asymptotic_length_rejects_noncentral(len_h3):
    with pytest.raises(ValueError):
        asymptotic_length((1, 0, 0), len_h3, 5)
