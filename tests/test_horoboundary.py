import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocp import (
    DegeneratePolytopeError,
    GroupSpec,
    RaySpec,
    busemann_along_ray,
    check_ray_geodesic,
    cocycle_defect,
    facets,
    hexagonal_generators,
    phi,
    H3_A,
    H3_B,
    LengthFunction,
    NormSpec,
)
from horocp.groups import _integer_row, _polytope_vertices, rref
from horocp.horoboundary import facet_functionals


def _solve_linear(rows, rhs):
    """Exact rational solve of a square system; None if singular (the
    per-subset Fraction elimination the polytope kernel replaced)."""
    m = len(rows)
    mat, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots != list(range(m)):
        return None
    return tuple(r[m] for r in mat)


def test_phi_examples(len_z1, len_z2):
    ball = len_z1.ball(8)
    values = phi((2,), ball)
    assert values((5,)) == 2
    assert values((0,)) == -2  # phi_g(e) = -l(g)
    ident = phi((0,), ball)
    assert all(v == 0 for v in ident.values.values())
    ball2 = len_z2.ball(5)
    assert phi((1, 0), ball2)((-3, 0)) == -1


def test_phi_bound_and_peak(len_z2):
    ball = len_z2.ball(6)
    for g in [(1, 1), (2, -1), (0, 3)]:
        values = phi(g, ball)
        lg = len_z2.length(g)
        assert all(abs(v) <= lg for v in values.values.values())
        assert values(g) == lg


def test_cocycle_zero_z2(len_z2):
    rng = np.random.default_rng(11)
    ball = len_z2.ball(10)
    small = len_z2.ball(4)
    for _ in range(30):
        i, j = rng.integers(0, len(small), size=2)
        assert cocycle_defect(small.elements[int(i)], small.elements[int(j)], ball) == 0


def test_cocycle_zero_h3(len_h3):
    ball = len_h3.ball(6)
    letters = [H3_A, H3_B, (0, 0, 1)]
    for g in letters:
        for h in letters:
            assert cocycle_defect(g, h, ball) == 0
    e = len_h3.group.identity()
    assert cocycle_defect(e, e, ball) == 0


@pytest.mark.parametrize("make", [
    lambda: LengthFunction.word(GroupSpec.free_abelian(2), hexagonal_generators()),
    lambda: LengthFunction.word(GroupSpec.heisenberg3()),
    lambda: LengthFunction.norm_restriction(GroupSpec.free_abelian(2), NormSpec.l2()),
    lambda: LengthFunction.explicit_table(
        GroupSpec.free_abelian(1),
        {(k,): Fraction(3 * abs(k) + 1, 3) if k else Fraction(0) for k in range(-30, 31)}),
], ids=["word-z2", "word-h3", "norm-l2", "table"])
def test_phi_reads_the_balls_own_lengths(make, monkeypatch):
    # phi and cocycle_defect used to look the ball's own lengths up again
    spec, other = make(), make()
    ball, other_ball = spec.ball(4), other.ball(4)
    looked_up = other.lengths(ball.coords)
    assert ball.lengths.dtype == looked_up.dtype
    assert ball.lengths.tolist() == looked_up.tolist()
    g, h = ball.elements[1], ball.elements[-1]
    assert phi(g, ball).values == phi(g, other_ball).values
    assert cocycle_defect(g, h, ball) == cocycle_defect(g, h, other_ball)
    # the length function that grew the ball may be named again, no other
    assert phi(g, ball, spec).values == phi(g, ball).values
    assert cocycle_defect(g, h, ball, spec) == cocycle_defect(g, h, ball)
    for fn in (lambda: phi(g, ball, other), lambda: cocycle_defect(g, h, ball, other)):
        with pytest.raises(ValueError, match="grew the ball"):
            fn()
    calls = []
    lengths = LengthFunction.lengths
    monkeypatch.setattr(LengthFunction, "lengths",
                        lambda self, points: calls.append(1) or lengths(self, points))
    phi(g, ball)
    assert len(calls) == 1
    cocycle_defect(g, h, ball)
    assert len(calls) == 3


def test_facets_diamond(z2):
    funs = facets(z2)
    coeffs = {f.coefficients for f in funs}
    one = Fraction(1)
    assert coeffs == {(one, one), (one, -one), (-one, one), (-one, -one)}
    through = [f for f in funs if f.coefficients == (one, one)]
    assert through[0].facet == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))


def test_facets_segment(z1):
    funs = facets(z1)
    assert {f.coefficients for f in funs} == {(Fraction(1),), (Fraction(-1),)}


def test_facets_heisenberg_projects_to_diamond(h3):
    funs = facets(h3)
    one = Fraction(1)
    assert {f.coefficients for f in funs} == {
        (one, one), (one, -one), (-one, one), (-one, -one)
    }


def test_facets_hexagonal(z2):
    funs = facets(z2, hexagonal_generators())
    one = Fraction(1)
    zero = Fraction(0)
    assert {f.coefficients for f in funs} == {
        (one, zero), (-one, zero), (zero, one), (zero, -one),
        (one, -one), (-one, one),
    }


def test_facets_z3_cross_polytope(z3):
    funs = facets(z3)
    assert len(funs) == 8  # octahedron
    for f in funs:
        assert all(abs(c) == 1 for c in f.coefficients)


def test_support_functional_contract(z2):
    for gens in (None, hexagonal_generators()):
        funs = facets(z2, gens)
        points = [z2.abelianization(s) for s in (gens or z2.generators)]
        for f in funs:
            values = [f(p) for p in points]
            assert all(v <= 1 for v in values)
            contact = {tuple(Fraction(c) for c in p) for p, v in zip(points, values) if v == 1}
            assert contact == set(f.facet)


def test_facets_match_float_hull_oracle():
    scipy_spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(5)
    for _ in range(10):
        pts = rng.integers(-4, 5, size=(6, 2))
        pts = np.vstack([pts, -pts])
        pts = np.unique(pts, axis=0)
        if np.linalg.matrix_rank(pts) < 2 or not pts.any():
            continue
        # hull needs 0 strictly inside; symmetric full-rank integer sets qualify
        try:
            funs = facet_functionals([tuple(map(Fraction, map(int, p))) for p in pts], 2)
        except DegeneratePolytopeError:
            continue
        oracle = scipy_spatial.ConvexHull(pts.astype(float))
        assert len(funs) == len(oracle.simplices)


def test_facets_come_in_opposite_pairs(z1, z2, z3):
    for group, gens in ((z1, None), (z2, None), (z2, hexagonal_generators()), (z3, None)):
        funs = facets(group, gens)
        coeffs = {f.coefficients for f in funs}
        assert coeffs == {tuple(-c for c in row) for row in coeffs}


def test_facets_degenerate_names_hyperplane(z2):
    with pytest.raises(DegeneratePolytopeError) as err:
        facets(z2, generators=((1, 0), (-1, 0)))
    assert "hyperplane" in str(err.value)


def test_busemann_z_ray(len_z1):
    ray = RaySpec.lattice_direction(len_z1.group, [1], 20)
    est = busemann_along_ray(ray, (3,), len_z1)
    assert est.value == 3.0
    assert est.tail_variation == 0.0
    assert -3.0 <= est.value <= 3.0


def test_busemann_diagonal_matches_support_functional(len_z2, z2):
    ray = RaySpec.lattice_direction(z2, [Fraction(1, 2), Fraction(1, 2)], 20)
    est = busemann_along_ray(ray, (1, 0), len_z2)
    assert est.tail_variation == 0.0
    funs = facets(z2)
    sigma = next(f for f in funs if f.coefficients == (Fraction(1), Fraction(1)))
    assert est.value == float(sigma((1, 0)))


def test_busemann_heisenberg_facet_word(len_h3, h3):
    ray = RaySpec.word_repetition(h3, [H3_A, H3_B], 6)
    est = busemann_along_ray(ray, H3_A, len_h3)
    funs = facets(h3)
    sigma = next(f for f in funs if f.coefficients == (Fraction(1), Fraction(1)))
    assert est.tail_variation == 0.0
    assert est.value == float(sigma(h3.abelianization(H3_A))) == 1.0


def test_ray_geodesic_checks(len_z1, len_h3, h3):
    ray = RaySpec.lattice_direction(len_z1.group, [1], 12)
    assert check_ray_geodesic(ray, len_z1).max_defect == 0.0
    word_ray = RaySpec.word_repetition(h3, [H3_A, H3_B], 6)
    assert check_ray_geodesic(word_ray, len_h3).max_defect == 0.0
    for k in range(1, 7):
        assert len_h3.length(h3.power(h3.multiply(H3_A, H3_B), k)) == 2 * k
    bad = RaySpec.word_repetition(len_z1.group, [(1,), (-1,)], 4)
    assert check_ray_geodesic(bad, len_z1).max_defect > 0


def test_degenerate_normal_is_orthogonal_to_generators(z3):
    gens = ((1, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1), (2, 2, 1), (-2, -2, -1))
    with pytest.raises(DegeneratePolytopeError) as err:
        facets(z3, generators=gens)
    normal = err.value.normal
    assert any(normal) and all(sum(a * b for a, b in zip(normal, g)) == 0 for g in gens)


def fraction_facets(pts, m):
    """Facets by brute force in Fraction arithmetic: every m points whose
    hyperplane sigma = 1 has no point above it."""
    def dot(sigma, p):
        return sum((a * b for a, b in zip(sigma, p)), Fraction(0))

    out = {}
    for subset in combinations(pts, m):
        sigma = _solve_linear([list(p) for p in subset], [Fraction(1)] * m)
        if sigma is not None and all(dot(sigma, p) <= 1 for p in pts):
            out[sigma] = tuple(sorted(p for p in pts if dot(sigma, p) == 1))
    return sorted(out.items())


rational = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@given(st.integers(2, 3).flatmap(lambda m: st.lists(st.tuples(*[rational] * m), min_size=1,
                                                       max_size=5)))
@settings(max_examples=80, deadline=None)
def test_facets_of_rational_points_match_fraction_arithmetic(extra):
    # the integer facet tests and functional values against Fraction
    # arithmetic, on points with denominators (as from length tables)
    m = len(extra[0])
    pts = list(dict.fromkeys(axes(m) + [tuple(map(Fraction, p)) for p in extra]))
    funs = facet_functionals(pts, m)
    assert [(f.coefficients, f.facet) for f in funs] == fraction_facets(pts, m)
    for f in funs:
        for x in extra:
            assert f(x) == sum((c * Fraction(v) for c, v in zip(f.coefficients, x)), Fraction(0))


def loop_polytope_vertices(functionals, dim):
    """The vertex loop the kernel replaced: every dim-subset's Fraction solve
    of sigma(x) = 1, kept when no functional exceeds 1 at x."""
    rows = [tuple(map(Fraction, f)) for f in functionals]
    verts = []
    for subset in combinations(rows, dim):
        x = _solve_linear(subset, [Fraction(1)] * dim)
        if x is not None and x not in verts and all(
                sum(f * c for f, c in zip(row, x)) <= 1 for row in rows):
            verts.append(x)
    return verts


def axes(m):
    return [tuple(Fraction(s if i == j else 0) for i in range(m)) for j in range(m) for s in (1, -1)]


def assert_hull_functionals(funs, pts):
    """Each functional is within 1e-9 of an equation of scipy's float hull,
    and each equation of one functional (coplanar simplices share one)."""
    scipy_spatial = pytest.importorskip("scipy.spatial")
    eqs = scipy_spatial.ConvexHull(np.array(pts, dtype=float)).equations
    hull = -eqs[:, :-1] / eqs[:, -1:]
    ours = np.array([[float(c) for c in f.coefficients] for f in funs])
    close = np.abs(hull[:, None, :] - ours[None, :, :]).max(axis=2) < 1e-9
    assert close.any(axis=0).all() and close.any(axis=1).all()


halves = st.sampled_from([Fraction(k, 2) for k in range(-2, 3)])


@given(st.integers(3, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_facets_match_fraction_loop_and_hull(m, data):
    # the polytope kernel against the per-subset Fraction loop and scipy, on
    # the cross-polytope plus rational points; half-integer points such as
    # (1/2, 1/2, 0) lie on its facets (coplanar boundary points), and some
    # points come twice
    extra = data.draw(st.lists(st.tuples(*[st.one_of(halves, rational)] * m), max_size=6 - m))
    if extra:
        extra += data.draw(st.lists(st.sampled_from(extra), max_size=2))
    pts = axes(m) + [tuple(map(Fraction, p)) for p in extra]
    funs = facet_functionals(pts, m)
    assert [(f.coefficients, f.facet) for f in funs] == fraction_facets(list(dict.fromkeys(pts)), m)
    assert_hull_functionals(funs, pts)


@pytest.mark.parametrize("m", [3, 4])
def test_kernel_python_int_branch_matches_fraction_loop(m):
    # denominators of 2**62 put (m+1)! max|entry|^(m+1) above 2**63, so the
    # kernel runs on Python ints; (1/2 + eps, 1/2, 0, ...) sits eps outside
    # a facet of the cross-polytope, which floats would not see
    eps = Fraction(1, 2**62)
    pad = (Fraction(0),) * (m - 2)
    pts = axes(m) + [(Fraction(1, 2) + eps, Fraction(1, 2)) + pad,
                     (Fraction(1, 3), -eps) + pad, (Fraction(1, 2), Fraction(1, 2)) + pad]
    assert math.factorial(m + 1) * max(_integer_row(p)[1] for p in pts) ** (m + 1) >= 2**63
    funs = facet_functionals(pts, m)
    assert [(f.coefficients, f.facet) for f in funs] == fraction_facets(pts, m)


@pytest.mark.parametrize("pts", [
    [(2, -1), (2, 1), (4, -1), (4, 1)],  # the unit square shifted by 3 e1
    [(c[0] + 3, *c[1:]) for c in product((-1, 1), repeat=3)],  # the cube
    [(0, -1), (0, 1), (2, -1), (2, 1)],  # 0 on an edge
    [(1, 0), (0, 1)],  # a segment off 0: spans, but has no interior
])
def test_facets_refuse_a_hull_without_0_inside(pts):
    # the brute-force and planar paths returned functionals here (the square
    # gave sigma = (1/2, 0), violated at (4, +-1); the cube five functionals)
    m = len(pts[0])
    with pytest.raises(DegeneratePolytopeError, match="half-space") as err:
        facet_functionals([tuple(map(Fraction, p)) for p in pts], m)
    normal = err.value.normal
    assert any(normal) and all(sum(a * b for a, b in zip(normal, p)) <= 0 for p in pts)


def test_facets_keep_the_segment_error():
    # the m = 1 error named the hyperplane {x1 = 0}, which holds neither set
    for pts, side in (([(1,), (2,)], -1), ([(-1,), (0,), (-3,)], 1)):
        with pytest.raises(DegeneratePolytopeError,
                           match=rf"half-space \{{x : \({side}\)\*x1 <= 0\}}") as err:
            facet_functionals([tuple(map(Fraction, p)) for p in pts], 1)
        assert err.value.normal == (Fraction(side),)


@given(st.integers(2, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_polytope_vertices_match_fraction_loop(m, data):
    # box_halfwidth of polytope norms through the kernel against the old loop
    extra = data.draw(st.lists(st.tuples(*[rational] * m), max_size=4))
    functionals = axes(m) + [tuple(map(Fraction, f)) for f in extra]
    verts = loop_polytope_vertices(functionals, m)
    assert set(_polytope_vertices(functionals, m)) == set(verts)
    assert NormSpec.polytope(functionals).box_halfwidth(m) == [
        max(abs(v[i]) for v in verts) for i in range(m)]


def test_polytope_norm_refuses_an_unbounded_ball():
    # x1 <= 1 and x2 <= 1 span but bound nothing below; the loop returned
    # the lone vertex (1, 1) and with it a halfwidth of [1, 1]
    assert loop_polytope_vertices([(1, 0), (0, 1)], 2) == [(1, 1)]
    with pytest.raises(ValueError, match="unbounded"):
        NormSpec.polytope([(1, 0), (0, 1)]).box_halfwidth(2)


def loop_busemann(ray, g, spec):
    """busemann_along_ray's evaluations, one length lookup at a time."""
    group = ray.group
    g_inv = group.inverse(g)
    return [float(spec.length(x) - spec.length(group.multiply(g_inv, x))) for _, x in ray.schedule[1:]]


def loop_geodesic(ray, spec):
    """check_ray_geodesic's (max defect, pairs), one pair at a time."""
    group, sched = ray.group, ray.schedule
    worst, count = 0.0, 0
    for i in range(1, len(sched)):
        s, xs = sched[i]
        ls = float(spec.length(xs))
        for t, xt in sched[i:]:
            d = float(spec.length(group.multiply(group.inverse(xs), xt)))
            worst, count = max(worst, abs(d + ls - t)), count + 1
    return worst, count


def ray_cases():
    z1, z2, h3 = GroupSpec.free_abelian(1), GroupSpec.free_abelian(2), GroupSpec.heisenberg3()
    thirds = {(k,): Fraction(3 * abs(k) + 1, 3) if k else Fraction(0) for k in range(-30, 31)}
    return [
        (RaySpec.lattice_direction(z1, [1], 12), (3,), LengthFunction.word(z1)),
        (RaySpec.word_repetition(z1, [(1,), (-1,)], 4), (1,), LengthFunction.word(z1)),
        (RaySpec.lattice_direction(z2, [2, 1], 8), (1, -1),
         LengthFunction.word(z2, hexagonal_generators())),
        (RaySpec.lattice_direction(z2, [1, 1], 6), (0, 1),
         LengthFunction.norm_restriction(z2, NormSpec.l2())),
        (RaySpec.word_repetition(h3, [H3_A, H3_B, H3_B], 5), H3_A, LengthFunction.word(h3)),
        (RaySpec.lattice_direction(z1, [2], 10), (2,), LengthFunction.explicit_table(z1, thirds)),
    ]


@pytest.mark.parametrize("case", range(6))
def test_gathered_rays_match_loops(case):
    # one gathered lookup per call gives the per-element loops' floats
    ray, g, spec = ray_cases()[case]
    _, _, ref = ray_cases()[case]
    est = busemann_along_ray(ray, g, spec)
    assert list(est.evaluations) == loop_busemann(ray, g, ref)
    for prefix in (ray, RaySpec(ray.group, ray.schedule[:4])):  # the whole ray, its first 3 steps
        report = check_ray_geodesic(prefix, spec)
        assert (report.max_defect, report.pairs_checked) == loop_geodesic(prefix, ref)


def test_gathered_rays_keep_the_first_error():
    # a table that ends inside the ray: the gathered lookups raise the error
    # the per-element loop met first
    z1 = GroupSpec.free_abelian(1)
    spec = LengthFunction.explicit_table(z1, {(k,): abs(k) for k in range(-5, 6)})
    ray = RaySpec.lattice_direction(z1, [1], 8)
    for fn in (lambda s: busemann_along_ray(ray, (2,), s), lambda s: loop_busemann(ray, (2,), s),
               lambda s: check_ray_geodesic(ray, s), lambda s: loop_geodesic(ray, s)):
        with pytest.raises(ValueError, match=r"\(6,\) is outside the tabulated domain"):
            fn(spec)
