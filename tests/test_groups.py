import math
import pickle
import time
import tracemalloc
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horocp import (
    BallCapError,
    CoordinateOverflowError,
    GroupMismatchError,
    GroupSpec,
    LengthFunction,
    NormSpec,
    H3_A,
    H3_B,
    H3_C,
    central_heisenberg_table,
    hexagonal_generators,
)
from horocp.groups import FREE_ABELIAN, rref


def test_heisenberg_product():
    h3 = GroupSpec.heisenberg3()
    assert h3.multiply((1, 0, 0), (0, 1, 0)) == (1, 1, 1)


def test_inverse_examples():
    z2 = GroupSpec.free_abelian(2)
    assert z2.inverse((3, -2)) == (-3, 2)
    c4 = GroupSpec.finite_cyclic(4)
    assert c4.multiply((3,), (2,)) == (1,)
    assert c4.inverse((3,)) == (1,)


def test_heisenberg_commutator_is_c():
    h3 = GroupSpec.heisenberg3()
    a_inv, b_inv = h3.inverse(H3_A), h3.inverse(H3_B)
    comm = h3.multiply(h3.multiply(a_inv, b_inv), h3.multiply(H3_A, H3_B))
    assert comm == H3_C


small_ints = st.integers(min_value=-5, max_value=5)


@st.composite
def group_and_elements(draw):
    kind = draw(st.sampled_from(["z2", "h3", "c6", "zxc"]))
    if kind == "z2":
        g = GroupSpec.free_abelian(2)
        elem = st.tuples(small_ints, small_ints)
    elif kind == "h3":
        g = GroupSpec.heisenberg3()
        elem = st.tuples(small_ints, small_ints, small_ints)
    elif kind == "c6":
        g = GroupSpec.finite_cyclic(6)
        elem = st.tuples(st.integers(min_value=0, max_value=5))
    else:
        g = GroupSpec.free_abelian_times_cyclic(1, 3)
        elem = st.tuples(small_ints, st.integers(min_value=0, max_value=2))
    return g, draw(elem), draw(elem), draw(elem)


@given(group_and_elements())
@settings(max_examples=120, deadline=None)
def test_group_axioms(data):
    g, a, b, c = data
    e = g.identity()
    assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))
    assert g.multiply(a, e) == a and g.multiply(e, a) == a
    assert g.multiply(a, g.inverse(a)) == e
    assert g.inverse(g.inverse(a)) == a


@pytest.mark.parametrize("group", [GroupSpec.free_abelian(2), GroupSpec.heisenberg3(),
                                   GroupSpec.finite_cyclic(6),
                                   GroupSpec.free_abelian_times_cyclic(1, 3)])
def test_group_spec_pickles(group):
    copy = pickle.loads(pickle.dumps(group))
    assert copy == group and copy.multiply(group.generators[0], group.generators[-1]) \
        == group.multiply(group.generators[0], group.generators[-1])


def test_word_length_z2_matches_l1_oracle(len_z2):
    # independent oracle: standard generators realize the l1 norm
    assert len_z2.length((3, -2)) == 5
    for g in len_z2.ball(6):
        assert len_z2.length(g) == abs(g[0]) + abs(g[1])


def test_ball_count_z(len_z1):
    assert len(len_z1.ball(3)) == 7


@pytest.mark.parametrize("make", [
    lambda z: LengthFunction.word(z),
    lambda z: LengthFunction.norm_restriction(z, NormSpec.l2()),
    lambda z: LengthFunction.explicit_table(z, {(1,): 1, (-1,): 1}),
], ids=["word", "norm", "table"])
def test_ball_refuses_a_negative_or_nan_radius(make):
    # a NaN radius failed inside the word and norm balls ("cannot convert
    # float NaN to integer", "... NaN to integer ratio") and gave a table
    # ball of the identity alone
    spec = make(GroupSpec.free_abelian(1))
    for radius in (-1, -0.5, math.nan):
        with pytest.raises(ValueError, match=f"radius must be non-negative, got {radius}"):
            spec.ball(radius)


def test_ball_order_deterministic(len_z2):
    ball = len_z2.ball(4)
    assert ball.elements[0] == (0, 0)
    keys = [(ball.values[g], g) for g in ball.elements[1:]]
    assert keys == sorted(keys)
    again = LengthFunction.word(GroupSpec.free_abelian(2)).ball(4)
    assert again.elements == ball.elements


def test_ball_monotone_in_radius(len_z2):
    sizes = [len(len_z2.ball(r)) for r in range(6)]
    assert sizes == sorted(sizes)


def test_heisenberg_central_length(len_h3):
    assert len_h3.length(H3_C) == 4


def test_finite_cyclic_word_length_matches_formula():
    c6 = GroupSpec.finite_cyclic(6)
    spec = LengthFunction.word(c6)
    for k in range(6):
        assert spec.length((k,)) == min(k, 6 - k)
    ball = spec.ball(math.inf)
    assert len(ball) == 6 and ball.complete_group


def test_axioms_word_length(len_z1):
    report = len_z1.check_axioms(10)
    assert report.max_violation == 0


def test_axioms_norm_restriction():
    z2 = GroupSpec.free_abelian(2)
    spec = LengthFunction.norm_restriction(z2, NormSpec.l1())
    assert spec.check_axioms(6).max_violation == 0


def test_axioms_corrupted_table():
    z1 = GroupSpec.free_abelian(1)
    table = {(k,): abs(k) for k in range(-6, 7)}
    table[(2,)] = 9  # breaks l(1+1) <= l(1) + l(1)
    spec = LengthFunction.explicit_table(z1, table)
    report = spec.check_axioms(6)
    assert report.max_violation > 0


def test_ball_cap_error():
    z2 = GroupSpec.free_abelian(2)
    spec = LengthFunction.word(z2, cap=10)
    with pytest.raises(BallCapError):
        spec.ball(5)


def test_norm_restriction_values():
    z2 = GroupSpec.free_abelian(2)
    assert LengthFunction.norm_restriction(z2, NormSpec.l1()).length((3, -4)) == 7
    assert LengthFunction.norm_restriction(z2, NormSpec.linf()).length((3, -4)) == 4
    l2 = LengthFunction.norm_restriction(z2, NormSpec.l2())
    assert abs(l2.length((3, -4)) - 5.0) < 1e-12


def test_polytope_norm_ball_matches_filter_oracle():
    z2 = GroupSpec.free_abelian(2)
    diamond = NormSpec.polytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    spec = LengthFunction.norm_restriction(z2, diamond)
    ball = spec.ball(3)
    expected = {
        (x, y)
        for x in range(-3, 4)
        for y in range(-3, 4)
        if abs(x) + abs(y) <= 3
    }
    assert set(ball.elements) == expected


def test_explicit_table_outside_domain():
    z1 = GroupSpec.free_abelian(1)
    spec = LengthFunction.explicit_table(z1, central_heisenberg_table(10))
    with pytest.raises(ValueError):
        spec.length((11,))
    # a ball lists canonical elements only: a key of the wrong shape is refused
    z2 = GroupSpec.free_abelian(2)
    for key in [(1,), (1.5, 0)]:
        with pytest.raises(GroupMismatchError):
            LengthFunction.explicit_table(z2, {(1, 0): 1, key: 1}).ball(1)


def test_table_ball_keeps_an_identity_above_its_radius():
    # a table may set l(e) > 0; every ball still starts at e, with its own length
    z1 = GroupSpec.free_abelian(1)
    spec = LengthFunction.explicit_table(z1, {(k,): abs(k) + 1 for k in range(-6, 7)})
    ball = spec.ball(0.5)
    assert ball.elements == ((0,),) and list(ball.lengths) == [1]
    assert spec.ball(2).elements == ((0,), (-1,), (1,))
    assert spec.check_axioms(1).identity_violation == 1.0


def test_ball_holding_grows_no_further_than_its_farthest_row():
    # the word BFS grows without matching while it holds fewer elements than
    # there are rows; a cap of exactly the answer's size shows no overshoot
    z2 = GroupSpec.free_abelian(2)
    l2_ball = LengthFunction.norm_restriction(z2, NormSpec.l2()).ball(2)
    for rows, radius in (([(0, 0), (5, 0), (-5, 0)], 5), (l2_ball.elements, 2)):
        size = len(LengthFunction.word(z2).ball(radius))
        ball = LengthFunction.word(z2, cap=size).ball_holding(np.array(rows, dtype=np.int64))
        assert ball.radius == radius and len(ball) == size
    table = LengthFunction.explicit_table(z2, {(1, 0): 2, (-1, 0): 2, (2, 0): 3, (-2, 0): 3})
    assert table.ball_holding(np.array([(0, 0), (1, 0)])).elements == ((0, 0), (-1, 0), (1, 0))
    with pytest.raises(GroupMismatchError):
        LengthFunction.word(z2, [(1, 0), (-1, 0)]).ball_holding(np.array([(0, 0), (0, 1)]))


def test_free_abelian_times_cyclic_length():
    g = GroupSpec.free_abelian_times_cyclic(1, 3)
    spec = LengthFunction.word(g)
    # (2, 1) needs two free steps and one torsion step
    assert spec.length((2, 1)) == 3
    assert spec.length((0, 2)) == 1  # the inverse torsion generator


def test_generator_validation():
    with pytest.raises(ValueError):
        GroupSpec(FREE_ABELIAN, rank=2, generators=((1, 0), (0, 1)))  # not symmetric
    with pytest.raises(ValueError):
        GroupSpec(FREE_ABELIAN, rank=1, generators=((0,), (1,), (-1,)))  # identity listed


def test_ball_cap_error_keeps_word_lengths_exact():
    # A cap hit mid-expansion must not drop the rest of that vertex's neighbours.
    spec = LengthFunction.word(GroupSpec.free_abelian(2), cap=50)
    with pytest.raises(BallCapError):
        spec.ball(10)
    spec.cap = 10**6
    assert spec.length((-5, 0)) == 5
    for g in spec.ball(8):
        assert spec.length(g) == abs(g[0]) + abs(g[1])


@given(st.sampled_from([(GroupSpec.free_abelian(2), None),
                        (GroupSpec.free_abelian(2), hexagonal_generators()),
                        (GroupSpec.heisenberg3(), None),
                        (GroupSpec.free_abelian_times_cyclic(1, 3), None),
                        (GroupSpec.finite_cyclic(12), None)]),
       st.integers(min_value=1, max_value=120), st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
def test_lengths_after_cap_error_match_fresh_instance(case, cap, radius):
    group, gens = case
    spec = LengthFunction.word(group, gens, cap=cap)
    try:
        spec.ball(radius)
    except BallCapError:
        pass
    spec.cap = 10**6
    fresh = LengthFunction.word(group, gens).ball(radius)
    resumed = spec.ball(radius)
    assert resumed.elements == fresh.elements
    assert dict(resumed.values) == dict(fresh.values)


# For each kind: a wrong coordinate count, a non-integer coordinate, and an
# out-of-range torsion residue where the kind has one.
MISMATCHED = [
    (GroupSpec.free_abelian(2), [(1, 2, 3), (1.0, 2), (1, "2")]),
    (GroupSpec.free_abelian_times_cyclic(1, 3), [(1,), (1, 2, 0), (0.5, 1), (1, 3), (1, -1)]),
    (GroupSpec.heisenberg3(), [(1, 2), (1, 2, 3, 4), (1, 2, 3.0)]),
    (GroupSpec.finite_cyclic(6), [(), (1, 2), (2.0,), (6,), (-1,)]),
]


@pytest.mark.parametrize("group,bad", [(g, b) for g, bads in MISMATCHED for b in bads])
def test_mismatched_elements_are_rejected(group, bad):
    good = group.generators[0]
    spec = LengthFunction.word(group)
    with pytest.raises(GroupMismatchError):
        group.multiply(bad, good)
    with pytest.raises(GroupMismatchError):
        group.multiply(good, bad)
    with pytest.raises(GroupMismatchError):
        group.inverse(bad)
    with pytest.raises(GroupMismatchError):
        spec.length(bad)


def cached(spec):
    """A word length's BFS cache as {element: length}, in cache order; no
    element is cached twice."""
    ends = spec._ends
    lengths = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    cache = dict(zip(map(tuple, spec._cache_rows().tolist()), lengths.tolist()))
    assert len(cache) == ends[-1]
    return cache


def test_element_off_the_generators_span_is_refused_at_once():
    # (0, 1) is not in the rational span of the images of (+-1, 0): the length
    # refuses it before growing the BFS along the x-axis.
    spec = LengthFunction.word(GroupSpec.free_abelian(2), [(1, 0), (-1, 0)])
    assert spec.length((3, 0)) == 3
    cache = cached(spec)
    started = time.perf_counter()
    with pytest.raises(GroupMismatchError, match="not generated"):
        spec.length((0, 1))
    assert time.perf_counter() - started < 0.1
    assert cached(spec) == cache


# Elements in the rational span of the generators but not in their integer
# span (with the torsion relation): refused at once, not after the BFS has
# grown to the cap.  On H3 the test runs on p(g); (1, 0, 0) has p = (1, 0)
# outside 2Z x Z.
OFF_LATTICE = [
    (GroupSpec.free_abelian(1), [(2,), (-2,)], (1,)),
    (GroupSpec.free_abelian_times_cyclic(1, 3), [(1, 0), (-1, 0)], (0, 1)),
    (GroupSpec.free_abelian(2), [(2, 0), (-2, 0), (0, 1), (0, -1)], (1, 0)),
    (GroupSpec.heisenberg3(), [(2, 0, 0), (-2, 0, 0), H3_B, (0, -1, 0)], H3_A),
    # p(c) = 0 is in the span, but every product of these generators has an
    # even central coordinate: the Mal'cev sift refuses c
    (GroupSpec.heisenberg3(), [(2, 0, 0), (-2, 0, 0), H3_B, (0, -1, 0)], H3_C),
]


@pytest.mark.parametrize("group,gens,g", OFF_LATTICE,
                         ids=["Z-2", "ZxC3", "Z2-2e1", "H3-a2", "H3-centre"])
def test_element_outside_the_integer_span_is_refused_at_once(group, gens, g):
    spec = LengthFunction.word(group, gens, cap=200_000)
    assert spec.length(gens[0]) == 1
    cache = cached(spec)
    started = time.perf_counter()
    with pytest.raises(GroupMismatchError, match="not generated"):
        spec.length(g)
    assert time.perf_counter() - started < 0.1
    assert cached(spec) == cache


def lattice_bfs(gens, torsion, target, cap=20_000):
    """Independent oracle: is target reached from 0 by the generator steps?"""
    def step(u, s):
        w = [a + b for a, b in zip(u, s)]
        if torsion:
            w[-1] %= torsion
        return tuple(w)

    origin = (0,) * len(target)
    seen, frontier = {origin}, [origin]
    while frontier and target not in seen and len(seen) < cap:
        nxt = []
        for u in frontier:
            for s in gens:
                v = step(u, s)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return target in seen


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=3),
       st.sampled_from([0, 2, 3, 4]), st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
@settings(max_examples=60, deadline=None)
def test_integer_span_check_matches_reachability(steps, torsion, target):
    # Z^2 (torsion 0) or Z x Z/n with the residue last
    if torsion:
        steps = [(a, b % torsion) for a, b in steps]
        target = (target[0], target[1] % torsion)
        group = GroupSpec.free_abelian_times_cyclic(1, torsion)
    else:
        group = GroupSpec.free_abelian(2)
    gens = {s for s in steps if any(s)} | {group.inverse(s) for s in steps if any(s)}
    gens.discard(group.identity())
    if not gens:
        return
    spec = LengthFunction.word(group, sorted(gens), cap=10**6)
    if lattice_bfs(gens, torsion, target):
        assert spec.length(target) >= 0
    else:
        with pytest.raises(GroupMismatchError, match="not generated"):
            spec.length(target)


def reference_ball(group, gens, radius):
    """Independent BFS, sphere by sphere: {element: length} up to floor(radius)."""
    dist = {group.identity(): 0}
    frontier = [group.identity()]
    k = 0
    while frontier and k + 1 <= radius:
        k += 1
        nxt = []
        for u in frontier:
            for s in gens:
                v = group.multiply(u, s)
                if v not in dist:
                    dist[v] = k
                    nxt.append(v)
        frontier = nxt
    return dist


BALL_ORDER_CASES = [(GroupSpec.free_abelian(2), None),
                    (GroupSpec.free_abelian(2), hexagonal_generators()),
                    (GroupSpec.heisenberg3(), None),
                    (GroupSpec.free_abelian_times_cyclic(1, 3), None),
                    (GroupSpec.finite_cyclic(12), None)]

ball_ops = st.lists(st.one_of(
    st.tuples(st.just("ball"), st.integers(0, 28).map(lambda q: q / 4)),
    st.tuples(st.just("length"), st.integers(0, 10**6)),
    st.tuples(st.just("cap"), st.integers(1, 120), st.integers(1, 7))), max_size=8)


@given(st.sampled_from(BALL_ORDER_CASES), ball_ops)
@settings(max_examples=60, deadline=None)
def test_ball_is_sorted_prefix_of_the_cache(case, ops):
    # Lazy lengths, cap errors and balls at fractional radii in any order: every
    # ball is the (length, element)-sorted reference ball, and index[g] is g's
    # position in it.
    group, gens = case
    gens = gens or group.generators
    spec = LengthFunction.word(group, gens)
    ref = reference_ball(group, gens, 7)

    def check_ball(radius):
        ball = spec.ball(radius)
        expect = sorted((g for g, d in ref.items() if d <= radius), key=lambda g: (ref[g], g))
        assert ball.elements == tuple(expect)
        assert dict(ball.values) == {g: ref[g] for g in expect}
        assert all(ball.index[g] == i for i, g in enumerate(expect))
        assert len(ball.index) == len(expect)

    far = sorted(ref, key=lambda g: (ref[g], g))
    for op in ops:
        if op[0] == "ball":
            check_ball(op[1])
        elif op[0] == "length":
            g = far[op[1] % len(far)]
            assert spec.length(g) == ref[g]
        else:
            spec.cap = op[1]
            try:
                spec.ball(op[2] + 0.5)
            except BallCapError:
                pass
            spec.cap = 10**6
    for radius in (0, 2.5, 7):
        check_ball(radius)
    if group.is_finite:
        check_ball(math.inf)


def dict_bfs(group, gens, radius):
    """Independent word-length BFS, one element at a time from a queue.

    Returns ({element: length} for length <= radius, [number of elements of
    length <= k for each non-empty sphere k <= radius], complete), where
    complete means that sphere floor(radius) is empty (at an infinite radius,
    that the BFS ran out): the ball is the whole group.
    """
    e = group.identity()
    dist = {e: 0}
    queue = deque([e])
    while queue:
        u = queue.popleft()
        if dist[u] > radius:
            break
        for s in gens:
            v = group.multiply(u, s)
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    inside = {g: d for g, d in dist.items() if d <= radius}
    top = max(inside.values())
    ends = [sum(1 for d in inside.values() if d <= k) for k in range(top + 1)]
    return inside, ends, radius == math.inf or top < math.floor(radius)


def h3_nonstandard():
    h3 = GroupSpec.heisenberg3()
    gens = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    return h3, gens + [h3.inverse(s) for s in gens]


SPHERE_CASES = {
    "Z1": (GroupSpec.free_abelian(1), None, 12),
    "Z2": (GroupSpec.free_abelian(2), None, 9),
    "Z2-hex": (GroupSpec.free_abelian(2), hexagonal_generators(), 9),
    "ZxC3": (GroupSpec.free_abelian_times_cyclic(1, 3), None, 8),
    "H3": (GroupSpec.heisenberg3(), None, 8),
    "H3-nonstandard": (*h3_nonstandard(), 6),
    "C7-inf": (GroupSpec.finite_cyclic(7), None, math.inf),
    "C7-3": (GroupSpec.finite_cyclic(7), None, 3),
    "C7-4": (GroupSpec.finite_cyclic(7), None, 4.5),
}


@pytest.mark.parametrize("case", SPHERE_CASES.values(), ids=SPHERE_CASES.keys())
def test_whole_sphere_bfs_matches_per_element_bfs(case):
    group, gens, radius = case
    gens = gens or group.generators
    spec = LengthFunction.word(group, gens)
    ball = spec.ball(radius)
    dist, ends, complete = dict_bfs(group, gens, radius)
    order = sorted(dist, key=lambda g: (dist[g], g))
    # the cache holds exactly the spheres up to the radius, in (length, tuple) order
    assert cached(spec) == dist
    assert list(cached(spec)) == order
    assert spec._ends == ends
    assert ball.elements == tuple(order)
    assert dict(ball.values) == dist
    assert ball.complete_group == complete


def test_ball_cap_keeps_whole_spheres_and_resumes():
    group, gens, _ = SPHERE_CASES["H3-nonstandard"]
    spec = LengthFunction.word(group, gens, cap=1000)
    with pytest.raises(BallCapError, match="while expanding radius"):
        spec.ball(10)
    cache, ends = list(cached(spec).items()), list(spec._ends)
    assert len(cache) <= 1000
    # what is cached is exact: the whole spheres below the one refused
    dist, ref_ends, _ = dict_bfs(group, gens, len(ends) - 1)
    assert dict(cache) == dist and ends == ref_ends
    far = max(dict_bfs(group, gens, len(ends))[0].items(), key=lambda kv: kv[1])[0]
    with pytest.raises(BallCapError):
        spec.length(far)
    assert list(cached(spec).items()) == cache and spec._ends == ends
    spec.cap = 10**6
    fresh = LengthFunction.word(group, gens).ball(10)
    resumed = spec.ball(10)
    assert resumed.elements == fresh.elements
    assert dict(resumed.values) == dict(fresh.values)
    assert spec.length(far) == len(ends)


def test_ball_cap_counts_whole_spheres():
    # Z2 balls hold 1, 5, 13, 25 elements: a cap of 25 admits ball(3) exactly,
    # and a cap of 24 refuses its last sphere and keeps the three before it
    z2 = GroupSpec.free_abelian(2)
    assert len(LengthFunction.word(z2, cap=25).ball(3)) == 25
    spec = LengthFunction.word(z2, cap=24)
    with pytest.raises(BallCapError, match="radius 3"):
        spec.ball(3)
    assert len(cached(spec)) == 13 and spec._ends == [1, 5, 13]


def test_bfs_refuses_keys_beyond_int64():
    # three coordinates spanning 2**31 + 1 values each: the box has about
    # 2**93 points, so the sphere keys cannot be int64
    big = 2**30
    z3 = GroupSpec.free_abelian(3)
    gens = [(big, 0, 0), (-big, 0, 0), (0, big, 0), (0, -big, 0), (0, 0, big), (0, 0, -big)]
    spec = LengthFunction.word(z3, gens)
    with pytest.raises(CoordinateOverflowError, match="int64"):
        spec.length((big, 0, 0))
    assert cached(spec) == {(0, 0, 0): 0} and spec._ends == [1]
    # one coordinate: the keys fit, but radius 2 passes the coordinate limit
    z1 = LengthFunction.word(GroupSpec.free_abelian(1), [(big,), (-big,)], cap=100)
    assert z1.length((-big,)) == 1
    with pytest.raises(CoordinateOverflowError, match="limit"):
        z1.length((2 * big,))


def test_bfs_checks_the_limit_before_narrowing():
    # 2**16 x 2**16 = 2**32 in the centre of H3 wraps to 0 in int32: the
    # limit is tested on the int64 translates, so ball(2) is refused and the
    # cache keeps ball(1)
    b = 2**16
    spec = LengthFunction.word(GroupSpec.heisenberg3(), [(b, 0, 0), (-b, 0, 0), (0, b, 0), (0, -b, 0)])
    assert len(spec.ball(1)) == 5
    with pytest.raises(CoordinateOverflowError, match="translation limit"):
        spec.ball(2)
    assert spec._ends == [1, 5]


def test_h3_sphere_step_keeps_translates_int32():
    # the radius 21 -> 22 step translates a 14,676-row sphere by 4 generators;
    # the stack of translates is int32 (704 kB; int64 would double it)
    spec = LengthFunction.word(GroupSpec.heisenberg3())
    spec.ball(21)
    tracemalloc.start()
    try:
        new = spec._grow()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(new) == 16_934 and spec._ends[-1] == 99_689
    assert peak < 2.1e6


def fraction_rref(rows):
    """Plain Gauss-Jordan over Fractions, the reference for rref."""
    mat = [[Fraction(c) for c in r] for r in rows]
    pivots = []
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


rationals = st.one_of(st.integers(-6, 6), st.integers(-6, 6),
                      st.fractions(min_value=-4, max_value=4, max_denominator=7))


@given(st.integers(0, 5).flatmap(
    lambda width: st.lists(st.lists(rationals, min_size=width, max_size=width), max_size=5)),
    st.data())
@settings(max_examples=300, deadline=None)
def test_fraction_free_rref_matches_fraction_elimination(rows, data):
    if rows and data.draw(st.booleans()):
        # a dependent row: a rational combination of two drawn rows
        i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(rows) - 1))
        a, b = data.draw(rationals), data.draw(rationals)
        rows = rows + [[a * Fraction(x) + b * Fraction(y) for x, y in zip(rows[i], rows[j])]]
    mat, pivots = rref(rows)
    ref_mat, ref_pivots = fraction_rref(rows)
    assert pivots == ref_pivots
    assert mat == ref_mat
    assert all(type(v) is Fraction for row in mat for v in row)


h3_steps = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)).filter(any)
H3_BOX = [(x, y, z) for x in range(-2, 3) for y in range(-2, 3) for z in range(-4, 5)]


@given(st.lists(h3_steps, min_size=1, max_size=2, unique=True))
@settings(max_examples=25, deadline=None)
@example(steps=[(1, 1, 0), (2, 2, 0)])
@example(steps=[(-1, 1, 1), (-1, 1, 2)])
def test_heisenberg_membership_matches_bfs_reachability(steps):
    # On the box, the Mal'cev sift accepts exactly the elements the BFS
    # reaches.  Over every one- and two-step set (all 7,750, enumerated),
    # the generated box elements have length at most 31, and at most 18
    # except for 56 sets, whose generators commute and whose ball(31) has at
    # most 1,985 elements; steps (1, 1, 0), (2, 2, 0) reach (-2, -2, -4) only
    # at length 23.
    h3 = GroupSpec.heisenberg3()
    gens = sorted(set(steps) | {h3.inverse(s) for s in steps})
    generated = h3.law.membership(gens)
    spec = LengthFunction.word(h3, gens, cap=10**6)
    reached = spec.ball(18)
    assert all(generated(g) for g in reached)
    if not all(g in reached for g in H3_BOX if generated(g)):
        reached = spec.ball(31)
    assert all(g in reached for g in H3_BOX if generated(g))


# ---------------------------------------------------------------------------
# The array word-length cache against a per-element dict BFS (dict_bfs).

Z3_EXTRA = [*GroupSpec.free_abelian(3).generators,
            (1, 1, 0), (-1, -1, 0), (0, 1, 1), (0, -1, -1), (1, 0, -1), (-1, 0, 1)]
# name -> (group, generators, an element they do not generate or None)
ORACLE_CASES = {
    "Z": (GroupSpec.free_abelian(1), None, None),
    "2Z": (GroupSpec.free_abelian(1), [(2,), (-2,)], (1,)),
    "Z2": (GroupSpec.free_abelian(2), None, None),
    "Z2-hex": (GroupSpec.free_abelian(2), hexagonal_generators(), None),
    "Z2-axis": (GroupSpec.free_abelian(2), [(1, 0), (-1, 0)], (0, 1)),
    "Z3-extra": (GroupSpec.free_abelian(3), Z3_EXTRA, None),
    "H3": (GroupSpec.heisenberg3(), None, None),
    "H3-even": (GroupSpec.heisenberg3(), [(2, 0, 0), (-2, 0, 0), H3_B, (0, -1, 0)], H3_C),
    "ZxC5": (GroupSpec.free_abelian_times_cyclic(1, 5), None, None),
    "ZxC5-free": (GroupSpec.free_abelian_times_cyclic(1, 5), [(1, 0), (-1, 0)], (0, 1)),
    "C7": (GroupSpec.finite_cyclic(7), None, None),
}
ORACLE_RADIUS = 6
_ORACLES = {}


def oracle(name):
    """({element: length} up to ORACLE_RADIUS, the elements in (length, tuple) order)."""
    if name not in _ORACLES:
        group, gens, _ = ORACLE_CASES[name]
        dist = dict_bfs(group, gens or group.generators, ORACLE_RADIUS)[0]
        _ORACLES[name] = dist, sorted(dist, key=lambda g: (dist[g], g))
    return _ORACLES[name]


def check_ball_against(ball, dist, order, radius):
    expect = [g for g in order if dist[g] <= radius]
    assert ball.elements == tuple(expect) and len(ball) == len(expect)
    assert list(ball.values.items()) == [(g, dist[g]) for g in expect]
    assert ball.index == {g: i for i, g in enumerate(expect)}
    assert ball.coords.dtype == np.int64 and ball.coords.flags.f_contiguous
    assert ball.coords.tolist() == [list(g) for g in expect]
    assert ball.lengths.dtype == np.int64 and ball.lengths.tolist() == [dist[g] for g in expect]


oracle_ops = st.lists(st.one_of(
    st.tuples(st.just("ball"), st.integers(0, 4 * ORACLE_RADIUS).map(lambda q: q / 4)),
    st.tuples(st.just("length"), st.integers(0, 10**6)),
    st.tuples(st.sampled_from(["tuples", "rows"]), st.lists(st.integers(0, 10**6), max_size=12)),
    st.tuples(st.just("mismatch"), st.integers(0, 10**6)),
    st.tuples(st.just("cap"), st.integers(0, 10**6))), max_size=8)


@given(st.sampled_from(sorted(ORACLE_CASES)), oracle_ops)
@settings(max_examples=120, deadline=None)
def test_word_cache_matches_dict_bfs_oracle(name, ops):
    # length, lengths (tuples and int64 rows) and ball(r) in any order, with
    # rows beyond the cache, rows the generators do not reach and cap hits:
    # every answer is the oracle's, and so a fresh instance's.
    group, gens, off = ORACLE_CASES[name]
    dist, order = oracle(name)
    top = max(dist.values())
    spec = LengthFunction.word(group, gens)
    reached = 0  # the cache holds the whole spheres of length <= reached

    def pick(i):
        return order[i % len(order)]

    for op in ops:
        if op[0] == "ball":
            check_ball_against(spec.ball(op[1]), dist, order, op[1])
            reached = max(reached, min(math.floor(op[1]), top))
        elif op[0] == "length":
            g = pick(op[1])
            assert spec.length(g) == dist[g] and type(spec.length(g)) is int
            reached = max(reached, dist[g])
        elif op[0] in ("tuples", "rows"):
            gs = [pick(i) for i in op[1]]
            points = gs if op[0] == "tuples" else \
                np.array(gs, dtype=np.int64).reshape(len(gs), len(group.identity()))
            out = spec.lengths(points)
            assert out.dtype == np.int64 and out.tolist() == [dist[g] for g in gs]
            reached = max([reached] + [dist[g] for g in gs])
        elif op[0] == "mismatch" and off is not None:
            # the first row the cache misses is off: refused before any growth
            before = cached(spec)
            held = [g for g in order if dist[g] <= reached]
            rows = [held[op[1] % len(held)], off, pick(op[1])]
            for points in (rows, np.array(rows, dtype=np.int64)):
                with pytest.raises(GroupMismatchError, match="not generated"):
                    spec.lengths(points)
            with pytest.raises(GroupMismatchError, match="not generated"):
                spec.length(off)
            assert cached(spec) == before
        elif op[0] == "cap":
            # a cap one below the ball that g needs: refused unless cached
            g = pick(op[1])
            spec.cap = sum(1 for d in dist.values() if d <= dist[g]) - 1
            if dist[g] > reached:
                with pytest.raises(BallCapError, match="while expanding radius"):
                    spec.lengths([g])
                reached = dist[g] - 1
            else:
                assert spec.lengths([g]).tolist() == [dist[g]]
            spec.cap = 10**6
    assert cached(spec) == {g: d for g, d in dist.items() if d <= reached}
    fresh = LengthFunction.word(group, gens)
    for radius in (0, 2.5, top):
        check_ball_against(spec.ball(radius), dist, order, radius)
        assert spec.ball(radius).elements == fresh.ball(radius).elements


TRANSLATE_CASES = {
    "H3-14": (GroupSpec.heisenberg3(), None, 14),
    "Z2-hex-10": (GroupSpec.free_abelian(2), hexagonal_generators(), 10),
    "ZxC5-10": (GroupSpec.free_abelian_times_cyclic(1, 5), None, 10),
}


@pytest.mark.parametrize("case", TRANSLATE_CASES.values(), ids=TRANSLATE_CASES.keys())
def test_translate_matches_per_element_lookup(case):
    # BallTable.translate finds rows through the cache's key index; a per-element
    # dict lookup of g h must agree, also once the cache holds more than the ball
    group, gens, radius = case
    spec = LengthFunction.word(group, gens)
    ball = spec.ball(radius)
    position = {g: i for i, g in enumerate(ball.elements)}
    far = ball.elements[-1]
    for grown in (False, True):
        if grown:
            spec.ball(radius + 2)
        for g in (*spec.generators, far):
            expect = [position.get(group.multiply(g, h), -1) for h in ball.elements]
            out = ball.translate(g)
            assert out.dtype == np.intp and out.tolist() == expect


def test_h3_ball_22_stays_small_in_memory():
    # ball(22) on H3 holds 99,689 elements; kept as arrays, these steps make
    # no tuple (a tuple-keyed cache of the same ball needs about 45 MB)
    tracemalloc.start()
    try:
        spec = LengthFunction.word(GroupSpec.heisenberg3())
        ball = spec.ball(22)
        assert len(ball) == 99_689
        coords = ball.coords
        assert (ball.translate((1, 0, 0)) >= 0).sum() > 0
        out = spec.lengths(coords)
        assert len(out) == len(ball) and out[0] == 0 and out[-1] == 22
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15e6


def test_central_table_matches_isqrt_loop():
    # oracle: the exact integer ceil-sqrt, key by key in key order
    expected = {}
    for k in range(-10_000, 10_001):
        root = math.isqrt(4 * abs(k))
        if root * root < 4 * abs(k):
            root += 1
        expected[(k,)] = 2 * root
    table = central_heisenberg_table(10_000)
    assert list(table.items()) == list(expected.items())
    assert all(type(k) is int and type(v) is int for (k,), v in table.items())
