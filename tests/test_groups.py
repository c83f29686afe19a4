import math
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocp import (
    BallCapError,
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


def test_free_abelian_times_cyclic_length():
    g = GroupSpec.free_abelian_times_cyclic(1, 3)
    spec = LengthFunction.word(g)
    # (2, 1) needs two free steps and one torsion step
    assert spec.length((2, 1)) == 3
    assert spec.length((0, 2)) == 1  # the inverse torsion generator


def test_generator_validation():
    with pytest.raises(ValueError):
        GroupSpec.free_abelian(2, generators=[(1, 0), (0, 1)])  # not symmetric
    with pytest.raises(ValueError):
        GroupSpec.free_abelian(1, generators=[(0,), (1,), (-1,)])  # identity listed


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


def test_element_off_the_generators_span_is_refused_at_once():
    # (0, 1) is not in the rational span of the images of (+-1, 0): the length
    # refuses it before growing the BFS along the x-axis.
    spec = LengthFunction.word(GroupSpec.free_abelian(2), [(1, 0), (-1, 0)])
    assert spec.length((3, 0)) == 3
    cache = dict(spec._dist)
    started = time.perf_counter()
    with pytest.raises(GroupMismatchError, match="not generated"):
        spec.length((0, 1))
    assert time.perf_counter() - started < 0.1
    assert spec._dist == cache


# Elements in the rational span of the generators but not in their integer
# span (with the torsion relation): refused at once, not after the BFS has
# grown to the cap.  On H3 the test runs on p(g); (1, 0, 0) has p = (1, 0)
# outside 2Z x Z.
OFF_LATTICE = [
    (GroupSpec.free_abelian(1), [(2,), (-2,)], (1,)),
    (GroupSpec.free_abelian_times_cyclic(1, 3), [(1, 0), (-1, 0)], (0, 1)),
    (GroupSpec.free_abelian(2), [(2, 0), (-2, 0), (0, 1), (0, -1)], (1, 0)),
    (GroupSpec.heisenberg3(), [(2, 0, 0), (-2, 0, 0), H3_B, (0, -1, 0)], H3_A),
]


@pytest.mark.parametrize("group,gens,g", OFF_LATTICE, ids=["Z-2", "ZxC3", "Z2-2e1", "H3-a2"])
def test_element_outside_the_integer_span_is_refused_at_once(group, gens, g):
    spec = LengthFunction.word(group, gens, cap=200_000)
    assert spec.length(gens[0]) == 1
    cache = dict(spec._dist)
    started = time.perf_counter()
    with pytest.raises(GroupMismatchError, match="not generated"):
        spec.length(g)
    assert time.perf_counter() - started < 0.1
    assert spec._dist == cache


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
