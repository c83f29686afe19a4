from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocp import (
    GroupMismatchError,
    GroupSpec,
    LengthFunction,
    NormSpec,
    WITNESS_FACET_SPAN,
    WITNESS_SUBLINEARITY,
    central_heisenberg_table,
    separation_certificate,
    sublinearity_witness,
)
from horocp.separation import _table_direction_horizon


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_standard_lattices_are_separated(rank):
    group = GroupSpec.free_abelian(rank)
    cert = separation_certificate(group, LengthFunction.word(group))
    assert cert.separated and cert.rank == rank
    assert cert.witness_kind == WITNESS_FACET_SPAN
    assert len(cert.basis_indices) == rank


def test_certificate_exhibits_invertible_block():
    group = GroupSpec.free_abelian(2)
    cert = separation_certificate(group, LengthFunction.word(group))
    rows = [cert.functionals[i].coefficients for i in cert.basis_indices]
    a, b, c, d = rows[0][0], rows[0][1], rows[1][0], rows[1][1]
    assert a * d - b * c != 0


def test_functionals_are_homomorphisms():
    group = GroupSpec.free_abelian(2)
    cert = separation_certificate(group, LengthFunction.word(group))
    for f in cert.functionals:
        for g in [(1, 2), (-3, 1)]:
            for h in [(2, 2), (0, -4)]:
                total = tuple(x + y for x, y in zip(g, h))
                assert f(total) == f(g) + f(h)


def test_central_table_not_separated():
    z1 = GroupSpec.free_abelian(1)
    spec = LengthFunction.explicit_table(z1, central_heisenberg_table(10_000))
    cert = separation_certificate(z1, spec)
    assert not cert.separated
    assert cert.witness_kind == WITNESS_SUBLINEARITY
    assert cert.sublinearity.ratio_at_horizon == pytest.approx(0.04)


def test_sublinearity_witness_values():
    z1 = GroupSpec.free_abelian(1)
    spec = LengthFunction.explicit_table(z1, central_heisenberg_table(10_000))
    report = sublinearity_witness(spec, (1,), horizon=10_000)
    assert report.sublinear
    assert report.ratio_at_horizon == pytest.approx(0.04)
    assert report.decay_exponent == pytest.approx(0.5, abs=0.05)


def test_no_witness_for_linear_growth(len_z1):
    report = sublinearity_witness(len_z1, (1,), horizon=1000)
    assert not report.sublinear
    assert report.ratio_at_horizon == 1.0


def test_witness_rejects_torsion():
    c4 = GroupSpec.finite_cyclic(4)
    spec = LengthFunction.word(c4)
    with pytest.raises(ValueError):
        sublinearity_witness(spec, (1,), horizon=100)
    zc = GroupSpec.free_abelian_times_cyclic(1, 3)
    with pytest.raises(ValueError):
        sublinearity_witness(LengthFunction.word(zc), (0, 1), horizon=100)


def test_scaling_table_doubles_functionals(len_z2, z2):
    base = separation_certificate(z2, len_z2)
    doubled_table = {g: 2 * len_z2.length(g) for g in len_z2.ball(8)}
    doubled = separation_certificate(z2, LengthFunction.explicit_table(z2, doubled_table))
    assert doubled.separated and doubled.rank == base.rank == 2
    base_set = {f.coefficients for f in base.functionals}
    doubled_set = {f.coefficients for f in doubled.functionals}
    assert doubled_set == {tuple(2 * c for c in row) for row in base_set}


def test_word_table_certificate_matches_word_path(len_z2, z2):
    table = {g: len_z2.length(g) for g in len_z2.ball(8)}
    cert = separation_certificate(z2, LengthFunction.explicit_table(z2, table))
    assert cert.separated
    assert {f.coefficients for f in cert.functionals} == {
        f.coefficients for f in separation_certificate(z2, len_z2).functionals
    }


def test_inhomogeneous_table_rejected(z2, len_z2):
    table = {g: len_z2.length(g) for g in len_z2.ball(8)}
    table[(4, 0)] = 5  # breaks l(4x) = 4 l(x) without sublinearity
    with pytest.raises(ValueError):
        separation_certificate(z2, LengthFunction.explicit_table(z2, table))


@pytest.mark.parametrize("key", [(1.5, 0), (1,), (1, 0, 0)])
def test_table_certificate_refuses_non_elements(z2, key):
    # unchecked, the key (1.5, 0) of length 1 reads as (1, 0) in the int64
    # direction horizon, and the facets of the hull of g / l(g), which holds
    # the non-element (3/2, 0), certify separatedness with (2/3) x1 +- x2
    table = {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1,
             (2, 0): 2, (-2, 0): 2, (0, 2): 2, (0, -2): 2}
    assert separation_certificate(z2, LengthFunction.explicit_table(z2, table)).separated
    spec = LengthFunction.explicit_table(z2, {**table, key: 1})
    with pytest.raises(GroupMismatchError) as ball_error:
        spec.ball(2)
    with pytest.raises(GroupMismatchError) as cert_error:
        separation_certificate(z2, spec)
    assert str(cert_error.value) == str(ball_error.value)


def test_norm_restriction_certificates():
    z2 = GroupSpec.free_abelian(2)
    cert = separation_certificate(z2, LengthFunction.norm_restriction(z2, NormSpec.l1()))
    assert cert.separated and cert.rank == 2
    cert = separation_certificate(z2, LengthFunction.norm_restriction(z2, NormSpec.linf()))
    assert cert.separated and cert.rank == 2
    poly = NormSpec.polytope([(1, 0), (-1, 0), (0, 1), (0, -1), (Fraction(1, 2), Fraction(1, 2))])
    cert = separation_certificate(z2, LengthFunction.norm_restriction(z2, poly))
    assert cert.separated
    with pytest.raises(ValueError):
        separation_certificate(z2, LengthFunction.norm_restriction(z2, NormSpec.l2()))


def test_finite_cyclic_trivially_separated():
    c4 = GroupSpec.finite_cyclic(4)
    cert = separation_certificate(c4, LengthFunction.word(c4))
    assert cert.separated and cert.rank == 0 and not cert.functionals


@pytest.mark.parametrize("extra", [(), ((1, 1, 0),), ((1, 1, 0), (0, 1, 1), (1, 0, -1))])
def test_basis_indices_are_the_greedy_independent_rows(extra):
    group = GroupSpec.free_abelian(3)
    gens = list(group.generators)
    for v in extra:
        gens += [v, tuple(-c for c in v)]
    cert = separation_certificate(group, LengthFunction.word(group, gens))
    rows = [[float(c) for c in f.coefficients] for f in cert.functionals]
    greedy = []
    for i, row in enumerate(rows):
        if np.linalg.matrix_rank(np.array([rows[j] for j in greedy] + [row])) == len(greedy) + 1:
            greedy.append(i)
    assert list(cert.basis_indices) == greedy and cert.rank == 3


def loop_direction_horizon(group, spec):
    """The per-probe loop _table_direction_horizon replaced: one tuple per step."""
    m = group.abelianization_rank
    horizons = []
    for j in range(m):
        i = 0
        while tuple((i + 1) if k == j else 0 for k in range(m)) in spec.table:
            i += 1
        horizons.append(i)
    return horizons


@given(st.integers(1, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_direction_horizon_matches_probe_loop(m, data):
    # runs along each axis with gaps, negative-only axes, and keys off the axes
    table = {}
    for j in range(m):
        steps = data.draw(st.lists(st.integers(-6, 9), max_size=8))
        table.update({tuple(s if k == j else 0 for k in range(m)): abs(s) for s in steps})
    coords = st.tuples(*[st.integers(-4, 4)] * m)
    table.update({g: 1 for g in data.draw(st.lists(coords, max_size=6))})
    group = GroupSpec.free_abelian(m)
    spec = LengthFunction.explicit_table(group, table)
    assert _table_direction_horizon(group, spec) == loop_direction_horizon(group, spec)


def test_direction_horizon_on_wide_keys_and_the_central_table():
    z2 = GroupSpec.free_abelian(2)
    # a key beyond int64 makes the key array object-typed; the gap at 3 e1 still ends the run
    table = {(1, 0): 1, (2, 0): 2, (4, 0): 4, (2**70, 0): 1, (0, -1): 1, (-1, -1): 2}
    spec = LengthFunction.explicit_table(z2, table)
    assert _table_direction_horizon(z2, spec) == loop_direction_horizon(z2, spec) == [2, 0]
    z1 = GroupSpec.free_abelian(1)
    spec = LengthFunction.explicit_table(z1, central_heisenberg_table(500))
    assert _table_direction_horizon(z1, spec) == loop_direction_horizon(z1, spec) == [500]
