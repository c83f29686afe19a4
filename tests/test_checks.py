import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from horocp import (
    ActionSpec,
    CrossedElement,
    GroupSpec,
    LengthFunction,
    NonzeroCapError,
    NormSpec,
    SubgroupSpec,
    af_filtration,
    check_af_triple,
    check_cocycle,
    check_coefficient_bounds,
    check_commutator_identity,
    check_conditional_expectation,
    check_length_axioms,
    check_nctorus_equicontinuity,
    check_tail_bound,
    check_unitary_conjugation,
    clock_matrix,
    default_suite,
    hexagonal_generators,
    shift_matrix,
    tail_series_factor,
)
from horocp import checks, operators
from horocp.aftriple import AFFiltration
from horocp.checks import (
    CheckParams,
    random_crossed,
    random_diagonal_action,
    random_hermitian,
    run_family,
)
from horocp.operators import (commutator, coset_compress, even_dirac, lambda_op, m_ell, m_phi,
                              pi_tilde, realize, restrict_blocks, truncate)
from horocp.cli import render_json, run
from test_operators import NON_SUBADDITIVE, walk_act


@pytest.fixture(scope="module")
def suite0():
    return default_suite(seed=0)


def test_commutator_identity_trivial_cases(len_z1, z1):
    act = ActionSpec.trivial(z1, 1)
    lam1 = CrossedElement.from_dict(z1, {(1,): [[1.0]]})
    report = check_commutator_identity(lam1, len_z1, act, radius=8.0)
    assert report.passed and report.residual == 0.0
    zero = CrossedElement.from_dict(z1, {})
    report = check_commutator_identity(zero, len_z1, act, radius=4.0)
    assert report.passed and report.residual == 0.0


def test_commutator_identity_random_z2(len_z2, z2):
    rng = np.random.default_rng(21)
    for _ in range(5):
        x = random_crossed(rng, len_z2, 2.0, coeff_dim=2, terms=2)
        action = random_diagonal_action(rng, z2, 2)
        report = check_commutator_identity(x, len_z2, action, radius=6.0)
        assert report.passed, report.residual


def test_cocycle_report(len_z2):
    rng = np.random.default_rng(1)
    ball = len_z2.ball(4)
    pairs = [
        (ball.elements[int(i)], ball.elements[int(j)])
        for i, j in rng.integers(0, len(ball), size=(100, 2))
    ]
    report = check_cocycle(len_z2, pairs, radius=10.0)
    assert report.passed and report.residual == 0.0


def test_conditional_expectation_trivial(len_z1, z1):
    act = ActionSpec.trivial(z1, 1)
    sub = SubgroupSpec.multiples(z1, 2)
    # x supported inside H and g = e: identities reduce to E_H(x) = x
    x = CrossedElement.from_dict(z1, {(0,): [[1.0]], (2,): [[0.5]]})
    report = check_conditional_expectation(x, (0,), sub, [[1.0]], len_z1, act)
    assert report.passed and report.residual == 0.0
    whole = SubgroupSpec("G", z1, lambda g: True, lambda g: 0)
    report = check_conditional_expectation(x, (1,), whole, [[1.0]], len_z1, act)
    assert report.passed and report.residual == 0.0


def test_conditional_expectation_coefficient_restriction(len_z1, z1):
    act = ActionSpec.trivial(z1, 1)
    x = CrossedElement.from_dict(z1, {(0,): [[1.0]], (1,): [[2.0]], (2,): [[3.0]]})
    from horocp import conditional_expectation

    ex = conditional_expectation(x, SubgroupSpec.multiples(z1, 2))
    assert ex.support == ((0,), (2,))
    report = check_conditional_expectation(
        x, (1,), SubgroupSpec.multiples(z1, 2), [[0.5]], len_z1, act
    )
    assert report.passed


def test_tail_series_factor_against_closed_form():
    assert tail_series_factor(1, 0.0) == pytest.approx(
        math.sqrt(2 * (math.pi**2 / 6 - 1)), abs=1e-12
    )
    scipy_special = pytest.importorskip("scipy.special")
    for n_cut, shift in ((1, 0.0), (2, 0.5), (3, -1.0), (5, 2.0)):
        oracle = math.sqrt(
            float(scipy_special.polygamma(1, n_cut + 1 + shift))
            + float(scipy_special.polygamma(1, n_cut + 1 - shift))
        )
        assert tail_series_factor(n_cut, shift) == pytest.approx(oracle, abs=1e-12)
    with pytest.raises(ValueError):
        tail_series_factor(1, 2.0)


def test_tail_bound_lambda2(len_z1, z1):
    act = ActionSpec.trivial(z1, 1)
    x = CrossedElement.from_dict(z1, {(2,): [[1.0]]})
    report = check_tail_bound(x, (1,), 0.0, 1, len_z1, act, radius=6.0)
    assert report.passed
    assert report.details["lhs"] == pytest.approx(1.0, abs=1e-10)
    assert report.details["rhs"] == pytest.approx(2.0, abs=1e-10)
    assert report.slack == pytest.approx(2 * math.sqrt(2 * (math.pi**2 / 6 - 1)) - 1, abs=1e-9)


def test_tail_bound_refuses_wrong_length_functional(len_z1, z1):
    x = CrossedElement.from_dict(z1, {(2,): [[1.0]]})
    with pytest.raises(ValueError, match="rank 1"):
        check_tail_bound(x, (1, 5), 0.0, 1, len_z1, ActionSpec.trivial(z1, 1), radius=6.0)


def test_tail_bound_trivial_when_support_low(len_z1, z1):
    act = ActionSpec.trivial(z1, 1)
    x = CrossedElement.from_dict(z1, {(1,): [[1.0]], (0,): [[1.0]]})
    report = check_tail_bound(x, (1,), 0.0, 2, len_z1, act, radius=5.0)
    assert report.passed and report.details["lhs"] == 0.0


def test_conjugation_identities(len_z1, z1):
    rng = np.random.default_rng(31)
    ball = len_z1.ball(4.0)
    f_vals = [float(len_z1.length(h)) - float(len_z1.length((h[0] - 1,)))
              for h in ball.elements]
    for _ in range(3):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        action = random_diagonal_action(rng, z1, 2)
        report = check_unitary_conjugation(a, f_vals, (1,), len_z1, action, radius=4.0)
        assert report.passed, report.details
    # trivial coefficient: first identity exactly zero
    action = random_diagonal_action(rng, z1, 2)
    report = check_unitary_conjugation(np.eye(2), f_vals, (0,), len_z1, action, radius=4.0)
    assert report.passed
    assert report.details["identity_residuals"]["translation"] == 0.0


# ---------------------------------------------------------------------------
# Unitary conjugation against the dense doubled-space build it replaced.


def loop_unitary_conjugation(a, f_values, g, spec, action, radius):
    """The three residuals of the dense build: U, pi~(a), nu~(f), lambda~_g
    and the right-hand sides as dim x dim matrices of the doubled space, at
    flat index (p * n + t) * n + k for coefficient p, inner t and outer k."""
    group = spec.group
    d = action.dim
    H = truncate(spec, radius, d)
    n = H.n_ball
    dn = H.dim
    dim = dn * n
    f_values = np.asarray(f_values, dtype=complex)
    lam_blocks = [lambda_op(H, h).matrix for h in H.ball.elements]
    u = np.zeros((dim, dim), dtype=complex)
    for k in range(n):
        u[k::n, k::n] = lam_blocks[k]
    pi_a = np.zeros((dim, dim), dtype=complex)
    for k, h in enumerate(H.ball.elements):
        pi_a[k::n, k::n] = pi_tilde(H, action, walk_act(action, group.inverse(h), a)).matrix
    nu_f = np.kron(np.eye(dn, dtype=complex), np.diag(f_values))
    lam_gg = np.zeros((dim, dim), dtype=complex)
    index = H.ball.index
    lam_g_small = lam_blocks[index[g]] if g in index else lambda_op(H, g).matrix
    targets = H.ball.translate(g)
    moved = np.flatnonzero(targets >= 0)
    for k in moved:
        lam_gg[targets[k]::n, k::n] = np.eye(dn, dtype=complex)
    rhs_pi = np.kron(pi_tilde(H, action, a).matrix, np.eye(n, dtype=complex))
    rhs_nu = np.kron(np.eye(dn, dtype=complex), np.diag(f_values))
    shift_n = np.zeros((n, n), dtype=complex)
    shift_n[targets[moved], moved] = 1.0
    rhs_lam = np.kron(lam_g_small, shift_n)
    pair = H.lengths[:, None] + H.lengths[None, :]
    col_mask = np.tile(pair <= H.ball.radius, (d, 1)).reshape(dim)
    col_mask_g = np.tile(pair <= H.ball.radius - float(spec.length(g)), (d, 1)).reshape(dim)
    uh = u.conj().T

    def max_abs(mat):
        return float(np.max(np.abs(mat), initial=0.0))

    return {
        "coefficient": max_abs(((u @ pi_a @ uh) - rhs_pi)[:, col_mask]),
        "boundary-function": max_abs(((u @ nu_f @ uh) - rhs_nu)[:, col_mask]),
        "translation": max_abs(((u @ lam_gg @ uh) - rhs_lam)[:, col_mask_g]),
    }


CONJUGATION_CASES = {
    # the `verify all --seed 7` instances
    "z-radius-4": (lambda: LengthFunction.word(GroupSpec.free_abelian(1)), 4.0, 10),
    "c6": (lambda: LengthFunction.word(GroupSpec.finite_cyclic(6)), 8.0, 2),
    "z2xc3": (lambda: LengthFunction.word(GroupSpec.free_abelian_times_cyclic(2, 3)), 2.0, 1),
    "z2-hexagonal": (lambda: LengthFunction.word(GroupSpec.free_abelian(2), hexagonal_generators()),
                     2.0, 2),
    "h3": (lambda: LengthFunction.word(GroupSpec.heisenberg3()), 2.0, 2),
    "z2-l2": (lambda: LengthFunction.norm_restriction(GroupSpec.free_abelian(2), NormSpec.l2()),
              2.0, 2),
    "non-subadditive": (lambda: LengthFunction.explicit_table(GroupSpec.free_abelian(1),
                                                              NON_SUBADDITIVE), 2.0, 3),
}


def residual_bits(residuals):
    return {name: np.float64(value).tobytes() for name, value in residuals.items()}


@pytest.mark.parametrize("case", list(CONJUGATION_CASES))
def test_conjugation_matches_dense_build(case, monkeypatch):
    # U is a permutation of blocks, so the block check reproduces every bit
    make_spec, radius, count = CONJUGATION_CASES[case]
    block_check = checks.check_unitary_conjugation
    seen = []

    def both(a, f_values, g, spec, action, radius, **kwargs):
        dense = loop_unitary_conjugation(a, f_values, g, spec, action, radius)
        report = block_check(a, f_values, g, spec, action, radius, **kwargs)
        seen.append((report.details["identity_residuals"], dense))
        return report

    monkeypatch.setattr(checks, "check_unitary_conjugation", both)
    run_family("conjugation", 7, [((make_spec(),), CheckParams(count=count, radius=radius))])
    assert len(seen) == count
    for blocks, dense in seen:
        assert residual_bits(blocks) == residual_bits(dense)
    if case == "non-subadditive":
        assert all(blocks["coefficient"] > 1.0 and blocks["boundary-function"] == 2.0
                   for blocks, _ in seen)


def test_conjugation_translation_residual_off_subadditive_lengths():
    # g = e: at t = 10, h = -10 both g t and g h lie in the ball but h^-1 t = 20 does not
    spec = LengthFunction.explicit_table(GroupSpec.free_abelian(1), NON_SUBADDITIVE)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    action = random_diagonal_action(rng, spec.group, 2)
    f_vals = rng.normal(size=len(spec.ball(2.0)))
    dense = loop_unitary_conjugation(a, f_vals, (0,), spec, action, 2.0)
    report = check_unitary_conjugation(a, f_vals, (0,), spec, action, radius=2.0)
    assert report.details["identity_residuals"]["translation"] == 1.0
    assert residual_bits(report.details["identity_residuals"]) == residual_bits(dense)
    assert not report.passed


def test_conjugation_counts_doubled_blocks_against_nonzero_cap(len_z2, z2, monkeypatch):
    # n^2 d^2 diagonal blocks of the doubled space, refused before any block is formed
    n, d = len(len_z2.ball(8.0)), 2
    rng = np.random.default_rng(0)
    action = random_diagonal_action(rng, z2, d)
    args = (np.eye(d), np.zeros(n), (1, 0), len_z2, action, 8.0)

    def no_work(*_):
        raise AssertionError("coefficient blocks formed before the cap check")

    monkeypatch.setattr(operators, "NONZERO_CAP", n * n * d * d - 1)
    monkeypatch.setattr(ActionSpec, "stack", no_work)
    with pytest.raises(NonzeroCapError):
        check_unitary_conjugation(*args)
    monkeypatch.undo()
    monkeypatch.setattr(operators, "NONZERO_CAP", n * n * d * d)
    assert check_unitary_conjugation(*args).passed


def test_nctorus_clock_shift_relation():
    for q in (3, 5, 8):
        u, v = clock_matrix(q), shift_matrix(q)
        rel = u @ v @ u.conj().T @ v.conj().T - np.exp(2j * np.pi / q) * np.eye(q)
        assert np.max(np.abs(rel)) < 1e-12


def test_nctorus_refuses_empty_input(len_z1):
    with pytest.raises(ValueError, match="q = 0"):
        check_nctorus_equicontinuity(1, 0, len_z1, radius=2.0)
    with pytest.raises(ValueError, match="q = -3"):
        check_nctorus_equicontinuity(1, -3, len_z1, radius=2.0)
    with pytest.raises(ValueError, match=r"range\(5, 5\) is empty"):
        check_nctorus_equicontinuity(1, 3, len_z1, n_range=range(5, 5), radius=2.0)
    with pytest.raises(ValueError, match=r"\[\] is empty"):
        check_nctorus_equicontinuity(1, 3, len_z1, n_range=[], radius=2.0)


def test_nctorus_check(len_z1):
    report = check_nctorus_equicontinuity(1, 3, len_z1, n_range=range(-10, 11), radius=12.0)
    assert report.passed
    assert report.details["relation_residual"] < 1e-12
    assert report.details["action_residual"] < 1e-12
    assert report.slack >= -1e-9


# The conditional-expectation, tail-bound and nctorus checks form no dense
# product: the arrays they pass to op_norm must still carry the bits of the
# dense products below, or printed norms would drift.


def _bits(a):
    # BLAS sums start from +0, so where the entrywise form keeps a -0 factor's
    # sign the dense product has +0; adding +0 clears that sign on both sides
    return (np.asarray(a) + 0.0).tobytes()


def _record(monkeypatch, name):
    """Copies of what checks.<name> returns (or, for op_norm, is given)."""
    seen, original = [], getattr(checks, name)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        seen.append(np.array(args[0] if name == "op_norm" else out.matrix, copy=True))
        return out

    monkeypatch.setattr(checks, name, wrapper)
    return seen


def _dense_commutator(t, y):
    return t @ y - y @ t


@pytest.mark.parametrize("rank, g", [(1, (1,)), (1, (-2,)), (2, (1, -1)), (2, (0, 2))])
def test_conditional_expectation_arrays_match_dense_products(rank, g, monkeypatch):
    group = GroupSpec.free_abelian(rank)
    spec = LengthFunction.word(group)
    rng = np.random.default_rng([14, rank, *(c % 5 for c in g)])
    sub = SubgroupSpec.multiples(group, 2) if rank == 1 else SubgroupSpec.kernel_of(group, (1, 0))
    x = random_crossed(rng, spec, 3.0, coeff_dim=2, terms=6)  # six of Z's seven: some even
    d_a = random_hermitian(rng, 2)
    action = random_diagonal_action(rng, group, 2)
    seen = _record(monkeypatch, "op_norm")
    report = check_conditional_expectation(x, g, sub, d_a, spec, action)

    H = truncate(spec, report.params["radius"], 2)
    x_mat = realize(x, H, action).matrix
    s_mat = realize(checks.conditional_shifted(x, g, sub, group), H, action).matrix
    mell, t_coeff = m_ell(H).matrix, np.kron(d_a, np.eye(H.n_ball))
    lam_g, lam_g_inv = lambda_op(H, g).matrix, lambda_op(H, group.inverse(g)).matrix
    comm = _dense_commutator(mell, x_mat)
    compressed = coset_compress(comm @ lam_g_inv, H, sub) @ lam_g
    assert 0 < np.count_nonzero(compressed) < np.count_nonzero(comm)
    # op_norm sees x, the length commutator, its compression and E_H(x), in
    # that order, so that x's array is freed before E_H(x)'s is formed
    assert len(seen) == 4
    assert [_bits(a) for a in seen[:3]] == [_bits(x_mat), _bits(comm), _bits(compressed)]

    # both sides of the identity residuals, on blocks
    x_op = realize(x, H, action)
    s_op = realize(checks.conditional_shifted(x, g, sub, group), H, action)
    kept = checks._coset_shift_mask(x_op, sub, g)
    ell = m_ell(H)
    assert _bits(restrict_blocks(commutator(ell, x_op), kept).matrix) == _bits(compressed)
    assert _bits(commutator(ell, s_op).matrix) == _bits(_dense_commutator(mell, s_mat))
    # [D_A (x) 1, .] sums in another order than the Kronecker product, the same on
    # both sides, so its residual stays exactly 0
    coeff = commutator(pi_tilde(H, ActionSpec.trivial(group, 2), d_a), x_op)
    dense_coeff = _dense_commutator(t_coeff, x_mat)
    assert np.max(np.abs(coeff.matrix - dense_coeff)) <= 1e-14 * np.max(np.abs(dense_coeff))
    assert np.array_equal(restrict_blocks(coeff, kept).matrix != 0,
                          coset_compress(dense_coeff @ lam_g_inv, H, sub) @ lam_g != 0)
    assert report.details["identity_residuals"] == {"coefficient": 0.0, "length": 0.0}


@pytest.mark.parametrize("group, radius", [(GroupSpec.free_abelian(2), 4.0),
                                           (GroupSpec.heisenberg3(), 3.0)], ids=["Z2", "H3"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_commutator_matches_dense_products(group, radius, d):
    # a diagonal D's block commutator carries the bits of the dense products
    spec = LengthFunction.word(group)
    rng = np.random.default_rng([14, 7, d])
    x = random_crossed(rng, spec, 2.0, coeff_dim=d, terms=4)
    H = truncate(spec, radius, d)
    x_op = realize(x, H, random_diagonal_action(rng, group, d))
    y = x_op.matrix
    for t in (m_ell(H), m_phi(H, (1, -1))):
        assert _bits(commutator(t, x_op).matrix) == _bits(_dense_commutator(t.matrix, y))


def test_checks_reach_commutator_guards(len_z1, z1, monkeypatch):
    # a planted D: not block diagonal, on another ball, on a doubled space
    x = CrossedElement.from_dict(z1, {(1,): [[1.0]], (-2,): [[0.5j]]})
    args = (x, len_z1, ActionSpec.trivial(z1, 1), 6.0)
    monkeypatch.setattr(checks, "m_ell", lambda H: lambda_op(H, (1,)))
    with pytest.raises(ValueError, match="block diagonal"):
        check_commutator_identity(*args)
    monkeypatch.setattr(checks, "m_ell", lambda H: m_ell(truncate(len_z1, 5.0)))
    with pytest.raises(ValueError, match="different spaces"):
        check_commutator_identity(*args)
    # realize stores 23 blocks of one entry; the commutator would store the
    # 18 blocks in the radius-4 window, 2 x 2 each
    monkeypatch.setattr(checks, "m_ell", lambda H: even_dirac(H, [[0.0]]))
    monkeypatch.setattr(operators, "NONZERO_CAP", 18 * 4 - 1)
    with pytest.raises(NonzeroCapError, match="^72 stored entries"):
        check_commutator_identity(*args)


@pytest.mark.parametrize("d", [1, 2])
def test_coefficient_bounds_length_commutator_matches_dense_product(d, monkeypatch):
    z2 = GroupSpec.free_abelian(2)
    spec = LengthFunction.word(z2)
    rng = np.random.default_rng([14, 6, d])
    x = random_crossed(rng, spec, 2.0, coeff_dim=d, terms=3)
    d_a = random_hermitian(rng, d)
    action = random_diagonal_action(rng, z2, d)
    seen = _record(monkeypatch, "op_norm")
    report = check_coefficient_bounds(x, (1, 0), d_a, spec, action)
    assert not report.details["escalated"]
    H = truncate(spec, report.params["radius"], d)
    x_mat = realize(x, H, action).matrix
    mell, t_coeff = m_ell(H).matrix, np.kron(d_a, np.eye(H.n_ball))
    # op_norm sees [D_A (x) 1, x], [1 (x) M_l, x], then one term per coefficient
    assert _bits(seen[0]) == _bits(_dense_commutator(t_coeff, x_mat))
    assert _bits(seen[1]) == _bits(_dense_commutator(mell, x_mat))


@pytest.mark.parametrize("d, functional, shift", [(1, (1, 1), 0.5), (2, (0, 1), -1.0)])
def test_tail_bound_rhs_matches_dense_product(d, functional, shift, monkeypatch):
    z2 = GroupSpec.free_abelian(2)
    spec = LengthFunction.word(z2)
    rng = np.random.default_rng([14, d])
    x = random_crossed(rng, spec, 4.0, coeff_dim=d, terms=5)
    action = random_diagonal_action(rng, z2, d)
    seen = _record(monkeypatch, "op_norm")
    report = check_tail_bound(x, functional, shift, 1, spec, action, radius=4.0)
    assert not report.details["escalated"]
    H = truncate(spec, 8.0, d)
    x_mat = realize(x, H, action).matrix
    mphi = m_phi(H, functional).matrix
    assert _bits(seen[-1]) == _bits(_dense_commutator(mphi, x_mat) + shift * x_mat)


def test_nctorus_commutators_match_dense_products(len_z1, monkeypatch):
    norms_of = _record(monkeypatch, "op_norm")
    realized = _record(monkeypatch, "realize")
    check_nctorus_equicontinuity(1, 3, len_z1, n_range=range(-2, 3), radius=4.0)
    H = truncate(len_z1, 4.0, 3)
    mell = m_ell(H).matrix
    lams = [lambda_op(H, g).matrix for g in ((-1,), (1,))]  # x's support, sorted
    # op_norm(a_g), op_norm([M_l, lambda_g]) per term, then one commutator per n
    assert [_bits(a) for a in norms_of[1:4:2]] == \
        [_bits(_dense_commutator(mell, lam)) for lam in lams]
    assert [_bits(a) for a in norms_of[4:]] == \
        [_bits(_dense_commutator(mell, mat)) for mat in realized]
    assert len(realized) == 5


# The dense checks hold one dim x dim complex array at a time, the norm's
# input, which its power iteration conjugates in place and restores, plus
# blocks: 1.40 (tail bound), 1.24 (conditional expectation) and 1.21
# (nctorus) arrays on the instances below.  A dense view kept alive past its
# norm, or a copy of the input inside the norm, adds a second.


def _traced_peak(run_check):
    """run_check() and the tracemalloc peak above what was held when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = run_check()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return report, peak


def _one_and_a_half_arrays(dim):
    return 1.5 * 16 * dim * dim


def test_tail_bound_holds_one_dense_array(len_z2, z2):
    x = random_crossed(np.random.default_rng([3, 1]), len_z2, 3.0, terms=5)
    dim = truncate(len_z2, 8.0).dim
    report, peak = _traced_peak(lambda: check_tail_bound(
        x, (1, 1), 0.5, 1, len_z2, ActionSpec.trivial(z2, 1), radius=4.0))
    assert report.passed and not report.details["escalated"]
    assert dim == 145 and peak <= _one_and_a_half_arrays(dim)


def test_conditional_expectation_holds_one_dense_array(len_z2, z2):
    rng = np.random.default_rng([3, 2])
    x = random_crossed(rng, len_z2, 3.0, coeff_dim=2, terms=4)
    d_a, action = random_hermitian(rng, 2), random_diagonal_action(rng, z2, 2)
    sub = SubgroupSpec.kernel_of(z2, (1, 0))
    report, peak = _traced_peak(lambda: check_conditional_expectation(
        x, (1, 0), sub, d_a, len_z2, action))
    dim = truncate(len_z2, report.params["radius"], 2).dim
    assert report.passed
    assert dim == 226 and peak <= _one_and_a_half_arrays(dim)


def test_nctorus_holds_one_dense_array(len_z1):
    report, peak = _traced_peak(lambda: check_nctorus_equicontinuity(
        1, 5, len_z1, n_range=range(-2, 3), radius=20.0))
    dim = truncate(len_z1, 20.0, 5).dim
    assert report.passed
    assert dim == 205 and peak <= _one_and_a_half_arrays(dim)


def test_conditional_expectation_fails_on_unrestricted_shift(len_z2, z2, monkeypatch):
    # planted defect: E_H(x lambda_{g^-1}) lambda_g replaced by x itself
    rng = np.random.default_rng([14, 3])
    x = random_crossed(rng, len_z2, 3.0, coeff_dim=2, terms=4)
    sub = SubgroupSpec.kernel_of(z2, (1, 0))
    args = (x, (1, 0), sub, random_hermitian(rng, 2), len_z2, random_diagonal_action(rng, z2, 2))
    assert check_conditional_expectation(*args).passed
    monkeypatch.setattr(checks, "conditional_shifted", lambda x, g, subgroup, group: x)
    report = check_conditional_expectation(*args)
    assert not report.passed
    assert report.details["identity_residuals"]["length"] > report.tolerance


def test_tail_bound_fails_on_small_series_factor(len_z1, z1, monkeypatch):
    # planted defect: a factor ten times too small fails after the escalation too
    x = CrossedElement.from_dict(z1, {(2,): [[1.0]], (1,): [[0.5]]})
    args = (x, (1,), 0.0, 1, len_z1, ActionSpec.trivial(z1, 1))
    assert check_tail_bound(*args, radius=6.0).passed
    monkeypatch.setattr(checks, "tail_series_factor", lambda n, s: 0.1 * tail_series_factor(n, s))
    report = check_tail_bound(*args, radius=6.0)
    assert not report.passed and report.details["escalated"]
    assert report.slack < -report.tolerance
    # the re-check compresses the left side at 2R and the right side at 4R
    assert report.params["radius"] == report.params["delta_radius"] == 12.0


def test_af_triple_check():
    report = check_af_triple([2, 2, 2, 2, 2], [0, 1, 2, 3, 4, 5])
    assert report.passed
    assert report.details["ranks"] == [1, 1, 2, 4, 8, 16]
    report = check_af_triple([3, 2], [0, 1.5, -2.5])
    assert report.passed
    assert report.details["ranks"] == [1, 2, 3]


def test_coefficient_bounds(len_z1, z1):
    rng = np.random.default_rng(41)
    act = ActionSpec.trivial(z1, 1)
    x = CrossedElement.from_dict(z1, {(1,): [[2.0]]})
    report = check_coefficient_bounds(x, (1,), [[0.0]], len_z1, act)
    assert report.passed
    # d_a = 0 branch: only the norm bound is active, and it is tight for lambda_1
    term = report.details["terms"][0]
    assert term["dirac_slack"] == 0.0
    x0 = CrossedElement.from_dict(z1, {(0,): random_hermitian(rng, 2)})
    report = check_coefficient_bounds(x0, (0,), random_hermitian(rng, 2), len_z1,
                                      random_diagonal_action(rng, z1, 2))
    assert report.passed
    assert "norm_slack" not in report.details["terms"][0]


def test_length_axioms_check(len_z1):
    report = check_length_axioms(len_z1, 10)
    assert report.passed and report.residual == 0.0


def test_reports_reproducible(len_z2, z2):
    def build():
        rng = np.random.default_rng([3, 2])
        x = random_crossed(rng, len_z2, 2.0, coeff_dim=2, terms=3)
        action = random_diagonal_action(rng, z2, 2)
        return check_commutator_identity(x, len_z2, action, radius=6.0).to_dict()

    assert build() == build()


# the tolerance each check family prints: 0 for the exact checks, 1e-12 for
# equalities, 1e-9 for inequality slacks (nctorus judges its relation at 1e-12)
SUITE_TOLERANCES = {
    "length-axioms": 0.0, "cocycle": 0.0, "commutator-identity": 1e-12,
    "conditional-expectation": 1e-12, "tail-bound": 1e-9, "unitary-conjugation": 1e-12,
    "nctorus-equicontinuity": 1e-9, "af-triple": 1e-12, "coefficient-bounds": 1e-9,
}


def test_default_suite_smoke(suite0):
    reports = suite0
    failures = [r.name for r in reports if not r.passed]
    assert not failures, failures
    assert {r.name for r in reports} == SUITE_TOLERANCES.keys()
    assert all(type(r.tolerance) is float and r.tolerance == SUITE_TOLERANCES[r.name]
               for r in reports)


def _dense_af_projection(filt, i):
    """Q_i from the block-average definition P_q[x, y] = [x = y mod q] / (dim / q)."""
    x = np.arange(filt.dim)

    def average(q):
        return (x[:, None] % q == x[None, :] % q) / (filt.dim // q)

    p = average(filt.level_sizes[i])
    return p - average(filt.level_sizes[i - 1]) if i else p


@pytest.mark.parametrize("orders", [(2, 2, 2, 2, 2), (4, 4, 4, 4), (3, 2, 5)])
def test_af_projections_match_block_average_definition(orders):
    filt = af_filtration(orders)
    block = np.random.default_rng(5).normal(size=(filt.dim, 3, 2)) @ [1.0, 1j]
    for i in range(filt.depth + 1):
        dense = _dense_af_projection(filt, i)
        # on the identity, entry for entry; on other blocks, column by column
        assert np.array_equal(filt.project(i, np.eye(filt.dim, dtype=complex)), dense)
        for c in range(block.shape[1]):
            column = filt.project(i, block[:, c:c + 1])[:, 0]
            assert np.max(np.abs(column - dense @ block[:, c])) <= 1e-14


@pytest.mark.parametrize("orders", [(2, 2, 2, 2, 2), (4, 4, 4, 4), (3, 2, 5), (2, 3, 2, 3)])
def test_af_spectrum_matches_dft_oracle(orders):
    # Q_i is the projection onto the characters whose order divides q_i but not q_{i-1}
    filt = af_filtration(orders)
    dim, sizes = filt.dim, filt.level_sizes
    x = np.arange(dim)
    dft = np.exp(2j * np.pi * np.outer(x, x) / dim) / math.sqrt(dim)
    order = dim // np.gcd(x, dim)   # of the character exp(2 pi i m x / dim), for each m
    level = np.array([min(i for i, q in enumerate(sizes) if q % n == 0) for n in order])
    eigenvalues = np.linspace(-1.0, 2.5, len(orders) + 1)
    for i in range(filt.depth + 1):
        assert np.max(np.abs(filt.project(i, dft) - dft * (level == i))) <= 1e-12
    assert np.max(np.abs(filt.dirac(eigenvalues, dft) - dft * eigenvalues[level])) <= 1e-12
    spectrum = np.linalg.eigvalsh(filt.dirac(eigenvalues, np.eye(dim, dtype=complex)))
    assert np.max(np.abs(spectrum - np.sort(eigenvalues[level]))) <= 1e-12
    report = check_af_triple(orders, eigenvalues)
    assert report.passed
    assert report.details["ranks"] == np.bincount(level, minlength=len(sizes)).tolist()


def test_af_triple_refuses_over_cap_before_allocating():
    # (4096, 4096) would need three test blocks of 2^24 x 2 complex entries (1.6 GB)
    tracemalloc.start()
    try:
        with pytest.raises(NonzeroCapError):
            check_af_triple((4096, 4096), [0, 1, 2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_af_triple_validates_eigenvalue_count_first():
    # the parent built six dense 1024 x 1024 projections (101 MB) before refusing
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="need 6 eigenvalues"):
            check_af_triple([4, 4, 4, 4, 4], [0, 1, 2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_af_triple_refuses_non_finite_eigenvalues(bad):
    # unrefused, a NaN eigenvalue made a NaN residual, which the CLI failed to
    # serialize with a traceback
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        check_af_triple([2, 2], [0, 1, bad])
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        af_filtration([2, 2]).dirac([0, bad, 1], np.eye(4, dtype=complex))


def test_af_triple_sixteen_binary_levels_in_small_memory():
    orders = [2] * 16
    tracemalloc.start()
    try:
        report = check_af_triple(orders, list(range(17)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.residual == 0.0
    assert report.details["ranks"] == [1] + [2 ** i for i in range(16)]
    assert peak < 64 << 20   # the k + 1 = 17 stored test blocks are 2 MiB each


def _dense_af_residuals(filt, eigenvalues, rng):
    """Oracle: the af-triple residuals from the dense definition matrices applied to
    the same seeded test block."""
    qs = [_dense_af_projection(filt, i) for i in range(filt.depth + 1)]
    sizes, dim, scale = filt.level_sizes, filt.dim, checks.AF_BLOCK_SCALE
    block = scale * checks._gaussian_integers(rng, (dim, checks.AF_TEST_VECTORS))
    rank = max(abs(float(np.trace(q)) - (sizes[i] - (sizes[i - 1] if i else 0)))
               for i, q in enumerate(qs))
    orthogonality = max(checks._max_abs(qi @ (qj @ block) - (qj @ block if i == j else 0.0))
                        for i, qi in enumerate(qs) for j, qj in enumerate(qs))
    commutation = 0.0
    for i in range(filt.depth):
        values = checks._gaussian_integers(rng, sizes[i])
        rep = np.diag(values[np.arange(dim) % sizes[i]])
        for qj in qs[i + 1:]:
            commutation = max(commutation, checks._max_abs((qj @ rep - rep @ qj) @ block))
    constants = np.ones(dim, dtype=complex) / math.sqrt(dim)
    dirac = sum(float(lam) * q for lam, q in zip(eigenvalues, qs))
    gram = block.conj().T @ dirac @ block
    return {"rank": rank, "orthogonality": orthogonality / scale,
            "commutation": commutation / scale,
            "q0": checks._max_abs(qs[0] - np.outer(constants, constants.conj())),
            "dirac_hermitian": checks._max_abs(gram - gram.conj().T) / (dim * scale**2)}


@pytest.mark.parametrize("orders", [(2, 2, 2, 2, 2), (4, 4, 4, 4), (3, 2, 5), (5, 3),
                                    (2, 3, 2, 3)])
def test_af_residuals_match_dense_products(orders):
    filt = af_filtration(orders)
    eigenvalues = np.arange(len(orders) + 1.0)
    fast = checks._af_residuals(filt, eigenvalues, np.random.default_rng([7, 0xAF]))
    dense = _dense_af_residuals(filt, eigenvalues, np.random.default_rng([7, 0xAF]))
    assert np.float64(fast["q0"]).tobytes() == np.float64(dense["q0"]).tobytes()
    dyadic = all(n & (n - 1) == 0 for n in orders)
    for key in ("rank", "orthogonality", "commutation", "dirac_hermitian"):
        if dyadic:   # every mean and product is exact: both are exactly 0
            assert fast[key] == dense[key] == 0.0, key
        else:        # other summation orders: equal up to rounding
            assert abs(fast[key] - dense[key]) <= 1e-13, key
            assert fast[key] <= checks.EQUALITY_TOL, key


def _plant_af_defect(monkeypatch, index, defect):
    """Apply defect(q, block) instead of Q_index, where q applies the true Q_index."""
    project = AFFiltration.project

    def planted(self, i, block):
        if i != index:
            return project(self, i, block)
        return defect(lambda b: project(self, i, b), block)

    monkeypatch.setattr(AFFiltration, "project", planted)


def test_af_triple_fails_on_perturbed_projection(monkeypatch):
    e = np.zeros((12, 12))
    e[0, 1] = e[1, 0] = 1e-6
    _plant_af_defect(monkeypatch, 2, lambda q, v: q(v) + e @ v)
    report = check_af_triple([3, 2, 2], [0, 1, 2, 3])
    assert not report.passed
    assert report.details["orthogonality_residual"] > report.tolerance


def test_af_triple_fails_on_projection_mixing_residues(monkeypatch):
    # swapping x = 0 and x = 1 mixes the residues mod q_1 = 3 that level-1 functions see
    perm = np.arange(12)
    perm[[0, 1]] = [1, 0]
    _plant_af_defect(monkeypatch, 3, lambda q, v: q(v[perm])[perm])
    report = check_af_triple([3, 2, 2], [0, 1, 2, 3])
    assert not report.passed
    assert report.details["commutation_residual"] > report.tolerance


def test_af_triple_fails_on_defect_inside_projection_range(monkeypatch):
    # Q_2 + 1e-6 pi(b) Q_2 with b = (1, -1, 0) on Z/3 stays inside Q_2's range, so
    # Q_i Q_2' = 0 for i != 2 and only the idempotency residual |Q_2'^2 - Q_2'| sees it
    b = np.array([1.0, -1.0, 0.0])[np.arange(12) % 3, None]

    def inside(q, v):
        w = q(v)
        return w + 1e-6 * b * w

    _plant_af_defect(monkeypatch, 2, inside)
    report = check_af_triple([3, 2, 2], [0, 1, 2, 3])
    assert not report.passed
    assert report.details["orthogonality_residual"] > 1e-8
    assert report.details["commutation_residual"] <= report.tolerance


@pytest.mark.parametrize("argv, first, stop", [
    ("axioms --group Z --radius 10", 0, 1),
    ("cocycle --group Z2 --radius 10 --pair-radius 4", 3, 4),
    ("commutator --group Z --count 1 --support-radius 2 --radius 6", 5, 6),
    ("conditional-expectation --group Z --count 1 --support-radius 3", 25, 26),
    ("tail-bound --group Z2 --count 2 --support-radius 4 --radius 8", 45, 47),
    ("conjugation --group Z --count 2 --radius 4", 57, 59),
    ("coefficient-bounds --group Z --count 2 --support-radius 3", 71, 73),
    ("af-triple", 70, 71),
])
def test_verify_family_matches_suite_slice(suite0, capsys, argv, first, stop):
    # `verify <family>` and default_suite run the same instance generator
    code = run(["verify"] + argv.split())
    checks = json.loads(capsys.readouterr().out)["result"]["checks"]
    assert code == 0
    assert checks == json.loads(render_json([r.to_dict() for r in suite0[first:stop]]))


@pytest.mark.parametrize("group", [GroupSpec.finite_cyclic(6), GroupSpec.finite_cyclic(2),
                                   GroupSpec.free_abelian_times_cyclic(2, 3)])
def test_random_diagonal_action_respects_torsion(group):
    # every torsion generator of these standard generating sets has order n
    action = random_diagonal_action(np.random.default_rng(5), group, 3)
    torsion = [s for s in group.generators if group.is_torsion(s)]
    assert torsion
    for s in torsion:
        w = np.linalg.matrix_power(action.unitaries[s], group.torsion)
        assert np.max(np.abs(w - np.eye(3))) < 1e-12
