import copy
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
from horocp.checks import (
    CheckParams,
    random_crossed,
    random_diagonal_action,
    random_hermitian,
    run_family,
)
from horocp.operators import (coset_compress, lambda_op, m_ell, m_phi, pi_tilde, realize,
                              truncate)
from horocp.cli import render_json, run


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
    whole = SubgroupSpec.whole_group(z1)
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
        pi_a[k::n, k::n] = pi_tilde(H, action, action.act(group.inverse(h), a, spec)).matrix
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


# not subadditive: l(2) + l(10) = 2 < l(12) = 3, so translates leave the ball
NON_SUBADDITIVE = {(k,): 0 if k == 0 else 1 if k % 2 == 0 and abs(k) <= 10 else 3 if abs(k) <= 12
                   else 5 for k in range(-40, 41)}

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
        dense = loop_unitary_conjugation(a, f_values, g, spec, copy.deepcopy(action), radius)
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
    dense = loop_unitary_conjugation(a, f_vals, (0,), spec, copy.deepcopy(action), 2.0)
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
    monkeypatch.setattr(checks, "_unitary_stack", no_work)
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
    # op_norm sees x, E_H(x), the length commutator and its compression
    assert [_bits(a) for a in seen[2:]] == [_bits(comm), _bits(compressed)]

    # both sides of the identity residuals
    ell = checks._diagonal_of(m_ell(H))
    kept = np.tile(checks._coset_shift_mask(H, sub, g), (2, 2))
    assert _bits(np.where(kept, checks._diagonal_commutator(ell, x_mat), 0)) == _bits(compressed)
    assert _bits(checks._diagonal_commutator(ell, s_mat)) == \
        _bits(_dense_commutator(mell, s_mat))
    # [D_A (x) 1, .] sums in another order than the Kronecker product, the same on
    # both sides, so its residual stays exactly 0
    coeff = checks._coefficient_commutator(d_a, x_mat)
    dense_coeff = _dense_commutator(t_coeff, x_mat)
    assert np.max(np.abs(coeff - dense_coeff)) <= 1e-14 * np.max(np.abs(dense_coeff))
    assert np.array_equal(np.where(kept, coeff, 0) != 0,
                          coset_compress(dense_coeff @ lam_g_inv, H, sub) @ lam_g != 0)
    assert report.details["identity_residuals"] == {"coefficient": 0.0, "length": 0.0}


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


def test_default_suite_smoke(suite0):
    reports = suite0
    failures = [r.name for r in reports if not r.passed]
    assert not failures, failures


@pytest.mark.parametrize("orders", [(2, 2, 2, 2, 2), (4, 4, 4, 4), (3, 2, 5)])
def test_af_projections_match_block_average_definition(orders):
    filtration = af_filtration(orders)
    total = filtration.dim
    prev = np.zeros((total, total), dtype=complex)
    for q, proj in zip(filtration.level_sizes, filtration.projections):
        # P_q[x, y] = 1/(total/q) when x = y mod q: the averaging projection.
        p = np.zeros((total, total), dtype=complex)
        for x in range(total):
            for y in range(total):
                if x % q == y % q:
                    p[x, y] = 1.0 / (total // q)
        assert proj.dtype == p.dtype and np.array_equal(proj, p - prev)
        prev = p


def test_af_filtration_refuses_over_cap_before_allocating():
    # (8,8,8,8,8) would be six dense 32768 x 32768 complex projections (103 GB)
    tracemalloc.start()
    try:
        with pytest.raises(NonzeroCapError):
            af_filtration((8, 8, 8, 8, 8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _dense_af_residuals(filt, eigenvalues, rng):
    """Oracle: the af-triple residuals from dense dim x dim products."""
    qs, sizes, dim = filt.projections, filt.level_sizes, filt.dim
    rank = max(abs(float(np.real(np.trace(q))) - (sizes[i] - (sizes[i - 1] if i else 0)))
               for i, q in enumerate(qs))
    orthogonality = max(checks._max_abs(qi @ qj - (qi if i == j else 0.0))
                        for i, qi in enumerate(qs) for j, qj in enumerate(qs))
    commutation = 0.0
    for i in range(filt.depth):
        values = rng.normal(size=sizes[i]) + 1j * rng.normal(size=sizes[i])
        rep = np.diag(values[np.arange(dim) % sizes[i]])
        for qj in qs[i + 1:]:
            commutation = max(commutation, checks._max_abs(qj @ rep - rep @ qj))
    constants = np.ones(dim, dtype=complex) / math.sqrt(dim)
    dirac = filt.dirac(eigenvalues)
    return {"rank": rank, "orthogonality": orthogonality, "commutation": commutation,
            "q0": checks._max_abs(qs[0] - np.outer(constants, constants.conj())),
            "dirac_hermitian": checks._max_abs(dirac - dirac.conj().T)}


@pytest.mark.parametrize("orders", [(2, 2, 2, 2, 2), (4, 4, 4, 4), (3, 2, 5), (5, 3),
                                    (2, 3, 2, 3)])
def test_af_residuals_match_dense_products(orders):
    filt = af_filtration(orders)
    eigenvalues = np.linspace(-1.0, 2.5, len(orders) + 1)
    fast = checks._af_residuals(filt, eigenvalues, np.random.default_rng([7, 0xAF]))
    dense = _dense_af_residuals(filt, eigenvalues, np.random.default_rng([7, 0xAF]))
    for key in ("rank", "commutation", "q0", "dirac_hermitian"):
        assert np.float64(fast[key]).tobytes() == np.float64(dense[key]).tobytes(), key
    # a different summation order than Q_i @ Q_j: equal up to rounding
    assert abs(fast["orthogonality"] - dense["orthogonality"]) <= 1e-15
    assert fast["orthogonality"] <= checks.EQUALITY_TOL


def _plant_af_defect(monkeypatch, orders, index, defect):
    filt = af_filtration(orders)
    qs = list(filt.projections)
    qs[index] = defect(qs[index].copy())
    planted = dataclasses.replace(filt, projections=tuple(qs))
    monkeypatch.setattr(checks, "af_filtration", lambda _orders: planted)


def test_af_triple_fails_on_perturbed_projection(monkeypatch):
    def perturb(q):
        q[0, 1] += 1e-6
        q[1, 0] += 1e-6
        return q

    _plant_af_defect(monkeypatch, (3, 2, 2), 2, perturb)
    report = check_af_triple([3, 2, 2], [0, 1, 2, 3])
    assert not report.passed
    assert report.details["orthogonality_residual"] > report.tolerance


def test_af_triple_fails_on_projection_mixing_residues(monkeypatch):
    # swapping x = 0 and x = 1 mixes the residues mod q_1 = 3 that level-1 functions see
    perm = np.arange(12)
    perm[[0, 1]] = [1, 0]
    _plant_af_defect(monkeypatch, (3, 2, 2), 3, lambda q: q[np.ix_(perm, perm)])
    report = check_af_triple([3, 2, 2], [0, 1, 2, 3])
    assert not report.passed
    assert report.details["commutation_residual"] > report.tolerance


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
        w = np.linalg.matrix_power(action.unitary(s), group.torsion)
        assert np.max(np.abs(w - np.eye(3))) < 1e-12
