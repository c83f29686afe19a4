import math

import numpy as np
import pytest

from horocp import (
    ActionSpec,
    CrossedElement,
    GroupSpec,
    LengthFunction,
    SubgroupSpec,
    cauchy_gap_norm,
    clock_matrix,
    conditional_expectation,
    coset_compress,
    element_norm,
    even_dirac,
    lambda_op,
    lipschitz_seminorm,
    m_ell,
    m_phi,
    m_phi_g,
    odd_dirac,
    op_norm,
    realize,
    shift_matrix,
    truncate,
)
from horocp.operators import doubled, realize_phi_twisted


def svd_norm(mat):
    """Independent oracle for operator norms."""
    arr = mat.matrix if hasattr(mat, "matrix") else np.asarray(mat)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def test_lambda_compression_boundary(len_z1):
    H = truncate(len_z1, 5)
    lam = lambda_op(H, (1,))
    idx = H.ball.index
    col4 = lam.matrix[:, idx[(4,)]]
    assert col4[idx[(5,)]] == 1.0 and np.sum(np.abs(col4)) == 1.0
    assert np.max(np.abs(lam.matrix[:, idx[(5,)]])) == 0.0


def test_lambda_rejects_empty_operator(len_z1):
    H = truncate(len_z1, 2)
    with pytest.raises(ValueError):
        lambda_op(H, (5,))


def test_m_ell_diagonal(len_z1):
    H = truncate(len_z1, 3)
    diag = np.real(np.diag(m_ell(H).matrix))
    assert list(diag) == [0, 1, 1, 2, 2, 3, 3]


def test_m_phi_g_entry(len_z1):
    H = truncate(len_z1, 6)
    op = m_phi_g(H, (2,))
    idx = H.ball.index[(5,)]
    assert op.matrix[idx, idx] == 2.0  # |5| - |3|


def test_m_phi_diagonal(len_z2):
    H = truncate(len_z2, 3)
    op = m_phi(H, (1, -1))
    for h in H.ball.elements:
        i = H.ball.index[h]
        assert op.matrix[i, i] == h[0] - h[1]


def test_realize_identity(len_z1, z1):
    H = truncate(len_z1, 4)
    act = ActionSpec.trivial(z1, 1)
    x = CrossedElement.from_dict(z1, {(0,): [[1.0]]})
    assert np.allclose(realize(x, H, act).matrix, np.eye(H.dim))


def test_realize_bilateral_shift_sum(len_z1, z1):
    act = ActionSpec.trivial(z1, 1)
    x = CrossedElement.from_dict(z1, {(1,): [[1.0]], (-1,): [[1.0]]})
    H = truncate(len_z1, 6)
    mat = realize(x, H, act).matrix
    assert np.max(np.abs(mat - mat.conj().T)) == 0.0
    values = [element_norm(x, len_z1, act, r) for r in (5, 10, 20, 40)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert abs(values[-1] - 2.0) < 0.05
    norm, gap = cauchy_gap_norm(x, len_z1, act, 20)
    assert gap >= -1e-12


def test_realize_torus_coefficient_blocks(len_z1, z1):
    q = 3
    u, v = clock_matrix(q), shift_matrix(q)
    action = ActionSpec(z1, {(1,): u @ v, (-1,): (u @ v).conj().T})
    x = CrossedElement.from_dict(z1, {(0,): u})
    H = truncate(len_z1, 3, coeff_dim=q)
    mat = realize(x, H, action).matrix
    n = H.n_ball
    for h in H.ball.elements:
        j = H.ball.index[h]
        block = np.array([[mat[a * n + j, b * n + j] for b in range(q)] for a in range(q)])
        expected = np.exp(2j * np.pi * h[0] / q) * u
        assert np.max(np.abs(block - expected)) < 1e-12


def test_op_norm_examples(len_z1):
    assert op_norm(np.diag([1.0, 2.0, 3.0])) == pytest.approx(3.0, abs=1e-9)
    H = truncate(len_z1, 4)
    assert op_norm(lambda_op(H, (1,))) == pytest.approx(1.0, abs=1e-12)


def test_op_norm_matches_svd_oracle(len_z2, z2):
    rng = np.random.default_rng(7)
    act = ActionSpec.trivial(z2, 1)
    H = truncate(len_z2, 4)
    for _ in range(5):
        data = {}
        ball = len_z2.ball(2)
        for idx in rng.choice(len(ball), size=3, replace=False):
            data[ball.elements[int(idx)]] = [[complex(rng.normal(), rng.normal())]]
        x = CrossedElement.from_dict(z2, data)
        mat = realize(x, H, act)
        assert op_norm(mat) == pytest.approx(svd_norm(mat), rel=1e-8)


def test_commutator_norm_exact(len_z1):
    for radius in (2, 5, 10):
        H = truncate(len_z1, radius)
        lam = lambda_op(H, (1,)).matrix
        mell = m_ell(H).matrix
        assert op_norm(mell @ lam - lam @ mell) == pytest.approx(1.0, abs=1e-12)


def test_even_dirac_form(len_z1):
    H = truncate(len_z1, 2)
    dir_op = even_dirac(H, [[0.0]])
    n = H.dim
    mell = m_ell(H).matrix
    assert np.allclose(dir_op.matrix[:n, n:], -1j * mell)
    assert np.allclose(dir_op.matrix[n:, :n], 1j * mell)
    assert dir_op.hermitian_residual() < 1e-12
    eigs = np.sort(np.real(np.linalg.eigvalsh(dir_op.matrix)))
    lengths = sorted(float(H.ball.values[h]) for h in H.ball.elements)
    assert np.allclose(sorted(abs(e) for e in eigs)[::2], lengths, atol=1e-12)


def test_even_dirac_rejects_nonhermitian(len_z1):
    H = truncate(len_z1, 2, coeff_dim=2)
    with pytest.raises(ValueError):
        even_dirac(H, [[0.0, 1.0], [0.0, 0.0]])


def test_odd_dirac_form(len_z1):
    H = truncate(len_z1, 2)
    dir_op = odd_dirac(H, [[0.0]])
    n = H.dim
    mell = m_ell(H).matrix
    assert np.allclose(dir_op.matrix[:n, :n], mell)
    assert np.allclose(dir_op.matrix[n:, n:], -mell)
    assert dir_op.hermitian_residual() < 1e-12


def test_even_dirac_commutator_block_display(len_z1, z1):
    rng = np.random.default_rng(2)
    d = 2
    act = ActionSpec.trivial(z1, d)
    d_a = rng.normal(size=(d, d))
    d_a = d_a + d_a.T
    H = truncate(len_z1, 6, coeff_dim=d)
    x = CrossedElement.from_dict(
        z1, {(1,): rng.normal(size=(d, d)), (-2,): rng.normal(size=(d, d))}
    )
    x_mat = realize(x, H, act).matrix
    dir_op = even_dirac(H, d_a)
    comm = dir_op.matrix @ doubled(x_mat) - doubled(x_mat) @ dir_op.matrix
    a_part = np.kron(d_a, np.eye(H.n_ball))
    mell = m_ell(H).matrix
    c = a_part @ x_mat - x_mat @ a_part
    k = mell @ x_mat - x_mat @ mell
    n = H.dim
    assert np.max(np.abs(comm[:n, :n])) < 1e-12
    assert np.max(np.abs(comm[:n, n:] - (c - 1j * k))) < 1e-12
    assert np.max(np.abs(comm[n:, :n] - (c + 1j * k))) < 1e-12


def test_commutator_identity_window(len_z2, z2):
    rng = np.random.default_rng(4)
    d = 2
    act = ActionSpec.trivial(z2, d)
    x = CrossedElement.from_dict(
        z2, {(1, 1): rng.normal(size=(d, d)), (-1, 0): rng.normal(size=(d, d))}
    )
    H = truncate(len_z2, 6, coeff_dim=d)
    x_mat = realize(x, H, act).matrix
    mell = m_ell(H).matrix
    lhs = mell @ x_mat - x_mat @ mell
    rhs = realize_phi_twisted(x, H, act).matrix
    window = H.ball.radius - x.support_radius(len_z2)
    cols = [H.ball.index[h] for h in H.ball.elements if H.ball.values[h] <= window]
    full_cols = [a * H.n_ball + j for a in range(d) for j in cols]
    assert np.max(np.abs((lhs - rhs)[:, full_cols])) < 1e-12


def test_conditional_expectation_coefficients(z1):
    x = CrossedElement.from_dict(z1, {(0,): [[1.0]], (1,): [[2.0]], (2,): [[3.0]]})
    sub = SubgroupSpec.multiples(z1, 2)
    ex = conditional_expectation(x, sub)
    assert ex.support == ((0,), (2,))
    whole = SubgroupSpec.whole_group(z1)
    assert conditional_expectation(x, whole).support == x.support
    again = conditional_expectation(ex, sub)
    assert again.support == ex.support
    assert all(np.allclose(a, b) for (_, a), (_, b) in zip(again.coeffs, ex.coeffs))


def test_conditional_expectation_h3_center(h3):
    x = CrossedElement.from_dict(
        h3, {(0, 0, 0): [[1.0]], (1, 0, 0): [[1.0]], (0, 0, 1): [[1.0]]}
    )
    sub = SubgroupSpec.heisenberg_center(h3)
    assert conditional_expectation(x, sub).support == ((0, 0, 0), (0, 0, 1))


def test_conditional_expectation_contractive(len_z1, z1):
    rng = np.random.default_rng(9)
    act = ActionSpec.trivial(z1, 1)
    sub = SubgroupSpec.multiples(z1, 2)
    H = truncate(len_z1, 8)
    for _ in range(5):
        data = {(k,): [[complex(rng.normal(), rng.normal())]] for k in range(-3, 4)}
        x = CrossedElement.from_dict(z1, data)
        full = op_norm(realize(x, H, act))
        reduced = op_norm(realize(conditional_expectation(x, sub), H, act))
        assert reduced <= full + 1e-12


def test_coset_compress_matches_coefficient_route(len_z1, z1):
    rng = np.random.default_rng(12)
    act = ActionSpec.trivial(z1, 1)
    sub = SubgroupSpec.multiples(z1, 2)
    H = truncate(len_z1, 6)
    data = {(k,): [[complex(rng.normal(), rng.normal())]] for k in range(-2, 3)}
    x = CrossedElement.from_dict(z1, data)
    via_matrix = coset_compress(realize(x, H, act).matrix, H, sub)
    via_coeffs = realize(conditional_expectation(x, sub), H, act).matrix
    assert np.max(np.abs(via_matrix - via_coeffs)) < 1e-14


def test_subgroup_rejects_non_subgroup(z1):
    with pytest.raises(ValueError):
        SubgroupSpec("shifted", z1, lambda g: g[0] % 2 == 1, lambda g: g[0] % 2)


def test_lipschitz_seminorm_basics(len_z1, z1):
    act = ActionSpec.trivial(z1, 1)
    H = truncate(len_z1, 8)
    mell_op = m_ell(H)
    one = CrossedElement.from_dict(z1, {(0,): [[1.0]]})
    value, _ = lipschitz_seminorm(one, mell_op, act)
    assert value == 0.0
    lam = CrossedElement.from_dict(z1, {(1,): [[1.0]]})
    value, window = lipschitz_seminorm(lam, mell_op, act)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert window == 7.0


def test_lipschitz_seminorm_finite_exact():
    c4 = GroupSpec.finite_cyclic(4)
    spec = LengthFunction.word(c4)
    H = truncate(spec, math.inf)
    act = ActionSpec.trivial(c4, 1)
    lam = CrossedElement.from_dict(c4, {(1,): [[1.0]]})
    value, window = lipschitz_seminorm(lam, m_ell(H), act)
    assert math.isinf(window)
    assert value == pytest.approx(1.0, abs=1e-12)
    perm = lambda_op(H, (1,)).matrix
    assert np.allclose(perm @ perm.conj().T, np.eye(4))


def test_hermiticity_residuals(len_z2):
    H = truncate(len_z2, 4, coeff_dim=2)
    assert m_ell(H).hermitian_residual() < 1e-12
    assert m_phi(H, (1, 0)).hermitian_residual() < 1e-12
    d_a = np.array([[1.0, 2.0], [2.0, -1.0]])
    assert even_dirac(H, d_a).hermitian_residual() < 1e-12
    assert odd_dirac(H, d_a).hermitian_residual() < 1e-12


def test_action_projective_consistency(z1):
    q = 5
    u, v = clock_matrix(q), shift_matrix(q)
    action = ActionSpec(z1, {(1,): u @ v, (-1,): (u @ v).conj().T})
    for left, right, scalar, residual in action.relator_consistency():
        assert residual < 1e-12
        assert abs(abs(scalar) - 1.0) < 1e-12


def test_action_rejects_nonunitary(z1):
    with pytest.raises(ValueError):
        ActionSpec(z1, {(1,): [[2.0]], (-1,): [[0.5]]})


def test_dim_cap(len_z2):
    with pytest.raises(ValueError):
        truncate(len_z2, 4, coeff_dim=5000)


def test_unitary_along_long_geodesic_word(z1):
    # l(g) = 1500 lies far inside the dense cap; the walk must not recurse per letter.
    theta = 0.1
    w = np.array([[np.exp(1j * theta)]])
    action = ActionSpec(z1, {(1,): w, (-1,): w.conj()})
    spec = LengthFunction.word(z1)
    u = action.unitary((1500,), spec)
    assert len(spec.ball(1500)) == 3001
    assert abs(u[0, 0] - np.exp(1500j * theta)) < 1e-9
    assert np.array_equal(u, w @ action.unitary((1499,), spec))
