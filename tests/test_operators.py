import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from horocp import (
    ActionSpec,
    BallCapError,
    CrossedElement,
    GroupMismatchError,
    GroupSpec,
    H3_A,
    H3_B,
    H3_C,
    LengthFunction,
    NormSpec,
    SubgroupSpec,
    TruncatedHilbert,
    TruncatedOperator,
    cauchy_gap_norm,
    clock_matrix,
    cocycle_defect,
    commutator,
    conditional_expectation,
    coset_compress,
    element_norm,
    even_dirac,
    hexagonal_generators,
    lambda_op,
    lipschitz_seminorm,
    m_ell,
    m_phi,
    m_phi_g,
    odd_dirac,
    op_norm,
    op_norm_certified,
    phi,
    pi_tilde,
    realize,
    shift_matrix,
    truncate,
)
from horocp import groups, operators
from horocp.checks import (check_commutator_identity, check_unitary_conjugation, random_crossed,
                           random_diagonal_action, random_hermitian)
from horocp.groups import COORD_LIMIT, AxiomReport, CoordinateOverflowError
from horocp.operators import (
    DIM_CAP,
    DenseCapError,
    NonzeroCapError,
    _Entries,
    realize_phi_twisted,
)


def doubled(T):
    """x (+) x on the doubled space of a Dirac operator."""
    dim = T.shape[0]
    out = np.zeros((2 * dim, 2 * dim), dtype=complex)
    out[:dim, :dim] = T
    out[dim:, dim:] = T
    return out


def hermitian_residual(op):
    """max |T - T*| over the entries of a TruncatedOperator, block (t, j)
    against the adjoint of block (j, t), or against zero where that pair is
    absent; no dense view, so it runs past DIM_CAP."""
    n = op.hilbert.n_ball
    keys, mirrored = op.rows * n + op.cols, op.cols * n + op.rows
    order = np.argsort(keys)
    partner = order[np.searchsorted(keys, mirrored, sorter=order).clip(max=len(keys) - 1)]
    found = keys[partner] == mirrored
    residual = op.data.copy()
    residual[found] -= op.data[partner[found]].conj().transpose(0, 2, 1)
    return float(np.max(np.abs(residual), initial=0.0))


def heisenberg_center(h3):
    """The center <c> of H3, which is also its commutator subgroup."""
    return SubgroupSpec("<c>", h3, lambda g: g[0] == 0 and g[1] == 0, lambda g: (g[0], g[1]))


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


def test_dense_op_norm_reads_zero_and_permutations_off_the_entries():
    assert op_norm(np.zeros((5, 5), dtype=complex)) == 0.0
    assert op_norm(np.full((4, 4), complex(-0.0, -0.0))) == 0.0
    # a complex weighted partial permutation (rows 2 and 5, columns 3 and 4 empty)
    perm = np.zeros((6, 6), dtype=complex)
    perm[[0, 1, 3, 4], [2, 0, 5, 1]] = [1.5 + 2j, 3 - 4j, -2.5, 1e-300j]
    assert op_norm(perm) == 5.0  # |3 - 4i|, exactly
    assert op_norm(np.array([[3 + 4j]])) == 5.0
    assert op_norm(np.array([[0j]])) == 0.0
    # two entries in one row, or in one column, are not a permutation
    for a in ([[1, 1], [0, 0]], [[1, 0], [1, 0]]):
        assert op_norm(np.array(a, dtype=complex)) == pytest.approx(math.sqrt(2), rel=1e-12)


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


def two_buffer_op_norm(mat):
    """Reference: the dense op_norm with a separate adjoint copy beside its
    input, as it ran before it conjugated the input in place."""
    a = np.asarray(mat, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return 0.0
    if n == 1:
        return float(abs(a[0, 0]))
    nonzero = a != 0
    if not nonzero.any():
        return 0.0
    if np.all(nonzero.sum(axis=0) <= 1) and np.all(nonzero.sum(axis=1) <= 1):
        return float(np.max(np.abs(a[nonzero])))
    ah = a.conj().T

    def gram(v):
        return ah @ (a @ v)

    block = min(4, n)
    max_iter = max(50_000, 100 * n)

    def top_ritz(v):
        w = gram(v)
        h = v.conj().T @ w
        h = (h + h.conj().T) / 2
        vals, vecs = np.linalg.eigh(h)
        return w, float(vals[-1]), v @ vecs[:, -1]

    def iterate(v0):
        v, _ = np.linalg.qr(v0)
        lam = 0.0
        prev_delta = None
        window = 128
        lam_checkpoint = -1.0
        for it in range(max_iter):
            w, lam_new, top_vec = top_ritz(v)
            if np.linalg.norm(w) == 0.0:
                return 0.0
            delta = abs(lam_new - lam)
            floor = operators.NORM_TOL * max(abs(lam_new), 1e-300)
            converged = False
            if it > 0 and delta <= floor:
                if delta == 0.0:
                    converged = True
                elif prev_delta is not None and prev_delta > 0.0:
                    rho = delta / prev_delta
                    if rho < 0.99999:
                        converged = delta * rho / (1.0 - rho) <= 10 * floor
            if it % window == 0 and not converged:
                if lam_checkpoint >= 0.0 and abs(lam_new - lam_checkpoint) <= 0.1 * floor:
                    converged = True
                lam_checkpoint = lam_new
            if converged:
                return lam_new
            v, _ = np.linalg.qr(w)
            prev_delta = delta
            lam = lam_new
        return None

    start = np.zeros((n, block), dtype=complex)
    start[:, 0] = 1.0 / math.sqrt(n)
    for j in range(1, block):
        start[j - 1, j] = 1.0
    lam = iterate(start)
    if lam is None:
        rng = np.random.default_rng(0xC0FFEE)
        lam = iterate(rng.normal(size=(n, block)) + 1j * rng.normal(size=(n, block)))
    return math.sqrt(max(lam, 0.0))


def operator_cases(group, radius):
    rng = np.random.default_rng(22)
    spec = LengthFunction.word(group)
    x = random_crossed(rng, spec, 2.0, coeff_dim=2, terms=4)
    H = truncate(spec, radius, 2)
    x_op = realize(x, H, random_diagonal_action(rng, group, 2))
    return {"realize": x_op.matrix,
            "length-commutator": commutator(m_ell(H), x_op).matrix,
            "dirac-commutator": commutator(even_dirac(H, random_hermitian(rng, 2)), x_op).matrix}


def signed_zero_cases():
    """Real and imaginary parts that are -0.0 next to +0.0."""
    signed = np.array([[1.0, -0.0, 2.0], [complex(-0.0, -0.0), complex(3.0, -0.0), 0.0],
                       [complex(0.0, -0.0), 1.0, complex(-1.0, -0.0)]])
    H = truncate(LengthFunction.word(GroupSpec.free_abelian(1)), 6.0)
    mell = m_ell(H).matrix
    x = lambda_op(H, (1,)).matrix + 2 * lambda_op(H, (-1,)).matrix
    return {"matrix": signed, "matrix-conj": signed.conj(),
            "commutator": -(mell @ x - x @ mell).conj()}


def gaussian_cases():
    rng = np.random.default_rng(22)
    cases = {f"complex{n}": rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
             for n in (2, 3, 7, 40, 150)}
    cases["real"] = rng.normal(size=(60, 60))
    cases["fortran"] = np.asfortranarray(rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50)))
    return cases


REFERENCE_FAMILIES = {
    "gaussian": gaussian_cases,
    "z2": lambda: operator_cases(GroupSpec.free_abelian(2), 4.0),
    "h3": lambda: operator_cases(GroupSpec.heisenberg3(), 3.0),
    "signed-zeros": signed_zero_cases,
}


@pytest.mark.parametrize("family", list(REFERENCE_FAMILIES))
def test_op_norm_matches_two_buffer_reference(family):
    for label, mat in REFERENCE_FAMILIES[family]().items():
        before = mat.copy(order="K")
        assert op_norm(mat).hex() == two_buffer_op_norm(before).hex(), label
        assert mat.tobytes(order="A") == before.tobytes(order="A"), label  # restored


def test_op_norm_restores_its_argument_after_a_raise(monkeypatch):
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    mat[0, 1] = complex(-0.0, -0.0)
    before = mat.copy()
    qr, calls = np.linalg.qr, []

    def failing_qr(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise FloatingPointError("planted")
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", failing_qr)
    with pytest.raises(FloatingPointError, match="planted"):
        op_norm(mat)
    assert len(calls) == 3 and mat.tobytes() == before.tobytes()


def test_op_norm_of_a_read_only_argument():
    mat = np.random.default_rng(8).normal(size=(20, 20)) + 1j
    mat.setflags(write=False)
    before = mat.tobytes()
    assert op_norm(mat).hex() == two_buffer_op_norm(mat).hex()
    assert mat.tobytes() == before


def test_dense_op_norm_allocates_no_square_array():
    n = 400
    rng = np.random.default_rng(9)
    mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = op_norm(mat)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(svd_norm(mat), rel=1e-8)
    # the a != 0 mask takes 1/16 of this; a copy of the input would take all of it
    assert peak <= 0.25 * 16 * n * n


def test_even_dirac_form(len_z1):
    H = truncate(len_z1, 2)
    dir_op = even_dirac(H, [[0.0]])
    n = H.dim
    mell = m_ell(H).matrix
    assert np.allclose(dir_op.matrix[:n, n:], -1j * mell)
    assert np.allclose(dir_op.matrix[n:, :n], 1j * mell)
    assert hermitian_residual(dir_op) < 1e-12
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
    assert hermitian_residual(dir_op) < 1e-12


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
    whole = SubgroupSpec("G", z1, lambda g: True, lambda g: 0)
    assert conditional_expectation(x, whole).support == x.support
    again = conditional_expectation(ex, sub)
    assert again.support == ex.support
    assert all(np.allclose(a, b) for (_, a), (_, b) in zip(again.coeffs, ex.coeffs))


def test_conditional_expectation_h3_center(h3):
    x = CrossedElement.from_dict(
        h3, {(0, 0, 0): [[1.0]], (1, 0, 0): [[1.0]], (0, 0, 1): [[1.0]]}
    )
    sub = heisenberg_center(h3)
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


def test_hermiticity_residuals(len_z2, z2):
    H = truncate(len_z2, 4, coeff_dim=2)
    d_a = np.array([[1.0, 2.0], [2.0, -1.0]])
    hermitian = [m_ell(H), m_phi(H, (1, 0)), even_dirac(H, d_a), odd_dirac(H, d_a)]
    assert all(hermitian_residual(op) < 1e-12 for op in hermitian)
    rng = np.random.default_rng(171)
    x = random_crossed(rng, len_z2, 2.0, coeff_dim=2, terms=4)
    other = realize(x, H, random_diagonal_action(rng, z2, 2))
    assert hermitian_residual(other) > 0.1
    # read off the blocks, with the dense formula's bits
    for op in hermitian + [other]:
        mat = op.matrix
        dense = float(np.max(np.abs(mat - mat.conj().T), initial=0.0))
        assert hermitian_residual(op).hex() == dense.hex(), op.provenance


def test_hermitian_residual_beyond_dense_cap(len_z2, z2):
    a = np.array([[1.0, 2.0 - 1j], [0.5j, -1.5]])
    act = ActionSpec.trivial(z2, 2)
    H = truncate(len_z2, 110, coeff_dim=2)
    assert H.dim > DIM_CAP
    assert hermitian_residual(m_ell(H)) == 0.0
    shift = realize(CrossedElement.from_dict(z2, {(1, 0): a}), H, act)
    assert hermitian_residual(shift) == float(np.max(np.abs(a)))
    sym = CrossedElement.from_dict(z2, {(1, 0): a, (-1, 0): a.conj().T})
    assert hermitian_residual(realize(sym, H, act)) == 0.0


def test_action_projective_consistency(len_z1, z1):
    q = 5
    u, v = clock_matrix(q), shift_matrix(q)
    action = ActionSpec(z1, {(1,): u @ v, (-1,): (u @ v).conj().T})
    ball = len_z1.ball(4)
    stack = action.stack(ball)
    # W(k) W(-k) is a unimodular scalar times the identity along the walk
    for k in range(1, 5):
        pair = stack[ball.index[(k,)]] @ stack[ball.index[(-k,)]]
        scalar = np.trace(pair) / q
        assert np.max(np.abs(pair - scalar * np.eye(q))) < 1e-12
        assert abs(abs(scalar) - 1.0) < 1e-12


def test_action_refuses_inverse_pairs_that_do_not_match(z1):
    # before, this pair was accepted, and stack walked to -1 through a W that
    # does not invert W(1)
    w = np.diag([1j, 1.0])
    with pytest.raises(ValueError, match=r"\(-1,\) and \(1,\) are not inverse up to a scalar"):
        ActionSpec(z1, {(1,): w, (-1,): w})
    # an inverse up to a unimodular scalar is accepted, and so is a missing
    # inverse (stack refuses that); an involution's W_s^2 is a torsion
    # relator, which is not checked
    ActionSpec(z1, {(1,): w, (-1,): 1j * w.conj()})
    ActionSpec(z1, {(1,): w})
    ActionSpec(GroupSpec.finite_cyclic(2), {(1,): w})


def test_action_rejects_nonunitary(z1):
    with pytest.raises(ValueError):
        ActionSpec(z1, {(1,): [[2.0]], (-1,): [[0.5]]})


def test_dim_cap(len_z2):
    with pytest.raises(ValueError):
        truncate(len_z2, 4, coeff_dim=5000)


def test_unitary_along_long_geodesic_word(z1):
    # l(g) = 1500 lies far inside the dense cap; the stack grows 1500 spheres.
    theta = 0.1
    w = np.array([[np.exp(1j * theta)]])
    action = ActionSpec(z1, {(1,): w, (-1,): w.conj()})
    ball = LengthFunction.word(z1).ball(1500)
    stack = action.stack(ball)
    assert len(ball) == 3001
    u = stack[ball.index[(1500,)]]
    assert abs(u[0, 0] - np.exp(1500j * theta)) < 1e-9
    assert np.array_equal(u, w @ stack[ball.index[(1499,)]])


def test_unitary_stack_reaches_a_far_table_element(z1):
    # a table ball of three elements whose walk runs 10,001 spheres out
    w = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]) @ np.diag([1, 1j])
    action = ActionSpec(z1, {(1,): w, (-1,): w.conj().T})
    ball = LengthFunction.explicit_table(z1, {(10001,): 1, (-10001,): 1}).ball(1)
    stack = action.stack(ball)
    assert stack.shape == (3, 2, 2)
    far = stack[ball.index[(10001,)]]
    assert np.max(np.abs(far - np.linalg.matrix_power(w, 10001))) < 1e-9
    assert np.max(np.abs(stack[ball.index[(-10001,)]] @ far - np.eye(2))) < 1e-9


# ---------------------------------------------------------------------------
# Block-sparse operators against dense loop builds.  The reference builders
# below are the dense constructions the block-sparse ones replaced, and the
# Dirac operators entry by entry; the dense views must match them bit for
# bit, signed zeros included.  W(h) comes from walk_unitary, one element at a
# time, where the operators read one ActionSpec.stack over the ball.


@functools.cache
def own_word_length(action):
    """The word length of the action's generators, one per action."""
    return LengthFunction.word(action.group, sorted(action.unitaries))


def walk_unitary(action, g):
    """W(g) for one element: walk down geodesic predecessors s^-1 g of the
    word length of the action's own generators, s the first generator in
    sorted order one length down, and multiply W_s back up from the
    identity.  The length function of the ball plays no part."""
    group, walk = action.group, own_word_length(action)
    steps = []
    while g != group.identity():
        below = walk.length(g) - 1
        s = next(s for s in sorted(action.unitaries)
                 if walk.length(group.multiply(group.inverse(s), g)) == below)
        steps.append(s)
        g = group.multiply(group.inverse(s), g)
    w = np.eye(action.dim, dtype=complex)
    for s in reversed(steps):
        w = action.unitaries[s] @ w
    return w


def is_trivial(action):
    """Every W_s within HERMITIAN_TOL of the identity: ActionSpec.stack's rule
    for returning None, where the operators use the coefficient itself."""
    eye = np.eye(action.dim)
    return all(np.max(np.abs(w - eye)) < operators.HERMITIAN_TOL
               for w in action.unitaries.values())


def walk_act(action, g, a):
    """alpha_g(a) = W(g) a W(g)* through walk_unitary; a for a trivial action."""
    a = np.asarray(a, dtype=complex)
    if is_trivial(action):
        return a
    w = walk_unitary(action, g)
    return w @ a @ w.conj().T


def walk_act_inv(action, h, a):
    """alpha_{h^-1}(a), formed as W(h)* a W(h); a for a trivial action."""
    a = np.asarray(a, dtype=complex)
    if is_trivial(action):
        return a
    w = walk_unitary(action, h)
    return w.conj().T @ a @ w


def loop_lambda(H, g):
    n, d = H.n_ball, H.coeff_dim
    mat = np.zeros((H.dim, H.dim), dtype=complex)
    for j, h in enumerate(H.ball.elements):
        target = H.ball.index.get(H.group.multiply(g, h))
        if target is None:
            continue
        for alpha in range(d):
            mat[alpha * n + target, alpha * n + j] = 1.0
    return mat


def loop_pi_tilde(H, action, a):
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    n, d = H.n_ball, H.coeff_dim
    mat = np.zeros((H.dim, H.dim), dtype=complex)
    for j, h in enumerate(H.ball.elements):
        block = walk_act_inv(action, h, a)
        for alpha in range(d):
            for beta in range(d):
                mat[alpha * n + j, beta * n + j] = block[alpha, beta]
    return mat


def loop_diagonal(H, values):
    return np.kron(np.eye(H.coeff_dim, dtype=complex), np.diag(np.array(values, dtype=complex)))


def loop_realize(x, H, action, twisted=False):
    n, d = H.n_ball, H.coeff_dim
    group, spec = H.group, H.spec
    mat = np.zeros((H.dim, H.dim), dtype=complex)
    for g, a in x.coeffs:
        g_inv = group.inverse(g)
        for j, h in enumerate(H.ball.elements):
            gh = group.multiply(g, h)
            target = H.ball.index.get(gh)
            if target is None:
                continue
            block = walk_act_inv(action, gh, a)
            if twisted:
                weight = float(spec.length(gh)) - float(spec.length(group.multiply(g_inv, gh)))
                block = weight * block
            for alpha in range(d):
                for beta in range(d):
                    mat[alpha * n + target, beta * n + j] += block[alpha, beta]
    return mat


def loop_dirac(H, c, g):
    """D = C (x) 1 + G (x) M_l entry by entry: C[p, q] + l(h) G[p, q] at
    (p N + h, q N + h), every other entry zero."""
    n = H.n_ball
    mat = np.zeros((2 * H.dim, 2 * H.dim), dtype=complex)
    for i, h in enumerate(H.ball.elements):
        length = float(H.ball.values[h])
        for p in range(len(c)):
            for q in range(len(c)):
                mat[p * n + i, q * n + i] = c[p][q] + length * g[p][q]
    return mat


def loop_even_dirac(H, d_a):
    """Corner blocks D_A (x) 1 -/+ i (x) M_l."""
    d = H.coeff_dim
    c = [[d_a[p % d][q % d] if (p < d) != (q < d) else 0j for q in range(2 * d)]
         for p in range(2 * d)]
    g = [[(-1j if p < d else 1j) if (p < d) != (q < d) and p % d == q % d else 0j
          for q in range(2 * d)] for p in range(2 * d)]
    return loop_dirac(H, c, g)


def loop_odd_dirac(H, k_a):
    """Diagonal blocks +/- 1 (x) M_l, corners K (x) 1 and its adjoint."""
    d = H.coeff_dim
    k = np.asarray(k_a, dtype=complex)
    c = [[0j if (p < d) == (q < d) else k[p][q - d] if p < d else k[q][p - d].conjugate()
          for q in range(2 * d)] for p in range(2 * d)]
    g = [[(1.0 if p < d else -1.0) if p == q else 0.0 for q in range(2 * d)]
         for p in range(2 * d)]
    return loop_dirac(H, c, g)


def loop_coset_compress(T, H, subgroup):
    keys = [subgroup.coset_key(h) for h in H.ball.elements]
    n = H.n_ball
    mask = np.array([[keys[i] == keys[j] for j in range(n)] for i in range(n)], dtype=float)
    return np.asarray(T) * np.tile(mask, (H.coeff_dim, H.coeff_dim))


def dense_commutator(x_mat, dirac, window):
    """[D, x (+) x] from dense products, columns outside the window zeroed."""
    H = dirac.hilbert
    op = doubled(x_mat) if dirac.blocks == 2 else x_mat
    comm = dirac.matrix @ op - op @ dirac.matrix
    if not math.isinf(window):
        comm = comm * np.tile(H.lengths <= window, H.coeff_dim * dirac.blocks)[np.newaxis, :]
    return comm


def diagonal_action(group, d, rng):
    gens = {}
    for s in group.generators:
        if s not in gens:
            phases = np.exp(2j * np.pi * rng.random(d))
            gens[s] = np.diag(phases)
            gens[group.inverse(s)] = np.diag(phases.conj())
    return ActionSpec(group, gens)


def l2_length(group):
    return LengthFunction.norm_restriction(group, NormSpec.l2())


# not subadditive: l(2) + l(10) = 2 < l(12) = 3, so translates leave the ball
NON_SUBADDITIVE = {(k,): 0 if k == 0 else 1 if k % 2 == 0 and abs(k) <= 10 else 3 if abs(k) <= 12
                   else 5 for k in range(-40, 41)}


# (name, group, ball radius, support radius[, length function of the group;
# word length by default]); C5 at infinite radius is exact, Z2-l2 is a
# norm-restriction ball with irrational lengths
EQUIVALENCE_GROUPS = [
    ("Z1", GroupSpec.free_abelian(1), 7, 2),
    ("Z2", GroupSpec.free_abelian(2), 4, 2),
    ("H3", GroupSpec.heisenberg3(), 3, 1),
    ("C5", GroupSpec.finite_cyclic(5), math.inf, 2),
    ("C7", GroupSpec.finite_cyclic(7), 2, 1),
    ("Z2xC3", GroupSpec.free_abelian_times_cyclic(2, 3), 3, 2),
    ("Z2-l2", GroupSpec.free_abelian(2), 3.5, 1.5, l2_length),
]


def equivalence_cases():
    for gi, (name, *_) in enumerate(EQUIVALENCE_GROUPS):
        for d in (1, 2, 3):
            for trivial in (True, False):
                yield pytest.param(gi, d, trivial, id=f"{name}-d{d}-{'trivial' if trivial else 'diagonal'}")


def equivalence_setup(gi, d, trivial):
    name, group, radius, support, *length = EQUIVALENCE_GROUPS[gi]
    rng = np.random.default_rng([gi, d, trivial])
    spec = (length[0] if length else LengthFunction.word)(group)
    action = ActionSpec.trivial(group, d) if trivial else diagonal_action(group, d, rng)
    ball = spec.ball(support)
    picks = rng.choice(len(ball), size=min(3, len(ball)), replace=False)
    # real parts of either sign and exact zeros exercise the signed zeros
    x = CrossedElement.from_dict(group, {
        ball.elements[int(i)]: np.round(rng.normal(size=(d, d)), 1)
        + 1j * np.round(rng.normal(size=(d, d)), 1) * (k % 2)
        for k, i in enumerate(picks)})
    return rng, spec, action, x, truncate(spec, radius, d)


@pytest.mark.parametrize("gi,d,trivial", list(equivalence_cases()))
def test_dense_views_match_loop_builds(gi, d, trivial):
    rng, spec, action, x, H = equivalence_setup(gi, d, trivial)
    group = H.group
    g = x.support[-1]
    a = rng.normal(size=(d, d)) - 1j * rng.normal(size=(d, d))
    d_a = rng.normal(size=(d, d))
    d_a = d_a + d_a.T
    k_a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    functional = (1, -2) if group.abelianization_rank >= 2 else (-1,) * group.abelianization_rank
    lengths = [float(H.ball.values[h]) for h in H.ball.elements]
    phi_values = [float(sum(c * v for c, v in zip(functional, group.abelianization(h))))
                  for h in H.ball.elements]
    phi_g_values = [float(spec.length(h)) - float(spec.length(group.multiply(group.inverse(g), h)))
                    for h in H.ball.elements]
    pairs = [
        (lambda_op(H, g), loop_lambda(H, g)),
        (pi_tilde(H, action, a), loop_pi_tilde(H, action, a)),
        (m_ell(H), loop_diagonal(H, lengths)),
        (m_phi(H, functional), loop_diagonal(H, phi_values)),
        (m_phi_g(H, g), loop_diagonal(H, phi_g_values)),
        (realize(x, H, action), loop_realize(x, H, action)),
        (realize_phi_twisted(x, H, action), loop_realize(x, H, action, twisted=True)),
        (even_dirac(H, d_a), loop_even_dirac(H, d_a)),
        (odd_dirac(H, k_a), loop_odd_dirac(H, k_a)),
    ]
    for op, ref in pairs:
        assert op.matrix.tobytes() == ref.tobytes(), op.provenance
    if group.is_free_abelian and group.rank == 1:
        subgroup = SubgroupSpec.multiples(group, 2)
    elif group.is_heisenberg:
        subgroup = heisenberg_center(group)
    else:
        # the kernel of the functional mod 3; the whole group where there is none
        mod3 = lambda g: sum(c * v for c, v in zip(functional, group.abelianization(g))) % 3
        subgroup = SubgroupSpec("ker mod 3", group, lambda g: mod3(g) == 0, mod3)
    x_mat = realize(x, H, action).matrix
    assert coset_compress(x_mat, H, subgroup).tobytes() == \
        loop_coset_compress(x_mat, H, subgroup).tobytes()


@pytest.mark.parametrize("gi,d,trivial", list(equivalence_cases()))
def test_structured_norms_match_dense(gi, d, trivial):
    rng, spec, action, x, H = equivalence_setup(gi, d, trivial)
    x_op = realize(x, H, action)
    d_a = rng.normal(size=(d, d))
    d_a = d_a + d_a.T
    diracs = [m_ell(H), even_dirac(H, d_a), odd_dirac(H, rng.normal(size=(d, d)))]
    norms = [(op_norm(x_op), x_op.matrix)]
    for dirac in diracs:
        value, window = lipschitz_seminorm(x, dirac, action)
        assert window == (math.inf if H.exact else H.ball.radius - x.support_radius(spec))
        norms.append((value, dense_commutator(x_op.matrix, dirac, window)))
    radius = 2.0 if H.exact else H.ball.radius
    norms.append((element_norm(x, spec, action, radius),
                  realize(x, truncate(spec, radius, d), action).matrix))
    for value, dense in norms:
        lapack = float(np.linalg.norm(dense, 2))
        assert abs(value - lapack) <= 1e-12 * lapack


def test_lipschitz_seminorm_refuses_dense_operands(len_z1, z1):
    # a crossed element only: neither its dense view nor its realization
    H, act = truncate(len_z1, 3), ActionSpec.trivial(z1, 1)
    x_op = realize(CrossedElement.from_dict(z1, {(1,): [[1.0]]}), H, act)
    for operand in (x_op.matrix, x_op):
        with pytest.raises(TypeError, match="must be a CrossedElement"):
            lipschitz_seminorm(operand, m_ell(H), act)


def test_commutator_refuses_other_operands(len_z1, z1):
    # a D that is not block diagonal over the ball, an X on a smaller ball
    H, act = truncate(len_z1, 5), ActionSpec.trivial(z1, 1)
    x = CrossedElement.from_dict(z1, {(1,): [[1.0]], (-2,): [[0.5j]]})
    other = realize(x, truncate(len_z1, 4), act)
    with pytest.raises(ValueError, match="block diagonal"):
        commutator(lambda_op(H, (1,)), realize(x, H, act))
    with pytest.raises(ValueError, match="block diagonal"):
        lipschitz_seminorm(x, lambda_op(H, (1,)), act)
    with pytest.raises(ValueError, match="different spaces"):
        commutator(m_ell(H), other)


def test_commutator_counts_blocks_before_allocating(len_z2, z2, monkeypatch):
    x = CrossedElement.from_dict(z2, {(1, 0): [[1.0]], (0, -1): [[0.5j]], (1, 1): [[-2.0]]})
    act = ActionSpec.trivial(z2, 1)
    H = truncate(len_z2, 40)
    x_op, dirac = realize(x, H, act), even_dirac(H, [[1.0]])
    entries = len(x_op.rows) * 4  # 2 x 2 blocks of x (+) x, 16 bytes an entry
    monkeypatch.setattr(operators, "NONZERO_CAP", entries - 1)
    tracemalloc.start()
    try:
        with pytest.raises(NonzeroCapError, match=f"^{entries} stored entries"):
            commutator(dirac, x_op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < entries
    monkeypatch.setattr(operators, "NONZERO_CAP", entries)
    assert commutator(dirac, x_op).data.shape == (len(x_op.rows), 2, 2)
    # lipschitz_seminorm counts the blocks in its window of radius 38 only
    windowed = int(np.count_nonzero(H.lengths[x_op.cols] <= 38)) * 4
    monkeypatch.setattr(operators, "NONZERO_CAP", windowed - 1)
    with pytest.raises(NonzeroCapError, match=f"^{windowed} stored entries"):
        lipschitz_seminorm(x, dirac, act)


def test_functionals_of_the_wrong_length_are_refused(len_z2, z2):
    H = truncate(len_z2, 2)
    for functional in [(1,), (1, 2, 3)]:
        with pytest.raises(ValueError, match="rank 2"):
            m_phi(H, functional)
        with pytest.raises(ValueError, match="rank 2"):
            SubgroupSpec.kernel_of(z2, functional)
    c5 = GroupSpec.finite_cyclic(5)
    with pytest.raises(ValueError, match="rank 0"):
        SubgroupSpec.kernel_of(c5, (1,))
    assert SubgroupSpec.kernel_of(c5, ()).contains((3,))


def test_from_dict_refuses_non_square_coefficients(z1):
    with pytest.raises(ValueError, match=r"\(2,\).*\(2, 3\)"):
        CrossedElement.from_dict(z1, {(0,): np.eye(2), (2,): np.ones((2, 3))})
    with pytest.raises(ValueError, match=r"\(1,\)"):
        CrossedElement.from_dict(z1, {(1,): np.ones((2, 2, 2))})
    # scalars and 1 x 1 lists stay 1 x 1 coefficients
    x = CrossedElement.from_dict(z1, {(1,): 2.0, (2,): [[3.0]]})
    assert x.coeff_dim == 1


def test_lipschitz_seminorm_allocates_no_dense_matrix(len_z2, z2):
    import tracemalloc

    rng = np.random.default_rng(5)
    ball = len_z2.ball(3)
    x = CrossedElement.from_dict(z2, {
        ball.elements[int(i)]: [[complex(rng.normal(), rng.normal())]]
        for i in rng.choice(len(ball), size=5, replace=False)})
    act = ActionSpec.trivial(z2, 1)
    H = truncate(len_z2, 16)
    dirac = even_dirac(H, [[1.0]])
    tracemalloc.start()
    try:
        value, window = lipschitz_seminorm(x, dirac, act)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value > 0 and window == 13.0
    assert peak < 16 * dirac.dim ** 2  # one dense 2N x 2N complex matrix


def arpack_norm(op, ncv=20):
    """Independent oracle for large operator norms: scipy ARPACK on A*A."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    rows, cols, vals = op.entries()
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(op.dim, op.dim))
    gram = spla.LinearOperator(mat.shape, matvec=lambda v: mat.conj().T @ (mat @ v), dtype=complex)
    lam = spla.eigsh(gram, k=1, which="LA", tol=0, ncv=ncv,
                     v0=np.ones(op.dim, dtype=complex), return_eigenvectors=False)[0]
    return math.sqrt(lam)


def test_element_norm_beyond_dense_cap(len_z2, z2):
    a = np.array([[1.0, 2.0 - 1j], [0.5j, -1.5]])
    x = CrossedElement.from_dict(z2, {(1, 0): a})
    act = ActionSpec.trivial(z2, 2)
    H = truncate(len_z2, 110, coeff_dim=2)
    assert H.n_ball == 24_421 and H.dim > DIM_CAP
    value = element_norm(x, len_z2, act, 110)
    op = realize(x, H, act)
    assert value == pytest.approx(arpack_norm(op), rel=1e-12)
    assert value == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
    with pytest.raises(DenseCapError):
        op.matrix


def test_structured_operators_respect_nonzero_cap(len_z2):
    with pytest.raises(NonzeroCapError):
        truncate(len_z2, 4, coeff_dim=5000)


@pytest.mark.parametrize("gi", range(len(EQUIVALENCE_GROUPS)),
                         ids=[entry[0] for entry in EQUIVALENCE_GROUPS])
def test_empty_element_and_translates_leaving_the_box(gi):
    rng, spec, action, x, H = equivalence_setup(gi, 2, False)
    group, ball = H.group, H.ball
    empty = CrossedElement.from_dict(group, {})
    for op, ref in [(realize(empty, H, action), loop_realize(empty, H, action)),
                    (realize_phi_twisted(empty, H, action),
                     loop_realize(empty, H, action, twisted=True))]:
        assert op.rows.size == op.cols.size == op.data.shape[0] == 0
        assert op.matrix.tobytes() == ref.tobytes()
        assert op_norm(op) == 0.0
    assert lipschitz_seminorm(empty, m_ell(H), action)[0] == 0.0
    # translates by elements up to three times the ball's reach, most of
    # whose images leave its bounding box, against dict lookups
    far = spec.ball(3 * (2.0 if H.exact else H.ball.radius))
    for g in far.elements[::3]:
        expected = [ball.index.get(group.multiply(g, h), -1) for h in ball.elements]
        assert ball.translate(g).tolist() == expected
        if H.exact or float(spec.length(g)) <= 2 * ball.radius:
            assert lambda_op(H, g).matrix.tobytes() == loop_lambda(H, g).tobytes()


def test_ball_translation_refuses_int64_overflow(h3, z3):
    # H3 coordinates at the limit: the product's x y' term is near 2**62 and
    # must come out exact, not wrapped
    top = COORD_LIMIT
    table = {(top, 0, 0): 1, (0, top, 0): 1, (top, top, 0): 1, (1, 1, 0): 1}
    ball = LengthFunction.explicit_table(h3, table).ball(1)
    for g in ball.elements:
        expected = [ball.index.get(h3.multiply(g, h), -1) for h in ball.elements]
        assert ball.translate(g).tolist() == expected
    with pytest.raises(CoordinateOverflowError):
        ball.translate((top + 1, 0, 0))
    wide = LengthFunction.explicit_table(h3, {(top + 1, 0, 0): 1}).ball(1)
    with pytest.raises(CoordinateOverflowError):
        wide.translate((0, 0, 0))
    # a table key beyond int64: the ball still lists it exactly
    huge = LengthFunction.explicit_table(h3, {(2**70, 0, 0): 1}).ball(1)
    assert huge.elements == ((0, 0, 0), (2**70, 0, 0)) and huge.values[(2**70, 0, 0)] == 1
    with pytest.raises(CoordinateOverflowError):
        huge.translate((0, 0, 0))
    # a bounding box of more than 2**63 points has no exact int64 key
    corners = {(-top, -top, -top): 1, (top, top, top): 1}
    with pytest.raises(CoordinateOverflowError):
        LengthFunction.explicit_table(z3, corners).ball(1).translate((0, 0, 0))


# The per-element loops that phi, cocycle_defect, m_phi_g and the
# subadditivity half of check_axioms ran before they gathered lengths over
# translated coordinate arrays; the references for the gathered paths.


def loop_phi(g, ball, spec):
    group = ball.group
    g_inv = group.inverse(g)
    return {h: spec.length(h) - spec.length(group.multiply(g_inv, h)) for h in ball}


def loop_cocycle(g, h, ball, spec):
    group = ball.group
    gh_inv = group.inverse(group.multiply(g, h))
    g_inv, h_inv = group.inverse(g), group.inverse(h)
    worst = 0.0
    for x in ball:
        lx = spec.length(x)
        gx = group.multiply(g_inv, x)
        phi_gh = lx - spec.length(group.multiply(gh_inv, x))
        phi_g = lx - spec.length(gx)
        phi_h_at = spec.length(gx) - spec.length(group.multiply(h_inv, gx))
        worst = max(worst, abs(float(phi_gh - phi_h_at - phi_g)))
    return worst


def loop_m_phi_g_values(H, g):
    group, spec = H.group, H.spec
    g_inv = group.inverse(g)
    return [float(spec.length(h)) - float(spec.length(group.multiply(g_inv, h)))
            for h in H.ball.elements]


def loop_axioms(spec, radius):
    half = spec.ball(radius / 2)
    group = spec.group
    identity_violation = abs(float(spec.length(group.identity())))
    symmetry, skipped = 0.0, 0
    for g in half:
        try:
            symmetry = max(symmetry, abs(float(spec.length(g)) - float(spec.length(group.inverse(g)))))
        except (ValueError, BallCapError):
            skipped += 1
    subadd, checked = 0.0, 0
    for g in half:
        lg = float(half.values[g])
        for h in half:
            try:
                lgh = float(spec.length(group.multiply(g, h)))
            except (ValueError, BallCapError):
                skipped += 1
                continue
            checked += 1
            subadd = max(subadd, lgh - lg - float(half.values[h]))
    return AxiomReport(identity_violation, symmetry, max(0.0, subadd), checked, skipped)


def fraction_table(group):
    """An explicit table on Z of Fraction lengths |k| + 1/3 (0 at k = 0), |k| <= 6."""
    return LengthFunction.explicit_table(
        group, {(k,): Fraction(3 * abs(k) + 1, 3) if k else Fraction(0) for k in range(-6, 7)})


GATHER_CASES = [(entry[0], entry) for entry in EQUIVALENCE_GROUPS] + [
    ("Z1-table", ("Z1-table", GroupSpec.free_abelian(1), 3.5, 1.4, fraction_table))]


@pytest.mark.parametrize("entry", [case for _, case in GATHER_CASES],
                         ids=[name for name, _ in GATHER_CASES])
def test_gathered_exact_layer_matches_loops(entry):
    name, group, radius, support, *length = entry
    make = length[0] if length else LengthFunction.word
    spec, ref = make(group), make(group)
    ball, ref_ball = spec.ball(radius), ref.ball(radius)
    near = spec.ball(support).elements
    for g in near:
        values = phi(g, ball).values
        expect = loop_phi(g, ref_ball, ref)
        assert list(values.items()) == list(expect.items())
        assert [type(v) for v in values.values()] == [type(v) for v in expect.values()]
        for h in near[::2]:
            assert cocycle_defect(g, h, ball) == loop_cocycle(g, h, ref_ball, ref)
    for d in (1, 2):
        H = truncate(spec, radius, d)
        for g in near:
            op = m_phi_g(H, g)
            assert op.matrix.tobytes() == loop_diagonal(H, loop_m_phi_g_values(H, g)).tobytes()
    for r in (radius, 2 * radius + 1):
        assert spec.check_axioms(r) == loop_axioms(ref, r)


def test_gathered_paths_keep_the_table_domain_error():
    # translates leaving the tabulated domain raise the table's ValueError,
    # and check_axioms counts those pairs as skipped, as the loops did
    z1 = GroupSpec.free_abelian(1)
    spec, ref = fraction_table(z1), fraction_table(z1)
    ball = spec.ball(6)
    for fn in (lambda s, b: phi((2,), b).values, lambda s, b: loop_phi((2,), b, s),
               lambda s, b: cocycle_defect((1,), (1,), b),
               lambda s, b: loop_cocycle((1,), (1,), b, s),
               lambda s, b: m_phi_g(TruncatedHilbert(b, 1), (3,))):
        with pytest.raises(ValueError, match="outside the tabulated domain"):
            fn(spec, ball)
    report = spec.check_axioms(12)
    assert report == loop_axioms(ref, 12) and report.pairs_skipped > 0
    # with a negative value in the table, a skipped pair's missing length
    # must not enter the subadditivity maximum
    broken = {(0,): 0, (1,): -5, (-1,): 1}
    report = LengthFunction.explicit_table(z1, broken).check_axioms(4)
    assert report == loop_axioms(LengthFunction.explicit_table(z1, broken), 4)
    assert report.subadditivity_violation == 4 and report.pairs_skipped == 2


def test_gathered_axioms_skip_pairs_beyond_the_cap():
    # word-length products past the BFS cap are skipped pair by pair, exactly
    # as the per-element loop skipped them
    z2 = GroupSpec.free_abelian(2)
    spec, ref = LengthFunction.word(z2, cap=100), LengthFunction.word(z2, cap=100)
    report = spec.check_axioms(8)
    assert report == loop_axioms(ref, 8)
    assert report.pairs_skipped > 0 and report.pairs_checked > 0
    assert spec._ends == ref._ends
    assert np.array_equal(spec._cache_rows(), ref._cache_rows())


def test_refused_sphere_is_formed_once(monkeypatch):
    # a sphere refused at the cap leaves the cache as it was, so the
    # skipped pairs of check_axioms past the cap must not form it again for
    # each missing row (58,309 _next_sphere calls and 9 s before); the report
    # is the one the retrying code gave
    real, calls = groups._next_sphere, []

    def counted(*args):
        calls.append(args)
        assert len(calls) <= 100, "the refused sphere is formed again and again"
        return real(*args)

    monkeypatch.setattr(groups, "_next_sphere", counted)
    spec = LengthFunction.word(GroupSpec.free_abelian(2), cap=400)
    assert spec.check_axioms(26) == AxiomReport(0.0, 0.0, 0.0, 74929, 58296)
    assert len(calls) == 14  # radii 1 to 13, then radius 14 refused once
    spec.cap = 421  # a cap that holds radius 14 forms it afresh
    assert len(spec.ball(14)) == 421 and len(calls) == 15


def dense_commutator_residual(x, spec, action, radius):
    """check_commutator_identity's residual from the dense loop builds."""
    H = truncate(spec, radius, x.coeff_dim)
    x_mat = loop_realize(x, H, action)
    mell = loop_diagonal(H, [float(H.ball.values[h]) for h in H.ball.elements])
    lhs = mell @ x_mat - x_mat @ mell
    rhs = loop_realize(x, H, action, twisted=True)
    window = math.inf if H.exact else H.ball.radius - x.support_radius(spec)
    mask = np.tile(H.lengths <= window, H.coeff_dim)
    return float(np.max(np.abs((lhs - rhs)[:, mask]), initial=0.0))


@pytest.mark.parametrize("gi,d,trivial", [
    case for case in equivalence_cases()
    if EQUIVALENCE_GROUPS[case.values[0]][0] in ("Z1", "Z2", "H3", "C5", "Z2xC3")])
def test_commutator_residual_matches_dense_build(gi, d, trivial):
    rng, spec, action, x, H = equivalence_setup(gi, d, trivial)
    report = check_commutator_identity(x, spec, action, H.ball.radius)
    assert report.residual == dense_commutator_residual(x, spec, action, H.ball.radius)


def test_structured_op_norm_is_repeatable(len_z2, z2):
    # the matvec buffers are reused across Lanczos steps and the start vector
    # is seeded; repeated calls give the same float
    rng = np.random.default_rng(11)
    ball = len_z2.ball(3)
    x = CrossedElement.from_dict(z2, {
        ball.elements[int(i)]: [[complex(rng.normal(), rng.normal())]]
        for i in rng.choice(len(ball), size=5, replace=False)})
    op = realize(x, truncate(len_z2, 12), diagonal_action(z2, 1, rng))
    first = op_norm(op)
    assert [op_norm(op) for _ in range(3)] == [first] * 3
    assert first == pytest.approx(svd_norm(op), rel=1e-9)


def test_buffered_entries_match_fresh_products(len_z2, z2):
    rng = np.random.default_rng(13)
    x = CrossedElement.from_dict(z2, {(1, 0): [[1.5 - 0.5j]], (0, -1): [[0.25j]],
                                      (1, 1): [[-2.0]]})
    op = realize(x, truncate(len_z2, 6), ActionSpec.trivial(z2, 1))
    rows, cols, values = op.entries()
    n = op.dim
    entries = _Entries(rows, cols, values, n)

    def fresh(v):
        # the unbuffered gather / multiply / reduceat
        order = np.argsort(rows, kind="stable")
        r, c, val = rows[order], cols[order], values[order]
        starts = np.flatnonzero(np.diff(r, prepend=-1))
        out = np.zeros(n, dtype=complex)
        out[r[starts]] = np.add.reduceat(val * v[c], starts)
        return out

    assert len(np.unique(rows)) < n  # rows without entries stay zero in the buffer
    first_vector, second_vector = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    first = entries.apply(first_vector)
    assert first.tobytes() == fresh(first_vector).tobytes()
    # the next call overwrites the same buffer
    second = entries.apply(second_vector)
    assert second is first
    assert second.tobytes() == fresh(second_vector).tobytes()


# ---------------------------------------------------------------------------
# Krylov-Schur norms and per-sphere unitaries.


def captured_norms(monkeypatch):
    """Record every operator passed to op_norm (the seminorm's commutator too)."""
    seen = []
    original = operators.op_norm

    def recording(T, *args, **kwargs):
        seen.append(T)
        return original(T, *args, **kwargs)

    monkeypatch.setattr(operators, "op_norm", recording)
    return seen


@pytest.mark.parametrize("gi,d,trivial", list(equivalence_cases()))
def test_certified_bracket_contains_lapack(gi, d, trivial, monkeypatch):
    rng, spec, action, x, H = equivalence_setup(gi, d, trivial)
    d_a = rng.normal(size=(d, d))
    seen = captured_norms(monkeypatch)
    values = [operators.op_norm(realize(x, H, action)),
              operators.op_norm(realize_phi_twisted(x, H, action))]
    for dirac in (m_ell(H), even_dirac(H, d_a + d_a.T), odd_dirac(H, rng.normal(size=(d, d)))):
        values.append(lipschitz_seminorm(x, dirac, action)[0])
    assert len(seen) == len(values)
    for op, value in zip(seen, values):
        result = op_norm_certified(op)
        lapack = svd_norm(op)
        assert result.lower == value
        assert result.lower <= lapack * (1 + 1e-12)
        assert lapack <= result.upper * (1 + 1e-12)
        assert abs(result.lower - lapack) <= 1e-12 * lapack


def test_z2_diagonal_m_ell_seminorm_matches_lapack():
    # the power iteration stopped 18.7 % low here (1.7205 against 2.1164)
    rng, spec, action, x, H = equivalence_setup(1, 1, False)
    assert H.n_ball == 41
    value, window = lipschitz_seminorm(x, m_ell(H), action)
    lapack = float(np.linalg.norm(dense_commutator(realize(x, H, action).matrix, m_ell(H), window), 2))
    assert abs(value - lapack) <= 1e-12 * lapack


def test_large_z2_seminorms_match_arpack(len_z2, z2, monkeypatch):
    rng = np.random.default_rng(60)
    support = [(0, 0), (1, 0), (0, -1), (2, 1), (-1, -2)]
    x = CrossedElement.from_dict(z2, {g: [[complex(rng.normal(), rng.normal())]] for g in support})
    assert x.support_radius(len_z2) == 3.0
    act = ActionSpec.trivial(z2, 1)
    H = truncate(len_z2, 60)
    assert H.n_ball == 7_321
    seen = captured_norms(monkeypatch)
    for dirac in (m_ell(H), even_dirac(H, [[1.0]])):
        value, window = lipschitz_seminorm(x, dirac, act)
        assert window == 57.0
        result = op_norm_certified(seen[-1])
        assert result.method == "lanczos" and result.residual <= 1e-10
        assert result.lower == value <= result.upper
        assert value == pytest.approx(arpack_norm(seen[-1], ncv=40), rel=1e-12)


def test_clustered_element_norm_matches_arpack(len_z2, z2):
    # a clustered top of the spectrum: the power iteration took 135 s here
    # and stopped 2.5e-6 low
    x = CrossedElement.from_dict(z2, {(1, 0): [[1.0]], (0, 1): [[0.5j]], (-1, -1): [[0.25]]})
    act = ActionSpec.trivial(z2, 1)
    value = element_norm(x, len_z2, act, 110)
    reference = arpack_norm(realize(x, truncate(len_z2, 110), act), ncv=40)
    assert value == pytest.approx(reference, rel=1e-12)


def test_certified_norm_exact_paths(len_z1, z1):
    H = truncate(len_z1, 30)
    act = ActionSpec.trivial(z1, 1)
    empty = op_norm_certified(realize(CrossedElement.from_dict(z1, {}), H, act))
    assert (empty.lower, empty.upper, empty.method) == (0.0, 0.0, "empty")
    shift = op_norm_certified(realize(CrossedElement.from_dict(z1, {(2,): [[3 - 4j]]}), H, act))
    assert (shift.lower, shift.upper, shift.method) == (5.0, 5.0, "permutation")
    small = realize(CrossedElement.from_dict(z1, {(1,): [[1.0]], (-1,): [[1.0]]}),
                    truncate(len_z1, 5), act)
    result = op_norm_certified(small)
    assert result.method == "lapack" and result.lower == float(np.linalg.norm(small.matrix, 2))
    assert result.upper == 2.0
    # rank one: the Krylov basis turns invariant after two products
    row = TruncatedOperator(H, "one row", np.array([0, 0]), np.array([0, 1]),
                            np.array([[[3.0]], [[4.0j]]]))
    result = op_norm_certified(row)
    assert result.method == "lanczos" and result.iterations == 2
    assert result.lower == pytest.approx(5.0, rel=1e-15)
    assert result.upper == math.sqrt(4.0 * 7.0)  # largest column sum times largest row sum


def test_lanczos_basis_respects_nonzero_cap(len_z2, z2, monkeypatch):
    x = CrossedElement.from_dict(z2, {(1, 0): [[1.0]], (0, 1): [[0.5]]})
    op = realize(x, truncate(len_z2, 8), ActionSpec.trivial(z2, 1))
    basis = (operators.LANCZOS_BASIS + 1) * op.dim
    monkeypatch.setattr(operators, "NONZERO_CAP", basis - 1)
    with pytest.raises(NonzeroCapError):
        op_norm(op)
    monkeypatch.setattr(operators, "NONZERO_CAP", basis)
    assert op_norm(op) == pytest.approx(svd_norm(op), rel=1e-12)


def unitary_action(group, d, rng):
    """Random unitaries W_s (not diagonal, so the order of the products
    shows in the bits), W_{s^-1} = W_s*."""
    gens = {}
    for s in group.generators:
        if s not in gens:
            q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            gens[s], gens[group.inverse(s)] = q, q.conj().T
    return ActionSpec(group, gens)


def hexagonal_length(group):
    return LengthFunction.word(group, hexagonal_generators())


def non_subadditive_length(group):
    return LengthFunction.explicit_table(group, NON_SUBADDITIVE)


# the equivalence cases, and two length functions over generators the
# action does not have: the hexagonal word length and a non-subadditive table
STACK_CASES = [entry[:3] + tuple(entry[4:]) for entry in EQUIVALENCE_GROUPS] + [
    ("Z2-hex", GroupSpec.free_abelian(2), 4, hexagonal_length),
    ("Z1-non-subadditive", GroupSpec.free_abelian(1), 3, non_subadditive_length),
]


@pytest.mark.parametrize("entry,d", [(entry, d) for entry in STACK_CASES for d in (1, 2, 3)],
                         ids=[f"{entry[0]}-d{d}" for entry in STACK_CASES for d in (1, 2, 3)])
def test_unitary_stack_matches_walk(entry, d):
    # the sphere-batched stack against the per-element walk, bit for bit
    name, group, radius, *length = entry
    ball = (length[0] if length else LengthFunction.word)(group).ball(radius)
    for action in (diagonal_action(group, d, np.random.default_rng(d)),
                   unitary_action(group, d, np.random.default_rng(d))):
        stack = action.stack(ball)
        assert stack.shape == (len(ball), d, d)
        for i, h in enumerate(ball.elements):
            assert stack[i].tobytes() == walk_unitary(action, h).tobytes()


def h3_lengths_off_the_action():
    """H3 length functions whose balls the action's generators a, b reach
    only along other words: a table of the {a, b, c} word lengths, and the
    {a, b, ab} word length."""
    h3 = GroupSpec.heisenberg3()
    with_c = LengthFunction.word(h3, h3.generators + (H3_C, h3.inverse(H3_C)))
    ab = h3.multiply(H3_A, H3_B)
    return [LengthFunction.explicit_table(h3, with_c.ball(4).values),
            LengthFunction.word(h3, h3.generators + (ab, h3.inverse(ab)))]


@pytest.mark.parametrize("spec", h3_lengths_off_the_action(), ids=["table", "word-ab"])
def test_h3_actions_extend_over_any_length_function(spec):
    # while W followed the length function's own words, these raised "non-abelian
    # actions need a word-length function to extend along" and "no geodesic
    # predecessor found for (-1, -1, 1)"
    rng = np.random.default_rng(8)
    h3 = spec.group
    action = unitary_action(h3, 2, rng)
    H = truncate(spec, 3, 2)
    x = random_crossed(rng, spec, 1.0, coeff_dim=2, terms=3)
    assert realize(x, H, action).matrix.tobytes() == loop_realize(x, H, action).tobytes()
    value, window = lipschitz_seminorm(x, m_ell(H), action)
    dense = dense_commutator(loop_realize(x, H, action), m_ell(H), window)
    assert value == pytest.approx(svd_norm(dense), rel=1e-12)
    diagonal = random_diagonal_action(rng, h3, 2)
    ball = spec.ball(2)
    report = check_unitary_conjugation(random_hermitian(rng, 2), np.zeros(len(ball)), H3_A,
                                       spec, diagonal, radius=2)
    assert report.passed, report.details


def test_unitary_stack_refuses_what_its_generators_cannot_reach(z2):
    # +-e1 miss (0, -1); a generator without its inverse is no word length;
    # a walk past the cap of the ball's length function
    w = np.diag([1j, 1.0])
    only_e1 = ActionSpec(z2, {(1, 0): w, (-1, 0): w.conj()})
    with pytest.raises(GroupMismatchError, match=r"\(0, -1\) is not generated"):
        only_e1.stack(LengthFunction.word(z2).ball(1))
    one_way = ActionSpec(z2, {(1, 0): w, (0, 1): w})
    with pytest.raises(ValueError, match="must be symmetric"):
        one_way.stack(LengthFunction.word(z2).ball(1))
    z1 = GroupSpec.free_abelian(1)
    action = ActionSpec(z1, {(1,): w, (-1,): w.conj()})
    far = LengthFunction(z1, LengthFunction.TABLE, table={(200,): 1, (-200,): 1}, cap=100)
    with pytest.raises(BallCapError, match="ball cap 100"):
        action.stack(far.ball(1))
    assert action.stack(LengthFunction.word(z1, cap=401).ball(200)).shape == (401, 2, 2)


@pytest.mark.parametrize("group,small,large", [
    (GroupSpec.heisenberg3(), 2, 4),
    (GroupSpec.free_abelian(2), 3, 8),
    (GroupSpec.free_abelian_times_cyclic(2, 3), 2, 5),
], ids=["H3", "Z2", "Z2xC3"])
def test_unitary_stack_of_a_smaller_ball_is_a_prefix(group, small, large):
    # the walk the action keeps between calls changes no bit: a small ball's
    # stack, built before and after a large ball's, is the large one's prefix
    action = diagonal_action(group, 2, np.random.default_rng(11))
    spec = LengthFunction.word(group)
    before = action.stack(spec.ball(small))
    full = action.stack(spec.ball(large))
    after = action.stack(spec.ball(small))
    assert len(before) == len(spec.ball(small)) < len(full)
    assert before.tobytes() == full[:len(before)].tobytes() == after.tobytes()
