import json
import math

import numpy as np
import pytest

from horocp import (
    ActionSpec,
    CrossedElement,
    GroupSpec,
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
    shift_matrix,
    tail_series_factor,
)
from horocp.checks import random_crossed, random_diagonal_action, random_hermitian
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
