import numpy as np
import pytest
from scipy.linalg import svdvals

from horocp import (
    DegenerateTripleError,
    StateSpec,
    af_level_triple,
    cyclic_triple,
    mk_brute_force,
    mk_distance,
)


def test_z2_characters_distance_two():
    triple = cyclic_triple(2, [0.0, 1.0])
    plus, minus = StateSpec.character(2, 0), StateSpec.character(2, 1)
    result = mk_distance(triple, plus, minus)
    assert result.converged
    assert result.lower_bound == pytest.approx(2.0, abs=1e-6)
    assert mk_brute_force(triple, plus, minus) == pytest.approx(result.lower_bound, abs=1e-4)


def test_same_state_distance_zero():
    triple = cyclic_triple(3, [0.0, 1.0, 1.0])
    chi = StateSpec.character(3, 1)
    assert mk_distance(triple, chi, chi).lower_bound == 0.0


def test_scaling_halves_distance():
    plus, minus = StateSpec.character(2, 0), StateSpec.character(2, 1)
    base = mk_distance(cyclic_triple(2, [0.0, 1.0]), plus, minus).lower_bound
    doubled = mk_distance(cyclic_triple(2, [0.0, 2.0]), plus, minus).lower_bound
    assert doubled == pytest.approx(base / 2, abs=1e-6)


def test_z3_ascent_matches_brute_force():
    triple = cyclic_triple(3, [0.0, 1.0, 1.0])
    chi0, chi1 = StateSpec.character(3, 0), StateSpec.character(3, 1)
    ascent = mk_distance(triple, chi0, chi1)
    oracle = mk_brute_force(triple, chi0, chi1)
    assert ascent.lower_bound == pytest.approx(oracle, abs=1e-4)


def test_witness_feasible_and_attains_bound():
    triple = cyclic_triple(4, [0.0, 1.0, 2.0, 1.0])
    chi0, chi2 = StateSpec.character(4, 0), StateSpec.character(4, 2)
    result = mk_distance(triple, chi0, chi2)
    assert result.witness_seminorm <= 1.0 + 1e-9
    gap = abs((chi0.evaluate(result.witness) - chi2.evaluate(result.witness)).real)
    assert gap == pytest.approx(result.lower_bound, abs=1e-9)


def test_symmetry():
    triple = cyclic_triple(3, [0.0, 1.0, 1.0])
    chi0, chi1 = StateSpec.character(3, 0), StateSpec.character(3, 1)
    d01 = mk_distance(triple, chi0, chi1).lower_bound
    d10 = mk_distance(triple, chi1, chi0).lower_bound
    assert d01 == pytest.approx(d10, abs=1e-6)


def test_triangle_inequality_on_characters():
    triple = cyclic_triple(4, [0.0, 1.0, 2.0, 1.0])
    states = [StateSpec.character(4, j) for j in range(3)]

    def dist(a, b):
        result = mk_distance(triple, a, b)
        assert result.converged
        return result.lower_bound

    d01, d12, d02 = dist(states[0], states[1]), dist(states[1], states[2]), dist(states[0], states[2])
    assert d02 <= d01 + d12 + 1e-5


def test_constant_shift_invariance():
    triple = cyclic_triple(3, [0.0, 1.0, 1.0])
    chi0, chi1 = StateSpec.character(3, 0), StateSpec.character(3, 1)
    result = mk_distance(triple, chi0, chi1)
    shifted = result.witness + 0.7 * np.eye(3)
    assert triple.seminorm(shifted) == pytest.approx(result.witness_seminorm, abs=1e-9)
    gap_orig = (chi0.evaluate(result.witness) - chi1.evaluate(result.witness)).real
    gap_shift = (chi0.evaluate(shifted) - chi1.evaluate(shifted)).real
    assert gap_shift == pytest.approx(gap_orig, abs=1e-9)


def test_degenerate_triple_rejected():
    with pytest.raises(DegenerateTripleError):
        mk_distance(cyclic_triple(2, [0.0, 0.0]),
                    StateSpec.character(2, 0), StateSpec.character(2, 1))
    with pytest.raises(DegenerateTripleError):
        triple = af_level_triple([2, 2], [0.0, 0.0, 0.0])
        e0 = np.zeros(4)
        e0[0] = 1.0
        e1 = np.zeros(4)
        e1[1] = 1.0
        mk_distance(triple, StateSpec.vector_state(e0), StateSpec.vector_state(e1))


def test_af_level_distance_runs():
    triple = af_level_triple([2, 2], [0.0, 1.0, 2.0])
    e0 = np.zeros(4)
    e0[0] = 1.0
    e1 = np.zeros(4)
    e1[1] = 1.0
    psi0, psi1 = StateSpec.vector_state(e0), StateSpec.vector_state(e1)
    result = mk_distance(triple, psi0, psi1)
    assert result.lower_bound > 0
    assert result.witness_seminorm <= 1.0 + 1e-9
    assert mk_brute_force(triple, psi0, psi1, grid=2) == pytest.approx(
        result.lower_bound, abs=1e-3
    )


def test_density_matrix_state():
    triple = cyclic_triple(3, [0.0, 1.0, 1.0])
    rho = np.eye(3) / 3
    tracial = StateSpec.density_matrix(rho)
    chi0 = StateSpec.character(3, 0)
    result = mk_distance(triple, tracial, chi0)
    assert result.lower_bound > 0


def test_state_validation():
    with pytest.raises(ValueError):
        StateSpec.vector_state([1.0, 1.0])
    with pytest.raises(ValueError):
        StateSpec.density_matrix(np.eye(2))


def test_characters_multiplicative():
    order = 5
    chi = StateSpec.character(order, 2)
    perms = []
    for k in range(order):
        p = np.zeros((order, order), dtype=complex)
        for j in range(order):
            p[(j + k) % order, j] = 1.0
        perms.append(p)
    for k in range(order):
        for m in range(order):
            lhs = chi.evaluate(perms[(k + m) % order])
            rhs = chi.evaluate(perms[k]) * chi.evaluate(perms[m])
            assert abs(lhs - rhs) < 1e-12


def test_brute_force_dimension_guard():
    triple = cyclic_triple(9, [0, 1, 2, 3, 4, 4, 3, 2, 1])
    with pytest.raises(ValueError):
        mk_brute_force(triple, StateSpec.character(9, 0), StateSpec.character(9, 1))


def _witness_ratio(triple, psi, psi_prime, witness):
    """|(psi - psi')(w)| / ||[D, w]||, the norm from scipy."""
    objective = abs(psi.evaluate(witness) - psi_prime.evaluate(witness))
    return objective / svdvals(triple.dirac @ witness - witness @ triple.dirac)[0]


@pytest.mark.parametrize("j", [1, 3])
def test_c6_bound_attained_by_witness(j):
    # the dense power iteration under-estimated the seminorm, and the bound
    # exceeded the witness's own ratio by 3.3e-8 (j = 1) and 6.9e-7 (j = 3)
    triple = cyclic_triple(6, [0, 1, 2, 3, 2, 1])
    chi0, chij = StateSpec.character(6, 0), StateSpec.character(6, j)
    result = mk_distance(triple, chi0, chij, restarts=4, iterations=200)
    ratio = _witness_ratio(triple, chi0, chij, result.witness)
    assert result.lower_bound <= ratio * (1 + 1e-12)
    assert result.lower_bound == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize("triple", [
    cyclic_triple(5, [0, 1, 2, 2, 1]),
    cyclic_triple(6, [0, 1, 2, 3, 2, 1]),
    af_level_triple((2, 2), [0.0, 0.7, 1.9]),
], ids=["c5", "c6", "af22"])
def test_seminorm_matches_scipy(triple):
    rng = np.random.default_rng(5)
    for _ in range(20):
        theta = rng.normal(size=len(triple.basis))
        a = triple.element(theta)
        expected = svdvals(triple.dirac @ a - a @ triple.dirac)[0]
        assert triple.seminorm(a) == pytest.approx(expected, rel=1e-12)
        assert triple.seminorm(theta) == pytest.approx(expected, rel=1e-12)
        z = rng.normal(size=(triple.dim, triple.dim)) + 1j * rng.normal(size=(triple.dim, triple.dim))
        h = z + z.conj().T
        expected = svdvals(triple.dirac @ h - h @ triple.dirac)[0]
        assert triple.seminorm(h) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -2}, {"iterations": -1}])
def test_mk_distance_rejects_empty_search(kwargs):
    triple = cyclic_triple(3, [0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        mk_distance(triple, StateSpec.character(3, 0), StateSpec.character(3, 1), **kwargs)


def test_zero_iterations_is_a_valid_search():
    triple = cyclic_triple(3, [0.0, 1.0, 1.0])
    chi0, chi1 = StateSpec.character(3, 0), StateSpec.character(3, 1)
    result = mk_distance(triple, chi0, chi1, restarts=1, iterations=0)
    assert result.iterations == 0
    assert result.lower_bound == pytest.approx(
        _witness_ratio(triple, chi0, chi1, result.witness), rel=1e-12)


def test_one_point_space_distance_zero():
    # C_1 has no non-constant test element; it used to fail stacking an empty basis
    chi = StateSpec.character(1, 0)
    assert mk_distance(cyclic_triple(1, [0.0]), chi, chi).lower_bound == 0.0


def test_converged_needs_a_second_ascent_orbit():
    # Restarts 0 and 1 start at +-c with target +-c: the objective is even, so
    # the second is the first's mirror image and cannot confirm it.
    triple = cyclic_triple(6, [0.0, 1.0, 2.0, 3.0, 2.0, 1.0])
    chi0, chi1 = StateSpec.character(6, 0), StateSpec.character(6, 1)
    runs = {r: mk_distance(triple, chi0, chi1, restarts=r, iterations=200) for r in (1, 2, 4)}
    assert not runs[1].converged and not runs[2].converged
    # at 4 restarts the random restarts 2 and 3 reach the same polished value
    assert runs[4].converged
    for r in (1, 2):
        assert runs[r].lower_bound == runs[4].lower_bound == 1.4936422363871849
        assert runs[r].witness.tobytes() == runs[4].witness.tobytes()
    assert runs[4].iterations == 232
