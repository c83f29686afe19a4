import tracemalloc
from itertools import product

import numpy as np
import pytest
from scipy.linalg import svdvals

from horocp import (
    DegenerateTripleError,
    FiniteTriple,
    NonzeroCapError,
    StateSpec,
    af_level_triple,
    cyclic_triple,
    mk_brute_force,
    mk_distance,
)
from horocp.quantum_metric import _objective_vector


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


def test_af_level_triple_refuses_over_cap_before_allocating():
    # (8, 8, 8) used to pass the filtration's count and build 511 dense 512 x 512 matrices
    tracemalloc.start()
    try:
        with pytest.raises(NonzeroCapError):
            af_level_triple((8, 8, 8), [0.0, 1.0, 2.0, 3.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def test_state_validation():
    with pytest.raises(ValueError):
        StateSpec.vector_state([1.0, 1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_inputs_refused(bad):
    # unrefused, NaN passed the unit-norm test (a comparison with NaN is
    # false) and the search failed with "SVD did not converge"
    with pytest.raises(ValueError, match="lengths must be finite"):
        cyclic_triple(3, [0.0, bad, 1.0])
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        af_level_triple((2, 2), [0.0, 1.0, bad])
    with pytest.raises(ValueError, match="unit vector"):
        StateSpec.vector_state([1.0, bad, 0.0])


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


# Reference: the sequential search, one seminorm and one SVD per trial vector.
# mk_distance and mk_brute_force, which run their searches in lock-step, must
# reproduce it bit for bit.
def _ref_seminorm(triple, theta):
    comm = (theta @ triple.commutators).reshape(triple.dim, triple.dim)
    return float(np.linalg.svd(comm, compute_uv=False)[0])


def _ref_ratio(triple, c, theta):
    value = abs(float(c @ theta))
    if value == 0.0:
        return 0.0
    s = _ref_seminorm(triple, theta)
    if s < 1e-13:
        raise DegenerateTripleError("objective is unbounded on a seminorm-null direction")
    return value / s


def _ref_polish(triple, c, theta, floor=1e-8):
    best = _ref_ratio(triple, c, theta)
    radius = 0.5
    while radius > floor:
        improved = False
        for j in range(len(theta)):
            for sign in (-1.0, 1.0):
                trial = theta.copy()
                trial[j] += sign * radius
                norm = np.linalg.norm(trial)
                if norm == 0.0:
                    continue
                value = _ref_ratio(triple, c, trial / norm)
                if value > best + 1e-15:
                    best, theta = value, trial / norm
                    improved = True
        if not improved:
            radius /= 2.0
    return best, theta


def _ref_mk_distance(triple, psi, psi_prime, restarts, iterations, step=0.1, tol=1e-9, seed=0):
    c = _objective_vector(triple, psi, psi_prime)
    p = len(triple.basis)
    rng = np.random.default_rng([seed, 0x4D4B])
    finals = []
    total_iter = 0
    for restart in range(restarts):
        sign = 1.0 if restart % 2 == 0 else -1.0
        target = sign * c
        if restart < 2:
            theta = target / np.linalg.norm(target)
        else:
            theta = rng.normal(size=p)
            theta /= np.linalg.norm(theta)
        s = _ref_seminorm(triple, theta)
        if s > 1.0:
            theta = theta / s
        current = float(target @ theta)
        local_step = step
        for _ in range(iterations):
            total_iter += 1
            trial = theta + local_step * target
            s = _ref_seminorm(triple, trial)
            if s > 1.0:
                trial = trial / s
            value = float(target @ trial)
            if value > current + 1e-15:
                theta, current = trial, value
            else:
                local_step /= 2.0
                if local_step < 1e-13:
                    break
        finals.append((current, theta.copy(), max(restart - 1, 0)))
    finals.sort(key=lambda run: -run[0])
    polished = [(*_ref_polish(triple, c, theta / np.linalg.norm(theta)), orbit)
                for _, theta, orbit in finals[:4]]
    polished.sort(key=lambda run: -run[0])
    best_val, best_theta, best_orbit = polished[0]
    witness = triple.element(best_theta)
    witness = witness / triple.seminorm(witness)
    s = triple.seminorm(witness)
    attained = abs((psi.evaluate(witness) - psi_prime.evaluate(witness)).real) / s
    rival = next((value for value, _, orbit in polished if orbit != best_orbit), None)
    converged = (rival is not None
                 and abs(best_val - rival) <= max(100 * tol, 1e-7 * max(best_val, 1.0)))
    return attained, converged, total_iter, s, witness.tobytes()


def _ref_brute_force(triple, psi, psi_prime, grid):
    c = _objective_vector(triple, psi, psi_prime)
    best_theta, best = None, -1.0
    for point in product(range(-grid, grid + 1), repeat=len(triple.basis)):
        if all(v == 0 for v in point):
            continue
        theta = np.array(point, dtype=float)
        theta /= np.linalg.norm(theta)
        value = _ref_ratio(triple, c, theta)
        if value > best:
            best, best_theta = value, theta
    return _ref_polish(triple, c, best_theta)[0]


def _cyclic_case(order, lengths, j):
    triple = cyclic_triple(order, lengths)
    return triple, StateSpec.character(order, 0), StateSpec.character(order, j)


def _af_case(orders, eigenvalues, x):
    triple = af_level_triple(orders, eigenvalues)
    basis = np.eye(triple.dim)
    return triple, StateSpec.vector_state(basis[0]), StateSpec.vector_state(basis[x])


_REFERENCE_CASES = {
    # the finite_triples workload's cyclic cases and its C6 known defects
    "c5-1": lambda: _cyclic_case(5, (0, 1, 2, 2, 1), 1),
    "c5-2": lambda: _cyclic_case(5, (0, 1, 2, 2, 1), 2),
    "c6-1": lambda: _cyclic_case(6, (0, 1, 2, 3, 2, 1), 1),
    "c6-2": lambda: _cyclic_case(6, (0, 1, 2, 3, 2, 1), 2),
    "c6-3": lambda: _cyclic_case(6, (0, 1, 2, 3, 2, 1), 3),
    "af22": lambda: _af_case((2, 2), (0.0, 0.7, 1.9), 3),
    "c7-2": lambda: _cyclic_case(7, (0, 1, 2, 3, 3, 2, 1), 2),
    "c8-3": lambda: _cyclic_case(8, (0, 1, 2, 3, 4, 3, 2, 1), 3),
    "af23": lambda: _af_case((2, 3), (0.0, 1.0, 2.0), 4),
}


@pytest.mark.parametrize("restarts,iterations", [(4, 200), (32, 2000)])
@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_lockstep_search_matches_sequential_reference(case, restarts, iterations):
    triple, psi, psi_prime = _REFERENCE_CASES[case]()
    result = mk_distance(triple, psi, psi_prime, restarts=restarts, iterations=iterations)
    got = (result.lower_bound, result.converged, result.iterations,
           result.witness_seminorm, result.witness.tobytes())
    assert got == _ref_mk_distance(triple, psi, psi_prime, restarts, iterations)


@pytest.mark.parametrize("case,grid", [("c5-2", 3), ("c6-1", 2), ("af22", 3), ("af23", 2)])
def test_brute_force_matches_sequential_reference(case, grid):
    triple, psi, psi_prime = _REFERENCE_CASES[case]()
    assert mk_brute_force(triple, psi, psi_prime, grid=grid) == _ref_brute_force(
        triple, psi, psi_prime, grid)


@pytest.mark.parametrize("triple", [
    cyclic_triple(5, [0, 1, 2, 2, 1]),
    cyclic_triple(6, [0, 1, 2, 3, 2, 1]),
    af_level_triple((2, 2), [0.0, 0.7, 1.9]),
    af_level_triple((2, 3), [0.0, 1.0, 2.0]),
], ids=["c5", "c6", "af22", "af23"])
def test_stacked_seminorms_equal_single_svds(triple):
    thetas = np.random.default_rng(11).normal(size=(64, len(triple.basis)))
    single = [_ref_seminorm(triple, theta) for theta in thetas]
    assert triple.seminorms(thetas).tobytes() == np.array(single).tobytes()
    assert [triple.seminorm(theta) for theta in thetas] == single


def test_search_stacks_its_svds(monkeypatch):
    svd = np.linalg.svd
    calls, matrices = [], []

    def counting_svd(a, *args, **kwargs):
        calls.append(1)
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    triple, psi, psi_prime = _REFERENCE_CASES["c6-2"]()
    mk_distance(triple, psi, psi_prime, restarts=4, iterations=200)
    # one SVD per matrix would be 2203 calls; lock-step makes 597
    assert sum(matrices) == 2203
    assert len(calls) < sum(matrices) / 3


def _ref_polish_trials(monkeypatch, triple, psi, psi_prime, restarts, iterations):
    """How many distinct (run, point, trial) triples the sequential reference's
    polish takes a seminorm of.  The trial is the vector before normalization,
    which, given the point, fixes the radius and the move; normalized, two
    moves from [1, 0, 0] along the first axis give the same vector."""
    seen, run = set(), {"index": -1}
    polish, ratio, norm = _ref_polish, _ref_ratio, np.linalg.norm

    def recording_polish(triple, c, theta, floor=1e-8):
        run.update(index=run["index"] + 1, point=None, best=None)
        return polish(triple, c, theta, floor)

    def recording_norm(x, *args, **kwargs):
        run["trial"] = np.asarray(x).tobytes()
        return norm(x, *args, **kwargs)

    def recording_ratio(triple, c, theta):
        value = ratio(triple, c, theta)
        if float(c @ theta) != 0.0:
            seen.add((run["index"], run["point"], run["trial"]))
        if run["best"] is None or value > run["best"] + 1e-15:
            run.update(point=theta.tobytes(), best=value)
        return value

    monkeypatch.setitem(globals(), "_ref_polish", recording_polish)
    monkeypatch.setitem(globals(), "_ref_ratio", recording_ratio)
    monkeypatch.setattr(np.linalg, "norm", recording_norm)
    _ref_mk_distance(triple, psi, psi_prime, restarts, iterations)
    return len(seen)


@pytest.mark.parametrize("case", ["c5-2", "c6-2", "af22"])
def test_polish_evaluates_each_trial_once(case, monkeypatch):
    # a sweep used to try again the moves after the previous sweep's last
    # gain, from the same point at the same radius: 2411 rows on c6-2, not 2203
    triple, psi, psi_prime = _REFERENCE_CASES[case]()
    rows = []
    seminorms = FiniteTriple.seminorms

    def counting_seminorms(self, thetas):
        rows.append(len(thetas))
        return seminorms(self, thetas)

    monkeypatch.setattr(FiniteTriple, "seminorms", counting_seminorms)
    result = mk_distance(triple, psi, psi_prime, restarts=4, iterations=200)
    monkeypatch.undo()
    ascent = 4 + result.iterations  # each restart's start, then one row per iteration
    assert sum(rows) == ascent + _ref_polish_trials(
        monkeypatch, triple, psi, psi_prime, restarts=4, iterations=200)
