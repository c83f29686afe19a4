"""Monge-Kantorovich distance estimation on exact finite-dimensional triples.

d(psi, psi') = sup { |psi(a) - psi'(a)| : ||[D, a]|| <= 1 } over hermitian a.
Only exact spaces are admitted (finite cyclic group algebras, finite-depth
filtration levels); truncations of infinite groups are excluded because the
feasible set would depend on the truncation.  The seminorm ||[D, a]|| is the
largest singular value from LAPACK, taken on sum_k theta_k [D, b_k] over the
commutator stack each triple builds once.  The reported value is a lower bound
attained by its witness w (the ratio |(psi - psi')(w)| / ||[D, w]||), found by
normalized ascent with restarts and a pattern-search polish; a grid start with
the same polish over the same feasible ball serves as an independent maximizer
at tiny parameter dimension.  The searches run in lock-step, one stacked SVD
per step.  A polish sweep stops at the first move it already refuted from the
same point at the same radius, so the searches reach the same bits as the
sequential search that tries every move, with fewer seminorms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product
from typing import Sequence

import numpy as np

from .aftriple import af_filtration
from .operators import _check_nonzeros
from .operators import op_norm  # not called here; perfbench's tests pin its traced binding

MK_STEP = 0.1  # initial ascent step along the objective
POLISH_FLOOR = 1e-8  # the pattern search ends once its radius is halved to this or below


class DegenerateTripleError(ValueError):
    """[D, .] vanishes on more than the constants; the supremum is infinite."""


@dataclass(frozen=True)
class FiniteTriple:
    """Hermitian test-space basis (modulo constants) plus a Dirac matrix."""

    dim: int
    dirac: np.ndarray
    basis: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    def element(self, theta: Sequence[float]) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for t, b in zip(theta, self.basis):
            out += float(t) * b
        return out

    @cached_property
    def commutators(self) -> np.ndarray:
        """The commutators [D, b_k] as rows, each flattened: (len(basis), dim**2)."""
        stack = np.array(self.basis, dtype=complex).reshape(-1, self.dim, self.dim)
        return (self.dirac @ stack - stack @ self.dirac).reshape(len(self.basis), self.dim**2)

    def seminorm(self, a: np.ndarray) -> float:
        """||[D, a]||, the largest singular value from LAPACK.

        ``a`` is a (dim, dim) matrix, or a coefficient vector theta standing
        for sum_k theta_k b_k, whose commutator is read off the stack.
        """
        a = np.asarray(a)
        if a.ndim == 1:
            return float(self.seminorms(a[None])[0])
        return float(np.linalg.svd(self.dirac @ a - a @ self.dirac, compute_uv=False)[0])

    def seminorms(self, thetas: np.ndarray) -> np.ndarray:
        """||[D, a]|| for each row theta of a (k, p) array, from one stacked SVD.

        Each row is multiplied as a (1, p) matrix: those products, unlike a
        2-D ``thetas @ commutators``, equal the 1-D product bit for bit.
        """
        comms = (thetas[:, None, :] @ self.commutators).reshape(len(thetas), self.dim, self.dim)
        return np.linalg.svd(comms, compute_uv=False)[:, 0]


def cyclic_triple(order: int, lengths: Sequence[float]) -> FiniteTriple:
    """Group algebra of Z/n with the diagonal length Dirac operator M_l."""
    lengths = [float(v) for v in lengths]
    if len(lengths) != order:
        raise ValueError(f"need {order} length values")
    if not all(map(math.isfinite, lengths)):
        raise ValueError(f"lengths must be finite, got {lengths}")
    if lengths[0] != 0.0:
        raise ValueError("the identity must have length 0")
    dirac = np.diag(np.array(lengths, dtype=complex))
    perms = []
    for k in range(order):
        p = np.zeros((order, order), dtype=complex)
        for j in range(order):
            p[(j + k) % order, j] = 1.0
        perms.append(p)
    basis = []
    labels = []
    for k in range(1, order // 2 + 1):
        if k == (order - k) % order:
            basis.append(perms[k])
            labels.append(f"lambda_{k}")
        else:
            basis.append(perms[k] + perms[order - k])
            labels.append(f"lambda_{k} + lambda_{-k}")
            basis.append(1j * (perms[k] - perms[order - k]))
            labels.append(f"i(lambda_{k} - lambda_{-k})")
    return FiniteTriple(order, dirac, tuple(basis), tuple(labels))


def af_level_triple(orders: Sequence[int], eigenvalues: Sequence[float]) -> FiniteTriple:
    """Top level of a finite odometer filtration with D = sum_i lambda_i Q_i.

    D is the filtration's Dirac operator applied to the identity.  Its
    dim - 1 dense basis matrices, D and that identity, (dim + 1) dim^2
    entries, are counted against NONZERO_CAP before anything is allocated
    (NonzeroCapError)."""
    filt = af_filtration(orders)
    dim = filt.dim
    _check_nonzeros((dim + 1) * dim * dim)
    dirac = filt.dirac(eigenvalues, np.eye(dim, dtype=complex))
    basis = []
    labels = []
    for x in range(dim - 1):
        mat = np.zeros((dim, dim), dtype=complex)
        mat[x, x] = 1.0
        mat -= np.eye(dim) / dim
        basis.append(mat)
        labels.append(f"indicator({x}) - 1/n")
    return FiniteTriple(dim, dirac, tuple(basis), tuple(labels))


@dataclass(frozen=True)
class StateSpec:
    """A vector state a -> <v, a v> evaluated against matrices: a character or
    any unit vector."""

    vector: np.ndarray

    @classmethod
    def character(cls, order: int, index: int) -> "StateSpec":
        """The multiplicative character lambda_k -> exp(2 pi i j k / n)."""
        j = index % order
        return cls(np.exp(-2j * np.pi * j * np.arange(order) / order) / math.sqrt(order))

    @classmethod
    def vector_state(cls, vec: Sequence[complex]) -> "StateSpec":
        v = np.asarray(vec, dtype=complex)
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("vector states need a unit vector")
        return cls(v)

    def evaluate(self, mat: np.ndarray) -> complex:
        v = self.vector
        return complex(np.vdot(v, mat @ v))


@dataclass(frozen=True)
class MKResult:
    lower_bound: float
    converged: bool
    witness: np.ndarray
    witness_seminorm: float
    restarts: int
    iterations: int


def _objective_vector(triple: FiniteTriple, psi: StateSpec, psi_prime: StateSpec) -> np.ndarray:
    return np.array(
        [float((psi.evaluate(b) - psi_prime.evaluate(b)).real) for b in triple.basis]
    )


def _reject_degenerate(triple: FiniteTriple) -> None:
    comms = triple.commutators
    rank = np.linalg.matrix_rank(np.concatenate([comms.real, comms.imag], axis=1), tol=1e-10)
    if rank < len(triple.basis):
        raise DegenerateTripleError(
            "the commutator map vanishes on a non-constant direction; "
            "the distance supremum is infinite"
        )


def _lockstep(triple: FiniteTriple, runs: list) -> list:
    """Drive generator runs to their return values.  A run yields each
    coefficient vector it needs a seminorm of and is sent that seminorm; one
    ``seminorms`` call per tick serves every live run."""
    results = [None] * len(runs)
    live, norms = range(len(runs)), [None] * len(runs)
    while live:
        asked = {}
        for i, s in zip(live, norms):
            try:
                asked[i] = runs[i].send(s)
            except StopIteration as stop:
                results[i] = stop.value
        live = list(asked)
        norms = triple.seminorms(np.array(list(asked.values()))).tolist() if asked else []
    return results


def _ratio(c: np.ndarray, theta: np.ndarray):
    value = abs(float(c @ theta))
    if value == 0.0:
        return 0.0
    s = yield theta
    if s < 1e-13:
        raise DegenerateTripleError("objective is unbounded on a seminorm-null direction")
    return value / s


def _polish(c: np.ndarray, theta: np.ndarray):
    """Pattern search on the homogeneous ratio |c.theta| / L(theta), from a
    unit vector theta; a run for ``_lockstep``.

    A sweep tries the moves theta_j -+ radius in order and halves the radius
    after a sweep without a gain.  The moves after a sweep's last gain were
    refuted from the point it ends at, at this radius.  So the next sweep, if
    it has not gained by then, stops at the first move already refuted from
    the same point and radius: that move would fail again.  The result is
    bit-identical to full sweeps; only fewer seminorms are evaluated."""
    best = yield from _ratio(c, theta)
    radius = 0.5
    refuted = None  # first move refuted from theta at this radius, if any
    while radius > POLISH_FLOOR:
        gained = None
        for move, (j, sign) in enumerate(product(range(len(theta)), (-1.0, 1.0))):
            if move == refuted and gained is None:
                break
            trial = theta.copy()
            trial[j] += sign * radius
            norm = math.sqrt(trial.dot(trial))  # np.linalg.norm's sum for a real vector
            if norm == 0.0:
                continue
            trial /= norm
            value = yield from _ratio(c, trial)
            if value > best + 1e-15:
                best, theta, gained = value, trial, move
        if gained is None:
            radius /= 2.0
            refuted = None
        else:
            refuted = gained + 1
    return best, theta


def _ascent(target: np.ndarray, theta: np.ndarray, iterations: int):
    """Normalized ascent on target.theta over the seminorm ball; a run for
    ``_lockstep`` returning (value, theta, iterations made)."""
    s = yield theta
    if s > 1.0:
        theta = theta / s
    current = float(target @ theta)
    local_step = MK_STEP
    made = 0
    for made in range(1, iterations + 1):
        trial = theta + local_step * target
        s = yield trial
        if s > 1.0:
            trial = trial / s
        value = float(target @ trial)
        if value > current + 1e-15:
            theta, current = trial, value
        else:
            local_step /= 2.0
            if local_step < 1e-13:
                break
    return current, theta, made


def mk_distance(triple: FiniteTriple, psi: StateSpec, psi_prime: StateSpec,
                restarts: int = 32, iterations: int = 2000, seed: int = 0) -> MKResult:
    """Lower bound for the state-space distance, attained by the witness.

    Ascent on the linear objective (psi - psi')(a) over the seminorm ball:
    after every step the iterate is rescaled by 1/max(1, ||[D, a]||), which is
    valid because the feasible set is a seminorm ball and constants do not
    move the objective.  The top restart results are then polished by a
    deterministic pattern search on the homogeneous ratio.  The best one,
    scaled to seminorm 1, is the witness w, and ``lower_bound`` is the ratio
    |(psi - psi')(w)| / ||[D, w]|| that w attains, every seminorm being a
    LAPACK largest singular value.  ``converged`` means the best polished run
    agrees, within 1e-7 * max(value, 1), with the best polished run of
    another ascent orbit, and is False without one; it is not a two-sided
    bracket.  Restarts 0 and 1 form one orbit: they start at +-c with target
    +-c, and the objective is even, so each is the other's mirror image, bit
    for bit.

    The restarts, then the polish runs, advance in lock-step with one stacked
    SVD per step.  A polish sweep stops at the first move it already refuted
    from the same point at the same radius; that move would fail again, so
    every field is bit-identical to running the full sweeps one after
    another, though fewer seminorms are evaluated.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    _reject_degenerate(triple)
    c = _objective_vector(triple, psi, psi_prime)
    p = len(triple.basis)
    if np.linalg.norm(c) == 0.0:
        return MKResult(0.0, True, np.zeros((triple.dim, triple.dim), dtype=complex),
                        0.0, restarts, 0)
    rng = np.random.default_rng([seed, 0x4D4B])
    runs = []
    for restart in range(restarts):
        sign = 1.0 if restart % 2 == 0 else -1.0
        target = sign * c
        if restart < 2:
            theta = target / np.linalg.norm(target)
        else:
            theta = rng.normal(size=p)
            theta /= np.linalg.norm(theta)
        runs.append(_ascent(target, theta, iterations))
    ascents = _lockstep(triple, runs)
    total_iter = sum(made for _, _, made in ascents)
    # restarts 0 and 1 are one orbit; the stable sort keeps restart order on ties
    finals = [(current, theta, max(restart - 1, 0))
              for restart, (current, theta, _) in enumerate(ascents)]
    finals.sort(key=lambda run: -run[0])
    top = finals[:4]
    polished = _lockstep(triple, [_polish(c, theta / np.linalg.norm(theta)) for _, theta, _ in top])
    polished = [(value, theta, orbit) for (value, theta), (_, _, orbit) in zip(polished, top)]
    polished.sort(key=lambda run: -run[0])
    best_val, best_theta, best_orbit = polished[0]
    witness = triple.element(best_theta)
    witness = witness / triple.seminorm(witness)
    s = triple.seminorm(witness)
    attained = abs((psi.evaluate(witness) - psi_prime.evaluate(witness)).real) / s
    rival = next((value for value, _, orbit in polished if orbit != best_orbit), None)
    converged = (rival is not None
                 and abs(best_val - rival) <= 1e-7 * max(best_val, 1.0))
    return MKResult(attained, converged, witness, s, restarts, total_iter)


def mk_brute_force(triple: FiniteTriple, psi: StateSpec, psi_prime: StateSpec,
                   grid: int = 3) -> float:
    """Oracle maximizer: the first best direction of a grid on the unit sphere
    of coefficients, polished by the same pattern search as ``mk_distance``.
    The grid is evaluated in blocks, one stacked SVD per block."""
    p = len(triple.basis)
    if p > 6:
        raise ValueError("brute force is limited to parameter dimension <= 6")
    _reject_degenerate(triple)
    c = _objective_vector(triple, psi, psi_prime)
    if np.linalg.norm(c) == 0.0:
        return 0.0
    # blocks of grid directions keep each stacked commutator array near 4 MB
    rows = max(1, (4 << 20) // (16 * triple.dim**2))
    points = (np.array(point, dtype=float)
              for point in product(range(-grid, grid + 1), repeat=p) if any(point))
    best_theta = None
    best = -1.0
    while block := [theta / np.linalg.norm(theta) for theta in islice(points, rows)]:
        for value, theta in zip(_lockstep(triple, [_ratio(c, theta) for theta in block]), block):
            if value > best:
                best, best_theta = value, theta
    return _lockstep(triple, [_polish(c, best_theta)])[0][0]
