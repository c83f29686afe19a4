"""Named numeric verifications of operator identities and inequalities.

Each check returns a CheckReport with the measured residual (equalities) or
slack (inequalities), the tolerance it was judged against, and the statement
it verifies.  Equalities are judged at EQUALITY_TOL = 1e-12 and inequality
slacks at SLACK_TOL = 1e-9; the cocycle and length-axiom checks are judged
at exactly 0.  None of these is a parameter.  Randomized checks record their
seed, so every report is reproducible.

Every norm of an inequality is a compression, a certified lower bound of the
untruncated norm.  Tail-bound alone uses two radii: the small side at R, the
large side at 2R.  Tail-bound and coefficient-bounds re-check a failure once
at twice the radius before they report it; conditional-expectation and
nctorus judge their inequalities at the given radius only.

Every commutator is ``operators.commutator`` on block pairs, and windows and
coset compressions are ``restrict_blocks`` filters; a check densifies an
operator only as the input of the dense ``op_norm``, and coefficient-bounds
also forms [D_A (x) 1, x] as a product with the Kronecker matrix.

The af-triple check forms nothing dim x dim: it applies the filtration's
averaging operators, both factors of every product included, to a seeded
test block of Gaussian integers, so its residuals are exact zeros for dyadic
orders and rounding noise otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .aftriple import AFFiltration, af_filtration
from .groups import Element, GroupSpec, LengthFunction
from .horoboundary import cocycle_defect, phi
from .operators import (
    ActionSpec,
    CrossedElement,
    SubgroupSpec,
    TruncatedOperator,
    act_inv_blocks,
    clock_matrix,
    commutator,
    conditional_expectation,
    coset_codes,
    lambda_op,
    m_ell,
    m_phi,
    op_norm,
    pi_tilde,
    realize,
    realize_phi_twisted,
    restrict_blocks,
    shift_matrix,
    truncate,
    _check_nonzeros,
    _homomorphism,
)

EQUALITY_TOL = 1e-12
SLACK_TOL = 1e-9


@dataclass(frozen=True)
class CheckReport:
    name: str
    statement: str
    params: dict
    tolerance: float
    passed: bool
    residual: Optional[float] = None
    slack: Optional[float] = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "statement": self.statement,
            "params": dict(self.params),
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        if self.residual is not None:
            out["residual"] = self.residual
        if self.slack is not None:
            out["slack"] = self.slack
        if self.details:
            out["details"] = dict(self.details)
        return out


def _max_abs(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat), initial=0.0))


def _block_residual(a: TruncatedOperator, b: TruncatedOperator) -> float:
    """max |A - B| over the union of two operators' block pairs."""
    n = a.hilbert.n_ball
    codes = np.concatenate([a.rows * n + a.cols, b.rows * n + b.cols])
    order = np.argsort(codes, kind="stable")  # A's block first where both have one
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
    return _max_abs(np.add.reduceat(np.concatenate([a.data, -b.data])[order], starts))


def _coset_shift_mask(T: TruncatedOperator, subgroup: SubgroupSpec, g: Element) -> np.ndarray:
    """The blocks (t, j) of T that T -> E_H(T lambda_{g^-1}) lambda_g keeps.

    The two translations move column j to g h_j and back, and the compression
    between them keeps row h_t there when g h_j shares its right coset of H; so
    the map keeps T's block where g h_j is in the ball and in the coset H h_t,
    and drops it elsewhere.
    """
    codes = coset_codes(T.hilbert, subgroup)
    ahead = T.hilbert.ball.translate(g)[T.cols]
    return (ahead >= 0) & (codes[T.rows] == codes[ahead])


def random_crossed(rng: np.random.Generator, spec: LengthFunction, support_radius: float,
                   coeff_dim: int = 1, terms: int = 4) -> CrossedElement:
    """Random finitely supported element with support in the given ball."""
    ball = spec.ball(support_radius)
    count = min(terms, len(ball))
    picks = rng.choice(len(ball), size=count, replace=False)
    data = {}
    for idx in sorted(int(i) for i in picks):
        g = ball.elements[idx]
        a = rng.normal(size=(coeff_dim, coeff_dim)) + 1j * rng.normal(size=(coeff_dim, coeff_dim))
        data[g] = a
    return CrossedElement.from_dict(spec.group, data)


def random_diagonal_action(rng: np.random.Generator, group: GroupSpec, dim: int) -> ActionSpec:
    """Random commuting (diagonal-phase) action; exact on abelian relators.

    A generator s of finite order m gets m-th roots of unity, so W_s^m = 1
    and the phases define an action of the torsion part too.
    """
    unitaries = {}
    done = set()
    for s in group.generators:
        if s in done:
            continue
        turns = rng.random(dim)
        if group.is_torsion(s):
            m = group.torsion // math.gcd(s[-1], group.torsion)
            turns = np.floor(m * turns) / m
        w = np.diag(np.exp(2j * np.pi * turns))
        unitaries[s] = w
        inv = group.inverse(s)
        unitaries[inv] = w.conj().T
        done.update({s, inv})
    return ActionSpec(group, unitaries)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


# ---------------------------------------------------------------------------
# Commutator identity.


def check_commutator_identity(x: CrossedElement, spec: LengthFunction, action: ActionSpec,
                              radius: float) -> CheckReport:
    """[1 (x) M_l, x] equals sum_g (1 (x) phi_g) a_g lambda_g on the window."""
    d = x.coeff_dim
    H = truncate(spec, radius, d)
    r = x.support_radius(spec)
    window = H.window(r)
    if window < 1:
        raise ValueError("window needs radius - support_radius >= 1")
    x_op = realize(x, H, action)
    rhs = realize_phi_twisted(x, H, action)  # the same block pairs as x_op
    keep = H.lengths[x_op.cols] <= window
    lhs = commutator(m_ell(H), restrict_blocks(x_op, keep))
    residual = _max_abs(lhs.data - rhs.data[keep])
    return CheckReport(
        name="commutator-identity",
        statement="[1 (x) M_l, sum a_g lambda_g] = sum (1 (x) phi_g) a_g lambda_g",
        params={"radius": radius, "support_radius": r, "coeff_dim": d,
                "support": [list(map(int, g)) for g in x.support]},
        tolerance=EQUALITY_TOL,
        passed=residual <= EQUALITY_TOL,
        residual=residual,
        details={"window_radius": window if not math.isinf(window) else "exact"},
    )


# ---------------------------------------------------------------------------
# Cocycle identity.


def check_cocycle(spec: LengthFunction, pairs: Sequence[tuple[Element, Element]],
                  radius: float) -> CheckReport:
    """phi_{gh} = g.phi_h + phi_g, exactly, over all listed pairs."""
    ball = spec.ball(radius)
    worst = 0.0
    for g, h in pairs:
        worst = max(worst, cocycle_defect(g, h, ball))
    return CheckReport(
        name="cocycle",
        statement="phi_{gh} = g.phi_h + phi_g",
        params={"radius": radius, "pairs": len(pairs)},
        tolerance=0.0,
        passed=worst <= 0.0,
        residual=worst,
    )


# ---------------------------------------------------------------------------
# Conditional expectation.


def check_conditional_expectation(x: CrossedElement, g: Element, subgroup: SubgroupSpec,
                                  d_a: np.ndarray, spec: LengthFunction, action: ActionSpec,
                                  radius: Optional[float] = None) -> CheckReport:
    """E_H intertwines the coefficient and length commutators along coset shifts.

    Verifies E_H([T, x] lambda_{g^-1}) lambda_g = [T, E_H(x lambda_{g^-1}) lambda_g]
    for T = D_A (x) 1 and T = 1 (x) M_l, plus the contraction
    ||E_H(x)|| <= ||x|| (judged at the equality tolerance) and the coset
    compression ||E_H([1 (x) M_l, x] lambda_{g^-1}) lambda_g|| <=
    ||[1 (x) M_l, x]|| (an inequality of two separately computed norms, judged
    at the slack tolerance), all on the truncated space.
    """
    group = spec.group
    d = x.coeff_dim
    r = x.support_radius(spec)
    lg = float(spec.length(g))
    if radius is None:
        radius = r + 2 * lg + 2
    H = truncate(spec, radius, d)
    window = H.window(r) - 2 * lg
    if window < 0:
        raise ValueError("radius too small for the requested coset shift")

    x_op = realize(x, H, action)
    kept = _coset_shift_mask(x_op, subgroup, g)
    # the identities' two sides on the window's columns
    x_side = restrict_blocks(x_op, kept & (H.lengths[x_op.cols] <= window))
    shifted = realize(conditional_shifted(x, g, subgroup, group), H, action)
    s_side = restrict_blocks(shifted, H.lengths[shifted.cols] <= window)
    ell = m_ell(H)
    coeff = pi_tilde(H, ActionSpec.trivial(group, d), d_a)  # D_A (x) 1
    residuals = {label: _block_residual(commutator(t, x_side), commutator(t, s_side))
                 for label, t in (("coefficient", coeff), ("length", ell))}

    # a dense view goes with its operator, so every norm holds its input
    # only: x, then [1 (x) M_l, x], its coset compression and E_H(x)
    length = commutator(ell, x_op)
    compressed = restrict_blocks(length, kept)
    contraction = op_norm(x_op.matrix)
    del x_op
    # coset compression of the length commutator is itself a contraction
    coset_slack = op_norm(length.matrix)
    del length
    coset_slack -= op_norm(compressed.matrix)
    del compressed
    contraction -= op_norm(realize(conditional_expectation(x, subgroup), H, action).matrix)
    residual = max(residuals.values())
    return CheckReport(
        name="conditional-expectation",
        statement="E_H([T, x] lambda_{g^-1}) lambda_g = [T, E_H(x lambda_{g^-1}) lambda_g];  "
                  "||E_H(x)|| <= ||x||;  ||E_H([1 (x) M_l, x] lambda_{g^-1}) lambda_g|| "
                  "<= ||[1 (x) M_l, x]||",
        params={"radius": radius, "subgroup": subgroup.name,
                "g": list(map(int, g)), "coeff_dim": d},
        tolerance=EQUALITY_TOL,
        passed=(residual <= EQUALITY_TOL and contraction >= -EQUALITY_TOL
                and coset_slack >= -SLACK_TOL),
        residual=residual,
        slack=contraction,
        details={"identity_residuals": residuals,
                 "coset_compression_slack": coset_slack,
                 "window_radius": window if not math.isinf(window) else "exact"},
    )


def conditional_shifted(x: CrossedElement, g: Element, subgroup: SubgroupSpec,
                        group: GroupSpec) -> CrossedElement:
    """E_H(x lambda_{g^-1}) lambda_g: the restriction of x to support in Hg."""
    g_inv = group.inverse(g)
    return x.restrict(lambda s: subgroup.contains(group.multiply(s, g_inv)))


# ---------------------------------------------------------------------------
# High-frequency tail bound.


def tail_series_factor(n_cut: int, shift: float) -> float:
    """sqrt(sum_{|k| > N} 1/(k + L)^2) by partial sums with a tail correction.

    The partial sums always stop at k = N + 4000, whatever N and L; the
    Euler-Maclaurin correction to the two tails beyond it ends at its 1/a^5
    term.
    """
    if n_cut < abs(shift):
        raise ValueError("need N >= |L|")
    head = 0.0
    k_top = n_cut + 4000
    for k in range(n_cut + 1, k_top + 1):
        head += 1.0 / (k + shift) ** 2 + 1.0 / (k - shift) ** 2

    def em_tail(c: float) -> float:
        a = k_top + 1 + c
        return 1.0 / a + 1.0 / (2 * a * a) + 1.0 / (6 * a ** 3) - 1.0 / (30 * a ** 5)

    total = head + em_tail(shift) + em_tail(-shift)
    return math.sqrt(total)


def check_tail_bound(x: CrossedElement, functional: Sequence[int], shift: float, n_cut: int,
                     spec: LengthFunction, action: ActionSpec, radius: float,
                     _escalated: bool = False) -> CheckReport:
    """||sum_{|phi(g)|>N} a_g lambda_g|| <= factor(N, L) ||[1 (x) M_phi, x] + L x||.

    The left side is compressed at `radius`, the right side at 2 * `radius`;
    a failure is re-checked once at twice the radius before it is reported.
    """
    group = spec.group
    vec, phi_value = _homomorphism(group, functional)
    if all(c == 0 for c in vec):
        raise ValueError("the homomorphism must be non-trivial")
    d = x.coeff_dim
    tail = x.restrict(lambda g: abs(phi_value(g)) > n_cut)
    if tail.coeffs:
        h_small = truncate(spec, radius, d)
        lhs = op_norm(realize(tail, h_small, action).matrix)
    else:
        lhs = 0.0
    h_big = truncate(spec, 2 * radius, d)
    x_op = realize(x, h_big, action)
    comm = commutator(m_phi(h_big, vec), x_op)
    # [1 (x) M_phi, x] + L x, on x's block pairs
    rhs = op_norm(replace(comm, data=comm.data + float(shift) * x_op.data).matrix)
    factor = tail_series_factor(n_cut, float(shift))
    slack = factor * rhs - lhs
    if slack < -SLACK_TOL and not _escalated:
        return check_tail_bound(x, functional, shift, n_cut, spec, action, 2 * radius,
                                _escalated=True)
    return CheckReport(
        name="tail-bound",
        statement="||sum_{|phi(g)|>N} a_g lambda_g|| "
                  "<= (sum_{|k|>N} (k+L)^-2)^(1/2) ||[1 (x) M_phi, x] + L x||",
        params={"N": n_cut, "L": float(shift), "functional": list(vec),
                "radius": radius, "delta_radius": radius},
        tolerance=SLACK_TOL,
        passed=slack >= -SLACK_TOL,
        slack=slack,
        details={"lhs": lhs, "rhs": rhs, "factor": factor, "escalated": _escalated},
    )


# ---------------------------------------------------------------------------
# Diagonal unitary conjugation.


def check_unitary_conjugation(a: np.ndarray, f_values: Sequence[float], g: Element,
                              spec: LengthFunction, action: ActionSpec, radius: float
                              ) -> CheckReport:
    """Conjugation by U(xi (x) delta_g) = lambda~_g xi (x) delta_g tensor-splits
    the coefficient, boundary-function, and translation parts.

    Checks U pi~(a) U* = pi(a) (x) 1, U nu~(f) U* = 1 (x) nu(f), and
    U lambda~_g U* = lambda_g (x) lambda_g on the interior window of the
    doubled truncation (H_A (x) l2(ball)) (x) l2(ball), indexed by (inner t,
    outer k).  U is lambda_{h_k} on the k-th copy, so U X U* has at (t, k)
    the block of X at (h_k^-1 t, k), zero where h_k^-1 t is outside the ball;
    the residuals are read off the ball's index maps and the d x d coefficient
    blocks, and nothing of the doubled space's size is allocated beyond its
    n^2 diagonal blocks, counted against NONZERO_CAP first (NonzeroCapError).
    """
    group = spec.group
    d = action.dim
    H = truncate(spec, radius, d)
    ball, n = H.ball, H.n_ball
    _check_nonzeros(n * n * d * d)
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.shape != (d, d):
        raise ValueError(f"coefficient must be {d}x{d}")
    f_values = np.asarray(f_values, dtype=complex)
    if f_values.shape != (n,):
        raise ValueError("f must list one value per ball element")

    # back[k, t]: ball index of h_k^-1 t, or -1
    back = np.array([ball.translate(group.inverse(h)) for h in ball.elements])
    pair = H.lengths[:, None] + H.lengths[None, :]  # l(h_k) + l(t)
    lost = back < 0
    k_in, t_in = np.nonzero((pair <= ball.radius) & ~lost)
    k_out, t_out = np.nonzero((pair <= ball.radius) & lost)
    # pi(a) (x) 1 has W(t)* a W(t) at (t, k), pi~(a) has W(j)* alpha_{h_k^-1}(a) W(j) at (j, k)
    stack = action.stack(ball)
    plain = act_inv_blocks(stack, a, np.arange(n))
    if stack is None:
        alphas = np.broadcast_to(a, (n, d, d))
    else:
        inverse = back[:, 0]  # ball index of h_k^-1: the identity is ball element 0
        if (inverse < 0).any():
            raise ValueError(f"{ball.elements[np.argmax(inverse < 0)]!r} lies in the ball but its "
                             "inverse does not: the length function is not symmetric")
        w = stack[inverse]
        alphas = w @ a @ w.conj().transpose(0, 2, 1)
    moved = act_inv_blocks(stack, alphas[k_in], back[k_in, t_in])
    # lambda_g (x) lambda_g sends (t, k) to (g t, g h_k), U lambda~_g U* only if h_k^-1 t is inside
    ahead = ball.translate(g) >= 0
    missed = (pair <= ball.radius - float(spec.length(g))) & lost & ahead[:, None] & ahead[None, :]
    residuals = {
        "coefficient": max(_max_abs(moved - plain[t_in]), _max_abs(plain[t_out])),
        "boundary-function": _max_abs(f_values[k_out]),
        "translation": 1.0 if missed.any() else 0.0,
    }
    residual = max(residuals.values())
    return CheckReport(
        name="unitary-conjugation",
        statement="U pi~(a) U* = pi(a) (x) 1;  U nu~(f) U* = 1 (x) nu(f);  "
                  "U lambda~_g U* = lambda_g (x) lambda_g",
        params={"radius": radius, "coeff_dim": d, "g": list(map(int, g))},
        tolerance=EQUALITY_TOL,
        passed=residual <= EQUALITY_TOL,
        residual=residual,
        details={"identity_residuals": residuals},
    )


# ---------------------------------------------------------------------------
# Rational rotation algebra equicontinuity.


def check_nctorus_equicontinuity(p: int, q: int, spec: LengthFunction,
                                 n_range: Sequence[int] = range(-50, 51),
                                 radius: float = 20.0) -> CheckReport:
    """Clock-shift relation and the uniform commutator bound under the phase action.

    u, v are the q x q clock and shift with u v = exp(2 pi i p/q) v u; the
    integer action sends u to exp(-2 pi i theta) u (inner, by conjugation with
    u v) and twists lambda_1 by a phase.  For x = u lambda_1 + u* lambda_-1
    and every n, the compression of [1 (x) M_l, alpha^n(x)] stays below
    sum_g ||a_g|| ||[1 (x) M_l, lambda_g]||.  The relation and action
    residuals are judged at EQUALITY_TOL, the slack at SLACK_TOL.
    """
    group = spec.group
    if not group.is_free_abelian or group.rank != 1:
        raise ValueError("the iterated-crossed-product check runs over Z")
    if q < 1:
        raise ValueError(f"q must be at least 1, got q = {q}")
    if len(n_range) == 0:
        raise ValueError(f"no n to check: n_range = {n_range!r} is empty")
    theta = p / q
    u = clock_matrix(q, p)
    v = shift_matrix(q)
    relation_residual = _max_abs(u @ v - np.exp(2j * np.pi * theta) * v @ u)

    w = u @ v  # inner implementer: w u w* = e^{-2 pi i theta} u
    action_residual = _max_abs(w @ u @ w.conj().T - np.exp(-2j * np.pi * theta) * u)
    action = ActionSpec(group, {(1,): w, (-1,): w.conj().T})

    x = CrossedElement.from_dict(group, {(1,): u, (-1,): u.conj().T})
    H = truncate(spec, radius, q)
    ell = m_ell(H)

    bound = 0.0
    for g, a in x.coeffs:
        bound += op_norm(a) * op_norm(commutator(ell, lambda_op(H, g)).matrix)

    worst_slack = math.inf
    norms = []
    for n in n_range:
        wn = np.linalg.matrix_power(w, n) if n >= 0 else np.linalg.matrix_power(w.conj().T, -n)
        twisted = x.map_coefficients(
            lambda g, a: np.exp(-2j * np.pi * n * g[0] * theta) * (wn @ a @ wn.conj().T)
        )
        value = op_norm(commutator(ell, realize(twisted, H, action)).matrix)
        norms.append(value)
        worst_slack = min(worst_slack, bound - value)

    passed = (relation_residual <= EQUALITY_TOL and action_residual <= EQUALITY_TOL
              and worst_slack >= -SLACK_TOL)
    return CheckReport(
        name="nctorus-equicontinuity",
        statement="u v = exp(2 pi i theta) v u;  alpha^n(u) = exp(-2 pi i n theta) u;  "
                  "||[1 (x) M_l, alpha^n(x)]|| <= sum_g ||a_g|| ||[1 (x) M_l, lambda_g]||",
        params={"p": p, "q": q, "radius": radius,
                "n_range": [int(min(n_range)), int(max(n_range))]},
        tolerance=SLACK_TOL,
        passed=passed,
        residual=max(relation_residual, action_residual),
        slack=worst_slack,
        details={"relation_residual": relation_residual,
                 "action_residual": action_residual,
                 "bound": bound,
                 "max_commutator_norm": max(norms)},
    )


# ---------------------------------------------------------------------------
# AF filtration.


AF_TEST_VECTORS = 2     # columns of the af-triple check's seeded test block
AF_BLOCK_SCALE = 0.25   # its entries are Gaussian integers in [-4, 4] + [-4, 4]i times this


def check_af_triple(orders: Sequence[int], eigenvalues: Sequence[float],
                    seed: int = 0) -> CheckReport:
    """Projection ranks, mutual orthogonality, and level commutation for the
    finite-depth odometer filtration (residuals as in `_af_residuals`).

    The eigenvalues (one per projection, each finite) are validated, and the
    k + 1 test blocks of (dim, AF_TEST_VECTORS) entries are counted against
    NONZERO_CAP, before any work (ValueError, NonzeroCapError)."""
    filt = af_filtration(orders)
    eigenvalues = filt.check_eigenvalues(eigenvalues)
    _check_nonzeros((filt.depth + 1) * filt.dim * AF_TEST_VECTORS)
    res = _af_residuals(filt, eigenvalues, np.random.default_rng([seed, 0xAF]))
    residual = max(res["rank"], res["orthogonality"], res["commutation"], res["q0"])
    return CheckReport(
        name="af-triple",
        statement="Q_i mutually orthogonal projections with rank |G/G_i| - |G/G_{i-1}|; "
                  "[Q_j, pi(a)] = 0 for a in A_i, j > i;  D = sum_i lambda_i Q_i",
        params={"orders": [int(n) for n in orders],
                "eigenvalues": eigenvalues, "seed": seed},
        tolerance=EQUALITY_TOL,
        passed=residual <= EQUALITY_TOL,
        residual=residual,
        details={"ranks": res["ranks"],
                 "orthogonality_residual": res["orthogonality"],
                 "commutation_residual": res["commutation"],
                 "rank_residual": res["rank"],
                 "dirac_hermitian_residual": res["dirac_hermitian"]},
    )


def _gaussian_integers(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(-4, 5, size=shape) + 1j * rng.integers(-4, 5, size=shape)


def _af_residuals(filt: AFFiltration, eigenvalues: Sequence[float],
                  rng: np.random.Generator) -> dict:
    """The af-triple ranks and residuals, in O(k^2 dim r) time and O(k dim r) memory.

    Every residual applies the filtration's level operators, both factors
    included, to a seeded test block V of r = AF_TEST_VECTORS columns:
    |Q_i (Q_j V) - delta_ij Q_j V| (orthogonality and idempotency),
    |Q_j (a o V) - a o (Q_j V)| for a seeded level-i function a and j > i
    (commutation), and |V* D V - (V* D V)*| (the Dirac operator's hermitian
    residual, in details only).  They are taken relative to the block's
    scale.  V holds small Gaussian integers times a power of two, so for
    dyadic orders and integer eigenvalues every mean is exact and every
    residual is exactly 0.  Q_0 is compared with the projection onto the
    constants on basis columns, entry by entry.  Tr P_q = dim / (dim / q) = q
    exactly, so the ranks are the exact traces Tr Q_i = q_i - q_{i-1} and the
    rank residual is 0 by construction.
    """
    k, dim, sizes = filt.depth, filt.dim, filt.level_sizes
    ranks = [q - p for p, q in zip((0,) + sizes, sizes)]
    block = AF_BLOCK_SCALE * _gaussian_integers(rng, (dim, AF_TEST_VECTORS))
    images = [filt.project(j, block) for j in range(k + 1)]

    orthogonality = max(_max_abs(filt.project(i, w) - (w if i == j else 0.0))
                        for j, w in enumerate(images) for i in range(k + 1))

    commutation = 0.0
    for i in range(k):
        a = _gaussian_integers(rng, sizes[i])[np.arange(dim) % sizes[i], None]
        moved = a * block
        for j in range(i + 1, k + 1):
            commutation = max(commutation, _max_abs(filt.project(j, moved) - a * images[j]))

    basis = np.eye(dim, AF_TEST_VECTORS, dtype=complex)
    constants = np.ones(dim, dtype=complex) / math.sqrt(dim)
    q0 = _max_abs(filt.project(0, basis) - np.outer(constants, constants[:AF_TEST_VECTORS].conj()))

    gram = block.conj().T @ filt.dirac(eigenvalues, block)
    return {"ranks": ranks, "rank": 0.0,
            "orthogonality": orthogonality / AF_BLOCK_SCALE,
            "commutation": commutation / AF_BLOCK_SCALE, "q0": q0,
            "dirac_hermitian": _max_abs(gram - gram.conj().T) / (dim * AF_BLOCK_SCALE**2)}


# ---------------------------------------------------------------------------
# Coefficient bounds.


def check_coefficient_bounds(x: CrossedElement, g: Element, d_a: np.ndarray,
                             spec: LengthFunction, action: ActionSpec,
                             radius: Optional[float] = None,
                             _escalated: bool = False) -> CheckReport:
    """Per-coefficient bounds ||[D_A, a_h]|| <= ||[D_A (x) 1, x]|| and
    ||a_h|| <= l(hg)^-1 ||[1 (x) M_l, x]|| (the latter skipping hg = e).

    Both sides are compressed at one radius; a failure is re-checked once at
    twice the radius before it is reported."""
    group = spec.group
    d = x.coeff_dim
    r = x.support_radius(spec)
    if radius is None:
        radius = 2 * r + 2
    H = truncate(spec, radius, d)
    d_a = np.atleast_2d(np.asarray(d_a, dtype=complex))
    t_coeff = np.kron(d_a, np.eye(H.n_ball, dtype=complex))
    x_op = realize(x, H, action)
    x_mat = x_op.matrix
    comm = t_coeff @ x_mat
    comm -= x_mat @ t_coeff
    del t_coeff
    norm_coeff = op_norm(comm)
    del comm
    norm_len = op_norm(commutator(m_ell(H), x_op).matrix)

    e = group.identity()
    worst = math.inf
    per_term = []
    for s, a in x.coeffs:
        # s = h g, so the coefficient a sits over the coset point with l(hg) = l(s)
        slack_d = norm_coeff - op_norm(d_a @ a - a @ d_a)
        entry = {"support_point": list(map(int, s)), "dirac_slack": slack_d}
        worst = min(worst, slack_d)
        if s != e:
            slack_a = norm_len / float(spec.length(s)) - op_norm(a)
            entry["norm_slack"] = slack_a
            worst = min(worst, slack_a)
        per_term.append(entry)
    if worst < -SLACK_TOL and not _escalated:
        return check_coefficient_bounds(x, g, d_a, spec, action, 2 * radius, _escalated=True)
    return CheckReport(
        name="coefficient-bounds",
        statement="||[D_A, a_h]|| <= ||[D_A (x) 1, x]||;  "
                  "||a_h|| <= l(hg)^-1 ||[1 (x) M_l, x]|| for hg != e",
        params={"radius": radius, "g": list(map(int, g)), "coeff_dim": d},
        tolerance=SLACK_TOL,
        passed=worst >= -SLACK_TOL,
        slack=worst,
        details={"terms": per_term, "escalated": _escalated},
    )


# ---------------------------------------------------------------------------
# Length axioms wrapper (report form of LengthFunction.check_axioms).


def check_length_axioms(spec: LengthFunction, radius: float) -> CheckReport:
    report = spec.check_axioms(radius)
    return CheckReport(
        name="length-axioms",
        statement="l(e) = 0;  l(g^-1) = l(g);  l(gh) <= l(g) + l(h)",
        params={"radius": radius, "pairs": report.pairs_checked,
                "skipped": report.pairs_skipped},
        tolerance=0.0,
        passed=report.max_violation <= 0.0,
        residual=report.max_violation,
        details={"identity": report.identity_violation,
                 "symmetry": report.symmetry_violation,
                 "subadditivity": report.subadditivity_violation},
    )


# ---------------------------------------------------------------------------
# Check families.  One instance generator per family feeds both default_suite
# and `horocp verify <family>`; instance k of a family draws from the random
# stream default_rng([seed, stream]) in order.


@dataclass(frozen=True)
class CheckParams:
    """Instance parameters; the `verify` flags of the same names default to these."""

    radius: float = 8.0
    count: int = 10
    support_radius: float = 3.0
    pairs: int = 100
    pair_radius: float = 4.0


def _axioms(rng, seed, spec, p, k):
    return check_length_axioms(spec, p.radius)


def _cocycle(rng, seed, spec, p, k):
    ball = spec.ball(p.pair_radius)
    pairs = []
    for _ in range(p.pairs):
        i, j = rng.integers(0, len(ball), size=2)
        pairs.append((ball.elements[int(i)], ball.elements[int(j)]))
    return check_cocycle(spec, pairs, p.radius)


def _commutator(rng, seed, spec, p, k):
    d = 1 + k % 3
    x = random_crossed(rng, spec, p.support_radius, coeff_dim=d, terms=3)
    action = random_diagonal_action(rng, spec.group, d)
    return check_commutator_identity(x, spec, action, radius=p.radius)


def _conditional_expectation(rng, seed, spec, p, k):
    group = spec.group
    if group.is_free_abelian and group.rank == 1:
        sub = SubgroupSpec.multiples(group, 2)
    else:
        sub = SubgroupSpec.kernel_of(group, (1,) + (0,) * (group.abelianization_rank - 1))
    x = random_crossed(rng, spec, p.support_radius, coeff_dim=2, terms=4)
    ball = spec.ball(2.0)
    g = ball.elements[int(rng.integers(0, len(ball)))]
    d_a = random_hermitian(rng, 2)
    action = random_diagonal_action(rng, group, 2)
    return check_conditional_expectation(x, g, sub, d_a, spec, action)


def _tail_bound(rng, seed, spec, p, k):
    # functionals e_1..e_m and the all-ones vector, cycled with N = 1, 2, 3
    m = spec.group.abelianization_rank
    functionals = list(dict.fromkeys(
        [tuple(int(i == j) for j in range(m)) for i in range(m)] + [(1,) * m]))
    x = random_crossed(rng, spec, p.support_radius, coeff_dim=1, terms=5)
    n_cut = 1 + k % 3
    shift = 0.0 if k % 2 == 0 else min(n_cut, max(-n_cut, float(k % 5 - 2) / 2))
    return check_tail_bound(x, functionals[k % len(functionals)], shift, n_cut, spec,
                            ActionSpec.trivial(spec.group, 1), radius=p.radius)


def _conjugation(rng, seed, spec, p, k):
    # f = phi_s for the first generator s
    group = spec.group
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    action = random_diagonal_action(rng, group, 2)
    ball = spec.ball(p.radius)
    phi_s = phi(group.generators[0], ball)
    g = ball.elements[int(rng.integers(1, len(ball)))]
    return check_unitary_conjugation(a, [float(phi_s(h)) for h in ball.elements], g,
                                     spec, action, radius=p.radius)


def _nctorus(rng, seed, spec, p, k):
    return check_nctorus_equicontinuity(1, (3, 5, 8)[k], spec, radius=p.radius)


def _af_triple(rng, seed, spec, p, k):
    return check_af_triple([2, 2, 2, 2, 2], [0, 1, 2, 3, 4, 5], seed=seed)


def _coefficient_bounds(rng, seed, spec, p, k):
    x = random_crossed(rng, spec, p.support_radius, coeff_dim=2, terms=3)
    ball = spec.ball(2.0)
    g = ball.elements[int(rng.integers(0, len(ball)))]
    d_a = random_hermitian(rng, 2)
    action = random_diagonal_action(rng, spec.group, 2)
    return check_coefficient_bounds(x, g, d_a, spec, action)


@dataclass(frozen=True)
class CheckFamily:
    """instance(rng, seed, spec, params, k) builds and runs instance k."""

    instance: Callable[..., CheckReport]
    stream: int = 0  # 0: the family draws nothing
    size: Optional[int] = None  # instances per run; None takes params.count
    group: Optional[GroupSpec] = None  # fixed group, for families not run over --group


CHECK_FAMILIES = {
    "axioms": CheckFamily(_axioms, size=1),
    "cocycle": CheckFamily(_cocycle, stream=1, size=1),
    "commutator": CheckFamily(_commutator, stream=2),
    "conditional-expectation": CheckFamily(_conditional_expectation, stream=3),
    "tail-bound": CheckFamily(_tail_bound, stream=4),
    "conjugation": CheckFamily(_conjugation, stream=5),
    "nctorus": CheckFamily(_nctorus, size=3, group=GroupSpec.free_abelian(1)),
    "af-triple": CheckFamily(_af_triple, size=1, group=GroupSpec.free_abelian(1)),
    "coefficient-bounds": CheckFamily(_coefficient_bounds, stream=6),
}


def run_family(name: str, seed: int,
               runs: Sequence[tuple[Sequence[LengthFunction], CheckParams]]) -> list[CheckReport]:
    """Instances of one family over runs that share one random stream.

    Each run is (length functions, params); instance k, counted across the
    runs, uses the length functions in turn: specs[k % len(specs)].
    """
    family = CHECK_FAMILIES[name]
    rng = np.random.default_rng([seed, family.stream])
    reports = []
    for specs, params in runs:
        for _ in range(family.size or params.count):
            k = len(reports)
            reports.append(family.instance(rng, seed, specs[k % len(specs)], params, k))
    return reports


def default_suite(seed: int = 0) -> list[CheckReport]:
    """Every check family at its documented default parameters; the core regression run."""
    z1, z2, h3 = (LengthFunction.word(group) for group in (
        GroupSpec.free_abelian(1), GroupSpec.free_abelian(2), GroupSpec.heisenberg3()))
    P = CheckParams
    plan = {
        "axioms": [((z1,), P(radius=10)), ((z2,), P(radius=8)), ((h3,), P(radius=6))],
        "cocycle": [((z2,), P(radius=10.0, pair_radius=4.0)),
                    ((h3,), P(radius=8.0, pair_radius=3.0))],
        "commutator": [((z1, z2), P(count=20, support_radius=2.0, radius=6.0))],
        "conditional-expectation": [((z1, z2), P(count=20, support_radius=3.0))],
        "tail-bound": [((z2,), P(count=12, support_radius=4.0, radius=8.0))],
        "conjugation": [((z1,), P(count=10, radius=4.0))],
        "nctorus": [((z1,), P(radius=20.0))],
        "af-triple": [((z1,), P())],
        "coefficient-bounds": [((z1,), P(count=10, support_radius=3.0))],
    }
    return [r for name, runs in plan.items() for r in run_family(name, seed, runs)]
