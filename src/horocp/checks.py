"""Named numeric verifications of operator identities and inequalities.

Each check returns a CheckReport with the measured residual (equalities) or
slack (inequalities), the tolerance it was judged against, and the statement
it verifies.  Equality tolerances default to 1e-12, inequality slack
tolerances to 1e-9.  Randomized checks record their seed, so every report is
reproducible.

Inequalities compare a radius-R compression on the small side against a
radius-(R + dR) compression on the large side (default dR = R); both are
certified lower bounds of the untruncated norms, and a failure triggers one
automatic radius escalation before it is reported.

The af-triple check forms no dim x dim matrix product: ranks are traces,
Q_0 is compared entrywise with the projection onto the constants, Q_i Q_j is
read off the row means the averaging projections reduce to (for non-dyadic
orders that orthogonality residual is rounding noise, different from the
dense product's), and [Q_j, pi(a)] is an entrywise product because pi(a) is
diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .aftriple import AFFiltration, af_filtration
from .groups import Element, GroupSpec, LengthFunction
from .horoboundary import cocycle_defect, phi
from .operators import (
    ActionSpec,
    CrossedElement,
    SubgroupSpec,
    TruncatedHilbert,
    TruncatedOperator,
    clock_matrix,
    coset_codes,
    lambda_op,
    m_ell,
    m_phi,
    op_norm,
    realize,
    realize_phi_twisted,
    shift_matrix,
    truncate,
    window_column_mask,
    _act_inv_blocks,
    _check_nonzeros,
    _homomorphism,
    _unitary_stack,
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


def _diagonal_of(op: TruncatedOperator) -> np.ndarray:
    """Dense diagonal of a multiplication operator such as m_ell or m_phi."""
    return np.tile(op.data[:, 0, 0], op.hilbert.coeff_dim)


def _diagonal_commutator(values: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[diag(values), y] entrywise as v_i y_ij - y_ij v_j.

    These are the nonzero bits of diag(v) @ y - y @ diag(v); (v_i - v_j) y_ij
    would round differently.
    """
    return values[:, np.newaxis] * y - y * values[np.newaxis, :]


def _coefficient_commutator(d_a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[D_A (x) 1, y] on the (d, n, d, n) view of y, without forming D_A (x) 1."""
    d = len(d_a)
    n = len(y) // d
    y4 = y.reshape(d, n, d, n)
    comm = np.einsum("ab,bicj->aicj", d_a, y4) - np.einsum("aibj,bc->aicj", y4, d_a)
    return comm.reshape(y.shape)


def _coset_shift_mask(H: TruncatedHilbert, subgroup: SubgroupSpec, g: Element) -> np.ndarray:
    """Ball entries (i, j) that T -> E_H(T lambda_{g^-1}) lambda_g keeps.

    The two translations move column j to g h_j and back, and the compression
    between them keeps row h_i there when g h_j shares its right coset of H; so
    the map keeps T's entry where g h_j is in the ball and in the coset H h_i,
    and writes 0 elsewhere.
    """
    codes = coset_codes(H, subgroup)
    ahead = H.ball.translate(g)
    shifted = np.where(ahead >= 0, codes[ahead], -1)  # -1 matches no code
    return codes[:, np.newaxis] == shifted[np.newaxis, :]


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
                              radius: float, tol: float = EQUALITY_TOL) -> CheckReport:
    """[1 (x) M_l, x] equals sum_g (1 (x) phi_g) a_g lambda_g on the window."""
    d = x.coeff_dim if x.coeffs else 1
    H = truncate(spec, radius, d)
    r = x.support_radius(spec)
    if not H.exact and H.ball.radius - r < 1:
        raise ValueError("window needs radius - support_radius >= 1")
    x_op = realize(x, H, action)
    rhs = realize_phi_twisted(x, H, action)  # the same block pairs as x_op
    window = math.inf if H.exact else H.ball.radius - r
    lengths = H.lengths
    keep = lengths[x_op.cols] <= window
    rows, cols, blocks = x_op.rows[keep], x_op.cols[keep], x_op.data[keep]
    # block (t, j) of [1 (x) M_l, x] is l_t X_tj - X_tj l_j
    lhs = (lengths[rows][:, np.newaxis, np.newaxis] * blocks
           - blocks * lengths[cols][:, np.newaxis, np.newaxis])
    residual = _max_abs(lhs - rhs.data[keep])
    return CheckReport(
        name="commutator-identity",
        statement="[1 (x) M_l, sum a_g lambda_g] = sum (1 (x) phi_g) a_g lambda_g",
        params={"radius": radius, "support_radius": r, "coeff_dim": d,
                "support": [list(map(int, g)) for g in x.support]},
        tolerance=tol,
        passed=residual <= tol,
        residual=residual,
        details={"window_radius": window if not math.isinf(window) else "exact"},
    )


# ---------------------------------------------------------------------------
# Cocycle identity.


def check_cocycle(spec: LengthFunction, pairs: Sequence[tuple[Element, Element]],
                  radius: float, tol: float = 0.0) -> CheckReport:
    """phi_{gh} = g.phi_h + phi_g, exactly, over all listed pairs."""
    ball = spec.ball(radius)
    worst = 0.0
    for g, h in pairs:
        worst = max(worst, cocycle_defect(g, h, ball, spec))
    return CheckReport(
        name="cocycle",
        statement="phi_{gh} = g.phi_h + phi_g",
        params={"radius": radius, "pairs": len(pairs)},
        tolerance=tol,
        passed=worst <= tol,
        residual=worst,
    )


# ---------------------------------------------------------------------------
# Conditional expectation.


def check_conditional_expectation(x: CrossedElement, g: Element, subgroup: SubgroupSpec,
                                  d_a: np.ndarray, spec: LengthFunction, action: ActionSpec,
                                  radius: Optional[float] = None,
                                  tol: float = EQUALITY_TOL,
                                  slack_tol: float = SLACK_TOL) -> CheckReport:
    """E_H intertwines the coefficient and length commutators along coset shifts.

    Verifies E_H([T, x] lambda_{g^-1}) lambda_g = [T, E_H(x lambda_{g^-1}) lambda_g]
    for T = D_A (x) 1 and T = 1 (x) M_l, plus the contraction
    ||E_H(x)|| <= ||x|| (judged at the equality tolerance) and the coset
    compression ||E_H([1 (x) M_l, x] lambda_{g^-1}) lambda_g|| <=
    ||[1 (x) M_l, x]|| (an inequality of two separately computed norms, judged
    at the slack tolerance), all on the truncated space.
    """
    group = spec.group
    d = x.coeff_dim if x.coeffs else 1
    r = x.support_radius(spec)
    lg = float(spec.length(g))
    if radius is None:
        radius = r + 2 * lg + 2
    H = truncate(spec, radius, d)
    window = math.inf if H.exact else H.ball.radius - r - 2 * lg
    if not H.exact and window < 0:
        raise ValueError("radius too small for the requested coset shift")

    x_mat = realize(x, H, action).matrix
    d_a = np.atleast_2d(np.asarray(d_a, dtype=complex))
    ell = _diagonal_of(m_ell(H))
    kept = np.tile(_coset_shift_mask(H, subgroup, g), (d, d))

    shifted = conditional_shifted(x, g, subgroup, group)
    shifted_mat = realize(shifted, H, action).matrix

    mask = window_column_mask(H, window).astype(bool)
    residuals, lhs = {}, {}
    for label, comm in (("coefficient", lambda y: _coefficient_commutator(d_a, y)),
                        ("length", lambda y: _diagonal_commutator(ell, y))):
        lhs[label] = np.where(kept, comm(x_mat), 0)
        residuals[label] = _max_abs((lhs[label] - comm(shifted_mat))[:, mask])

    from .operators import conditional_expectation

    ex = conditional_expectation(x, subgroup)
    contraction = op_norm(x_mat) - op_norm(realize(ex, H, action).matrix)
    # coset compression of the length commutator is itself a contraction
    coset_slack = op_norm(_diagonal_commutator(ell, x_mat)) - op_norm(lhs["length"])
    residual = max(residuals.values())
    return CheckReport(
        name="conditional-expectation",
        statement="E_H([T, x] lambda_{g^-1}) lambda_g = [T, E_H(x lambda_{g^-1}) lambda_g];  "
                  "||E_H(x)|| <= ||x||;  ||E_H([1 (x) M_l, x] lambda_{g^-1}) lambda_g|| "
                  "<= ||[1 (x) M_l, x]||",
        params={"radius": radius, "subgroup": subgroup.name,
                "g": list(map(int, g)), "coeff_dim": d},
        tolerance=tol,
        passed=(residual <= tol and contraction >= -tol
                and coset_slack >= -slack_tol),
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


def tail_series_factor(n_cut: int, shift: float, tol: float = 1e-12) -> float:
    """sqrt(sum_{|k| > N} 1/(k + L)^2) by partial sums with a tail correction.

    The summation runs far enough that the Euler-Maclaurin remainder is far
    below tol.
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
                     delta_radius: Optional[float] = None, tol: float = SLACK_TOL,
                     _escalated: bool = False) -> CheckReport:
    """||sum_{|phi(g)|>N} a_g lambda_g|| <= factor(N, L) ||[1 (x) M_phi, x] + L x||.

    The left side is compressed at `radius`, the right side at
    `radius + delta_radius`; one automatic radius escalation runs on failure.
    """
    group = spec.group
    if delta_radius is None:
        delta_radius = radius
    vec, phi_value = _homomorphism(group, functional)
    if all(c == 0 for c in vec):
        raise ValueError("the homomorphism must be non-trivial")
    d = x.coeff_dim if x.coeffs else 1
    tail = x.restrict(lambda g: abs(phi_value(g)) > n_cut)
    if tail.coeffs:
        h_small = truncate(spec, radius, d)
        lhs = op_norm(realize(tail, h_small, action).matrix)
    else:
        lhs = 0.0
    h_big = truncate(spec, radius + delta_radius, d)
    x_mat = realize(x, h_big, action).matrix
    rhs = op_norm(_diagonal_commutator(_diagonal_of(m_phi(h_big, vec)), x_mat)
                  + float(shift) * x_mat)
    factor = tail_series_factor(n_cut, float(shift))
    slack = factor * rhs - lhs
    if slack < -tol and not _escalated:
        return check_tail_bound(x, functional, shift, n_cut, spec, action,
                                2 * radius, 2 * radius, tol, _escalated=True)
    return CheckReport(
        name="tail-bound",
        statement="||sum_{|phi(g)|>N} a_g lambda_g|| "
                  "<= (sum_{|k|>N} (k+L)^-2)^(1/2) ||[1 (x) M_phi, x] + L x||",
        params={"N": n_cut, "L": float(shift), "functional": list(vec),
                "radius": radius, "delta_radius": delta_radius},
        tolerance=tol,
        passed=slack >= -tol,
        slack=slack,
        details={"lhs": lhs, "rhs": rhs, "factor": factor, "escalated": _escalated},
    )


# ---------------------------------------------------------------------------
# Diagonal unitary conjugation.


def check_unitary_conjugation(a: np.ndarray, f_values: Sequence[float], g: Element,
                              spec: LengthFunction, action: ActionSpec, radius: float,
                              tol: float = EQUALITY_TOL) -> CheckReport:
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
    stack = _unitary_stack(H, action)
    plain = _act_inv_blocks(stack, a, np.arange(n))
    alphas = np.array([action.act(group.inverse(h), a, spec) for h in ball.elements])
    moved = _act_inv_blocks(stack, alphas[k_in], back[k_in, t_in])
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
        tolerance=tol,
        passed=residual <= tol,
        residual=residual,
        details={"identity_residuals": residuals},
    )


# ---------------------------------------------------------------------------
# Rational rotation algebra equicontinuity.


def check_nctorus_equicontinuity(p: int, q: int, spec: LengthFunction,
                                 x: Optional[CrossedElement] = None,
                                 n_range: Sequence[int] = range(-50, 51),
                                 radius: float = 20.0,
                                 tol: float = SLACK_TOL,
                                 relation_tol: float = EQUALITY_TOL) -> CheckReport:
    """Clock-shift relation and the uniform commutator bound under the phase action.

    u, v are the q x q clock and shift with u v = exp(2 pi i p/q) v u; the
    integer action sends u to exp(-2 pi i theta) u (inner, by conjugation with
    u v) and twists lambda_1 by a phase.  For every n the compression of
    [1 (x) M_l, alpha^n(x)] stays below sum_g ||a_g|| ||[1 (x) M_l, lambda_g]||.
    """
    group = spec.group
    if not group.is_free_abelian or group.rank != 1:
        raise ValueError("the iterated-crossed-product check runs over Z")
    theta = p / q
    u = clock_matrix(q, p)
    v = shift_matrix(q)
    relation_residual = _max_abs(u @ v - np.exp(2j * np.pi * theta) * v @ u)

    w = u @ v  # inner implementer: w u w* = e^{-2 pi i theta} u
    action_residual = _max_abs(w @ u @ w.conj().T - np.exp(-2j * np.pi * theta) * u)
    action = ActionSpec(group, {(1,): w, (-1,): w.conj().T})

    if x is None:
        x = CrossedElement.from_dict(group, {(1,): u, (-1,): u.conj().T})
    H = truncate(spec, radius, q)
    ell = _diagonal_of(m_ell(H))

    bound = 0.0
    for g, a in x.coeffs:
        bound += op_norm(a) * op_norm(_diagonal_commutator(ell, lambda_op(H, g).matrix))

    worst_slack = math.inf
    norms = []
    for n in n_range:
        wn = np.linalg.matrix_power(w, n) if n >= 0 else np.linalg.matrix_power(w.conj().T, -n)
        twisted = x.map_coefficients(
            lambda g, a: np.exp(-2j * np.pi * n * g[0] * theta) * (wn @ a @ wn.conj().T)
        )
        value = op_norm(_diagonal_commutator(ell, realize(twisted, H, action).matrix))
        norms.append(value)
        worst_slack = min(worst_slack, bound - value)

    passed = (relation_residual <= relation_tol and action_residual <= relation_tol
              and worst_slack >= -tol)
    return CheckReport(
        name="nctorus-equicontinuity",
        statement="u v = exp(2 pi i theta) v u;  alpha^n(u) = exp(-2 pi i n theta) u;  "
                  "||[1 (x) M_l, alpha^n(x)]|| <= sum_g ||a_g|| ||[1 (x) M_l, lambda_g]||",
        params={"p": p, "q": q, "radius": radius,
                "n_range": [int(min(n_range)), int(max(n_range))]},
        tolerance=tol,
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


def check_af_triple(orders: Sequence[int], eigenvalues: Sequence[float],
                    seed: int = 0, tol: float = EQUALITY_TOL) -> CheckReport:
    """Projection ranks, mutual orthogonality, and level commutation for the
    finite-depth odometer filtration (residuals as in `_af_residuals`)."""
    filt = af_filtration(orders)
    res = _af_residuals(filt, eigenvalues, np.random.default_rng([seed, 0xAF]))
    residual = max(res["rank"], res["orthogonality"], res["commutation"], res["q0"])
    return CheckReport(
        name="af-triple",
        statement="Q_i mutually orthogonal projections with rank |G/G_i| - |G/G_{i-1}|; "
                  "[Q_j, pi(a)] = 0 for a in A_i, j > i;  D = sum_i lambda_i Q_i",
        params={"orders": [int(n) for n in orders],
                "eigenvalues": [float(v) for v in eigenvalues], "seed": seed},
        tolerance=tol,
        passed=residual <= tol,
        residual=residual,
        details={"ranks": res["ranks"],
                 "orthogonality_residual": res["orthogonality"],
                 "commutation_residual": res["commutation"],
                 "rank_residual": res["rank"],
                 "dirac_hermitian_residual": res["dirac_hermitian"]},
    )


def _af_residuals(filt: AFFiltration, eigenvalues: Sequence[float],
                  rng: np.random.Generator) -> dict:
    """The af-triple ranks and residuals, in O(k^2 dim^2) and without any dim x dim product.

    With x = q a + r, the averaging projection P_q replaces row x of a matrix
    by the mean of its rows q a + r, and Q_i = P_{q_i} - P_{q_{i-1}}
    (P_{q_{-1}} = 0).  So Q_i Q_j comes from the row means of the built Q_j,
    broadcast against Q_j (i = j) or 0.  For dyadic orders the means are
    exact; for other orders this residual is rounding noise, of a different
    summation order than the dense product Q_i @ Q_j.  pi(a) is diagonal, so
    [Q_j, pi(a)] is Q_j * (v_y - v_x) entrywise.  Ranks are traces, Q_0 is
    compared with the projection onto the constants, and the Dirac operator's
    hermitian residual is reported in details only.
    """
    qs, k, dim, sizes = filt.projections, filt.depth, filt.dim, filt.level_sizes
    ranks = [b - a for a, b in zip((0,) + sizes, sizes)]
    rank = max(abs(float(np.real(np.trace(q))) - r) for q, r in zip(qs, ranks))

    orthogonality = 0.0
    for j, qj in enumerate(qs):
        prev = np.zeros((1, dim))
        for i, q in enumerate(sizes):
            mean = qj.reshape(dim // q, q, dim).mean(axis=0)   # row x mod q of P_q Q_j
            # block[c, s]: row q_{i-1} c + s of Q_i Q_j = P_{q_i} Q_j - P_{q_{i-1}} Q_j
            block = mean.reshape(-1, len(prev), dim) - prev
            ref = qj.reshape(dim // q, *block.shape) if i == j else 0.0
            orthogonality = max(orthogonality, _max_abs(block - ref))
            prev = mean
    del mean, block, prev   # the last level's row means are dim x dim: free them here

    commutation = 0.0
    for i in range(k):
        values = rng.normal(size=sizes[i]) + 1j * rng.normal(size=sizes[i])
        v = values[np.arange(dim) % sizes[i]]
        gap = v[None, :] - v[:, None]
        for j in range(i + 1, k + 1):
            commutation = max(commutation, _max_abs(qs[j] * gap))

    constants = np.ones(dim, dtype=complex) / math.sqrt(dim)
    dirac = filt.dirac(eigenvalues)
    return {"ranks": ranks, "rank": rank, "orthogonality": orthogonality, "commutation": commutation,
            "q0": _max_abs(qs[0] - np.outer(constants, constants.conj())),
            "dirac_hermitian": _max_abs(dirac - dirac.conj().T)}


# ---------------------------------------------------------------------------
# Coefficient bounds.


def check_coefficient_bounds(x: CrossedElement, g: Element, d_a: np.ndarray,
                             spec: LengthFunction, action: ActionSpec,
                             radius: Optional[float] = None,
                             tol: float = SLACK_TOL,
                             _escalated: bool = False) -> CheckReport:
    """Per-coefficient bounds ||[D_A, a_h]|| <= ||[D_A (x) 1, x]|| and
    ||a_h|| <= l(hg)^-1 ||[1 (x) M_l, x]|| (the latter skipping hg = e)."""
    group = spec.group
    d = x.coeff_dim if x.coeffs else 1
    r = x.support_radius(spec)
    if radius is None:
        radius = 2 * r + 2
    H = truncate(spec, radius, d)
    d_a = np.atleast_2d(np.asarray(d_a, dtype=complex))
    t_coeff = np.kron(d_a, np.eye(H.n_ball, dtype=complex))
    x_mat = realize(x, H, action).matrix
    mell = m_ell(H).matrix
    norm_coeff = op_norm(t_coeff @ x_mat - x_mat @ t_coeff)
    norm_len = op_norm(mell @ x_mat - x_mat @ mell)

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
    if worst < -tol and not _escalated:
        return check_coefficient_bounds(x, g, d_a, spec, action, 2 * radius,
                                        tol, _escalated=True)
    return CheckReport(
        name="coefficient-bounds",
        statement="||[D_A, a_h]|| <= ||[D_A (x) 1, x]||;  "
                  "||a_h|| <= l(hg)^-1 ||[1 (x) M_l, x]|| for hg != e",
        params={"radius": radius, "g": list(map(int, g)), "coeff_dim": d},
        tolerance=tol,
        passed=worst >= -tol,
        slack=worst,
        details={"terms": per_term, "escalated": _escalated},
    )


# ---------------------------------------------------------------------------
# Length axioms wrapper (report form of LengthFunction.check_axioms).


def check_length_axioms(spec: LengthFunction, radius: float,
                        tol: float = 0.0) -> CheckReport:
    report = spec.check_axioms(radius)
    return CheckReport(
        name="length-axioms",
        statement="l(e) = 0;  l(g^-1) = l(g);  l(gh) <= l(g) + l(h)",
        params={"radius": radius, "pairs": report.pairs_checked,
                "skipped": report.pairs_skipped},
        tolerance=tol,
        passed=report.max_violation <= tol,
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
    phi_s = phi(group.generators[0], ball, spec)
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
