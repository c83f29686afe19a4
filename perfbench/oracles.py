"""Independent oracles and the scoring of one repetition's records.

Nothing here imports horocp.  Balls come from closed forms (Z^m, Z2
hexagonal) or from a separate breadth-first search (H3, whose ball sizes are
also pinned to published counts); operator norms come from LAPACK, or from
ARPACK on a scipy.sparse copy of the same truncated matrix when N is large;
facets come from scipy.spatial.ConvexHull; Monge-Kantorovich values are
re-derived from the returned witness and compared with a grid-plus-pattern
maximiser that uses LAPACK norms.

An operation fails when it raised, when a check reported passed=False, when
an exact value differs from its oracle, or when a certified lower bound
exceeds its oracle by more than LOWER_BOUND_SLACK relative.  The shortfall
of a lower bound is max(0, (oracle - value) / oracle).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

LOWER_BOUND_SLACK = 1e-12
DENSE_NORM_MAX = 600  # above this N the oracle norm runs on scipy.sparse
H3_BALL_SIZES = {8: 1_793, 16: 27_905, 20: 68_079, 22: 99_689}
H3_GENS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))


@dataclass
class Score:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    shortfalls: list = field(default_factory=list)

    def op(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)

    def bound(self, value: float, oracle: float, label: str) -> None:
        """One certified lower bound against its oracle."""
        too_high = value > oracle * (1 + LOWER_BOUND_SLACK)
        self.op(not too_high, f"{label}: {value!r} exceeds oracle {oracle!r}")
        if oracle > 0:
            self.shortfalls.append(max(0.0, (oracle - value) / oracle))

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def shortfall_max(self):
        """bound_shortfall_max; None when the workload reports no bounds."""
        return max(self.shortfalls) if self.shortfalls else None

    def merge(self, other: "Score") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures
        self.shortfalls += other.shortfalls


def score(name: str, inputs: dict, records: list, cache: dict) -> Score:
    """Judge one repetition.  ``cache`` keeps oracle values across the
    repetitions of one run, which all share the same inputs."""
    out = Score()
    for rec in records:
        label = rec["op"]
        if "error" in rec:
            out.op(False, f"{label} raised {rec['error']}")
            continue
        _SCORERS[name](rec, inputs, cache, out)
    return out


def stdout_digest(records: list) -> str:
    text = "".join(r.get("value", "") for r in records if r["kind"] == "stdout")
    return hashlib.sha256(text.encode()).hexdigest()


# verify_suite stdout sha256, measured, keyed by (argv, python, numpy, BLAS,
# BLAS threads): the digest depends on the BLAS thread count (README Findings).
VERIFY_STDOUT_SHA256 = {
    ("verify all --seed 7", "3.11.7", "2.4.6", "scipy-openblas 0.3.31.188.0", 1):
        "a542c4eee8765c111b0f87805d0344c2f36876584555be4e3a93a2fc486f50fe",
}


def verify_reference(argv: str, env: dict):
    """The recorded stdout digest for this environment, or None."""
    key = (argv, env["python"], env["numpy"], env["blas"], env["blas_threads"])
    return VERIFY_STDOUT_SHA256.get(key)


def score_stdout(digests: list, reference) -> Score:
    """One operation per repetition whose stdout is compared: with a recorded
    reference every repetition is compared with it, otherwise repetitions
    after the first are compared with the first."""
    out = Score()
    expected = reference if reference is not None else digests[0]
    first = 0 if reference is not None else 1
    for i, digest in enumerate(digests[first:], start=first):
        out.op(digest == expected, f"verify stdout sha256 {digest[:8]}... of repetition {i} "
                                   f"differs from {expected[:8]}...")
    return out


# ---------------------------------------------------------------------------
# verify_suite


def _score_verify(rec, inputs, cache, out: Score) -> None:
    try:
        doc = json.loads(rec["value"])
        checks = doc["result"]["checks"]
    except (ValueError, KeyError, TypeError):
        out.op(False, f"{rec['op']}: exit {rec['exit_code']}, no JSON result")
        return
    for check in checks:
        out.op(bool(check["passed"]), f"{rec['op']}: {check['name']} failed")
    out.op(rec["exit_code"] == (0 if all(c["passed"] for c in checks) else 1),
           f"{rec['op']}: exit code {rec['exit_code']}")


# ---------------------------------------------------------------------------
# Balls, lengths and truncated operators.


def z2_ball(radius: float) -> dict:
    """Closed-form word lengths of Z2 with the standard generators."""
    r = int(math.floor(radius))
    return {(x, y): abs(x) + abs(y) for x in range(-r, r + 1) for y in range(-r, r + 1)
            if abs(x) + abs(y) <= r}


def h3_mult(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])


def h3_inv(a):
    return (-a[0], -a[1], a[0] * a[1] - a[2])


def h3_ball(radius: float) -> dict:
    """Breadth-first word lengths in H3, written independently of horocp."""
    r = int(math.floor(radius))
    dist = {(0, 0, 0): 0}
    frontier = [(0, 0, 0)]
    for d in range(1, r + 1):
        nxt = []
        for a in frontier:
            for s in H3_GENS:
                c = h3_mult(a, s)
                if c not in dist:
                    dist[c] = d
                    nxt.append(c)
        frontier = nxt
    for rad, size in H3_BALL_SIZES.items():
        if rad <= r and sum(1 for v in dist.values() if v <= rad) != size:
            raise AssertionError(f"oracle H3 BFS disagrees with the published ball size at r={rad}")
    return dist


def _z2_mult(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _translation_sum(ball: dict, mult, support, coeffs):
    """Sparse sum_g c_g lambda_g compressed to the ball (coefficient dim 1)."""
    import scipy.sparse as sp

    index = {g: i for i, g in enumerate(ball)}
    rows, cols, vals = [], [], []
    for g, c in zip(support, coeffs):
        for h, j in index.items():
            i = index.get(mult(g, h))
            if i is not None:
                rows.append(i)
                cols.append(j)
                vals.append(complex(c))
    n = len(index)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n)), index


def top_singular_value(a) -> float:
    """sigma_1 by LAPACK for N <= DENSE_NORM_MAX, else by ARPACK on A*A."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = a.shape[0]
    if n == 0:
        return 0.0
    if n <= DENSE_NORM_MAX:
        dense = a.toarray() if sp.issparse(a) else np.asarray(a)
        return float(np.linalg.norm(dense, 2))
    a = sp.csr_matrix(a)
    ah = a.conj().T.tocsr()
    op = spla.LinearOperator((n, n), matvec=lambda v: ah @ (a @ v), dtype=complex)
    v0 = np.ones(n, dtype=complex) + 0.01 * np.random.default_rng(0).normal(size=n)
    lam = spla.eigsh(op, k=1, which="LA", tol=0, ncv=min(n, 40), v0=v0,
                     return_eigenvectors=False)[0]
    return math.sqrt(max(float(lam), 0.0))


def _operator_oracles(inputs: dict, cache: dict) -> dict:
    import scipy.sparse as sp

    if "operators" in cache:
        return cache["operators"]
    values = {}
    for key, data in inputs.items():
        ball_fn, mult = (z2_ball, _z2_mult) if key == "z2" else (h3_ball, h3_mult)
        r_small, r_large, r_comm = data["radii"]
        support = [tuple(g) for g in data["support"]]
        biggest = ball_fn(max(r_large, r_comm))
        support_radius = max(biggest[g] for g in support)
        for r in (r_small, r_large):
            ball = {g: v for g, v in biggest.items() if v <= r}
            mat, _ = _translation_sum(ball, mult, support, data["coeffs"])
            values[(key, "norm", r)] = top_singular_value(mat)
        ball = {g: v for g, v in biggest.items() if v <= r_comm}
        mat, index = _translation_sum(ball, mult, support, data["coeffs"])
        lengths = np.array([ball[g] for g in index], dtype=float)
        window = r_comm - support_radius
        # Even Dirac operator with D_A = 1: [D, x (+) x] has the off-diagonal
        # blocks -/+ i [M_l, x], so its norm is that of [M_l, x] on the
        # exactness window's columns.
        coo = mat.tocoo()
        keep = lengths[coo.col] <= window
        comm = sp.csr_matrix(((lengths[coo.row] - lengths[coo.col])[keep] * coo.data[keep],
                               (coo.row[keep], coo.col[keep])), shape=mat.shape)
        values[(key, "seminorm")] = top_singular_value(comm)
        values[(key, "window")] = window
        values[(key, "ball_size")] = len(ball)
    cache["operators"] = values
    return values


def _score_operators(rec, inputs, cache, out: Score) -> None:
    oracle = _operator_oracles(inputs, cache)
    key = rec["group"]
    if rec["op"].endswith("cauchy_gap_norm"):
        large, gap = rec["value"]
        r_small, r_large = rec["radii"]
        out.bound(large, oracle[(key, "norm", r_large)], f"{rec['op']} R={r_large}")
        out.bound(large - gap, oracle[(key, "norm", r_small)], f"{rec['op']} R={r_small}")
    elif rec["op"].endswith("lipschitz_seminorm"):
        value, window = rec["value"]
        out.bound(value, oracle[(key, "seminorm")], rec["op"])
        out.op(window == oracle[(key, "window")], f"{rec['op']}: window {window}")
    elif rec["op"].endswith("ball_size"):
        out.op(rec["value"] == oracle[(key, "ball_size")], f"{rec['op']}: {rec['value']}")
    else:
        out.op(bool(rec["value"]), f"{rec['op']} reported passed=False")


# ---------------------------------------------------------------------------
# exact_geometry


def hex_length(p) -> int:
    """Closed-form word length on Z2 with generators ±e1, ±e2, ±(e1+e2)."""
    x, y = p
    return max(abs(x), abs(y)) if x * y >= 0 else abs(x) + abs(y)


def _exact_oracles(inputs: dict, cache: dict) -> dict:
    if "exact" not in cache:
        cache["exact"] = h3_ball(inputs["spec"]["h3_ball"])
    return cache["exact"]


def hull_functionals(points) -> list:
    """Facet functionals (sigma with sigma = 1 on the facet) from scipy's hull."""
    from scipy.spatial import ConvexHull

    hull = ConvexHull(np.asarray(points, dtype=float))
    # Coplanar simplices of one facet share an equation up to rounding.
    rows = {}
    for eq in hull.equations:
        row = eq[:-1] / -eq[-1]
        rows.setdefault(tuple(np.round(row, 6)), tuple(float(c) for c in row))
    return sorted(rows.values())


def _score_exact(rec, inputs, cache, out: Score) -> None:
    dist = _exact_oracles(inputs, cache)
    op, value = rec["op"], rec["value"]
    length = dist.__getitem__
    if op == "h3.ball":
        r = rec["radius"]
        out.op(value == sum(1 for v in dist.values() if v <= r), f"{op}: {value}")
    elif op == "h3.phi":
        g_inv = h3_inv(tuple(rec["g"]))
        r = inputs["spec"]["phi_radius"]
        ball = sorted((g for g, v in dist.items() if v <= r), key=lambda g: (dist[g], g))
        expect = [length(h) - length(h3_mult(g_inv, h)) for h in ball]
        out.op(value == expect, f"{op} g={rec['g']}")
    elif op == "h3.cocycle_defect":
        out.op(value == 0, f"{op} {rec['pair']}: {value}")
    elif op == "h3.busemann":
        g_inv = h3_inv(tuple(rec["g"]))
        word = [tuple(s) for s in rec["word"]]
        x, expect = (0, 0, 0), []
        for k in range(inputs["spec"]["ray_repeats"] * len(word)):
            x = h3_mult(x, word[k % len(word)])
            expect.append(float(length(x) - length(h3_mult(g_inv, x))))
        out.op(value == expect, f"{op} word={rec['word']}")
    elif op == "h3.ray_geodesic":
        word = [tuple(s) for s in rec["word"]]
        pts, x = [(0.0, (0, 0, 0))], (0, 0, 0)
        for k in range(inputs["spec"]["ray_repeats"] * len(word)):
            x = h3_mult(x, word[k % len(word)])
            pts.append((float(k + 1), x))
        worst = 0.0
        for i in range(1, len(pts)):
            s, xs = pts[i]
            for t, xt in pts[i:]:
                worst = max(worst, abs(length(h3_mult(h3_inv(xs), xt)) + length(xs) - t))
        out.op(value == worst, f"{op} word={rec['word']}: {value} vs {worst}")
    elif op == "z2hex.asymptotic_length":
        g = rec["g"]
        expect = [hex_length((i * g[0], i * g[1])) / i
                  for i in range(1, inputs["spec"]["hex_horizon"] + 1)]
        out.op(value == expect, f"{op} g={g}")
    elif op == "z3.facets":
        got = np.array([[float(Fraction(c)) for c in row] for row in value])
        expect = np.array(hull_functionals(rec["gens"]))
        gaps = np.abs(got[:, None, :] - expect[None, :, :]).max(axis=2)
        same = got.shape == expect.shape and bool(np.all(gaps.min(axis=1) <= 1e-9)
                                                   and np.all(gaps.min(axis=0) <= 1e-9))
        out.op(same, f"{op} gens={rec['gens']}")
    elif op == "z3.separation":
        rank = np.linalg.matrix_rank(np.array(hull_functionals(rec["gens"])))
        out.op(value == {"separated": rank == 3, "rank": int(rank), "witness": "facet_span"},
               f"{op}: {value}")
    elif op == "z3.stable_norm_dual":
        funs = np.array(hull_functionals(rec["gens"]))
        expect = (np.asarray(rec["points"], dtype=float) @ funs.T).max(axis=1)
        got = np.array([float(Fraction(v)) for v in value])
        out.op(bool(np.all(np.abs(got - expect) <= 1e-9 * np.maximum(1.0, np.abs(expect)))),
               f"{op} gens={rec['gens']}")
    elif op == "z.central_separation":
        h = rec["horizon"]
        root = math.isqrt(4 * h)
        ratio = 2 * (root + (root * root < 4 * h)) / h  # l(k) = 2 ceil(2 sqrt|k|)
        out.op(value == {"separated": False, "rank": 0, "witness": "sublinearity_failure",
                         "ratio_at_horizon": ratio}, f"{op}: {value}")
    else:
        out.op(False, f"{op}: no oracle")


# ---------------------------------------------------------------------------
# finite_triples


def cyclic_dirac(lengths) -> np.ndarray:
    return np.diag(np.asarray(lengths, dtype=complex))


def cyclic_basis(order: int) -> list:
    """Self-adjoint parts of the translations lambda_k, k = 1..order//2."""
    eye = np.eye(order)
    perms = [np.roll(eye, k, axis=0) for k in range(order)]
    basis = []
    for k in range(1, order // 2 + 1):
        if 2 * k == order:
            basis.append(perms[k].astype(complex))
        else:
            basis.append(perms[k] + perms[order - k] + 0j)
            basis.append(1j * (perms[k] - perms[order - k]))
    return basis


def character(order: int, j: int) -> np.ndarray:
    return np.exp(-2j * np.pi * j * np.arange(order) / order) / math.sqrt(order)


def af_dirac(levels, eigenvalues) -> np.ndarray:
    """D = sum_i lambda_i Q_i for the odometer filtration of the given orders."""
    dim = math.prod(levels)
    x = np.arange(dim)
    sizes = [1] + list(itertools.accumulate(levels, lambda a, b: a * b))
    prev = np.zeros((dim, dim))
    d = np.zeros((dim, dim), dtype=complex)
    for lam, q in zip(eigenvalues, sizes):
        p = (x[:, None] % q == x[None, :] % q) / (dim // q)
        d += lam * (p - prev)
        prev = p
    return d


def af_basis(dim: int) -> list:
    out = []
    for k in range(dim - 1):
        m = -np.eye(dim, dtype=complex) / dim
        m[k, k] += 1.0
        out.append(m)
    return out


def mk_grid_maximum(dirac: np.ndarray, basis: list, psi: np.ndarray, psi_prime: np.ndarray,
                    grid: int = 3) -> float:
    """max |(psi - psi')(a)| / ||[D, a]|| over a direction grid, then pattern search.

    The seminorm is LAPACK's 2-norm, so this maximiser shares no code with
    horocp's power iteration.  Like any search it can only under-estimate the
    supremum, so it serves as the reference for shortfall, not for failure.
    """
    stack = np.stack(basis)
    comms = np.einsum("ij,kjl->kil", dirac, stack) - np.einsum("kij,jl->kil", stack, dirac)
    c = np.array([np.real(np.vdot(psi, b @ psi) - np.vdot(psi_prime, b @ psi_prime))
                  for b in basis])

    def ratios(thetas: np.ndarray) -> np.ndarray:
        mats = np.einsum("tk,kij->tij", thetas, comms)
        norms = np.linalg.svd(mats, compute_uv=False)[:, 0]
        return np.abs(thetas @ c) / np.maximum(norms, 1e-300)

    p = len(basis)
    pts = np.array([q for q in itertools.product(range(-grid, grid + 1), repeat=p) if any(q)],
                   dtype=float)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    vals = ratios(pts)
    best_i = int(np.argmax(vals))
    best, theta = float(vals[best_i]), pts[best_i]
    radius = 0.5
    while radius > 1e-10:
        trials = np.repeat(theta[None, :], 2 * p, axis=0)
        trials[np.arange(2 * p), np.repeat(np.arange(p), 2)] += np.tile([-radius, radius], p)
        trials /= np.linalg.norm(trials, axis=1, keepdims=True)
        vals = ratios(trials)
        i = int(np.argmax(vals))
        if vals[i] > best + 1e-15:
            best, theta = float(vals[i]), trials[i]
        else:
            radius /= 2
    return best


def _triple_case(rec, inputs):
    if rec["op"].startswith("af_level"):
        levels = rec["levels"]
        dim = math.prod(levels)
        eye = np.eye(dim, dtype=complex)
        i, j = rec["states"]
        return (af_dirac(levels, inputs["level_eigenvalues"]), af_basis(dim), eye[i], eye[j])
    order = rec["order"]
    return (cyclic_dirac(rec["lengths"]), cyclic_basis(order),
            character(order, rec["states"][0]), character(order, rec["states"][1]))


def _score_triples(rec, inputs, cache, out: Score) -> None:
    if rec["kind"] == "check":
        out.op(bool(rec["value"]), f"{rec['op']} reported passed=False")
        return
    dirac, basis, psi, psi_prime = _triple_case(rec, inputs)
    key = (rec["op"], tuple(rec["states"]))
    if key not in cache:
        cache[key] = mk_grid_maximum(dirac, basis, psi, psi_prime)
    value = rec["value"]["lower_bound"]
    witness_ratio = _witness_ratio(rec, dirac, psi, psi_prime)
    # The certified number must not exceed what its own witness attains.
    out.op(value <= witness_ratio * (1 + LOWER_BOUND_SLACK),
           f"{rec['op']} {rec['states']}: {value!r} exceeds its witness ratio {witness_ratio!r}")
    if cache[key] > 0:
        out.shortfalls.append(max(0.0, (cache[key] - value) / cache[key]))


def _witness_ratio(rec, dirac, psi, psi_prime) -> float:
    """|(psi - psi')(w)| / ||[D, w]|| of the returned witness w, LAPACK norm."""
    w = np.asarray(rec["value"]["witness"])
    objective = abs(np.vdot(psi, w @ psi) - np.vdot(psi_prime, w @ psi_prime))
    return float(objective / np.linalg.norm(dirac @ w - w @ dirac, 2))


def known_defect_excess(inputs: dict, records: list) -> list[dict]:
    """For each known-defect MK case, the relative excess of the reported
    bound over the ratio its own witness attains (0 when it does not exceed
    it, None when the call raised).  Measured, never counted as an operation."""
    out = []
    for rec in records:
        excess = None
        if "error" not in rec:
            dirac, _, psi, psi_prime = _triple_case(rec, inputs)
            ratio = _witness_ratio(rec, dirac, psi, psi_prime)
            excess = max(0.0, (rec["value"]["lower_bound"] - ratio) / ratio)
        out.append({"op": rec["op"], "states": rec["states"], "excess": excess,
                    "error": rec.get("error")})
    return out


_SCORERS = {
    "verify_suite": _score_verify,
    "operator_large": _score_operators,
    "exact_geometry": _score_exact,
    "finite_triples": _score_triples,
}
