"""Truncated operators on H_A (x) l2(ball).

A truncated operator is block-sparse over a finite metric ball.  It holds a
row-block index t and a column-block index j into the ball for each of its
blocks (every pair at most once) and a stack of b*d x b*d complex blocks,
where d is the coefficient dimension and b is 1, or 2 on the doubled space
of a Dirac operator.  The basis is indexed by pairs (p, h) with p < b*d a
(copy, coefficient) index and h a ball element, p-major: flat index =
p * N + ball_index(h), so block k puts its entry [p, q] at
(p * N + t_k, q * N + j_k).  Translations, coefficient multiplications and
Dirac operators have a few blocks per column, so norms run on the blocks,
and ``commutator`` forms [D, X] for a block-diagonal D on X's block pairs;
``restrict_blocks`` keeps a subset of those pairs (an exactness window, a
coset compression).  ``.matrix`` is a dense view, materialised on first use
as the dense ``op_norm``'s input in the checks and for the oracles, and
refused above DIM_CAP rows.

Construction is array-native: the block pairs of a translation by g come
from one ``BallTable.translate(g)`` (the ball index of g h for every ball
element h, through the group law's vectorised product and a sorted key
lookup), and the coefficient blocks W(h)* a W(h) from one
``ActionSpec.stack`` of the action's unitaries over the ball: grown one
sphere at a time through batched matrix products along geodesic words of
the action's own generators, whatever length function grew the ball.  Each
action keeps the word length of its generators that those words walk, and W
over the largest of its balls served so far.

Norms of block-sparse operators are two-sided: ``op_norm_certified`` runs
Krylov-Schur Lanczos on T*T over the nonzero entries and reports an attained
lower bound ||T y|| (y a unit Ritz vector) with the Schur upper bound
sqrt(||T||_1 ||T||_inf); ``op_norm`` returns the lower bound.  Dense arrays
keep ``op_norm``'s block power iteration, which runs on its input alone,
conjugated in place and restored, with no adjoint copy.

Compressions of a fixed finitely supported element have operator norms that
increase monotonically in the ball radius, so every norm reported from a
truncation is a certified lower bound of the untruncated norm.  Operators
built from an element supported in the radius-r ball agree with their
untruncated versions on all columns indexed by the radius-(R-r) ball, the
window ``TruncatedHilbert.window`` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Hashable, Mapping, Optional, Sequence

import numpy as np

from .groups import BallTable, Element, GroupSpec, LengthFunction

DIM_CAP = 20_000  # rows of a dense matrix (one complex 20,000^2 matrix is 6.4 GB)
NONZERO_CAP = 20_000_000  # stored block entries of one operator (320 MB complex)
HERMITIAN_TOL = 1e-12
NORM_TOL = 1e-10  # relative Ritz residual (Lanczos), relative increment (power iteration)


class DenseCapError(ValueError):
    """A dense matrix would have more than DIM_CAP rows."""


class NonzeroCapError(ValueError):
    """A block-sparse operator would store more than NONZERO_CAP entries."""


def _check_nonzeros(count: int) -> None:
    if count > NONZERO_CAP:
        raise NonzeroCapError(f"{count} stored entries exceed the nonzero cap {NONZERO_CAP}")


class OpNormConvergenceError(RuntimeError):
    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"power iteration did not converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )


@dataclass(frozen=True)
class TruncatedHilbert:
    """Coefficient space C^d tensored with l2 of a metric ball."""

    ball: BallTable
    coeff_dim: int = 1

    def __post_init__(self):
        if self.coeff_dim < 1:
            raise ValueError("coefficient dimension must be >= 1")
        # the sparsest operators here (the identity, M_l) store one block per ball element
        _check_nonzeros(self.n_ball * self.coeff_dim ** 2)

    @cached_property
    def lengths(self) -> np.ndarray:
        """Lengths of the ball elements, in ball order."""
        return self.ball.lengths.astype(float)

    @property
    def n_ball(self) -> int:
        return len(self.ball)

    @property
    def dim(self) -> int:
        return self.coeff_dim * len(self.ball)

    @property
    def spec(self) -> LengthFunction:
        return self.ball.spec

    @property
    def group(self) -> GroupSpec:
        return self.ball.group

    @property
    def exact(self) -> bool:
        return self.ball.complete_group

    def window(self, support_radius: float) -> float:
        """Radius of the columns on which an operator built from an element
        supported in the radius-r ball agrees with its untruncated version:
        R - r, or every column (inf) on an exact ball."""
        return math.inf if self.exact else self.ball.radius - support_radius


def truncate(spec: LengthFunction, radius: float, coeff_dim: int = 1) -> TruncatedHilbert:
    return TruncatedHilbert(spec.ball(radius), coeff_dim)


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """Block-sparse operator on C^blocks (x) H (see the module docstring)."""

    hilbert: TruncatedHilbert
    provenance: str
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    blocks: int = 1

    @property
    def width(self) -> int:
        """Side of one block, b*d."""
        return self.blocks * self.hilbert.coeff_dim

    @property
    def dim(self) -> int:
        return self.blocks * self.hilbert.dim

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense view, the blocks scattered into zeros; DenseCapError above DIM_CAP rows."""
        n = self.dim
        if n > DIM_CAP:
            raise DenseCapError(f"dense dimension {n} exceeds the dense cap {DIM_CAP}")
        mat = np.zeros((n, n), dtype=complex)
        rows, cols = self._entry_indices()
        mat[rows, cols] = self.data
        return mat

    def _entry_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense row and column of every block entry, broadcastable to data."""
        offsets = np.arange(self.width) * self.hilbert.n_ball
        return (offsets[None, :, None] + self.rows[:, None, None],
                offsets[None, None, :] + self.cols[:, None, None])

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the nonzero scalar entries."""
        rows, cols = (np.broadcast_to(i, self.data.shape).ravel() for i in self._entry_indices())
        values = self.data.ravel()
        keep = values != 0
        return rows[keep], cols[keep], values[keep]


# ---------------------------------------------------------------------------
# Actions.


class ActionSpec:
    """Group action on the coefficient algebra, implemented by unitaries.

    Each generator maps to a unitary W_s on C^d; ``stack(ball)`` extends W
    multiplicatively to every element of a ball along geodesic words of the
    action's own generators.  The action builds their word length (the walk)
    on first use and keeps it, with W over the largest walk ball served so
    far.  Different words for the same element may differ by a unimodular
    scalar, which cancels in the induced conjugation action a -> W a W*.
    Where both s and s^-1 are given, W_s W_{s^-1} must be such a scalar
    times the identity (ValueError otherwise).
    """

    def __init__(self, group: GroupSpec, unitaries: Mapping[Element, np.ndarray]):
        self.group = group
        self.unitaries = {}
        dim = None
        for g, w in unitaries.items():
            group.validate(g)
            w = np.asarray(w, dtype=complex)
            if dim is None:
                dim = w.shape[0]
            if w.shape != (dim, dim):
                raise ValueError("all action unitaries must share one square shape")
            residual = np.max(np.abs(w.conj().T @ w - np.eye(dim)))
            if residual > 100 * HERMITIAN_TOL:
                raise ValueError(f"matrix for {g} is not unitary (residual {residual:.3e})")
            self.unitaries[g] = w
        if dim is None:
            raise ValueError("need at least one generator unitary")
        for s, w in self.unitaries.items():
            s_inv = group.inverse(s)
            # each pair once; an involution's relator s^2 = 1 is a torsion relator, not checked
            if s_inv <= s or s_inv not in self.unitaries:
                continue
            pair = w @ self.unitaries[s_inv]
            residual = np.max(np.abs(pair - np.trace(pair) / dim * np.eye(dim)))
            if residual > 100 * HERMITIAN_TOL:
                raise ValueError(f"matrices for {s} and {s_inv} are not inverse up to a "
                                 f"scalar (residual {residual:.3e})")
        self.dim = dim
        self._trivial = all(
            np.max(np.abs(w - np.eye(dim))) < HERMITIAN_TOL for w in self.unitaries.values()
        )
        self._walk: Optional[LengthFunction] = None
        self._walk_stack: Optional[np.ndarray] = None

    @classmethod
    def trivial(cls, group: GroupSpec, dim: int) -> "ActionSpec":
        eye = np.eye(dim, dtype=complex)
        return cls(group, {s: eye for s in group.generators})

    def stack(self, ball: BallTable) -> Optional[np.ndarray]:
        """W(h) for every ball element h, in ball order; None for a trivial action.

        Whatever length function grew the ball, W comes from the smallest
        walk ball holding its elements, gathered into the ball's order; on a
        word length over the action's generators the two balls agree row for
        row.  Walk balls are prefixes of one another, so W over the largest
        one served so far serves every smaller one.  An element the
        generators do not reach raises GroupMismatchError, generators not
        closed under inverses the word length's ValueError, and a walk past
        the cap of the ball's length function BallCapError.
        """
        if self._trivial:
            return None
        if self._walk is None:
            self._walk = LengthFunction.word(self.group, sorted(self.unitaries))
        self._walk.cap = ball.spec.cap
        walk_ball = self._walk.ball_holding(ball.coords)
        if self._walk_stack is None or len(self._walk_stack) < len(walk_ball):
            self._walk_stack = self._sphere_products(walk_ball)
        return self._walk_stack[walk_ball.find(ball.coords)]

    def _sphere_products(self, walk_ball: BallTable) -> np.ndarray:
        """W over a walk ball, one sphere at a time: each h takes the first s,
        in sorted order, whose s^-1 h lies on the sphere below (one
        ``translate`` per generator), and W(h) = W_s W(s^-1 h) for the whole
        sphere in one batched product."""
        gens, lengths, n = sorted(self.unitaries), walk_ball.lengths, len(walk_ball)
        step, pred = np.full(n, -1), np.full(n, -1)
        for k, s in enumerate(gens):
            prev = walk_ball.translate(self.group.inverse(s))
            hit = (step < 0) & (prev >= 0) & (lengths[prev] == lengths - 1)
            step[hit], pred[hit] = k, prev[hit]
        w_gens = np.array([self.unitaries[s] for s in gens])
        stack = np.empty((n, self.dim, self.dim), dtype=complex)
        stack[0] = np.eye(self.dim, dtype=complex)  # the identity, sphere 0
        # ball order is (length, lex): spheres are contiguous runs of equal length
        ends = np.append(np.flatnonzero(np.diff(lengths)) + 1, n)
        for lo, hi in zip(ends[:-1], ends[1:]):
            stack[lo:hi] = w_gens[step[lo:hi]] @ stack[pred[lo:hi]]
        return stack


# ---------------------------------------------------------------------------
# Crossed elements.


@dataclass(frozen=True)
class CrossedElement:
    """Finitely supported sum of coefficient matrices times translations."""

    group: GroupSpec
    coeffs: tuple[tuple[Element, np.ndarray], ...]

    @classmethod
    def from_dict(cls, group: GroupSpec, data: Mapping[Element, object]) -> "CrossedElement":
        items = []
        for g, a in data.items():
            group.validate(g)
            mat = np.atleast_2d(np.asarray(a, dtype=complex))
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"coefficient of {g!r} must be a square matrix, "
                                 f"got shape {mat.shape}")
            if np.max(np.abs(mat), initial=0.0) == 0.0:
                continue
            items.append((g, mat))
        items.sort(key=lambda kv: kv[0])
        dims = {mat.shape for _, mat in items}
        if len(dims) > 1:
            raise ValueError("all coefficients must share one shape")
        return cls(group, tuple(items))

    @property
    def support(self) -> tuple[Element, ...]:
        return tuple(g for g, _ in self.coeffs)

    @property
    def coeff_dim(self) -> int:
        return self.coeffs[0][1].shape[0] if self.coeffs else 1

    def support_radius(self, spec: LengthFunction) -> float:
        if not self.coeffs:
            return 0.0
        return float(np.max(spec.lengths(self.support)))

    def map_coefficients(self, fn: Callable[[Element, np.ndarray], np.ndarray]) -> "CrossedElement":
        return CrossedElement.from_dict(self.group, {g: fn(g, a) for g, a in self.coeffs})

    def restrict(self, predicate: Callable[[Element], bool]) -> "CrossedElement":
        return CrossedElement.from_dict(
            self.group, {g: a for g, a in self.coeffs if predicate(g)}
        )


# ---------------------------------------------------------------------------
# Subgroups for conditional expectations.


def _homomorphism(group: GroupSpec, functional: Sequence[int]
                  ) -> tuple[tuple[int, ...], Callable[[Element], int]]:
    """An integer homomorphism of the abelianization Z^m: its m coefficients
    and its value on group elements.  ValueError unless there are m of them."""
    vec = tuple(int(c) for c in functional)
    if len(vec) != group.abelianization_rank:
        raise ValueError(f"functional {vec} has {len(vec)} coefficients, but the "
                         f"abelianization has rank {group.abelianization_rank}")
    return vec, lambda g: sum(a * b for a, b in zip(vec, group.abelianization(g)))


@dataclass(frozen=True)
class SubgroupSpec:
    """Decidable subgroup with a coset key (two elements share a right coset
    Hg exactly when their keys agree)."""

    name: str
    group: GroupSpec
    contains: Callable[[Element], bool]
    coset_key: Callable[[Element], Hashable]

    def __post_init__(self):
        if not self.contains(self.group.identity()):
            raise ValueError(f"{self.name} rejects the identity; not a subgroup")

    @classmethod
    def kernel_of(cls, group: GroupSpec, functional: Sequence[int]) -> "SubgroupSpec":
        """Kernel of an integer homomorphism through the abelianization."""
        vec, phi = _homomorphism(group, functional)
        return cls(f"ker({vec})", group, lambda g: phi(g) == 0, phi)

    @classmethod
    def multiples(cls, group: GroupSpec, n: int) -> "SubgroupSpec":
        """nZ inside Z."""
        if not group.is_free_abelian or group.rank != 1:
            raise ValueError("multiples(n) is defined on Z")
        return cls(f"{n}Z", group, lambda g: g[0] % n == 0, lambda g: g[0] % n)


def conditional_expectation(x: CrossedElement, subgroup: SubgroupSpec) -> CrossedElement:
    """E_H(x): keep exactly the coefficients supported on the subgroup."""
    return x.restrict(subgroup.contains)


# ---------------------------------------------------------------------------
# Operator constructors.


def _block_diagonal(H: TruncatedHilbert, data: np.ndarray, provenance: str, *,
                    blocks: int = 1) -> TruncatedOperator:
    idx = np.arange(H.n_ball)
    return TruncatedOperator(H, provenance, idx, idx, data, blocks=blocks)


def lambda_op(H: TruncatedHilbert, g: Element) -> TruncatedOperator:
    """Compression of the translation lambda_g to the ball (partial isometry)."""
    lg = float(H.spec.length(g))
    if not H.exact and lg > 2 * H.ball.radius:
        raise ValueError(
            f"lambda({g}) is the zero operator at radius {H.ball.radius}: l(g) > 2R"
        )
    targets = H.ball.translate(g)
    cols = np.flatnonzero(targets >= 0)
    data = np.repeat(np.eye(H.coeff_dim, dtype=complex)[np.newaxis], len(cols), axis=0)
    return TruncatedOperator(H, f"lambda({g})", targets[cols], cols, data)


def pi_tilde(H: TruncatedHilbert, action: ActionSpec, a: np.ndarray) -> TruncatedOperator:
    """Covariant coefficient representation: block pi(h^-1 . a) at each h."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    d = H.coeff_dim
    if a.shape != (d, d):
        raise ValueError(f"coefficient must be {d}x{d}")
    data = np.array(act_inv_blocks(action.stack(H.ball), a, np.arange(H.n_ball)))
    return _block_diagonal(H, data, "pi_tilde(a)")


def act_inv_blocks(stack: Optional[np.ndarray], a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """alpha_{h^-1}(a) = W(h)* a W(h) for the ball elements idx of an
    ``ActionSpec.stack`` (None: a trivial action, a itself); a is one
    coefficient or a stack of one per index.  The word scalar cancels."""
    if stack is None:
        return np.broadcast_to(a, (len(idx),) + a.shape[-2:])
    w = stack[idx]
    return w.conj().transpose(0, 2, 1) @ a @ w


def _diagonal(H: TruncatedHilbert, values, provenance: str) -> TruncatedOperator:
    """Multiplication by a function on the ball, times the identity on C^d."""
    values = np.asarray(values, dtype=complex)
    # eye * value is the product np.kron(eye, diag(values)) forms, zero signs included
    data = np.eye(H.coeff_dim, dtype=complex)[np.newaxis] * values[:, np.newaxis, np.newaxis]
    return _block_diagonal(H, data, provenance)


def m_ell(H: TruncatedHilbert) -> TruncatedOperator:
    """Diagonal multiplication by the length."""
    return _diagonal(H, H.lengths, "m_ell")


def m_phi(H: TruncatedHilbert, functional: Sequence[int]) -> TruncatedOperator:
    """Diagonal multiplication by an integer homomorphism of the abelianization."""
    vec, phi = _homomorphism(H.group, functional)
    return _diagonal(H, [float(phi(h)) for h in H.ball.elements], f"m_phi({vec})")


def m_phi_g(H: TruncatedHilbert, g: Element) -> TruncatedOperator:
    """Diagonal multiplication by phi_g(h) = l(h) - l(g^-1 h)."""
    shifted = H.spec.lengths(H.ball.left_translates(H.group.inverse(g)))
    return _diagonal(H, H.lengths - shifted.astype(float), f"m_phi_g({g})")


def _translation_sum(x: CrossedElement, H: TruncatedHilbert, action: ActionSpec, provenance: str,
                     twisted: bool = False) -> TruncatedOperator:
    """sum_g w pi_tilde(a_g) lambda_g, block (gh, h) per ball element h.

    The weight w is 1, or phi_g(gh) = l(gh) - l(h) when twisted (g^-1 gh = h).
    Block pairs are numbered by first appearance in (term, ball) order and
    accumulated into zeros term by term, as a dense build adding each term
    into a zero matrix would.
    """
    d = H.coeff_dim
    if x.coeffs and x.coeff_dim != d:
        raise ValueError(f"element coefficients are {x.coeff_dim}x{x.coeff_dim}, space wants {d}")
    r = x.support_radius(H.spec)
    if H.window(r) < 0:
        raise ValueError(f"support radius {r} exceeds ball radius {H.ball.radius}")
    n = H.n_ball
    targets = [H.ball.translate(g) for g, _ in x.coeffs]
    cols = [np.flatnonzero(t >= 0) for t in targets]
    codes = np.concatenate([t[c] * n + c for t, c in zip(targets, cols)] + [np.zeros(0, np.intp)])
    pairs, first, slots = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    slots, pairs = np.argsort(order)[slots], pairs[order]
    _check_nonzeros(len(pairs) * d * d)
    data = np.zeros((len(pairs), d, d), dtype=complex)
    stack = action.stack(H.ball)
    lengths = H.lengths
    start = 0
    for (_, a), t, c in zip(x.coeffs, targets, cols):
        rows = t[c]
        blocks = act_inv_blocks(stack, a, rows)
        if twisted:
            blocks = (lengths[rows] - lengths[c])[:, np.newaxis, np.newaxis] * blocks
        data[slots[start:start + len(c)]] += blocks
        start += len(c)
    return TruncatedOperator(H, provenance, pairs // n, pairs % n, data)


def realize(x: CrossedElement, H: TruncatedHilbert, action: ActionSpec) -> TruncatedOperator:
    """Operator sum_g pi_tilde(a_g) lambda_g on the truncated space."""
    return _translation_sum(x, H, action, "realize(x)")


def realize_phi_twisted(x: CrossedElement, H: TruncatedHilbert, action: ActionSpec
                        ) -> TruncatedOperator:
    """Operator sum_g (1 (x) phi_g) pi_tilde(a_g) lambda_g."""
    return _translation_sum(x, H, action, "realize((1(x)phi_g) a_g lambda_g)", twisted=True)


def coset_codes(H: TruncatedHilbert, subgroup: SubgroupSpec) -> np.ndarray:
    """Integer code of each ball element's right coset of H, in ball order."""
    codes: dict[Hashable, int] = {}
    return np.array([codes.setdefault(subgroup.coset_key(h), len(codes))
                     for h in H.ball.elements])


def coset_compress(T: np.ndarray, H: TruncatedHilbert, subgroup: SubgroupSpec) -> np.ndarray:
    """Matrix-level E_H: zero every entry joining different right cosets of H."""
    keys = coset_codes(H, subgroup)
    mask = (keys[:, np.newaxis] == keys[np.newaxis, :]).astype(float)
    full = np.tile(mask, (H.coeff_dim, H.coeff_dim))
    return np.asarray(T) * full


# ---------------------------------------------------------------------------
# Dirac operators.


def _kron_dirac(H: TruncatedHilbert, c: np.ndarray, g: np.ndarray, provenance: str
                ) -> TruncatedOperator:
    """D = C (x) 1_N + G (x) M_l on C^{2d} (x) l2(ball): block C + l(h) G at (h, h)."""
    _check_nonzeros(H.n_ball * c.size)
    data = c[np.newaxis] + H.lengths[:, np.newaxis, np.newaxis] * g[np.newaxis]
    return _block_diagonal(H, data, provenance, blocks=2)


def even_dirac(H: TruncatedHilbert, d_a: np.ndarray) -> TruncatedOperator:
    """Off-diagonal block form on H (+) H: corner blocks D_A (x) 1 -/+ i (x) M_l.

    C = [[0, D_A], [D_A, 0]] and G = [[0, -i], [i, 0]] (x) I_d.
    """
    d_a = np.atleast_2d(np.asarray(d_a, dtype=complex))
    if np.max(np.abs(d_a - d_a.conj().T), initial=0.0) > HERMITIAN_TOL:
        raise ValueError("even construction needs a hermitian coefficient operator")
    if d_a.shape != (H.coeff_dim, H.coeff_dim):
        raise ValueError("coefficient Dirac block has the wrong shape")
    zero, eye = np.zeros_like(d_a), np.eye(H.coeff_dim, dtype=complex)
    return _kron_dirac(H, np.block([[zero, d_a], [d_a, zero]]),
                       np.block([[zero, -1j * eye], [1j * eye, zero]]), "even_dirac")


def odd_dirac(H: TruncatedHilbert, d_a_block: np.ndarray) -> TruncatedOperator:
    """Graded form: diag blocks +/- 1 (x) M_l, off-diagonal D_A (x) 1 and its adjoint.

    C = [[0, K], [K*, 0]] and G = diag(I_d, -I_d).
    """
    d_a_block = np.atleast_2d(np.asarray(d_a_block, dtype=complex))
    if d_a_block.shape != (H.coeff_dim, H.coeff_dim):
        raise ValueError("coefficient Dirac block has the wrong shape")
    zero, eye = np.zeros_like(d_a_block), np.eye(H.coeff_dim, dtype=complex)
    return _kron_dirac(H, np.block([[zero, d_a_block], [d_a_block.conj().T, zero]]),
                       np.block([[eye, zero], [zero, -eye]]), "odd_dirac")


# ---------------------------------------------------------------------------
# Norms.


class _Entries:
    """Row-sorted nonzero entries of an operator, applied to 1-D vectors.

    Fresh gather and product temporaries of nnz values on every Lanczos step
    would be mapped and faulted in anew each time, so apply writes into
    buffers allocated once and returns its output buffer, valid until the
    next call.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n: int):
        order = np.argsort(rows, kind="stable")
        rows, self.cols, self.values = rows[order], cols[order], values[order]
        self.starts = np.flatnonzero(np.diff(rows, prepend=-1))
        self.targets = rows[self.starts]
        self._prod = np.empty(len(self.cols), dtype=complex)
        self._sums = np.empty(len(self.starts), dtype=complex)
        self._out = np.zeros(n, dtype=complex)

    def apply(self, v: np.ndarray) -> np.ndarray:
        np.take(v, self.cols, out=self._prod, mode="clip")
        np.multiply(self.values, self._prod, out=self._prod)
        np.add.reduceat(self._prod, self.starts, out=self._sums)
        self._out[self.targets] = self._sums
        return self._out


# Krylov-Schur Lanczos on T*T (Stewart, SIAM J. Matrix Anal. Appl. 23, 2001).
# At most 25 basis vectors keep LAPACK's Hermitian eigensolver on QR
# iteration; its divide-and-conquer branch above 25 maps about 0.7 MB more
# library code into a process that otherwise never runs it.
LANCZOS_BASIS = 24      # basis vectors before a restart; LAPACK at N <= this
LANCZOS_KEEP = 8        # Ritz vectors kept across a restart
LANCZOS_RESTARTS = 500  # restarts before the best Ritz vector is returned unconverged
LANCZOS_SEED = 20010    # start vector
INVARIANT_TOL = 1e-13   # beta <= INVARIANT_TOL * ||T*T||: the basis spans an invariant subspace


@dataclass(frozen=True)
class OpNormResult:
    """A two-sided operator norm, lower <= ||T|| <= upper.

    ``lower`` is attained: ||T y|| for a unit vector y (or exact, for the
    empty, weighted-permutation and LAPACK paths).  ``upper`` is the Schur
    bound sqrt(||T||_1 ||T||_inf) of the entries.  ``method`` is "empty",
    "permutation", "lapack" or "lanczos"; ``iterations`` counts products with
    T*T; ``residual`` is the relative Ritz residual ||T*T y - theta y|| / theta
    (0 on the exact paths).
    """

    lower: float
    upper: float
    method: str
    iterations: int
    residual: float


def op_norm_certified(T: TruncatedOperator) -> OpNormResult:
    """Largest singular value of a block-sparse operator, bracketed.

    Thick-restart Lanczos in Krylov-Schur form on T*T over the nonzero
    entries: a seeded random start, full (twice-iterated classical
    Gram-Schmidt) reorthogonalisation, LANCZOS_KEEP Ritz vectors kept at
    each restart of a LANCZOS_BASIS-vector basis.  It stops when the top Ritz
    pair's relative residual is at most NORM_TOL, or when the basis spans an
    invariant subspace.  The basis of (LANCZOS_BASIS + 1) * N entries is
    counted against NONZERO_CAP before it is allocated.
    """
    n = T.dim
    rows, cols, values = T.entries()
    if values.size == 0:
        return OpNormResult(0.0, 0.0, "empty", 0, 0.0)
    magnitudes = np.abs(values)
    if np.max(np.bincount(rows)) <= 1 and np.max(np.bincount(cols)) <= 1:
        # weighted partial permutation: singular values are exactly the entries
        peak = float(np.max(magnitudes))
        return OpNormResult(peak, peak, "permutation", 0, 0.0)
    upper = math.sqrt(float(np.max(np.bincount(cols, magnitudes)))
                      * float(np.max(np.bincount(rows, magnitudes))))
    if n <= LANCZOS_BASIS:
        return OpNormResult(float(np.linalg.norm(T.matrix, 2)), upper, "lapack", 0, 0.0)
    _check_nonzeros((LANCZOS_BASIS + 1) * n)
    forward, adjoint = _Entries(rows, cols, values, n), _Entries(cols, rows, values.conj(), n)
    m = LANCZOS_BASIS
    basis = np.empty((m + 1, n), dtype=complex)
    # A V[:m] = V[:m] H[:m] + V[m] H[m], with basis vectors as rows of V
    h = np.zeros((m + 1, m), dtype=complex)
    rng = np.random.default_rng(LANCZOS_SEED)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    basis[0] = start / np.linalg.norm(start)
    first, products, scale = 0, 0, 0.0
    for restart in range(LANCZOS_RESTARTS + 1):
        size, invariant = m, False
        for j in range(first, m):
            w = basis[j + 1]
            w[:] = adjoint.apply(forward.apply(basis[j]))
            products += 1
            scale = max(scale, float(np.linalg.norm(w)))
            prev = basis[:j + 1]
            coeffs = (prev @ w.conj()).conj()
            w -= coeffs @ prev
            again = (prev @ w.conj()).conj()
            w -= again @ prev
            beta = float(np.linalg.norm(w))
            h[:j + 1, j] = coeffs + again
            h[j + 1, j] = beta
            if beta <= INVARIANT_TOL * scale:
                size, invariant = j + 1, True
                break
            w /= beta
        rayleigh = h[:size, :size]
        theta, y = np.linalg.eigh((rayleigh + rayleigh.conj().T) / 2)
        theta, y = theta[::-1], y[:, ::-1]
        residual = float(abs(h[size, :size] @ y[:, 0])) / max(float(theta[0]), 1e-300)
        if invariant or residual <= NORM_TOL or restart == LANCZOS_RESTARTS:
            break
        keep = LANCZOS_KEEP
        coupling = h[m, :m] @ y[:, :keep]
        basis[:keep] = y[:, :keep].T @ basis[:m]
        basis[keep] = basis[m]
        h[:] = 0.0
        h[:keep, :keep] = np.diag(theta[:keep])
        h[keep, :keep] = coupling
        first = keep
    ritz = y[:, 0] @ basis[:size]
    ritz /= np.linalg.norm(ritz)
    lower = float(np.linalg.norm(forward.apply(ritz)))
    return OpNormResult(lower, upper, "lanczos", products, residual)


def op_norm(T) -> float:
    """Largest singular value; a certified lower bound that is attained.

    A TruncatedOperator goes to ``op_norm_certified`` (Krylov-Schur Lanczos
    to a relative Ritz residual of NORM_TOL) and returns its attained
    ``lower``.  A dense array (DenseCapError above DIM_CAP rows) that is zero or
    a weighted partial permutation is read off its nonzero entries; any other
    runs a block power iteration on T*T with matrix products.  It keeps no
    adjoint copy: it uses its argument as scratch, conjugated in place while
    it runs and restored bit for bit on return or error, so that array must
    not be shared with a concurrent reader (a read-only array is copied
    first).  The iteration takes a deterministic start block
    (all-ones plus leading coordinate vectors), one seeded random restart on
    stagnation, and an error with the residual if that also fails to
    converge within max(50,000, 100 n) steps for n rows; it can stop below
    the largest singular value on a clustered top of the spectrum.  Values
    computed from compressions of a fixed element are monotone non-decreasing
    in the ball radius.
    """
    if isinstance(T, TruncatedOperator):
        return op_norm_certified(T).lower
    a = np.asarray(T, dtype=complex)
    n = a.shape[0]
    if n > DIM_CAP:
        raise DenseCapError(f"dense dimension {n} exceeds the dense cap {DIM_CAP}")
    if n == 0:
        return 0.0
    if n == 1:
        return float(abs(a[0, 0]))
    nonzero = a != 0
    if not nonzero.any():
        return 0.0
    if np.all(nonzero.sum(axis=0) <= 1) and np.all(nonzero.sum(axis=1) <= 1):
        # weighted partial permutation: singular values are exactly the entries
        return float(np.max(np.abs(a[nonzero])))
    del nonzero  # the iteration holds a and nothing else of its size
    if not a.flags.writeable:
        a = a.copy(order="K")

    # a holds conj(T) while the iteration runs: a.T is T*, with the layout of
    # the copy T.conj().T, and T v = conj(conj(T) conj(v)) bit for bit, since
    # rounding to nearest commutes with a change of sign
    def gram(v: np.ndarray) -> np.ndarray:
        u = a @ np.conjugate(v)
        return a.T @ np.conjugate(u, out=u)

    block = min(4, n)
    max_iter = max(50_000, 100 * n)

    def top_ritz(v: np.ndarray):
        w = gram(v)
        h = v.conj().T @ w
        h = (h + h.conj().T) / 2
        vals, vecs = np.linalg.eigh(h)
        return w, float(vals[-1]), v @ vecs[:, -1]

    def iterate(v0: np.ndarray):
        # The top Ritz value of T*T increases essentially monotonically and
        # its increments decay geometrically, so the remaining error is
        # bounded by extrapolating their ratio.  When the leading block of
        # eigenvalues is nearly degenerate the increments stagnate near ratio
        # 1 while the value already sits within that tiny spread of the
        # limit; a window-stagnation test accepts those runs.
        v, _ = np.linalg.qr(v0)
        lam = 0.0
        prev_delta = None
        window = 128
        lam_checkpoint = -1.0
        for it in range(max_iter):
            w, lam_new, top_vec = top_ritz(v)
            if np.linalg.norm(w) == 0.0:
                return 0.0, 0.0, it
            delta = abs(lam_new - lam)
            floor = NORM_TOL * max(abs(lam_new), 1e-300)
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
                resid = float(np.linalg.norm(gram(top_vec) - lam_new * top_vec))
                return lam_new, resid, it
            v, _ = np.linalg.qr(w)
            prev_delta = delta
            lam = lam_new
        _, lam_new, top_vec = top_ritz(v)
        resid = float(np.linalg.norm(gram(top_vec) - lam_new * top_vec))
        return None, resid, max_iter

    start = np.zeros((n, block), dtype=complex)
    start[:, 0] = 1.0 / math.sqrt(n)
    for j in range(1, block):
        start[j - 1, j] = 1.0
    np.conjugate(a, out=a)
    try:
        lam, resid, _ = iterate(start)
        if lam is None:
            rng = np.random.default_rng(0xC0FFEE)
            lam, resid, _ = iterate(rng.normal(size=(n, block))
                                    + 1j * rng.normal(size=(n, block)))
            if lam is None:
                raise OpNormConvergenceError(resid, max_iter)
    finally:
        np.conjugate(a, out=a)  # the caller's array, bit for bit
    return math.sqrt(max(lam, 0.0))


def element_norm(x: CrossedElement, spec: LengthFunction, action: ActionSpec,
                 radius: float) -> float:
    """Norm of the compression of a crossed element at the given radius."""
    H = truncate(spec, radius, x.coeff_dim)
    return op_norm(realize(x, H, action))


def cauchy_gap_norm(x: CrossedElement, spec: LengthFunction, action: ActionSpec,
                    radius: float, gap_radius: Optional[float] = None) -> tuple[float, float]:
    """(norm at the larger radius, increment over the smaller one).

    The increment is the two-radius Cauchy diagnostic for how far the
    compression still is from exhausting the norm.
    """
    if gap_radius is None:
        gap_radius = 2 * radius
    small = element_norm(x, spec, action, radius)
    large = element_norm(x, spec, action, gap_radius)
    return large, large - small


# ---------------------------------------------------------------------------
# Commutators and Lipschitz seminorms.


def restrict_blocks(T: TruncatedOperator, keep: np.ndarray) -> TruncatedOperator:
    """T with only the block pairs where keep (one boolean per block) is true."""
    return replace(T, rows=T.rows[keep], cols=T.cols[keep], data=T.data[keep])


def commutator(D: TruncatedOperator, X: TruncatedOperator) -> TruncatedOperator:
    """[D, X] on X's block pairs, for D block diagonal over the ball.

    D = sum_h D_h (x) e_hh, as M_l, M_phi, pi_tilde(a) and the even and odd
    Dirac operators C (x) 1 + G (x) M_l are; block (t, j) of the commutator
    is D_t X_tj - X_tj D_j.  On a Dirac operator's doubled space X stands for
    X (+) X, block I_2 (x) X_tj.  ValueError unless D is block diagonal and X
    lives on its space; the blocks are counted against NONZERO_CAP before
    any is formed (NonzeroCapError).
    """
    if not np.array_equal(D.rows, D.cols):
        raise ValueError("the commutator's D must be block diagonal over the ball")
    doubling = D.blocks == 2 and X.blocks == 1
    if X.hilbert.n_ball != D.hilbert.n_ball or X.width * (2 if doubling else 1) != D.width:
        raise ValueError("the commutator's operands live on different spaces")
    _check_nonzeros(len(X.rows) * D.width ** 2)
    blocks = X.data
    if doubling:
        w = X.width
        blocks = np.zeros((len(X.rows), 2 * w, 2 * w), dtype=complex)
        blocks[:, :w, :w] = X.data
        blocks[:, w:, w:] = X.data
    diag = np.zeros((D.hilbert.n_ball, D.width, D.width), dtype=complex)
    diag[D.rows] = D.data
    data = diag[X.rows] @ blocks - blocks @ diag[X.cols]
    return TruncatedOperator(D.hilbert, f"[{D.provenance}, {X.provenance}]", X.rows, X.cols,
                             data, blocks=D.blocks)


def lipschitz_seminorm(x: CrossedElement, dirac: TruncatedOperator, action: ActionSpec
                       ) -> tuple[float, float]:
    """Certified lower bound for ||[D, x]|| plus the exactness window radius.

    x is realized on the Dirac operator's space, and its blocks in columns
    outside the radius-(R - r) window are dropped before the ``commutator``
    is taken, so the value never exceeds the untruncated seminorm.  The
    Dirac operator must be block diagonal over the ball, as M_l and the even
    and odd Dirac operators are.
    """
    if not isinstance(x, CrossedElement):
        raise TypeError(f"operand must be a CrossedElement, not {type(x).__name__}")
    H = dirac.hilbert
    base = realize(x, H, action)  # ValueError on an empty window
    window = H.window(x.support_radius(H.spec))
    base = restrict_blocks(base, H.lengths[base.cols] <= window)
    return op_norm(commutator(dirac, base)), window


# ---------------------------------------------------------------------------
# Clock and shift matrices for rational rotation algebras.


def clock_matrix(q: int, p: int = 1) -> np.ndarray:
    """diag(1, w, w^2, ...) with w = exp(2 pi i p / q)."""
    omega = np.exp(2j * np.pi * p / q)
    return np.diag(omega ** np.arange(q))


def shift_matrix(q: int) -> np.ndarray:
    """Cyclic shift: e_j -> e_{j+1 mod q}."""
    mat = np.zeros((q, q), dtype=complex)
    for j in range(q):
        mat[(j + 1) % q, j] = 1.0
    return mat
