"""Truncated operators on H_A (x) l2(ball).

A truncated operator is block-sparse over a finite metric ball.  It holds a
row-block index t and a column-block index j into the ball for each of its
blocks (every pair at most once) and a stack of b*d x b*d complex blocks,
where d is the coefficient dimension and b is 1, or 2 on the doubled space
of a Dirac operator.  The basis is indexed by pairs (p, h) with p < b*d a
(copy, coefficient) index and h a ball element, p-major: flat index =
p * N + ball_index(h), so block k puts its entry [p, q] at
(p * N + t_k, q * N + j_k).  Translations, coefficient multiplications and
Dirac operators have a few blocks per column, so norms and commutators run
on the blocks.  ``.matrix`` is a dense view, materialised on first use for
the small-N checks and oracles and refused above DIM_CAP rows.

Construction is array-native: the block pairs of a translation by g come
from one ``BallTable.translate(g)`` (the ball index of g h for every ball
element h, through the group law's vectorised product and a sorted key
lookup), and the coefficient blocks W(h)* a W(h) from one stack of the
action's unitaries over the ball, grown one sphere at a time, through
batched matrix products.

Norms of block-sparse operators are two-sided: ``op_norm_certified`` runs
Krylov-Schur Lanczos on T*T over the nonzero entries and reports an attained
lower bound ||T y|| (y a unit Ritz vector) with the Schur upper bound
sqrt(||T||_1 ||T||_inf); ``op_norm`` returns the lower bound.  Dense arrays
keep ``op_norm``'s block power iteration.

Compressions of a fixed finitely supported element have operator norms that
increase monotonically in the ball radius, so every norm reported from a
truncation is a certified lower bound of the untruncated norm.  Operators
built from an element supported in the radius-r ball agree with their
untruncated versions on all columns indexed by the radius-(R-r) ball; that
window is tracked explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
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
    window_radius: Optional[float] = None
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

    def hermitian_residual(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T), initial=0.0))


# ---------------------------------------------------------------------------
# Actions.


class ActionSpec:
    """Group action on the coefficient algebra, implemented by unitaries.

    Each generator maps to a unitary W_s on C^d; along words the W's extend
    multiplicatively.  Different words for the same element may differ by a
    unimodular scalar, which cancels in the induced conjugation action
    a -> W a W*.
    """

    def __init__(self, group: GroupSpec, unitaries: Mapping[Element, np.ndarray],
                 atol: float = HERMITIAN_TOL):
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
            if residual > 100 * atol:
                raise ValueError(f"matrix for {g} is not unitary (residual {residual:.3e})")
            self.unitaries[g] = w
        if dim is None:
            raise ValueError("need at least one generator unitary")
        self.dim = dim
        self._cache: dict[Element, np.ndarray] = {group.identity(): np.eye(dim, dtype=complex)}
        self._trivial = all(
            np.max(np.abs(w - np.eye(dim))) < atol for w in self.unitaries.values()
        )

    @classmethod
    def trivial(cls, group: GroupSpec, dim: int) -> "ActionSpec":
        eye = np.eye(dim, dtype=complex)
        return cls(group, {s: eye for s in group.generators})

    @property
    def is_trivial(self) -> bool:
        return self._trivial

    def unitary(self, g: Element, spec: Optional[LengthFunction] = None) -> np.ndarray:
        """W(g) along a geodesic word for g (deterministic choice of word).

        The word runs through the length function's generators.  On an
        abelian group whose length function uses generators without a
        unitary (or that has no word length), W extends along the coordinate
        walk through the action's generators instead.
        """
        cached = self._cache.get(g)
        if cached is not None:
            return cached
        group = self.group
        if not self._walks_geodesics(spec):
            return self._coordinate_unitary(g)
        # W(g) = W_s W(s^-1 g) along geodesic predecessors, walked down to a
        # cached element and multiplied back up without recursion, so word
        # length is not bounded by the interpreter's recursion limit.
        steps = []
        while cached is None:
            lg = spec.length(g)
            for s in sorted(self.unitaries):
                prev = group.multiply(group.inverse(s), g)
                if spec.length(prev) == lg - 1:
                    break
            else:
                raise ValueError(f"no geodesic predecessor found for {g!r}")
            steps.append((g, s))
            g = prev
            cached = self._cache.get(g)
        w = cached
        for g, s in reversed(steps):
            w = self.unitaries[s] @ w
            self._cache[g] = w
        return w

    def _walks_geodesics(self, spec: Optional[LengthFunction]) -> bool:
        """Whether unitary(g, spec) extends W along geodesic words of spec."""
        return spec is not None and spec.kind == LengthFunction.WORD and not (
            self.group.is_abelian and not set(spec.generators) <= self.unitaries.keys())

    def _coordinate_unitary(self, g: Element) -> np.ndarray:
        group = self.group
        if not group.is_abelian:
            raise ValueError("non-abelian actions need a word-length function to extend along")
        w = np.eye(self.dim, dtype=complex)
        remaining = g
        e = group.identity()
        # Each step strictly lowers the law's non-negative integer weight, so
        # the walk ends after at most weight(g) steps.
        while remaining != e:
            step = None
            for s in sorted(self.unitaries):
                candidate = group.multiply(group.inverse(s), remaining)
                if group.law.weight(candidate) < group.law.weight(remaining):
                    step = s
                    remaining = candidate
                    break
            if step is None:
                raise ValueError(f"could not express {g!r} through the action generators")
            w = w @ self.unitaries[step]
        self._cache[g] = w
        return w

    def act(self, g: Element, a: np.ndarray, spec: Optional[LengthFunction] = None) -> np.ndarray:
        """alpha_g(a) = W(g) a W(g)*."""
        if self._trivial:
            return np.asarray(a, dtype=complex)
        w = self.unitary(g, spec)
        return w @ np.asarray(a, dtype=complex) @ w.conj().T

    def act_inv(self, h: Element, a: np.ndarray, spec: Optional[LengthFunction] = None) -> np.ndarray:
        """alpha_{h^-1}(a), computed as W(h)* a W(h); the word scalar cancels."""
        if self._trivial:
            return np.asarray(a, dtype=complex)
        w = self.unitary(h, spec)
        return w.conj().T @ np.asarray(a, dtype=complex) @ w

    def relator_consistency(self):
        """Scalar defects W(left) ~ c W(right) along the group's relators:
        s t = t s on an abelian group, s^m = 1 for each generator s of finite
        order m, and s s^-1 = 1."""
        group, gens = self.group, sorted(self.unitaries)
        pairs = [((s, t), (t, s)) for s, t in combinations(gens, 2)] if group.is_abelian else []
        for s in filter(group.is_torsion, gens):
            power, order = s, 1
            while power != group.identity():
                power, order = group.multiply(power, s), order + 1
            pairs.append(((s,) * order, ()))
        pairs += [((s, group.inverse(s)), ()) for s in gens]
        reports = []
        for left, right in pairs:
            wl, wr = (reduce(np.matmul, (self.unitaries[s] for s in word),
                             np.eye(self.dim, dtype=complex)) for word in (left, right))
            scalar = np.trace(wr.conj().T @ wl) / self.dim
            if abs(scalar) > 0:
                scalar = scalar / abs(scalar)
            residual = float(np.max(np.abs(wl - scalar * wr)))
            reports.append((left, right, complex(scalar), residual))
        return reports


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

    def coefficient(self, g: Element) -> np.ndarray:
        for h, a in self.coeffs:
            if h == g:
                return a
        return np.zeros((self.coeff_dim, self.coeff_dim), dtype=complex)

    def support_radius(self, spec: LengthFunction) -> float:
        return max((float(spec.length(g)) for g, _ in self.coeffs), default=0.0)

    def scaled(self, factor: complex) -> "CrossedElement":
        return CrossedElement(self.group, tuple((g, factor * a) for g, a in self.coeffs))

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
    def whole_group(cls, group: GroupSpec) -> "SubgroupSpec":
        return cls("G", group, lambda g: True, lambda g: 0)

    @classmethod
    def kernel_of(cls, group: GroupSpec, functional: Sequence[int],
                  modulus: Optional[int] = None) -> "SubgroupSpec":
        """Kernel of an integer homomorphism through the abelianization,
        optionally reduced mod n (e.g. nZ inside Z)."""
        vec, phi = _homomorphism(group, functional)
        value = (lambda g: phi(g) % modulus) if modulus else phi
        mod_txt = f" mod {modulus}" if modulus else ""
        return cls(f"ker({vec}{mod_txt})", group,
                   lambda g: value(g) == 0, value)

    @classmethod
    def multiples(cls, group: GroupSpec, n: int) -> "SubgroupSpec":
        """nZ inside Z."""
        if not group.is_free_abelian or group.rank != 1:
            raise ValueError("multiples(n) is defined on Z")
        return cls(f"{n}Z", group, lambda g: g[0] % n == 0, lambda g: g[0] % n)

    @classmethod
    def heisenberg_center(cls, group: GroupSpec) -> "SubgroupSpec":
        """The center <c> of H3, which is also its commutator subgroup."""
        if not group.is_heisenberg:
            raise ValueError("center subgroup is defined on the Heisenberg group")
        return cls("<c>", group,
                   lambda g: g[0] == 0 and g[1] == 0,
                   lambda g: (g[0], g[1]))


def conditional_expectation(x: CrossedElement, subgroup: SubgroupSpec) -> CrossedElement:
    """E_H(x): keep exactly the coefficients supported on the subgroup."""
    return x.restrict(subgroup.contains)


# ---------------------------------------------------------------------------
# Operator constructors.


def _block_diagonal(H: TruncatedHilbert, data: np.ndarray, provenance: str, *,
                    blocks: int = 1) -> TruncatedOperator:
    idx = np.arange(H.n_ball)
    return TruncatedOperator(H, provenance, idx, idx, data, window_radius=H.ball.radius,
                             blocks=blocks)


def lambda_op(H: TruncatedHilbert, g: Element) -> TruncatedOperator:
    """Compression of the translation lambda_g to the ball (partial isometry)."""
    if not H.exact and float(H.spec.length(g)) > 2 * H.ball.radius:
        raise ValueError(
            f"lambda({g}) is the zero operator at radius {H.ball.radius}: l(g) > 2R"
        )
    targets = H.ball.translate(g)
    cols = np.flatnonzero(targets >= 0)
    data = np.repeat(np.eye(H.coeff_dim, dtype=complex)[np.newaxis], len(cols), axis=0)
    window = math.inf if H.exact else H.ball.radius - float(H.spec.length(g))
    return TruncatedOperator(H, f"lambda({g})", targets[cols], cols, data, window_radius=window)


def pi_tilde(H: TruncatedHilbert, action: ActionSpec, a: np.ndarray) -> TruncatedOperator:
    """Covariant coefficient representation: block pi(h^-1 . a) at each h."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    d = H.coeff_dim
    if a.shape != (d, d):
        raise ValueError(f"coefficient must be {d}x{d}")
    data = np.array(_act_inv_blocks(_unitary_stack(H, action), a, np.arange(H.n_ball)))
    return _block_diagonal(H, data, "pi_tilde(a)")


def _unitary_stack(H: TruncatedHilbert, action: ActionSpec) -> Optional[np.ndarray]:
    """W(h) for every ball element h, in ball order; None for a trivial action.

    Along geodesic words the stack grows one sphere of the ball at a time:
    each uncached h takes the first s, in sorted order, whose s^-1 h lies on
    the sphere below (one ``translate`` per generator), and W(h) = W_s W(s^-1 h)
    for the whole sphere in one batched product.  That is the predecessor and
    the product ``ActionSpec.unitary`` forms, so every block is bit for bit
    its W(h); the new ones are cached on the action as it would.
    """
    if action.is_trivial:
        return None
    spec, ball = H.spec, H.ball
    if not action._walks_geodesics(spec):
        return np.array([action.unitary(h, spec) for h in ball.elements])
    group, cache, lengths = action.group, action._cache, H.lengths
    gens = sorted(action.unitaries)
    known = [cache.get(h) for h in ball.elements]
    stack = np.empty((H.n_ball, action.dim, action.dim), dtype=complex)
    missing = np.array([w is None for w in known])
    for i in np.flatnonzero(~missing):
        stack[i] = known[i]
    if not missing.any():
        return stack
    step, pred = np.full(H.n_ball, -1), np.full(H.n_ball, -1)
    for k, s in enumerate(gens):
        prev = ball.translate(group.inverse(s))
        hit = (step < 0) & (prev >= 0) & (lengths[prev] == lengths - 1)
        step[hit], pred[hit] = k, prev[hit]
    w_gens = np.array([action.unitaries[s] for s in gens])
    # ball order is (length, lex): spheres are contiguous runs of equal length
    bounds = np.flatnonzero(np.diff(lengths, prepend=-1.0, append=math.inf))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        todo = lo + np.flatnonzero(missing[lo:hi])
        if todo.size == 0:
            continue
        lost = todo[step[todo] < 0]
        if lost.size:
            raise ValueError(f"no geodesic predecessor found for {ball.elements[lost[0]]!r}")
        stack[todo] = w_gens[step[todo]] @ stack[pred[todo]]
    cache.update((ball.elements[i], stack[i]) for i in np.flatnonzero(missing))
    return stack


def _act_inv_blocks(stack: Optional[np.ndarray], a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """alpha_{h^-1}(a) = W(h)* a W(h) for the ball elements idx, as act_inv
    forms it; a is one coefficient or a stack of one per index."""
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
    if not H.exact and r > H.ball.radius:
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
    stack = _unitary_stack(H, action)
    lengths = H.lengths
    start = 0
    for (_, a), t, c in zip(x.coeffs, targets, cols):
        rows = t[c]
        blocks = _act_inv_blocks(stack, a, rows)
        if twisted:
            blocks = (lengths[rows] - lengths[c])[:, np.newaxis, np.newaxis] * blocks
        data[slots[start:start + len(c)]] += blocks
        start += len(c)
    window = math.inf if H.exact else H.ball.radius - r
    return TruncatedOperator(H, provenance, pairs // n, pairs % n, data, window_radius=window)


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
    ``lower``.  A dense array (DenseCapError above DIM_CAP rows) runs a block
    power iteration on T*T with matrix products: a deterministic start block
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
    magnitudes = np.abs(a)
    peak = float(np.max(magnitudes))
    if peak == 0.0:
        return 0.0
    nonzero = magnitudes != 0.0
    if np.all(nonzero.sum(axis=0) <= 1) and np.all(nonzero.sum(axis=1) <= 1):
        # weighted partial permutation: singular values are exactly the entries
        return peak
    ah = a.conj().T

    def gram(v: np.ndarray) -> np.ndarray:
        return ah @ (a @ v)

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
    lam, resid, _ = iterate(start)
    if lam is None:
        rng = np.random.default_rng(0xC0FFEE)
        lam, resid, _ = iterate(rng.normal(size=(n, block))
                                + 1j * rng.normal(size=(n, block)))
        if lam is None:
            raise OpNormConvergenceError(resid, max_iter)
    return math.sqrt(max(lam, 0.0))


def element_norm(x: CrossedElement, spec: LengthFunction, action: ActionSpec,
                 radius: float) -> float:
    """Norm of the compression of a crossed element at the given radius."""
    H = truncate(spec, radius, x.coeff_dim if x.coeffs else 1)
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
# Lipschitz seminorms.


def window_column_mask(H: TruncatedHilbert, window_radius: float, blocks: int = 1) -> np.ndarray:
    """Boolean mask of columns indexed by ball elements inside the window."""
    per_block = np.tile(H.lengths <= window_radius, H.coeff_dim)
    return np.tile(per_block, blocks)


def lipschitz_seminorm(x, dirac: TruncatedOperator, action: Optional[ActionSpec] = None
                       ) -> tuple[float, float]:
    """Certified lower bound for ||[D, x]|| plus the exactness window radius.

    The commutator blocks in columns outside the radius-(R - r) window are
    dropped before the norm is taken, so the value never exceeds the
    untruncated seminorm.  Accepts a CrossedElement (realized on the Dirac
    operator's space) or an already-realized TruncatedOperator.  The Dirac
    operator must be block diagonal over the ball, D = sum_h D_h (x) e_hh, as
    M_l and the even and odd Dirac operators C (x) 1 + G (x) M_l are; block
    (t, j) of the commutator is D_t X_tj - X_tj D_j.
    """
    H = dirac.hilbert
    if isinstance(x, CrossedElement):
        if action is None:
            raise ValueError("realizing a crossed element needs an action")
        support_radius = x.support_radius(H.spec)
        base = realize(x, H, action)
    elif isinstance(x, TruncatedOperator):
        base, window = x, x.window_radius
        support_radius = 0.0 if window is None or math.isinf(window) else H.ball.radius - window
    else:
        raise TypeError(f"operand must be a CrossedElement or a TruncatedOperator, "
                        f"not {type(x).__name__}")
    if not np.array_equal(dirac.rows, dirac.cols):
        raise ValueError("the Dirac operator must be block diagonal over the ball")
    doubling = dirac.blocks == 2 and base.blocks == 1
    if base.hilbert.n_ball != H.n_ball or base.width * (2 if doubling else 1) != dirac.width:
        raise ValueError("operand and Dirac operator live on different spaces")
    if H.exact:
        window = math.inf
        keep = slice(None)
    else:
        window = H.ball.radius - support_radius
        if window < 0:
            raise ValueError("exactness window is empty: support radius exceeds ball radius")
        keep = H.lengths[base.cols] <= window
    rows, cols, blocks = base.rows[keep], base.cols[keep], base.data[keep]
    _check_nonzeros(len(rows) * dirac.width ** 2)
    if doubling:
        # x (+) x: block I_2 (x) X
        w = base.width
        single, blocks = blocks, np.zeros((len(rows), 2 * w, 2 * w), dtype=complex)
        blocks[:, :w, :w] = single
        blocks[:, w:, w:] = single
    diag = np.zeros((H.n_ball, dirac.width, dirac.width), dtype=complex)
    diag[dirac.rows] = dirac.data
    comm = diag[rows] @ blocks - blocks @ diag[cols]
    return op_norm(TruncatedOperator(H, "[D, x]", rows, cols, comm, window_radius=window,
                                     blocks=dirac.blocks)), window


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
