"""Finite-depth odometer filtrations as averaging operators.

For nested subgroups G_i = (n_1 ... n_i) Z of Z the coset algebras
C(Z/G_i) form an increasing filtration inside C(Z/G_k).  On the GNS space
l2(Z/N) of the uniform state on the top level (N = n_1 ... n_k) the
conditional expectation onto level i is the averaging projection P_q,
q = |Z/G_i|: with x = q a + r it replaces v[x] by the mean of v over the
fibre {q a' + r}.  The filtration's orthogonal projections onto the
successive new subspaces are Q_i = P_{q_i} - P_{q_{i-1}} (P_{q_{-1}} = 0),
and the Dirac operator is any real combination D = sum_i lambda_i Q_i.
Elements of level i commute with every Q_j for j > i.

A filtration stores its orders and level sizes only.  Q_i acts on a (dim, r)
block by a reshape, a mean over axis 0 and a broadcast, so D costs
O(k dim r) and nothing dim x dim is formed unless the block is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class AFFiltration:
    orders: tuple[int, ...]
    level_sizes: tuple[int, ...]      # |Z/G_i| = n_1 ... n_i, starting at 1

    @property
    def depth(self) -> int:
        return len(self.orders)

    @property
    def dim(self) -> int:
        return self.level_sizes[-1]

    def project(self, i: int, block: np.ndarray) -> np.ndarray:
        """Q_i applied to a (dim, r) block.

        The fibre means of P_{q_i} and P_{q_{i-1}} are subtracted at size
        (q_i, r) and broadcast once.  On the identity this gives the dense
        difference P_{q_i} - P_{q_{i-1}} of the block-average definition
        P_q[x, y] = [x = y mod q] / (dim / q) bit for bit.
        """
        sizes, width = self.level_sizes, block.shape[1]
        q = sizes[i]
        mean = block.reshape(-1, q, width).mean(axis=0)
        if i:
            p = sizes[i - 1]
            coarse = block.reshape(-1, p, width).mean(axis=0)
            mean = (mean.reshape(-1, p, width) - coarse).reshape(q, width)
        return np.broadcast_to(mean, (self.dim // q, q, width)).reshape(self.dim, width)

    def dirac(self, eigenvalues: Sequence[float], block: np.ndarray) -> np.ndarray:
        """D = sum_i lambda_i Q_i applied to a (dim, r) block, in O(k dim r)."""
        eigenvalues = self.check_eigenvalues(eigenvalues)
        out = np.zeros(block.shape, dtype=complex)
        for i, lam in enumerate(eigenvalues):
            out += lam * self.project(i, block)
        return out

    def check_eigenvalues(self, eigenvalues: Sequence[float]) -> list[float]:
        """The eigenvalues as floats: one per projection, each finite (ValueError)."""
        values = [float(v) for v in eigenvalues]
        if len(values) != self.depth + 1:
            raise ValueError(f"need {self.depth + 1} eigenvalues (one per projection)")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"eigenvalues must be finite, got {values}")
        return values


def af_filtration(orders: Sequence[int]) -> AFFiltration:
    """The uniform-state filtration for the odometer orders n_1..n_k."""
    orders = tuple(int(n) for n in orders)
    if not orders or any(n < 2 for n in orders):
        raise ValueError("odometer orders must all be >= 2")
    sizes = [1]
    for n in orders:
        sizes.append(sizes[-1] * n)
    return AFFiltration(orders, tuple(sizes))
