"""Finite-depth odometer filtrations and their spectral data.

For nested subgroups G_i = (n_1 ... n_i) Z of Z the coset algebras
C(Z/G_i) form an increasing filtration inside C(Z/G_k).  The GNS space of
the uniform state on the top level carries orthogonal projections Q_i onto
the successive new subspaces; the Dirac operator is any real combination
sum_i lambda_i Q_i.  Elements of level i commute with every Q_j for j > i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operators import _check_nonzeros


@dataclass(frozen=True)
class AFFiltration:
    orders: tuple[int, ...]
    level_sizes: tuple[int, ...]      # |Z/G_i| = n_1 ... n_i, starting at 1
    projections: tuple[np.ndarray, ...]  # Q_0, ..., Q_k

    @property
    def depth(self) -> int:
        return len(self.orders)

    @property
    def dim(self) -> int:
        return self.level_sizes[-1]

    def dirac(self, eigenvalues: Sequence[float]) -> np.ndarray:
        if len(eigenvalues) != self.depth + 1:
            raise ValueError(f"need {self.depth + 1} eigenvalues (one per projection)")
        d = np.zeros((self.dim, self.dim), dtype=complex)
        for lam, q in zip(eigenvalues, self.projections):
            d += float(lam) * q
        return d


def af_filtration(orders: Sequence[int]) -> AFFiltration:
    """Build the uniform-state GNS projections for the odometer orders n_1..n_k.

    The k + 1 dense dim x dim projections are counted against NONZERO_CAP
    before anything is allocated (NonzeroCapError)."""
    orders = tuple(int(n) for n in orders)
    if not orders or any(n < 2 for n in orders):
        raise ValueError("odometer orders must all be >= 2")
    sizes = [1]
    for n in orders:
        sizes.append(sizes[-1] * n)
    total = sizes[-1]
    _check_nonzeros(len(sizes) * total * total)

    projections = []
    prev = np.zeros((total, total), dtype=complex)
    for q in sizes:
        # P_q averages over x mod q; with x = q*a + r that is kron(J_b / b, I_q).
        b = total // q
        p = np.kron(np.ones((b, b), dtype=complex) / b, np.eye(q))
        projections.append(p - prev)
        prev = p
    return AFFiltration(orders, tuple(sizes), tuple(projections))
