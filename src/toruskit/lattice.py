"""Integer frequency lattice Z^n: norms, balls, eigenvalue levels, multiplicities.

Every mode of the n-torus is labelled by an integer multi-index xi in Z^n.
The level counts r_n(k) = #{xi : |xi|^2 = k} are the coefficients of the
theta series theta(q)^n, theta(q) = sum_x q^(x^2); `levels_up_to` obtains
them by n-fold integer convolution of the indicator of the squares.  Balls
and single-level counts are found by exhaustive box scan, which is also the
oracle the convolution is tested against.  Nothing here relies on
number-theoretic closed forms, so absent levels (e.g. 7 is not a sum of two
squares) fall out of the count rather than being hard-coded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

Frequency = tuple[int, ...]


@dataclass(frozen=True)
class LatticeBall:
    """Finite Euclidean ball {xi in Z^n : |xi| <= radius}."""

    dimension: int
    radius: int

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")

    def __contains__(self, xi: Frequency) -> bool:
        if len(xi) != self.dimension:
            raise ValueError(
                f"frequency has {len(xi)} components, ball has dimension {self.dimension}"
            )
        return norm_sq(xi) <= self.radius**2


def norm_sq(xi: Frequency) -> int:
    """Squared Euclidean norm |xi|^2 = sum_j xi_j^2 (a nonnegative integer)."""
    if len(xi) < 1:
        raise ValueError("frequency must have at least one component")
    return sum(int(x) * int(x) for x in xi)


def tail_min_norm_sq(cutoff: int) -> int:
    """First squared norm in the discarded tail of a level-cutoff truncation.

    Truncations in this package keep the mode xi exactly when
    norm_sq(xi) < (cutoff + 1)**2 and discard it otherwise.  The discarded
    tail therefore starts at squared norm (cutoff + 1)**2, which is always
    attained (by (cutoff + 1, 0, ..., 0)); integer frequencies with
    cutoff < |xi| < cutoff + 1, which exist for n >= 2, are kept.  This is
    the membership rule under which the truncation error law
    1/((cutoff + 1)^2 + 1) is exact in every dimension.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    return (cutoff + 1) ** 2


def enumerate_ball(ball: LatticeBall) -> list[Frequency]:
    """All xi with |xi| <= radius, lexicographically sorted, duplicate-free."""
    n, r = ball.dimension, ball.radius
    r_sq = r * r
    # itertools.product over ascending per-axis ranges is already lexicographic
    return [
        xi
        for xi in itertools.product(range(-r, r + 1), repeat=n)
        if norm_sq(xi) <= r_sq
    ]


def level_multiplicity(n: int, k: int) -> int:
    """Number of xi in Z^n with |xi|^2 = k, by exhaustive box scan."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"level must be >= 0, got {k}")
    r = math.isqrt(k)
    if r * r < k:
        r += 1
    return sum(
        1 for xi in itertools.product(range(-r, r + 1), repeat=n) if norm_sq(xi) == k
    )


def levels_up_to(n: int, cap: int) -> list[tuple[int, int]]:
    """Representable levels k <= cap with their multiplicities, ascending.

    The multiplicities are the coefficients of theta(q)^n up to q^cap, with
    theta(q) = 1 + 2 sum_{x >= 1} q^(x^2): n times over, the count array is
    multiplied by theta as one shifted add per square, O(n cap sqrt(cap)) in
    all.  Levels with zero count are simply never reported, so gaps such as
    k = 7 for n = 2 are discovered, not assumed.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if cap < 0:
        raise ValueError(f"level cap must be >= 0, got {cap}")
    r = math.isqrt(cap)
    # every count is at most the (2r + 1)^n points of the scanned box; beyond
    # int64, count in Python integers, which do not wrap
    exact_in_int64 = (2 * r + 1) ** n <= np.iinfo(np.int64).max
    counts = np.zeros(cap + 1, dtype=np.int64 if exact_in_int64 else object)
    counts[0] = 1
    for _ in range(n):
        product = counts.copy()
        for x in range(1, r + 1):
            square = x * x
            product[square:] += 2 * counts[: cap + 1 - square]
        counts = product
    return [(k, m) for k, m in enumerate(counts.tolist()) if m]
