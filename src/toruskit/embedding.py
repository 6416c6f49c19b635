"""Desk-scale compact-embedding phenomenon: tail bounds and Cauchy extraction.

An H^1 bound forces the spectral tail to be small: with the cutoff-N
projection keeping modes of squared norm below (N+1)^2,

    || u - P_N u ||_{L^2}  <=  || u ||_{H^1} / sqrt(1 + (N+1)^2),

mode by mode, because every discarded mode carries weight at least
1 + (N+1)^2.  An H^1-bounded family therefore lives, up to a uniformly
small tail, in a fixed finite-dimensional coefficient space, and greedy
clustering there extracts subfamilies that are pairwise close in L^2.
That is the whole compactness mechanism, made finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice import tail_min_norm_sq
from .operators import kept_by_truncation, l2_norm, norm_sq_array, sobolev_norm_sq
from .transform import SpectralField

_H1_SLACK = 1e-9
_ANCHOR_COUNT = 4
_SPREAD = 0.02


class InsufficientResolutionError(ValueError):
    """The stored box is too small for the cutoff the tolerance requires."""

    def __init__(self, needed_cutoff: int, box_radius: int):
        super().__init__(
            f"insufficient resolution: extraction needs cutoff N={needed_cutoff} "
            f"but the stored box only holds frequencies up to {box_radius} per axis"
        )
        self.needed_cutoff = needed_cutoff
        self.box_radius = box_radius


@dataclass
class BoundedSequence:
    """Finite list of spectral fields on one grid with a certified H^1 bound.

    The bound is re-verified on construction, never trusted: every item must
    satisfy sobolev_norm_sq(item, 1) <= h1_bound**2 (up to roundoff).
    """

    items: list[SpectralField]
    h1_bound: float

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("sequence must contain at least one item")
        if self.h1_bound <= 0:
            raise ValueError(f"h1_bound must be positive, got {self.h1_bound}")
        grid = self.items[0].grid
        cap = self.h1_bound**2 * (1.0 + _H1_SLACK)
        for i, item in enumerate(self.items):
            if item.grid != grid:
                raise ValueError(f"item {i} lives on a different grid")
            h1_sq = sobolev_norm_sq(item, 1.0)
            if h1_sq > cap:
                raise ValueError(
                    f"item {i} violates the H^1 bound: "
                    f"{math.sqrt(h1_sq)} > {self.h1_bound}"
                )

    @property
    def grid(self):
        return self.items[0].grid


class TailBound(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def _kept_mask(c: SpectralField, cutoff: int) -> np.ndarray:
    return kept_by_truncation(norm_sq_array(c.grid), cutoff)


def tail_projection(c: SpectralField, cutoff: int) -> SpectralField:
    """High-frequency part: modes with norm_sq >= (cutoff+1)^2, zero otherwise."""
    return SpectralField(c.grid, np.where(_kept_mask(c, cutoff), 0.0, c.coefficients))


def ball_projection(c: SpectralField, cutoff: int) -> SpectralField:
    """Low-frequency complement of tail_projection; the two sum to c exactly."""
    return SpectralField(c.grid, np.where(_kept_mask(c, cutoff), c.coefficients, 0.0))


def tail_bound_check(c: SpectralField, cutoff: int) -> TailBound:
    """Evaluate both sides of the spectral tail bound at the given cutoff.

    lhs = ||tail||_{L^2}, rhs = ||c||_{H^1} / sqrt(1 + (cutoff+1)^2);
    holds is lhs <= rhs + 1e-12.
    """
    lhs = l2_norm(tail_projection(c, cutoff))
    rhs = math.sqrt(sobolev_norm_sq(c, 1.0) / (1.0 + tail_min_norm_sq(cutoff)))
    return TailBound(lhs, rhs, lhs <= rhs + 1e-12)


def required_cutoff(h1_bound: float, eps: float) -> int:
    """Smallest N with 2 * h1_bound / sqrt(1 + (N+1)^2) <= eps / 2."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    # need the integer (N+1)^2 >= (4 h1 / eps)^2 - 1, i.e. >= its ceiling
    needed = math.ceil((4.0 * h1_bound / eps) ** 2 - 1.0)
    return math.isqrt(needed - 1) if needed > 1 else 0


def rellich_extract(seq: BoundedSequence, eps: float) -> list[int]:
    """Indices of items that are pairwise within eps in L^2.

    Procedure: choose the cutoff N so both tails of any pair cost at most
    eps/2 in total, then greedily leader-cluster the kept coefficient
    vectors with join radius eps/4 (so kept parts of a cluster have
    diameter at most eps/2) and return the largest cluster.  Clustering is
    sequential and deterministic; ties go to the earliest cluster.

    Raises InsufficientResolutionError when the needed cutoff exceeds the
    stored box.
    """
    cutoff = required_cutoff(seq.h1_bound, eps)
    grid = seq.grid
    if cutoff > grid.box_radius:
        raise InsufficientResolutionError(cutoff, grid.box_radius)

    kept = [ball_projection(c, cutoff).coefficients.ravel() for c in seq.items]
    join_radius = eps / 4.0
    clusters: list[list[int]] = []
    leaders: list[np.ndarray] = []
    for i, vec in enumerate(kept):
        for cid, leader in enumerate(leaders):
            if np.linalg.norm(vec - leader) <= join_radius:
                clusters[cid].append(i)
                break
        else:
            leaders.append(vec)
            clusters.append([i])
    return max(clusters, key=len)


def pairwise_l2_distances(seq: BoundedSequence, indices: list[int]) -> list[float]:
    """Direct L^2 distances between all selected pairs (validation oracle)."""
    out = []
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            out.append(l2_norm(seq.items[indices[a]] - seq.items[indices[b]]))
    return out


def _h1_rescaled(c: SpectralField, target: float) -> SpectralField:
    h1 = math.sqrt(sobolev_norm_sq(c, 1.0))
    return SpectralField(c.grid, c.coefficients * (target / h1))


def random_bounded_sequence(
    grid,
    count: int,
    h1_bound: float,
    seed: int,
) -> BoundedSequence:
    """Seeded H^1-bounded family that accumulates near a few anchor fields.

    Each item is one of four random anchors of H^1 norm 0.8 h1_bound plus a
    random perturbation of H^1 norm 0.02 h1_bound, so every item sits
    strictly inside the H^1 ball of radius h1_bound.  Such a family is what
    the extractor exists for: most of its mass is spread over finitely many
    low modes, so large pairwise-close subfamilies exist.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    weights = 1.0 / (1.0 + norm_sq_array(grid))

    def draw(scale: float) -> SpectralField:
        raw = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        return _h1_rescaled(SpectralField(grid, raw * weights), scale)

    anchors = [draw(0.8 * h1_bound) for _ in range(_ANCHOR_COUNT)]
    items = []
    for i in range(count):
        anchor = anchors[i % _ANCHOR_COUNT]
        items.append(anchor + draw(_SPREAD * h1_bound))
    return BoundedSequence(items=items, h1_bound=h1_bound)
