"""Desk-scale compact-embedding phenomenon: tail bounds and Cauchy extraction.

An H^1 bound forces the spectral tail to be small: with the cutoff-N
projection keeping modes of squared norm below (N+1)^2,

    || u - P_N u ||_{L^2}  <=  || u ||_{H^1} / sqrt(1 + (N+1)^2),

mode by mode, because every discarded mode carries weight at least
1 + (N+1)^2.  An H^1-bounded family therefore lives, up to a uniformly
small tail, in a fixed finite-dimensional coefficient space, and greedy
clustering there extracts subfamilies that are pairwise close in L^2.
That is the whole compactness mechanism, made finite.

A family (`BoundedSequence`) is one SpectralField stack, (count,
*grid.shape).  It is drawn into that stack a block of fields at a time,
from the same stream as one `transform._random_coefficients` draw; its
H^1 check and the oracle's pairwise distances take blocks of fields of
at most `transform._STACK_POINTS` points, so that on a large grid their
temporaries are the size of one field.  The extraction clusters a
(count, K) gather of the K modes its cutoff keeps, in blocks of at most
`transform._STACK_POINTS` modes, and makes no array of the family's size.

`tail_profile` evaluates the bound at every cutoff 0..box radius in one
pass: the tail energies as one reversed cumulative sum of |c|^2 over the
modes sorted by |xi|^2, read where each cutoff's tail starts.  The sort
order and those starts depend on the grid alone and are computed once per
grid.  Given a stack of fields, it returns one profile row per field.
`tail_bound_check`, one masked sum per cutoff, is its oracle.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import transform
from .lattice import tail_min_norm_sq
from .operators import kept_by_truncation, l2_norm, norm_sq_array, sobolev_norm_sq
from .transform import SpectralField, TorusGrid

_H1_SLACK = 1e-9
_ANCHOR_COUNT = 4
_SPREAD = 0.02


class InsufficientResolutionError(ValueError):
    """The stored box is too small for the cutoff the tolerance requires."""


class BoundedSequence:
    """Finite family of spectral fields on one grid with a certified H^1 bound.

    The family is one SpectralField stack of shape (count, *grid.shape),
    and `coefficients` is that stack's array, held as it is: item i is
    coefficients[i].  The bound is re-verified on construction, never
    trusted: every item must satisfy sobolev_norm_sq(item, 1) <=
    h1_bound**2 (up to roundoff), checked a block of items at a time.
    """

    def __init__(self, family: SpectralField, h1_bound: float) -> None:
        grid, coefficients = family.grid, family.coefficients
        if coefficients.ndim != grid.dimension + 1:
            raise ValueError("a family is a stack of fields, shape (count, *grid.shape)")
        if not len(coefficients):
            raise ValueError("sequence must contain at least one item")
        _check_family_bound(h1_bound)
        self.grid, self.coefficients, self.h1_bound = grid, coefficients, h1_bound
        h1_sq = np.empty(len(coefficients))
        for block in transform._stack_blocks(len(coefficients), grid.size):
            h1_sq[block] = sobolev_norm_sq(SpectralField(grid, coefficients[block]), 1.0)
        over = np.flatnonzero(h1_sq > h1_bound**2 * (1.0 + _H1_SLACK))
        if len(over):
            raise ValueError(
                f"item {over[0]} violates the H^1 bound: "
                f"{math.sqrt(h1_sq[over[0]])} > {h1_bound}"
            )


def _check_family_bound(h1_bound: float) -> None:
    if not 0 < h1_bound < math.inf:
        raise ValueError(f"h1_bound must be finite and positive, got {h1_bound}")
    if h1_bound * h1_bound == math.inf:  # the H^1 check compares squares
        raise ValueError(f"h1_bound must have a finite square, got {h1_bound}")


# roundoff allowance of the tail bound: it holds when lhs <= rhs + _TAIL_SLACK
_TAIL_SLACK = 1e-12


class TailBound(NamedTuple):
    """Both sides of the tail bound and whether it holds: at one cutoff
    (floats, or one per field of a stack), or at N = 0..box radius (`tail_profile`)."""

    lhs: float | np.ndarray
    rhs: float | np.ndarray
    holds: bool | np.ndarray


def tail_projection(c: SpectralField, cutoff: int) -> SpectralField:
    """High-frequency part: modes with norm_sq >= (cutoff+1)^2, zero otherwise."""
    kept = kept_by_truncation(norm_sq_array(c.grid), cutoff)
    return SpectralField(c.grid, np.where(kept, 0.0, c.coefficients))


def tail_bound_check(c: SpectralField, cutoff: int) -> TailBound:
    """Evaluate both sides of the spectral tail bound at the given cutoff.

    lhs = ||tail||_{L^2}, rhs = ||c||_{H^1} / sqrt(1 + (cutoff+1)^2);
    holds is lhs <= rhs + 1e-12.  Floats for one field; for a stack of k
    fields, (k,) arrays, each entry bit for bit the field's own.
    """
    lhs = l2_norm(tail_projection(c, cutoff))
    rhs = np.sqrt(sobolev_norm_sq(c, 1.0) / (1.0 + tail_min_norm_sq(cutoff)))
    rhs = float(rhs) if rhs.ndim == 0 else rhs
    return TailBound(lhs, rhs, lhs <= rhs + _TAIL_SLACK)


@functools.lru_cache(maxsize=8)
def _tail_layout(grid: TorusGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, starts, thresholds) of `tail_profile` on one grid.

    order sorts the modes stably by k = |xi|^2; a cutoff N keeps exactly the
    modes with k < thresholds[N] = (N+1)^2 (`kept_by_truncation`), which are
    the sorted prefix up to starts[N], the left insertion point of (N+1)^2.
    Memoized per grid as `norm_sq_array` is; the arrays are read-only.
    """
    k = norm_sq_array(grid).ravel()
    order = np.argsort(k, kind="stable")
    thresholds = np.array(
        [tail_min_norm_sq(cutoff) for cutoff in range(grid.box_radius + 1)]
    )
    starts = np.searchsorted(k[order], thresholds, side="left")
    for array in (order, starts, thresholds):
        array.flags.writeable = False
    return order, starts, thresholds


def tail_profile(c: SpectralField) -> TailBound:
    """`tail_bound_check` at every cutoff N = 0..box radius, in one pass.

    The tail at cutoff N is the suffix of the modes sorted by |xi|^2 from
    the grid's start of that tail (`_tail_layout`), so its energy is one
    entry of the reversed cumulative sum of |c|^2 in that order.  rhs is
    computed as `tail_bound_check` computes it; lhs agrees with it to
    roundoff, the sums being taken in another order.  For a stack of k
    fields the profile's arrays are (k, box radius + 1), one row per field,
    each bit for bit the field's own.
    """
    grid = c.grid
    order, starts, thresholds = _tail_layout(grid)
    rows = c.coefficients.reshape(-1, grid.size)
    energy = np.abs(rows[:, order]) ** 2
    # tails[:, i] = energy[:, i:].sum(1); the last column, 0.0, is the empty tail
    tails = np.zeros((len(rows), grid.size + 1))
    tails[:, :-1] = np.cumsum(energy[:, ::-1], axis=1)[:, ::-1]
    batch = c.coefficients.shape[:-grid.dimension]  # () for one field, (k,) for a stack
    lhs = np.sqrt(tails[:, starts]).reshape(*batch, len(starts))
    h1_sq = sobolev_norm_sq(c, 1.0)
    rhs = np.sqrt(np.expand_dims(h1_sq, -1) / (1.0 + thresholds))
    return TailBound(lhs, rhs, lhs <= rhs + _TAIL_SLACK)


def required_cutoff(h1_bound: float, eps: float) -> int:
    """Smallest N with 2 * h1_bound / sqrt(1 + (N+1)^2) <= eps / 2, in exact
    arithmetic on the two floats."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if not 0 < h1_bound < math.inf:
        raise ValueError(f"h1_bound must be finite and positive, got {h1_bound}")
    # need the integer (N+1)^2 >= (4 h1 / eps)^2 - 1, i.e. >= its ceiling
    needed = math.ceil((4 * Fraction(h1_bound) / Fraction(eps)) ** 2 - 1)
    return math.isqrt(needed - 1) if needed > 1 else 0


def rellich_extract(seq: BoundedSequence, eps: float) -> list[int]:
    """Indices of items that are pairwise within eps in L^2.

    Procedure: choose the cutoff N so both tails of any pair cost at most
    eps/2 in total, then greedily leader-cluster the kept coefficient
    vectors with join radius eps/4 (so kept parts of a cluster have
    diameter at most eps/2) and return the largest cluster, in ascending
    order.  Clustering takes one pass per leader: an item no earlier
    leader has taken becomes a leader and takes every later item not yet
    taken within eps/4, so an item joins the first leader within eps/4,
    and of equal clusters the earliest is returned.

    Raises InsufficientResolutionError when the needed cutoff exceeds the
    stored box.
    """
    cutoff = required_cutoff(seq.h1_bound, eps)
    grid = seq.grid
    if cutoff > grid.box_radius:
        raise InsufficientResolutionError(
            f"insufficient resolution: extraction needs cutoff N={cutoff} but "
            f"the stored box only holds frequencies up to {grid.box_radius} per axis"
        )

    # (count, K) and C-contiguous, where rows[:, mask] comes back F-ordered
    mask = kept_by_truncation(norm_sq_array(grid), cutoff).ravel()
    kept = np.compress(mask, seq.coefficients.reshape(-1, grid.size), axis=1)
    join_radius = eps / 4.0
    # cluster[i] is the leader item i joined, -1 while no leader has taken it
    cluster = np.full(len(kept), -1)
    for leader in range(len(kept)):
        if cluster[leader] >= 0:
            continue
        cluster[leader] = leader
        free = leader + 1 + np.flatnonzero(cluster[leader + 1:] < 0)
        for block in transform._stack_blocks(len(free), kept.shape[1]):
            items = free[block]
            near = _distances(kept[items], kept[leader]) <= join_radius
            cluster[items[near]] = leader
    largest = np.bincount(cluster).argmax()
    return np.flatnonzero(cluster == largest).tolist()


def _distances(rows: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The l2 distance of each of `rows`, a (k, K) copy it overwrites, from
    `row`: their float view squared in place, so no other array of their
    size is made, and summed by `transform._field_sums`."""
    rows -= row
    squares = rows.view(np.float64)
    squares *= squares
    return np.sqrt(transform._field_sums(squares, 1))


def pairwise_l2_distances(seq: BoundedSequence, indices: list[int]) -> list[float]:
    """Direct L^2 distances between all selected pairs (validation oracle),
    in the order (a, b) for a < b: each the l2 norm of the difference of
    two items of the family, over stacks of such differences."""
    pairs = [(indices[a], indices[b])
             for a in range(len(indices)) for b in range(a + 1, len(indices))]
    out = []
    for block in transform._stack_blocks(len(pairs), seq.grid.size):
        first, second = zip(*pairs[block])
        gaps = seq.coefficients[list(first)] - seq.coefficients[list(second)]
        out += np.sqrt(np.sum(np.abs(gaps.reshape(len(gaps), -1)) ** 2, axis=1)).tolist()
    return out


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
    low modes, so large pairwise-close subfamilies exist.  The anchors and
    then the perturbations are drawn by `transform._random_coefficients`,
    in stacks of fields, straight into the family's stack.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    _check_family_bound(h1_bound)
    rng = np.random.default_rng(seed)
    weights = 1.0 / (1.0 + norm_sq_array(grid))

    def draw(fields: int, scale: float) -> np.ndarray:
        # a stack of `fields` weighted draws, each rescaled to H^1 norm `scale`
        stack = np.empty((fields, *grid.shape), complex)
        for block in transform._stack_blocks(fields, grid.size):
            raw = transform._random_coefficients(grid, rng, block.stop - block.start) * weights
            h1 = np.sqrt(sobolev_norm_sq(SpectralField(grid, raw), 1.0))
            stack[block] = raw * (scale / h1).reshape((-1,) + (1,) * grid.dimension)
        return stack

    anchors = draw(_ANCHOR_COUNT, 0.8 * h1_bound)
    family = draw(count, _SPREAD * h1_bound)
    for a, anchor in enumerate(anchors):
        family[a::_ANCHOR_COUNT] += anchor
    return BoundedSequence(SpectralField(grid, family), h1_bound)
