import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from toruskit import (
    SpectralField,
    TorusGrid,
    enumerate_ball,
    level_multiplicity,
    levels_up_to,
    norm_sq,
    random_field,
    tail_bound_check,
    tail_min_norm_sq,
    truncated_resolvent_symbol,
    truncation_error_exact,
)


def brute_count_at_level(n: int, k: int) -> int:
    """Independent oracle: scan a generous box and count |xi|^2 == k."""
    r = 0
    while r * r < k:
        r += 1
    return sum(
        1
        for xi in itertools.product(range(-r, r + 1), repeat=n)
        if sum(x * x for x in xi) == k
    )


def test_norm_sq_examples():
    assert norm_sq((0, 0)) == 0
    assert norm_sq((1, 0)) == 1
    assert norm_sq((2, -1, 2)) == 9


def test_norm_sq_rejects_empty():
    with pytest.raises(ValueError):
        norm_sq(())


def test_norm_sq_refuses_non_integer_components():
    assert norm_sq((np.int64(2), np.int32(-1))) == 5
    with pytest.raises(TypeError):
        norm_sq((1.5,))


def test_tail_min_norm_sq_refuses_a_non_integer_cutoff():
    # 1.5 would give the threshold 6.25, which belongs to no truncation
    assert tail_min_norm_sq(np.int64(2)) == 9
    assert type(tail_min_norm_sq(np.int32(2))) is int
    grid = TorusGrid(2, 9)
    c = SpectralField(grid, random_field(grid, np.random.default_rng(0)).values)
    for use in (tail_min_norm_sq, truncation_error_exact, truncated_resolvent_symbol,
                lambda cutoff: tail_bound_check(c, cutoff)):
        with pytest.raises(TypeError):
            use(1.5)


def test_enumerate_ball_1d():
    assert enumerate_ball(1, 1) == [(-1,), (0,), (1,)]


def test_enumerate_ball_2d_radius_1():
    assert enumerate_ball(2, 1) == [
        (-1, 0),
        (0, -1),
        (0, 0),
        (0, 1),
        (1, 0),
    ]


def test_enumerate_ball_2d_radius_2_against_box_scan():
    got = enumerate_ball(2, 2)
    expected = [
        xi
        for xi in itertools.product(range(-2, 3), repeat=2)
        if xi[0] ** 2 + xi[1] ** 2 <= 4
    ]
    assert got == expected
    assert len(got) == 13


def test_enumerate_ball_sorted_and_duplicate_free():
    for n in (1, 2, 3):
        members = enumerate_ball(n, 3)
        assert members == sorted(set(members))


@pytest.mark.parametrize(
    "call, message",
    [(lambda: enumerate_ball(0, 1), "dimension must be >= 1, got 0"),
     (lambda: enumerate_ball(2, -1), "radius must be >= 0, got -1"),
     (lambda: level_multiplicity(0, 1), "dimension must be >= 1, got 0"),
     (lambda: level_multiplicity(2, -1), "level must be >= 0, got -1"),
     (lambda: levels_up_to(0, 4), "dimension must be >= 1, got 0"),
     (lambda: levels_up_to(2, -1), "level cap must be >= 0, got -1")],
    ids=["ball-n", "ball-radius", "multiplicity-n", "multiplicity-k", "levels-n",
         "levels-cap"],
)
def test_lattice_scans_refuse_out_of_range_arguments(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "n, k, expected",
    [(2, 0, 1), (2, 1, 4), (2, 5, 8), (3, 1, 6), (1, 4, 2)],
)
def test_level_multiplicity_frozen(n, k, expected):
    assert level_multiplicity(n, k) == expected
    assert brute_count_at_level(n, k) == expected


def test_levels_up_to_examples():
    assert levels_up_to(1, 4).tolist() == [[0, 1], [1, 2], [4, 2]]
    assert levels_up_to(2, 2).tolist() == [[0, 1], [1, 4], [2, 4]]
    assert levels_up_to(3, 1).tolist() == [[0, 1], [1, 6]]


def test_levels_up_to_discovers_gaps():
    # 3, 6 and 7 are not sums of two squares; the scan must simply skip them
    levels = dict(levels_up_to(2, 8))
    assert set(levels) == {0, 1, 2, 4, 5, 8}
    assert level_multiplicity(2, 7) == 0


def test_levels_agree_with_per_level_scan():
    for n in (1, 2, 3):
        for k, mult in levels_up_to(n, 10):
            assert mult == level_multiplicity(n, k)


@pytest.mark.parametrize("n, radius", [(1, 50), (2, 30), (3, 12), (4, 6)])
def test_levels_match_box_scan_well_above_cap_10(n, radius):
    cap = radius * radius
    scan = Counter(norm_sq(xi) for xi in enumerate_ball(n, radius))
    assert levels_up_to(n, cap).tolist() == sorted(map(list, scan.items()))


def test_levels_discover_3d_gaps():
    # 7, 15, 23 and 28 are of the form 4^a (8b + 7): not sums of three squares
    levels = dict(levels_up_to(3, 30))
    for gap in (7, 15, 23, 28):
        assert gap not in levels
        assert level_multiplicity(3, gap) == 0
    assert set(range(31)) - set(levels) == {7, 15, 23, 28}


def test_levels_count_exactly_beyond_int64():
    # for k <= 8 every entry is 0, +-1 or +-2; b entries of +-2 and
    # k - 4b entries of +-1 give the closed form below
    n = 1000

    def r(k):
        return sum(
            math.comb(n, b) * 2**b * math.comb(n - b, k - 4 * b) * 2 ** (k - 4 * b)
            for b in range(k // 4 + 1)
        )

    levels = levels_up_to(n, 8)
    assert levels.dtype == object
    assert levels.tolist() == [[k, r(k)] for k in range(9)]
    assert levels[-1, 1] > 2**63
    assert all(type(k) is int and type(m) is int for k, m in levels)


@pytest.mark.parametrize("n, cap, dtype", [(2, 50, np.int64), (1000, 8, object)],
                         ids=["int64", "object"])
def test_levels_up_to_returns_a_fresh_array_of_int_pairs(n, cap, dtype):
    first, second = levels_up_to(n, cap), levels_up_to(n, cap)
    assert type(first) is np.ndarray and first.dtype == dtype
    assert first.ndim == 2 and first.shape[1] == 2
    assert first.tolist() == second.tolist() and not np.shares_memory(first, second)
    assert all(type(k) is int and type(m) is int for k, m in first.tolist())


@pytest.mark.parametrize(
    "call, name",
    [(lambda: levels_up_to(True, 4), "n"), (lambda: levels_up_to(2, True), "cap"),
     (lambda: level_multiplicity(True, 1), "n"), (lambda: level_multiplicity(2, True), "k"),
     (lambda: enumerate_ball(True, 2), "n"), (lambda: enumerate_ball(2, True), "radius")],
    ids=["levels-n", "levels-cap", "multiplicity-n", "multiplicity-k", "ball-n",
         "ball-radius"],
)
def test_lattice_scans_refuse_bool_arguments(call, name):
    # True is the int 1 to Python, so without the check each call would
    # compute a table, a count or a ball for 1
    with pytest.raises(TypeError, match=f"^{name} must be an integer, not bool$"):
        call()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("radius", list(range(9)))
def test_multiplicity_sum_matches_ball_cardinality(n, radius):
    total = sum(
        level_multiplicity(n, k)
        for k, _ in levels_up_to(n, radius * radius)
    )
    assert total == len(enumerate_ball(n, radius))


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=4))
def test_norm_sq_invariant_under_permutation_and_signs(components):
    xi = tuple(components)
    flipped = tuple(-x for x in xi)
    rotated = xi[1:] + xi[:1]
    assert norm_sq(xi) == norm_sq(flipped) == norm_sq(rotated)


@given(st.integers(1, 3), st.integers(0, 5))
def test_ball_members_satisfy_membership(n, radius):
    for xi in enumerate_ball(n, radius):
        assert norm_sq(xi) <= radius * radius
