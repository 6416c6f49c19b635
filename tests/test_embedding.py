import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruskit import (
    BoundedSequence,
    InsufficientResolutionError,
    SpectralField,
    TorusGrid,
    l2_norm,
    pairwise_l2_distances,
    random_bounded_sequence,
    rellich_extract,
    required_cutoff,
    sobolev_norm_sq,
    tail_bound_check,
    tail_profile,
    tail_projection,
)
from toruskit.embedding import _tail_layout
from toruskit.operators import (
    norm_sq_array,
    resolvent_tail_symbol,
    symbol_array,
    truncated_resolvent_symbol,
)
from toruskit.transform import random_field

from conftest import random_spectral, spectral_delta


def test_tail_projection_beyond_box_is_zero():
    g1 = TorusGrid(1, 9)
    c = random_spectral(g1, np.random.default_rng(0))
    assert np.max(np.abs(tail_projection(c, g1.box_radius).coefficients)) == 0.0
    g2 = TorusGrid(2, 9)
    c2 = random_spectral(g2, np.random.default_rng(1))
    big = math.isqrt(2 * g2.box_radius**2) + 1
    assert np.max(np.abs(tail_projection(c2, big).coefficients)) == 0.0


def test_tail_projection_zero_mode():
    g = TorusGrid(1, 5)
    assert np.max(np.abs(tail_projection(spectral_delta(g, (0,)), 0).coefficients)) == 0.0


def test_tail_membership_straddles_integer_radii():
    # cutoff 1 discards only squared norms >= 4, so (1,1) stays in the head
    g = TorusGrid(2, 9)
    c = spectral_delta(g, (1, 1))
    assert np.max(np.abs(tail_projection(c, 1).coefficients)) == 0.0
    d = spectral_delta(g, (0, 2))
    assert np.array_equal(tail_projection(d, 1).coefficients, d.coefficients)


def test_tail_projection_keeps_the_support_of_the_resolvent_tail():
    # the projection keeps c exactly where resolvent_tail_symbol is nonzero
    # and zeroes it exactly where truncated_resolvent_symbol is
    g = TorusGrid(2, 9)
    c = random_spectral(g, np.random.default_rng(2))
    for cutoff in range(g.box_radius + 1):
        tail = symbol_array(resolvent_tail_symbol(cutoff), g) != 0.0
        head = symbol_array(truncated_resolvent_symbol(cutoff), g) != 0.0
        assert np.array_equal(tail, ~head)
        projected = tail_projection(c, cutoff).coefficients
        assert np.array_equal(projected, np.where(tail, c.coefficients, 0.0))


def test_tail_bound_two_mode_example():
    g = TorusGrid(2, 9)
    c = spectral_delta(g, (1, 0), (0, 2))
    lhs, rhs, holds = tail_bound_check(c, 1)
    assert lhs == 1.0
    assert rhs == pytest.approx(math.sqrt(7 / 5))
    assert holds


def test_tail_bound_supported_in_head():
    g = TorusGrid(2, 9)
    c = spectral_delta(g, (1, 0), (1, 1))
    bound = tail_bound_check(c, 1)
    assert bound.lhs == 0.0
    assert bound.holds


def test_tail_bound_holds_for_random_fields():
    g = TorusGrid(2, 9)
    rng = np.random.default_rng(3)
    for _ in range(50):
        c = random_spectral(g, rng)
        for cutoff in range(g.box_radius + 1):
            assert tail_bound_check(c, cutoff).holds


def test_tail_norm_non_increasing_in_cutoff():
    g = TorusGrid(2, 9)
    c = random_spectral(g, np.random.default_rng(4))
    lhs = [tail_bound_check(c, k).lhs for k in range(g.box_radius + 2)]
    assert all(a >= b for a, b in zip(lhs, lhs[1:]))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cutoff=st.integers(0, 6),
    sparsity=st.floats(0.0, 0.95),
)
def test_tail_bound_property_sparse_fields(seed, cutoff, sparsity):
    # sparse fields concentrate mass on few modes; the bound is mode-wise
    # so it must survive any support pattern, including pure tail modes
    g = TorusGrid(2, 9)
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    arr[rng.random(g.shape) < sparsity] = 0.0
    assert tail_bound_check(SpectralField(g, arr), cutoff).holds


def _assert_profile_matches_oracle(c):
    profile = tail_profile(c)
    assert len(profile.lhs) == len(profile.rhs) == c.grid.box_radius + 1
    for cutoff in range(c.grid.box_radius + 1):
        bound = tail_bound_check(c, cutoff)
        assert profile.lhs[cutoff] == pytest.approx(bound.lhs, rel=1e-14, abs=0.0)
        assert profile.rhs[cutoff] == pytest.approx(bound.rhs, rel=1e-14, abs=0.0)
        assert profile.holds[cutoff] == bound.holds


@pytest.mark.parametrize("n, m", [(1, 3), (1, 31), (2, 9), (2, 15), (3, 7), (3, 9)])
def test_tail_profile_matches_the_one_cutoff_oracle(n, m):
    g = TorusGrid(n, m)
    _assert_profile_matches_oracle(random_spectral(g, np.random.default_rng(m)))
    zero = tail_profile(SpectralField(g, np.zeros(g.shape)))
    assert not zero.lhs.any() and not zero.rhs.any() and zero.holds.all()


def test_tail_layout_is_sorted_once_per_grid(monkeypatch):
    calls = []
    argsort = np.argsort

    def counting_argsort(*args, **kwargs):
        calls.append(args[0].shape)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    _tail_layout.cache_clear()
    grids = [TorusGrid(1, 31), TorusGrid(2, 9), TorusGrid(3, 7)]
    for g in grids:
        rng = np.random.default_rng(g.size)
        for _ in range(4):
            _assert_profile_matches_oracle(random_spectral(g, rng))
    assert calls == [(g.size,) for g in grids]


def test_tail_profile_keeps_what_truncation_keeps():
    # k = 2 < 4 stays in the head at cutoff 1; k = 4 = (1+1)^2 starts the tail
    g = TorusGrid(2, 9)
    assert tail_profile(spectral_delta(g, (1, 1))).lhs.tolist()[:2] == [1.0, 0.0]
    assert tail_profile(spectral_delta(g, (0, 2))).lhs.tolist()[:3] == [1.0, 1.0, 0.0]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    m=st.sampled_from([3, 5, 7, 9]),
    seed=st.integers(0, 10_000),
    sparsity=st.floats(0.0, 0.95),
)
def test_tail_profile_property(n, m, seed, sparsity):
    g = TorusGrid(n, m)
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    arr[rng.random(g.shape) < sparsity] = 0.0
    _assert_profile_matches_oracle(SpectralField(g, arr))


def _family(*fields: SpectralField) -> SpectralField:
    """The fields, all on one grid, as one stack in the given order."""
    return SpectralField(fields[0].grid, np.stack([c.coefficients for c in fields]))


def test_bounded_sequence_rechecks_the_bound():
    g = TorusGrid(1, 9)
    ok = spectral_delta(g, (1,))  # H^1 norm sqrt(2)
    with pytest.raises(ValueError, match="item 0"):
        BoundedSequence(_family(ok), h1_bound=1.0)
    seq = BoundedSequence(_family(ok), h1_bound=1.5)
    assert seq.h1_bound == 1.5


# a 1-D M=9 family of one field of coefficients 1e6, far outside any H^1
# ball that a finite bound under 1e6 names
_LARGE = SpectralField(TorusGrid(1, 9), np.full((1, 9), 1e6 + 0j))


@pytest.mark.parametrize(
    "call, message",
    [(lambda: BoundedSequence(spectral_delta(TorusGrid(1, 9), (0,)), 2.0),
      r"a family is a stack of fields, shape \(count, \*grid.shape\)"),
     (lambda: BoundedSequence(SpectralField(TorusGrid(1, 9), np.zeros((0, 9))), 1.0),
      "sequence must contain at least one item"),
     (lambda: BoundedSequence(_LARGE, 0.0), "h1_bound must be finite and positive, got 0.0"),
     (lambda: BoundedSequence(_LARGE, -1.0), "h1_bound must be finite and positive, got -1.0"),
     (lambda: BoundedSequence(_LARGE, math.nan), "h1_bound must be finite and positive, got nan"),
     (lambda: BoundedSequence(_LARGE, math.inf), "h1_bound must be finite and positive, got inf"),
     (lambda: random_bounded_sequence(TorusGrid(1, 9), 0, 1.0, 1), "count must be >= 1, got 0"),
     (lambda: required_cutoff(1.0, 0.0), "eps must be finite and positive, got 0.0"),
     (lambda: required_cutoff(1.0, -1.0), "eps must be finite and positive, got -1.0"),
     (lambda: required_cutoff(1.0, math.nan), "eps must be finite and positive, got nan"),
     (lambda: required_cutoff(1.0, math.inf), "eps must be finite and positive, got inf"),
     (lambda: required_cutoff(math.nan, 0.5), "h1_bound must be finite and positive, got nan"),
     (lambda: required_cutoff(math.inf, 0.5), "h1_bound must be finite and positive, got inf"),
     (lambda: required_cutoff(0.0, 0.5), "h1_bound must be finite and positive, got 0.0"),
     (lambda: required_cutoff(-1.0, 0.5), "h1_bound must be finite and positive, got -1.0"),
     (lambda: BoundedSequence(_LARGE, 1e200), r"h1_bound must have a finite square, got 1e\+200"),
     (lambda: random_bounded_sequence(TorusGrid(1, 9), 4, 1e200, 1),
      r"h1_bound must have a finite square, got 1e\+200")],
    ids=["one-field", "empty", "bound-0", "bound-negative", "bound-nan", "bound-inf",
         "count-0", "eps-0", "eps-negative", "eps-nan", "eps-inf", "cutoff-bound-nan",
         "cutoff-bound-inf", "cutoff-bound-0", "cutoff-bound-negative",
         "bound-square-overflows", "drawn-bound-square-overflows"],
)
def test_families_and_cutoffs_refuse_bad_arguments(call, message):
    # no norm exceeds a NaN bound, so one would certify any family, and an
    # infinite one would reach the extraction's exact cutoff as an
    # OverflowError that names no argument; a bound whose square overflows
    # is refused before any norm is taken, so no overflow warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_required_cutoff_is_minimal():
    for h1, eps in [(1.0, 0.5), (2.0, 0.25), (0.3, 1.0), (1.0, 3.9)]:
        n = required_cutoff(h1, eps)
        assert 2 * h1 / math.sqrt(1 + (n + 1) ** 2) <= eps / 2
        if n > 0:
            assert 2 * h1 / math.sqrt(1 + n**2) > eps / 2
    assert required_cutoff(1.0, 0.5) == 7
    # targets (4 h1 / eps)^2 - 1 that land exactly on (N+1)^2: N itself is
    # the smallest cutoff, since the bound holds with equality
    exact = 0
    for np1 in range(1, 200):
        for eps in (1.0, 0.25, 1e-3):
            h1 = eps * math.sqrt(np1 * np1 + 1) / 4
            if (4.0 * h1 / eps) ** 2 - 1.0 == np1 * np1:
                exact += 1
                assert required_cutoff(h1, eps) == np1 - 1, (h1, eps)
    assert exact >= 100


def test_tail_bound_check_of_a_stack_is_each_field_alone():
    g = TorusGrid(2, 9)
    rng = np.random.default_rng(4)
    stack = np.stack([random_spectral(g, rng).coefficients for _ in range(3)])
    for cutoff in range(g.box_radius + 1):
        both = tail_bound_check(SpectralField(g, stack), cutoff)
        assert both.lhs.shape == both.rhs.shape == both.holds.shape == (3,)
        for i, row in enumerate(stack):
            alone = tail_bound_check(SpectralField(g, row), cutoff)
            assert type(alone.rhs) is float and type(alone.holds) is bool
            assert both.lhs[i].tobytes() == np.float64(alone.lhs).tobytes()
            assert both.rhs[i].tobytes() == np.float64(alone.rhs).tobytes()
            assert both.holds[i] == alone.holds


@pytest.mark.parametrize("check", [tail_projection, tail_bound_check])
def test_negative_cutoff_rejected(check):
    c = spectral_delta(TorusGrid(2, 5), (0, 0))
    with pytest.raises(ValueError, match="cutoff must be >= 0, got -1"):
        check(c, -1)


def test_extract_constant_sequence_returns_everything():
    g = TorusGrid(1, 17)
    item = spectral_delta(g, (1,)) * 0.1
    seq = BoundedSequence(_family(*[item] * 6), h1_bound=1.0)
    assert rellich_extract(seq, 0.5) == [0, 1, 2, 3, 4, 5]


def test_extract_pure_modes_picks_the_repeats():
    g = TorusGrid(1, 37)
    modes = [(0,), (1,), (-2,), (1,), (1,)]
    items = [spectral_delta(g, xi) for xi in modes]
    seq = BoundedSequence(_family(*items), h1_bound=math.sqrt(5.0))
    # distinct unit modes sit at L2 distance sqrt(2); only repeats cluster
    assert rellich_extract(seq, 0.5) == [1, 3, 4]
    gaps = pairwise_l2_distances(seq, [1, 2])
    assert gaps[0] == pytest.approx(math.sqrt(2.0))


# join radius eps/4 = 0.25 at eps = 1; h1_bound 1 needs cutoff 3, which
# keeps the modes 0 and 1 of a 1-D M=17 grid
_JOIN = 0.25


@pytest.mark.parametrize("radii, expected", [
    # 0.99 join radii from leader 0: item 1 joins it
    ([(0.0, 0.0), (0.99, 0.0)], [0, 1]),
    # 1.01 join radii from leader 0: item 1 leads its own cluster, item 2 joins it
    ([(0.0, 0.0), (1.01, 0.0), (1.01, 0.0)], [1, 2]),
    # item 3 lies 0.505 join radii from leaders 0 and 1 alike: it joins the first
    ([(0.0, 0.0), (1.01, 0.0), (1.01, 0.0), (0.505, 0.0)], [0, 3]),
    # clusters {0, 3} and {1, 2} are equal: the earlier is returned
    ([(0.0, 0.0), (0.0, 2.0), (0.0, 2.0), (-0.5, 0.0)], [0, 3]),
])
def test_extraction_join_rule_at_its_boundary(radii, expected):
    # each item a0 * join radius at mode 0 plus a1 * join radius at mode 1
    g = TorusGrid(1, 17)
    items = [spectral_delta(g, (0,)) * (a0 * _JOIN) + spectral_delta(g, (1,)) * (a1 * _JOIN)
             for a0, a1 in radii]
    assert rellich_extract(BoundedSequence(_family(*items), h1_bound=1.0), 1.0) == expected


def _extract_item_by_item(seq, eps):
    """The greedy leader clustering one item at a time: each item joins the
    first leader within eps/4 or becomes a leader; the earliest of the
    largest clusters.  The oracle of the pass-per-leader extraction."""
    kept = seq.coefficients.copy()
    kept[:, norm_sq_array(seq.grid) >= (required_cutoff(seq.h1_bound, eps) + 1) ** 2] = 0
    clusters = []
    for i, item in enumerate(kept):
        for cluster in clusters:
            if math.sqrt(np.sum(np.abs(item - kept[cluster[0]]) ** 2)) <= eps / 4:
                cluster.append(i)
                break
        else:
            clusters.append([i])
    return max(clusters, key=len)


# 4 leaders of 16 items each, then 6, 29 and 47 leaders as eps shrinks
# below the spread of the perturbations
@pytest.mark.parametrize("n, m, seed, eps", [
    (1, 17, 5, 0.5), (2, 33, 3, 0.5), (3, 9, 1, 1.0),
    (1, 79, 4, 0.1), (1, 159, 6, 0.06), (1, 159, 4, 0.05),
])
def test_extraction_is_the_item_by_item_clustering(n, m, seed, eps):
    seq = random_bounded_sequence(TorusGrid(n, m), count=64, h1_bound=1.0, seed=seed)
    assert rellich_extract(seq, eps) == _extract_item_by_item(seq, eps)


# at 2-D M=129, eps 0.5 keeps 193 of 16641 modes; at 2-D M=161, eps 0.05
# (cutoff 79 of box radius 80) about 80% of them
@pytest.mark.parametrize("m, eps, share", [(129, 0.5, 1 / 8), (161, 0.05, 1.0)])
def test_extraction_holds_no_array_of_the_family_s_size(m, eps, share):
    seq = random_bounded_sequence(TorusGrid(2, m), count=64, h1_bound=1.0, seed=3)
    tracemalloc.start()
    try:
        rellich_extract(seq, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < share * seq.coefficients.nbytes


def test_extract_seeded_sequence_passes_independent_distance_check():
    g = TorusGrid(1, 17)
    seq = random_bounded_sequence(g, count=64, h1_bound=1.0, seed=5)
    indices = rellich_extract(seq, 0.5)
    assert len(indices) >= 2
    assert indices == sorted(indices)
    assert max(pairwise_l2_distances(seq, indices)) <= 0.5


def test_extract_reports_insufficient_resolution():
    g = TorusGrid(1, 9)
    seq = random_bounded_sequence(g, count=4, h1_bound=1.0, seed=0)
    needed = required_cutoff(1.0, 1e-3)
    with pytest.raises(InsufficientResolutionError,
                       match=f"^insufficient resolution: extraction needs cutoff "
                             f"N={needed} but the stored box only holds "
                             f"frequencies up to 4 per axis$"):
        rellich_extract(seq, 1e-3)


@pytest.mark.parametrize("eps", [1e-200, 5e-324])
def test_cutoff_beyond_float_range_is_insufficient_resolution(eps):
    # (4 h1 / eps)^2 overflows a float; the cutoff is exact and minimal all
    # the same, and no stored box holds it
    needed = required_cutoff(1.0, eps)
    target = (4 / Fraction(eps)) ** 2
    assert 1 + (needed + 1) ** 2 >= target > 1 + needed**2
    seq = random_bounded_sequence(TorusGrid(1, 17), count=4, h1_bound=1.0, seed=1)
    with pytest.raises(InsufficientResolutionError, match=f"needs cutoff N={needed} but"):
        rellich_extract(seq, eps)


def test_generated_sequence_is_certified():
    g = TorusGrid(1, 17)
    seq = random_bounded_sequence(g, count=16, h1_bound=0.7, seed=9)
    for item in seq.coefficients:
        assert math.sqrt(sobolev_norm_sq(SpectralField(g, item), 1.0)) <= 0.7 * (1 + 1e-9)


def test_pairwise_distances_oracle_is_direct():
    g = TorusGrid(1, 9)
    a = spectral_delta(g, (0,))
    b = spectral_delta(g, (1,))
    seq = BoundedSequence(_family(a, b), h1_bound=2.0)
    (d,) = pairwise_l2_distances(seq, [0, 1])
    assert d == l2_norm(a - b)


def _family_one_field_at_a_time(grid, count, h1_bound, seed):
    """The family as it was drawn one field at a time, each field through
    `random_field` and rescaled alone: the oracle of the stacked draw."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / (1.0 + norm_sq_array(grid))

    def draw(scale):
        c = SpectralField(grid, random_field(grid, rng).values * weights)
        return SpectralField(grid, c.coefficients * (scale / math.sqrt(sobolev_norm_sq(c, 1.0))))

    anchors = [draw(0.8 * h1_bound) for _ in range(4)]
    return [anchors[i % 4] + draw(0.02 * h1_bound) for i in range(count)]


@pytest.mark.parametrize("n, m, seed", [(1, 17, 1), (1, 17, 5), (3, 9, 2), (2, 129, 3)])
def test_stacked_draw_gives_the_per_field_family_bit_for_bit(n, m, seed):
    # 2-D M=129 (16641 points) draws one field per stack
    g = TorusGrid(n, m)
    seq = random_bounded_sequence(g, count=9, h1_bound=0.7, seed=seed)
    expected = _family_one_field_at_a_time(g, 9, 0.7, seed)
    assert seq.coefficients.shape == (9, *g.shape)
    for item, oracle in zip(seq.coefficients, expected):
        assert np.array_equal(item, oracle.coefficients)


def test_bounded_sequence_holds_the_stack_it_is_given():
    g = TorusGrid(1, 9)
    stack = np.zeros((3, *g.shape), complex)
    stack[:, g.box_radius] = 0.5
    seq = BoundedSequence(SpectralField(g, stack), h1_bound=1.0)
    assert seq.coefficients is stack and seq.grid == g
    stack[1, g.box_radius + 1] = 1.0  # H^1 norm sqrt(2.25) of item 1
    with pytest.raises(ValueError, match=r"^item 1 violates the H\^1 bound: 1.5 > 1.0$"):
        BoundedSequence(SpectralField(g, stack), h1_bound=1.0)


@pytest.mark.parametrize("n, m", [(1, 31), (2, 9), (3, 7)])
def test_tail_profile_of_a_sequence_is_each_field_s_bit_for_bit(n, m):
    g = TorusGrid(n, m)
    rng = np.random.default_rng(m)
    fields = [random_spectral(g, rng) for _ in range(5)]
    fields[2] = SpectralField(g, np.zeros(g.shape))
    profile = tail_profile(SpectralField(g, np.stack([c.coefficients for c in fields])))
    assert profile.lhs.shape == profile.rhs.shape == (5, g.box_radius + 1)
    assert tail_profile(SpectralField(g, np.zeros((0, *g.shape)))).lhs.shape == (
        0, g.box_radius + 1)
    for c, lhs, rhs, holds in zip(fields, *profile):
        alone = tail_profile(c)
        assert np.array_equal(lhs, alone.lhs) and np.array_equal(rhs, alone.rhs)
        assert np.array_equal(holds, alone.holds)


@pytest.mark.parametrize("n, m", [(1, 17), (2, 129)])
def test_pairwise_distances_are_the_norms_of_differences_bit_for_bit(n, m):
    # 2-D M=129 takes one difference per stack
    g = TorusGrid(n, m)
    seq = random_bounded_sequence(g, count=6, h1_bound=1.0, seed=4)
    indices = [5, 0, 3, 2]
    items = seq.coefficients
    expected = [l2_norm(SpectralField(g, items[indices[a]] - items[indices[b]]))
                for a in range(4) for b in range(a + 1, 4)]
    assert pairwise_l2_distances(seq, indices) == expected
    assert pairwise_l2_distances(seq, [3]) == []
