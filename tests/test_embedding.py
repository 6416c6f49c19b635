import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruskit import (
    BoundedSequence,
    InsufficientResolutionError,
    SpectralField,
    TorusGrid,
    ball_projection,
    l2_norm,
    pairwise_l2_distances,
    random_bounded_sequence,
    rellich_extract,
    required_cutoff,
    sobolev_norm_sq,
    tail_bound_check,
    tail_projection,
)

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
    assert np.array_equal(ball_projection(c, 1).coefficients, c.coefficients)
    d = spectral_delta(g, (0, 2))
    assert np.array_equal(tail_projection(d, 1).coefficients, d.coefficients)


def test_tail_plus_ball_reconstructs_exactly():
    g = TorusGrid(2, 9)
    c = random_spectral(g, np.random.default_rng(2))
    for cutoff in range(g.box_radius + 1):
        merged = tail_projection(c, cutoff) + ball_projection(c, cutoff)
        assert np.array_equal(merged.coefficients, c.coefficients)


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


def test_bounded_sequence_rechecks_the_bound():
    g = TorusGrid(1, 9)
    ok = spectral_delta(g, (1,))  # H^1 norm sqrt(2)
    with pytest.raises(ValueError, match="item 0"):
        BoundedSequence([ok], h1_bound=1.0)
    seq = BoundedSequence([ok], h1_bound=1.5)
    assert seq.h1_bound == 1.5


def test_bounded_sequence_rejects_mixed_grids_and_empty():
    a = spectral_delta(TorusGrid(1, 9), (0,))
    b = spectral_delta(TorusGrid(1, 7), (0,))
    with pytest.raises(ValueError, match="different grid"):
        BoundedSequence([a, b], h1_bound=2.0)
    with pytest.raises(ValueError):
        BoundedSequence([], h1_bound=1.0)


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


@pytest.mark.parametrize("check", [tail_projection, ball_projection, tail_bound_check])
def test_negative_cutoff_rejected(check):
    c = spectral_delta(TorusGrid(2, 5), (0, 0))
    with pytest.raises(ValueError, match="cutoff must be >= 0, got -1"):
        check(c, -1)


def test_extract_constant_sequence_returns_everything():
    g = TorusGrid(1, 17)
    item = spectral_delta(g, (1,)) * 0.1
    seq = BoundedSequence([item] * 6, h1_bound=1.0)
    assert rellich_extract(seq, 0.5) == [0, 1, 2, 3, 4, 5]


def test_extract_pure_modes_picks_the_repeats():
    g = TorusGrid(1, 37)
    modes = [(0,), (1,), (-2,), (1,), (1,)]
    items = [spectral_delta(g, xi) for xi in modes]
    seq = BoundedSequence(items, h1_bound=math.sqrt(5.0))
    # distinct unit modes sit at L2 distance sqrt(2); only repeats cluster
    assert rellich_extract(seq, 0.5) == [1, 3, 4]
    gaps = pairwise_l2_distances(seq, [1, 2])
    assert gaps[0] == pytest.approx(math.sqrt(2.0))


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
    with pytest.raises(InsufficientResolutionError) as excinfo:
        rellich_extract(seq, 1e-3)
    err = excinfo.value
    assert err.needed_cutoff == required_cutoff(1.0, 1e-3)
    assert str(err.needed_cutoff) in str(err)


def test_generated_sequence_is_certified():
    g = TorusGrid(1, 17)
    seq = random_bounded_sequence(g, count=16, h1_bound=0.7, seed=9)
    for item in seq.items:
        assert math.sqrt(sobolev_norm_sq(item, 1.0)) <= 0.7 * (1 + 1e-9)


def test_pairwise_distances_oracle_is_direct():
    g = TorusGrid(1, 9)
    a = spectral_delta(g, (0,))
    b = spectral_delta(g, (1,))
    seq = BoundedSequence([a, b], h1_bound=2.0)
    (d,) = pairwise_l2_distances(seq, [0, 1])
    assert d == l2_norm(a - b)
