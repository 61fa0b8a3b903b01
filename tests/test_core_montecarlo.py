"""Tests for the mixed-duration model extension and its Monte Carlo oracle."""

import math
import random

import pytest

from repro.core.model import (
    collision_probability,
    collision_probability_mixed,
    effective_density,
    p_success,
    p_success_mixed,
)
from repro.core.montecarlo import (
    ExponentialDuration,
    FixedDuration,
    replicate_collision_rate,
    simulate_collision_rate,
)

from .oracles import _simulate_collision_rate_reference


class TestEffectiveDensity:
    def test_littles_law(self):
        assert effective_density(5.0, [1.0]) == pytest.approx(5.0)
        assert effective_density(2.0, [0.5, 1.5]) == pytest.approx(2.0)

    def test_weights(self):
        # E[D] = 0.9*0.1 + 0.1*9.1 = 1.0
        assert effective_density(5.0, [0.1, 9.1], weights=[0.9, 0.1]) == (
            pytest.approx(5.0)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_density(-1.0, [1.0])
        with pytest.raises(ValueError):
            effective_density(1.0, [-0.5])


class TestMixedModel:
    def test_reduces_to_exponential_form_for_single_duration(self):
        # P = exp(-λ·2τ·2^-H) with τ=1, λ=5, H=6
        p = p_success_mixed(6, 5.0, [1.0])
        assert p == pytest.approx(math.exp(-5.0 * 2.0 * 2.0**-6))

    def test_agrees_with_eq4_to_first_order(self):
        """exp(-2T q) vs (1-q)^{2(T-1)} converge as q -> 0."""
        for H in (12, 16, 20):
            mixed = p_success_mixed(H, 8.0, [1.0])
            eq4 = p_success(H, 8)
            assert mixed == pytest.approx(eq4, abs=5e-3)

    def test_probability_bounds(self):
        for H in (0, 1, 4, 16):
            p = p_success_mixed(H, 3.0, [0.2, 1.0, 7.0])
            assert 0.0 <= p <= 1.0

    def test_long_transactions_collide_more(self):
        """P(success | d) falls with d: duration-stratified check."""
        short = p_success_mixed(6, 5.0, [0.1])
        long = p_success_mixed(6, 5.0, [10.0])
        assert long < short

    def test_heavy_tail_lowers_count_weighted_rate(self):
        """Most transactions short + a few very long, same E[D]: the
        count-weighted collision rate drops below the same-length rate —
        the effect Eq. 4's single-T summary cannot express."""
        homogeneous = collision_probability_mixed(6, 5.0, [1.0])
        heavy = collision_probability_mixed(
            6, 5.0, [0.1, 9.1], weights=[0.9, 0.1]
        )
        assert heavy < homogeneous

    def test_validation(self):
        with pytest.raises(ValueError):
            p_success_mixed(-1, 5.0, [1.0])
        with pytest.raises(ValueError):
            p_success_mixed(6, -5.0, [1.0])
        with pytest.raises(ValueError):
            p_success_mixed(6, 5.0, [])
        with pytest.raises(ValueError):
            p_success_mixed(6, 5.0, [-1.0])


class TestMonteCarlo:
    def test_density_matches_littles_law(self):
        mc = simulate_collision_rate(
            8, 5.0, lambda r: 1.0, horizon=500.0, rng=random.Random(1)
        )
        assert mc.measured_density == pytest.approx(5.0, abs=0.4)

    def test_homogeneous_rate_matches_mixed_model(self):
        for H in (4, 6):
            mc = simulate_collision_rate(
                H, 5.0, lambda r: 1.0, horizon=1500.0,
                rng=random.Random(H), warmup=10.0,
            )
            predicted = collision_probability_mixed(H, 5.0, [1.0])
            assert mc.collision_rate == pytest.approx(predicted, abs=0.03)

    def test_homogeneous_rate_near_eq4(self):
        mc = simulate_collision_rate(
            6, 5.0, lambda r: 1.0, horizon=1500.0,
            rng=random.Random(3), warmup=10.0,
        )
        eq4 = float(collision_probability(6, 5))
        assert mc.collision_rate == pytest.approx(eq4, abs=0.05)

    def test_bimodal_matches_mixed_model_not_eq4_direction(self):
        sampler = lambda r: 0.1 if r.random() < 0.9 else 9.1  # noqa: E731
        mc = simulate_collision_rate(
            5, 5.0, sampler, horizon=2000.0, rng=random.Random(4), warmup=20.0
        )
        mixed = collision_probability_mixed(5, 5.0, [0.1, 9.1], weights=[0.9, 0.1])
        assert mc.collision_rate == pytest.approx(mixed, abs=0.04)

    def test_zero_bit_space_always_collides_under_load(self):
        mc = simulate_collision_rate(
            0, 5.0, lambda r: 1.0, horizon=200.0, rng=random.Random(5), warmup=5.0
        )
        assert mc.collision_rate > 0.99

    def test_huge_space_never_collides(self):
        mc = simulate_collision_rate(
            32, 5.0, lambda r: 1.0, horizon=200.0, rng=random.Random(6)
        )
        assert mc.collision_rate == 0.0

    def test_empty_window_gives_nan(self):
        mc = simulate_collision_rate(
            8, 0.001, lambda r: 1.0, horizon=1.0, rng=random.Random(7)
        )
        assert mc.transactions == 0
        assert math.isnan(mc.collision_rate)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_collision_rate(8, 0.0, lambda r: 1.0)
        with pytest.raises(ValueError):
            simulate_collision_rate(8, 1.0, lambda r: 1.0, horizon=0.0)
        with pytest.raises(ValueError):
            simulate_collision_rate(
                8, 1.0, lambda r: -1.0, horizon=10.0, rng=random.Random(8)
            )


class TestDurationSamplers:
    def test_fixed_duration_is_constant(self):
        sampler = FixedDuration(seconds=2.5)
        assert sampler(random.Random(0)) == 2.5
        assert FixedDuration()(random.Random(0)) == 1.0

    def test_exponential_duration_has_requested_mean(self):
        sampler = ExponentialDuration(mean=3.0)
        rng = random.Random(1)
        draws = [sampler(rng) for _ in range(20000)]
        assert sum(draws) / len(draws) == pytest.approx(3.0, rel=0.05)

    def test_samplers_are_frozen_and_hashable(self):
        # Cache keys and the pool transport rely on the field dict.
        with pytest.raises(Exception):
            FixedDuration().seconds = 2.0
        assert hash(ExponentialDuration(1.0)) == hash(ExponentialDuration(1.0))


class TestFastCoreGoldenPins:
    """Single-shard trials must stay bit-identical to the historical
    build-list/double/sort pipeline.  Pins were captured from the
    pre-fast-core implementation and still hold on the collision
    kernel."""

    EXP_PINS = [
        # (seed, id_bits, rate, horizon, warmup) -> (txns, rate, density)
        ((1, 8, 5.0, 300.0, 0.0),
         (1462, 0.03146374829001368, 4.803748998642257)),
        ((2, 5, 4.0, 500.0, 10.0),
         (1958, 0.2093973442288049, 3.9340352010342317)),
        ((7, 3, 6.0, 200.0, 5.0),
         (1242, 0.7600644122383253, 6.342172165147807)),
    ]
    FIXED_PINS = [
        ((11, 6, 5.0, 400.0, 2.0),
         (1987, 0.14846502264720685, 4.984371369747749)),
        ((12, 6, 5.0, 400.0, 2.0),
         (1972, 0.15517241379310345, 4.95516201844978)),
    ]

    def test_exponential_duration_pins(self):
        for (seed, bits, rate, horizon, warmup), expected in self.EXP_PINS:
            mc = simulate_collision_rate(
                bits, rate, lambda rr: rr.expovariate(1.0),
                horizon=horizon, rng=random.Random(seed), warmup=warmup,
            )
            assert (mc.transactions, mc.collision_rate, mc.measured_density) == (
                expected
            )

    def test_fixed_duration_pins(self):
        for (seed, bits, rate, horizon, warmup), expected in self.FIXED_PINS:
            mc = simulate_collision_rate(
                bits, rate, FixedDuration(1.0),
                horizon=horizon, rng=random.Random(seed), warmup=warmup,
            )
            assert (mc.transactions, mc.collision_rate, mc.measured_density) == (
                expected
            )

    def test_matches_reference_pipeline_exactly(self):
        for seed in (3, 21):
            fast = simulate_collision_rate(
                6, 5.0, ExponentialDuration(1.0),
                horizon=150.0, rng=random.Random(seed), warmup=1.0,
            )
            ref = _simulate_collision_rate_reference(
                6, 5.0, ExponentialDuration(1.0),
                horizon=150.0, rng=random.Random(seed), warmup=1.0,
            )
            assert (fast.transactions, fast.collision_rate,
                    fast.measured_density) == (
                ref.transactions, ref.collision_rate, ref.measured_density
            )

    def test_seed_kwarg_matches_explicit_rng(self):
        by_seed = simulate_collision_rate(
            6, 5.0, FixedDuration(1.0), horizon=100.0, seed=13
        )
        by_rng = simulate_collision_rate(
            6, 5.0, FixedDuration(1.0), horizon=100.0, rng=random.Random(13)
        )
        assert by_seed == by_rng


class TestReplication:
    def test_validation(self):
        with pytest.raises(ValueError):
            replicate_collision_rate(
                6, 5.0, ExponentialDuration(1.0), trials=0
            )
