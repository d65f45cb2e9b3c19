"""Tests for latency models, channel plans, and the time-unit constant."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine.latency import (
    ChannelPlan,
    ConstantLatency,
    ExponentialLatency,
    GammaLatency,
    cycle_distribution,
    example15_mean,
    remark14_bound,
    remark14_valid_bound,
    time_unit_steps,
)
from repro.errors import ConfigurationError


class TestLatencyModels:
    def test_exponential_mean(self):
        assert ExponentialLatency(rate=4.0).mean == pytest.approx(0.25)

    def test_exponential_draws(self, rng):
        model = ExponentialLatency(rate=2.0)
        draws = model.draw(rng, size=100_000)
        assert float(np.mean(draws)) == pytest.approx(0.5, rel=0.02)

    def test_exponential_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            ExponentialLatency(rate=0.0)

    def test_constant_latency(self, rng):
        model = ConstantLatency(value=1.5)
        assert model.draw(rng) == 1.5
        assert (model.draw(rng, size=3) == 1.5).all()
        assert model.mean == 1.5

    def test_constant_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstantLatency(value=-1.0)

    def test_gamma_latency_mean(self, rng):
        model = GammaLatency(shape=3.0, rate=2.0)
        assert model.mean == pytest.approx(1.5)
        draws = model.draw(rng, size=100_000)
        assert float(np.mean(draws)) == pytest.approx(1.5, rel=0.02)


class TestCycleDistribution:
    def test_paper_rates_single_leader(self):
        # T3 = [max(E,E)+E] + Exp(1) + [max(E,E)+E] with rates
        # [2λ, λ, λ] + [1] + [2λ, λ, λ].
        dist = cycle_distribution(1.0)
        assert dist.rates == (2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0)

    def test_multileader_rates(self):
        dist = cycle_distribution(1.0, random_contacts=3, leader_contacts=2)
        assert dist.rates == (3.0, 2.0, 1.0, 2.0, 1.0, 1.0, 3.0, 2.0, 1.0, 2.0, 1.0)

    def test_sequential_plan_rates(self):
        dist = cycle_distribution(2.0, plan=ChannelPlan.SEQUENTIAL)
        assert dist.rates == (2.0, 2.0, 2.0, 1.0, 2.0, 2.0, 2.0)

    def test_no_channels_rejected(self):
        with pytest.raises(ConfigurationError):
            cycle_distribution(1.0, random_contacts=0, leader_contacts=0)

    def test_clock_rate_scales_waiting(self):
        fast = cycle_distribution(1.0, clock_rate=4.0)
        assert 4.0 in fast.rates


class TestTimeUnit:
    def test_reference_value_lambda_one(self):
        # The value behind Figure 1's left-most point: ~9.13 steps/unit.
        assert time_unit_steps(1.0) == pytest.approx(9.13, abs=0.05)

    def test_grows_linearly_in_inverse_rate(self):
        small = time_unit_steps(1.0)
        large = time_unit_steps(0.01)
        # 100x the expected latency -> roughly 100x the unit length.
        assert large / small == pytest.approx(100.0, rel=0.2)

    def test_monotone_in_quantile(self):
        assert time_unit_steps(1.0, quantile=0.95) > time_unit_steps(1.0, quantile=0.5)

    @pytest.mark.parametrize(
        "rate, options",
        [
            (1.0, {}),
            (0.3, {"quantile": 0.75, "random_contacts": 3, "leader_contacts": 2}),
            (2.0, {"clock_rate": 0.5, "plan": ChannelPlan.SEQUENTIAL}),
        ],
    )
    def test_cached_value_is_the_quantile(self, rate, options):
        quantile = options.pop("quantile", 0.9)
        exact = cycle_distribution(rate, **options).quantile(quantile)
        assert time_unit_steps(rate, quantile=quantile, **options) == exact
        assert time_unit_steps(rate, quantile=quantile, **options) == exact  # cache hit


def test_package_import_leaves_scipy_unloaded():
    """scipy is imported lazily, by the first CDF evaluation."""
    paths = [str(Path(__file__).resolve().parents[2] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = (
        "import sys, repro, repro.core, repro.sweep, repro.multileader\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestRemark14:
    def test_paper_bound_formula(self):
        assert remark14_bound(1.0) == pytest.approx(10.0 / 3.0)
        assert remark14_bound(0.5) == pytest.approx(10.0 / 1.5)
        # beta = min(1, lambda): large lambda is capped by the clock rate.
        assert remark14_bound(10.0) == pytest.approx(10.0 / 3.0)

    def test_erratum_paper_bound_violated(self):
        # Reproduction finding: the paper's constant does NOT bound the
        # exact quantile (inequality (12) drops the e^{-beta x} factor).
        assert time_unit_steps(1.0) > remark14_bound(1.0)

    def test_valid_markov_bound_holds(self):
        for rate in (0.1, 0.5, 1.0, 2.0):
            assert time_unit_steps(rate) < remark14_valid_bound(rate)


class TestExample15:
    def test_formula(self):
        assert example15_mean(1.0) == pytest.approx(4.0)
        assert example15_mean(0.1) == pytest.approx(31.0)

    def test_matches_sequential_single_cycle(self):
        # One tick plus three sequential channel establishments.
        lam = 0.5
        dist = cycle_distribution(lam, plan=ChannelPlan.SEQUENTIAL)
        one_cycle = 1.0 + sum(1.0 / r for r in dist.rates[:3])
        assert one_cycle == pytest.approx(example15_mean(lam))


class TestEmpiricalUnitConsistency:
    def test_multileader_contacts_shape(self, rng):
        from repro.engine.latency import empirical_time_unit

        three_two = empirical_time_unit(
            ExponentialLatency(1.0), rng, random_contacts=3, leader_contacts=2,
            samples=50_000,
        )
        exact = time_unit_steps(1.0, random_contacts=3, leader_contacts=2)
        assert three_two == pytest.approx(exact, rel=0.05)
