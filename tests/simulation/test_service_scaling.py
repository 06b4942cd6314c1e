"""Tests for service-time/frequency scaling rules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.simulation.service_scaling import (
    ServiceScaling,
    cpu_bound,
    memory_bound,
    partially_bound,
)


class TestServiceScaling:
    def test_cpu_bound_time_factor(self):
        scaling = cpu_bound()
        assert scaling.time_factor(0.5) == pytest.approx(2.0)
        assert scaling.time_factor(1.0) == pytest.approx(1.0)

    def test_memory_bound_is_frequency_insensitive(self):
        scaling = memory_bound()
        assert scaling.time_factor(0.2) == 1.0
        assert scaling.time_factor(1.0) == 1.0

    def test_partial_scaling(self):
        scaling = partially_bound(0.5)
        assert scaling.time_factor(0.25) == pytest.approx(2.0)
        np.testing.assert_allclose(
            scaling.time_factor(np.array([0.25, 1.0])), [2.0, 1.0], rtol=1e-15
        )

    def test_effective_service_rate(self):
        scaling = cpu_bound()
        assert scaling.effective_service_rate(10.0, 0.5) == pytest.approx(5.0)

    def test_effective_rate_memory_bound(self):
        assert memory_bound().effective_service_rate(10.0, 0.2) == pytest.approx(10.0)

    def test_minimum_stable_frequency_cpu_bound(self):
        assert cpu_bound().minimum_stable_frequency(0.4) == pytest.approx(0.4)

    def test_minimum_stable_frequency_partial(self):
        assert partially_bound(0.5).minimum_stable_frequency(0.25) == pytest.approx(
            0.0625
        )

    def test_minimum_stable_frequency_memory_bound(self):
        assert memory_bound().minimum_stable_frequency(0.9) == 0.0

    def test_flags(self):
        assert cpu_bound().is_cpu_bound
        assert not cpu_bound().is_memory_bound
        assert memory_bound().is_memory_bound
        assert not partially_bound(0.5).is_cpu_bound

    def test_rejects_bad_beta(self):
        with pytest.raises(ConfigurationError):
            ServiceScaling(beta=1.5)
        with pytest.raises(ConfigurationError):
            ServiceScaling(beta=-0.1)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ConfigurationError):
            cpu_bound().time_factor(0.0)
        with pytest.raises(ConfigurationError):
            cpu_bound().time_factor(1.5)
        for axis in ([0.5, 0.0], [0.5, np.nan]):
            with pytest.raises(ConfigurationError):
                memory_bound().time_factor(np.array(axis))

    def test_rejects_bad_service_rate(self):
        with pytest.raises(ConfigurationError):
            cpu_bound().effective_service_rate(0.0, 0.5)

    def test_rejects_bad_utilization(self):
        with pytest.raises(ConfigurationError):
            cpu_bound().minimum_stable_frequency(1.0)
