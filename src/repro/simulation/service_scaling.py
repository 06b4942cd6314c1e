"""Service-time dependency on CPU frequency.

Section 3.2 and engineering lesson (6) of the paper: for CPU-bound jobs the
service rate scales linearly with the DVFS factor ``f`` (service times scale
as ``1/f``); for memory-bound jobs the service time is insensitive to ``f``;
real applications fall in between.  Figure 4 sweeps service rates varying as
``mu * f``, ``mu * f**0.5``, ``mu * f**0.2`` and ``mu`` (memory-bound).

:class:`ServiceScaling` captures this with a single exponent ``beta``:

    service_time(f) = nominal_demand / f**beta

``beta = 1`` is CPU-bound, ``beta = 0`` memory-bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class ServiceScaling:
    """How a job's service time depends on the DVFS frequency factor.

    Parameters
    ----------
    beta:
        Exponent of the frequency dependence: the effective service rate at
        scaling factor ``f`` is ``mu * f**beta``, so a job with nominal
        (full-frequency) demand ``d`` takes ``d / f**beta`` seconds.
    """

    beta: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigurationError(
                f"service scaling exponent beta must lie in [0, 1], got {self.beta}"
            )

    def time_factor(self, frequency: float | np.ndarray) -> float | np.ndarray:
        """Multiplier applied to nominal demands at the given *frequency*.

        An array of frequencies gives the factors elementwise (memory-bound
        scaling stays the scalar 1.0, which broadcasts).
        """
        is_array = isinstance(frequency, np.ndarray)
        if is_array:
            valid = bool(np.all((frequency > 0.0) & (frequency <= 1.0)))
        else:
            valid = 0.0 < frequency <= 1.0
        if not valid:
            raise ConfigurationError(
                f"frequency must lie in (0, 1] for service scaling, got {frequency}"
            )
        if self.beta == 0.0:
            return 1.0
        factor = frequency ** (-self.beta)
        return factor if is_array else float(factor)

    def effective_service_rate(self, service_rate: float, frequency: float) -> float:
        """Effective service rate ``mu * f**beta`` at the given frequency."""
        if service_rate <= 0:
            raise ConfigurationError(
                f"service rate must be positive, got {service_rate}"
            )
        return service_rate / self.time_factor(frequency)

    def minimum_stable_frequency(self, utilization: float) -> float:
        """Smallest frequency keeping the queue stable at *utilization*.

        Solves ``utilization / f**beta < 1``; for memory-bound jobs
        (``beta = 0``) stability does not depend on frequency, so the result
        is 0 when the load itself is below 1 and 1 otherwise.
        """
        if not 0.0 <= utilization < 1.0:
            raise ConfigurationError(
                f"utilization must lie in [0, 1), got {utilization}"
            )
        if self.beta == 0.0:
            return 0.0
        return float(utilization ** (1.0 / self.beta))

    @property
    def is_cpu_bound(self) -> bool:
        """Whether service time scales fully with frequency (``beta == 1``)."""
        return self.beta == 1.0

    @property
    def is_memory_bound(self) -> bool:
        """Whether service time ignores frequency entirely (``beta == 0``)."""
        return self.beta == 0.0


def cpu_bound() -> ServiceScaling:
    """Fully CPU-bound jobs: service time scales as ``1/f`` (the paper's default)."""
    return ServiceScaling(beta=1.0)


def memory_bound() -> ServiceScaling:
    """Memory-bound jobs: service time independent of frequency."""
    return ServiceScaling(beta=0.0)


def partially_bound(beta: float) -> ServiceScaling:
    """Jobs whose service rate scales as ``f**beta`` for ``0 <= beta <= 1``."""
    return ServiceScaling(beta=beta)
