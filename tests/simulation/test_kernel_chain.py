"""Bitwise oracle for the vectorized wake-delay chain of the trace kernel.

An immediate single-state sequence resolves its idle gaps through
``_immediate_chain``: the vectorized resolver for long risky chains, the
scalar loop otherwise and as its fallback.  Every gap quantity the kernel
derives from the chain — carried delay, actual idle time, survival, state
reached and wake-up paid — must be byte-identical to the scalar loop's, and
to the general multi-state resolver run on the same one-state ladder.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power.platform import xeon_power_model
from repro.power.states import C6_S3
from repro.simulation.kernel import (
    CHAIN_VECTOR_MIN_RISKY,
    TraceKernel,
    _chain_loop,
    _chain_vectorized,
    _immediate_chain,
    _resolve_gaps,
)
from repro.workloads.generator import generate_jobs
from repro.workloads.spec import google_workload


def _filled(num_gaps: int, w_max: float) -> np.ndarray:
    offset = np.full(num_gaps, w_max)
    offset[0] = 0.0
    return offset


def _gap_state(idle0: np.ndarray, w_max: float, offset: np.ndarray) -> tuple:
    """offset/idle/survived/reached/wake_latency, derived as the kernel does."""
    survived = offset - idle0 <= 0.0
    return (
        offset,
        idle0 - offset,
        survived,
        np.where(survived, 0, -1),
        np.where(survived, w_max, 0.0),
    )


def _loop_offset(idle0: np.ndarray, w_max: float) -> np.ndarray:
    offset = _filled(idle0.size, w_max)
    _chain_loop(idle0, np.flatnonzero(idle0 < w_max), offset)
    return offset


def _resolver_offset(idle0: np.ndarray, w_max: float) -> np.ndarray:
    offset = _filled(idle0.size, w_max)
    _immediate_chain(idle0, w_max, offset)
    return offset


def assert_matches_oracle(idle0: np.ndarray, w_max: float) -> None:
    """The resolver is byte-identical to the loop and the general resolver."""
    resolved = _gap_state(idle0, w_max, _resolver_offset(idle0, w_max))
    looped = _gap_state(idle0, w_max, _loop_offset(idle0, w_max))
    general = _resolve_gaps(idle0, np.array([0.0]), np.array([w_max]))
    for new, loop, ladder in zip(resolved, looped, general, strict=True):
        assert new.dtype == loop.dtype == ladder.dtype
        assert new.tobytes() == loop.tobytes() == ladder.tobytes()


@st.composite
def chain_inputs(draw):
    """No-wake idle gaps and a wake-up long enough to make many risky."""
    size = draw(
        st.one_of(
            st.integers(min_value=1, max_value=2_000),
            st.sampled_from(
                [1, 32, 33, CHAIN_VECTOR_MIN_RISKY, CHAIN_VECTOR_MIN_RISKY + 1]
            ),
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    w_max = draw(st.sampled_from([1e-3, 0.05, 0.3, 1.0]))
    mean_gap = w_max * draw(st.sampled_from([0.05, 0.2, 0.5, 1.0, 3.0]))
    rng = np.random.default_rng(seed)
    idle0 = rng.exponential(mean_gap, size=size)
    if draw(st.booleans()):
        idle0 = np.round(idle0, 3)  # timestamps on a 1 ms grid
    if draw(st.booleans()):
        idle0[rng.random(size) < 0.2] = 0.0
    return idle0, w_max


class TestChainOracle:
    @given(case=chain_inputs())
    @settings(max_examples=300, deadline=None)
    def test_resolver_is_bitwise_the_scalar_chain(self, case):
        idle0, w_max = case
        assert_matches_oracle(idle0, w_max)

    @given(
        exponent=st.integers(min_value=-3, max_value=1),
        k_exponent=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_boundary_takes_the_fallback(self, exponent, k_exponent, extra):
        # Constant gaps of w/k sum to exactly w after k of them: the fold
        # reaches 0 (the gap survives) while the prediction calls it closed.
        w_max = 2.0**exponent
        k = 2**k_exponent
        size = max(CHAIN_VECTOR_MIN_RISKY + 1, k + 2) + extra
        idle0 = np.full(size, w_max / k)
        risky = np.flatnonzero(idle0 < w_max)
        assert risky.size > CHAIN_VECTOR_MIN_RISKY
        untouched = _filled(size, w_max)
        assert not _chain_vectorized(idle0, risky, w_max, untouched)
        assert untouched.tobytes() == _filled(size, w_max).tobytes()
        assert_matches_oracle(idle0, w_max)

    @pytest.mark.parametrize(
        "size", [1, 2, 32, 33, CHAIN_VECTOR_MIN_RISKY, CHAIN_VECTOR_MIN_RISKY + 1]
    )
    def test_zero_length_gaps(self, size):
        assert_matches_oracle(np.zeros(size), 0.5)

    @pytest.mark.parametrize("seed", range(4))
    def test_long_chains_resolve_vectorized(self, seed):
        # A 1 s wake-up on a Google-like trace makes every gap risky; the
        # vectorized resolver must resolve it without the fallback.
        xeon = xeon_power_model()
        assert xeon.immediate_sleep_sequence(C6_S3)[0].wake_up_latency == 1.0
        jobs = generate_jobs(
            google_workload(empirical=False),
            num_jobs=3_000,
            utilization=0.3,
            seed=seed,
        )
        idle0 = TraceKernel(jobs, xeon)._structure(1.0)[4]
        risky = np.flatnonzero(idle0 < 1.0)
        assert risky.size == idle0.size > CHAIN_VECTOR_MIN_RISKY
        offset = _filled(idle0.size, 1.0)
        assert _chain_vectorized(idle0, risky, 1.0, offset)
        assert offset.tobytes() == _loop_offset(idle0, 1.0).tobytes()
        assert_matches_oracle(idle0, 1.0)
