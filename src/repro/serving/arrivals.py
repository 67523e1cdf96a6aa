"""Open-loop arrival processes at request scale, generated lazily.

Production request rates mean millions of arrivals per run, so every
process here is a generator of absolute arrival times bounded by
``duration_s`` — O(1) memory however long the run.  (DAG job streams
are short, so :mod:`repro.scenarios.generate` draws them eagerly.)
Each process draws from an explicit :class:`numpy.random.Generator`
one scalar at a time, so the same seed reproduces the same stream and
consuming k arrivals advances the generator by a deterministic number
of draws.

The non-homogeneous processes (diurnal, flash crowd) use Lewis-Shedler
thinning: candidates are drawn at the peak rate and accepted with
probability ``rate(t) / peak``, which keeps the output an exact
non-homogeneous Poisson process without inverting the rate integral.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["poisson_process", "diurnal_process", "flash_crowd_process"]


def poisson_process(
    rng: np.random.Generator, rate_rps: float, duration_s: float
):
    """Homogeneous Poisson arrivals at ``rate_rps`` over ``duration_s``.

    Yields absolute times in ``(0, duration_s)``; the first arrival
    falls after the first exponential gap (a cold service receives its
    first request at a random instant, unlike the eager job-stream
    convention of a submit at t=0).
    """
    if rate_rps <= 0:
        raise ValueError("request rate must be positive")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    scale = 1.0 / rate_rps
    t = rng.exponential(scale=scale)
    while t < duration_s:
        yield t
        t += rng.exponential(scale=scale)


def _thinned(rng, peak_rps: float, duration_s: float, rate_fn):
    """Lewis-Shedler thinning against the constant majorant ``peak_rps``."""
    scale = 1.0 / peak_rps
    t = rng.exponential(scale=scale)
    while t < duration_s:
        if rng.uniform() * peak_rps < rate_fn(t):
            yield t
        t += rng.exponential(scale=scale)


def diurnal_process(
    rng: np.random.Generator,
    base_rps: float,
    peak_rps: float,
    period_s: float,
    duration_s: float,
):
    """A sinusoidal day/night cycle between ``base_rps`` and ``peak_rps``.

    The instantaneous rate is ``base + (peak - base) * sin²(πt/period)``:
    the run starts at the trough, crests at half a period, and returns —
    one full cycle per ``period_s``.
    """
    if base_rps <= 0 or peak_rps < base_rps:
        raise ValueError("need 0 < base_rps <= peak_rps")
    if period_s <= 0 or duration_s <= 0:
        raise ValueError("period and duration must be positive")
    swing = peak_rps - base_rps

    def rate(t: float) -> float:
        return base_rps + swing * math.sin(math.pi * t / period_s) ** 2

    return _thinned(rng, peak_rps, duration_s, rate)


def flash_crowd_process(
    rng: np.random.Generator,
    base_rps: float,
    spike_rps: float,
    spike_start_s: float,
    spike_len_s: float,
    duration_s: float,
):
    """Steady ``base_rps`` with one rectangular burst at ``spike_rps``.

    The flash-crowd shape: traffic jumps to ``spike_rps`` for
    ``spike_len_s`` seconds starting at ``spike_start_s``, then drops
    back.  The burst is where open-loop pressure meets depleted shaper
    budgets — the SLO-violation experiment's trigger.
    """
    if base_rps <= 0 or spike_rps < base_rps:
        raise ValueError("need 0 < base_rps <= spike_rps")
    if spike_start_s < 0 or spike_len_s <= 0 or duration_s <= 0:
        raise ValueError(
            "spike start cannot be negative; lengths must be positive"
        )
    spike_end_s = spike_start_s + spike_len_s

    def rate(t: float) -> float:
        return spike_rps if spike_start_s <= t < spike_end_s else base_rps

    return _thinned(rng, spike_rps, duration_s, rate)
