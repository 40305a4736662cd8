"""Phenomenological single-microwave-photon detector.

Converts photon-emission events into windowed click counts with a
detection efficiency, Poisson dark counts, and a cyclic dead time. The
dead time is modeled as a uniform random phase of the measurement cycle
per emission: a photon arriving during the down-time fraction is lost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DetectorParams:
    """End-to-end efficiency, dark-count rate (1/s), cycle and dead time (s).

    ``epsilon`` is the end-to-end spin efficiency (it already includes
    resonator internal loss); an intrinsic detector efficiency can be
    folded in by multiplication before construction.
    """

    epsilon: float = 0.18
    gamma_dc: float = 150.0
    cycle: float = 17e-6
    dead: float = 2e-6

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.gamma_dc < 0:
            raise ValueError("dark-count rate must be non-negative")
        if not 0.0 <= self.dead < self.cycle:
            raise ValueError("dead time must be shorter than the cycle")

    @property
    def live_fraction(self) -> float:
        return 1.0 - self.dead / self.cycle


def _emission_times(shot) -> np.ndarray:
    if hasattr(shot, "emission_times"):
        return shot.emission_times()
    return np.asarray(shot, dtype=float)


def count_window(emissions, window, p: DetectorParams, rng) -> int:
    """Clicks in [t0, t1): detected emissions plus Poisson dark counts.

    ``emissions`` is an iterable of emission times (s), read as given.
    """
    t0, t1 = window
    if t1 <= t0:
        raise ValueError("window must have positive duration")
    n = 0
    for t in emissions:
        if t0 <= t < t1:
            phase = rng.random() * p.cycle
            if phase >= p.dead and rng.random() < p.epsilon:
                n += 1
    return n + int(rng.poisson(p.gamma_dc * (t1 - t0)))


@dataclass(frozen=True)
class FluorescenceCurve:
    """Binned click counts summed over shots."""

    edges: np.ndarray          # bin edges (s), len n_bins+1
    counts: np.ndarray         # total clicks per bin over all shots
    n_shots: int

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def rate(self) -> np.ndarray:
        """Mean click rate per shot (counts/s)."""
        width = np.diff(self.edges)
        return self.counts / (self.n_shots * width)


def fluorescence_curve(ensemble, bin_width: float, p: DetectorParams, rng,
                       t_max: float | None = None) -> FluorescenceCurve:
    """Histogram detected emissions over an ensemble of shots.

    The background-subtracted integral of ``rate`` estimates the
    detection efficiency per emission; the flat offset estimates the
    dark-count rate.
    """
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    shots = [_emission_times(s) for s in ensemble]
    if t_max is None:
        t_max = max((s.max() for s in shots if s.size), default=bin_width)
    n_bins = max(1, int(np.ceil(t_max / bin_width)))
    edges = np.arange(n_bins + 1) * bin_width
    counts = np.zeros(n_bins)
    for times in shots:
        for t in times:
            if t >= edges[-1]:
                continue
            phase = rng.random() * p.cycle
            if phase >= p.dead and rng.random() < p.epsilon:
                # t / bin_width can round up to n_bins for t just below
                # the last edge
                counts[min(int(t / bin_width), n_bins - 1)] += 1
    counts += rng.poisson(len(shots) * p.gamma_dc * bin_width, size=n_bins)
    return FluorescenceCurve(edges=edges, counts=counts, n_shots=len(shots))
