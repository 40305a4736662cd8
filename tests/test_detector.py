"""Photon-counting detector model: efficiency, dark counts, dead time."""

from dataclasses import replace

import numpy as np
import pytest

from jumpspec.detector import (DetectorParams, count_window,
                               fluorescence_curve)


def test_parameter_validation():
    with pytest.raises(ValueError):
        DetectorParams(epsilon=1.2)
    with pytest.raises(ValueError):
        DetectorParams(gamma_dc=-1.0)
    with pytest.raises(ValueError):
        DetectorParams(dead=20e-6, cycle=17e-6)
    assert DetectorParams(dead=2e-6, cycle=17e-6).live_fraction == (
        pytest.approx(15.0 / 17.0))


def test_count_window_requires_positive_duration():
    p = DetectorParams()
    with pytest.raises(ValueError):
        count_window([], (1.0, 1.0), p, np.random.default_rng(0))


def test_dark_counts_poisson_mean():
    p = DetectorParams(epsilon=0.0, gamma_dc=200.0)
    rng = np.random.default_rng(1)
    counts = [count_window([], (0.0, 0.01), p, rng) for _ in range(2000)]
    mean = np.mean(counts)
    assert mean == pytest.approx(2.0, abs=4 * np.sqrt(2.0 / 2000))
    assert np.var(counts) == pytest.approx(mean, rel=0.15)


def test_detected_fraction_matches_efficiency_times_live():
    p = DetectorParams(epsilon=0.3, gamma_dc=0.0, cycle=17e-6, dead=5e-6)
    rng = np.random.default_rng(2)
    emissions = np.linspace(0.0, 1.0, 20000, endpoint=False)
    n = count_window(emissions, (0.0, 1.0), p, rng)
    expect = 0.3 * (1.0 - 5.0 / 17.0)
    sigma = np.sqrt(len(emissions) * expect * (1 - expect))
    assert abs(n - len(emissions) * expect) < 4 * sigma


def test_emissions_outside_window_ignored():
    p = DetectorParams(epsilon=1.0, gamma_dc=0.0, dead=0.0)
    rng = np.random.default_rng(3)
    n = count_window([0.5, 1.5, 2.5], (1.0, 2.0), p, rng)
    assert n == 1


@pytest.mark.parametrize("times", [[0.5, 1.0, 1.002, 1.005, 1.0099, 1.01, 2.0],
                                   []])
def test_count_window_reads_any_sequence_of_times(times):
    """A list, a tuple and an array of the same times (some outside the
    window) give the same count and leave the generator in one state."""
    p = DetectorParams(epsilon=0.5, gamma_dc=300.0, dead=5e-6)
    outcomes = set()
    for emissions in (list(times), tuple(times), np.array(times, dtype=float)):
        rng = np.random.default_rng(8)
        n = count_window(emissions, (1.0, 1.01), p, rng)
        outcomes.add((n, repr(rng.bit_generator.state)))
    assert len(outcomes) == 1


def test_fluorescence_curve_recovers_decay_rate():
    gamma = 800.0
    rng = np.random.default_rng(4)
    shots = [rng.exponential(1.0 / gamma, size=1) for _ in range(4000)]
    p = DetectorParams(epsilon=0.2, gamma_dc=100.0)
    curve = fluorescence_curve(shots, bin_width=2e-4, p=p,
                               rng=np.random.default_rng(5), t_max=20e-3)
    rate = curve.rate
    # the flat tail estimates the dark rate; the background-subtracted
    # integral estimates the per-shot detection efficiency
    bg = rate[50:].mean()
    assert bg == pytest.approx(p.gamma_dc, rel=0.15)
    eps_eff = np.sum(rate - p.gamma_dc) * np.diff(curve.edges)[0]
    assert eps_eff == pytest.approx(p.epsilon * p.live_fraction, rel=0.15)


def test_fluorescence_curve_accepts_trajectories():
    from jumpspec.dynamics import Trajectory, JumpEvent
    tr = Trajectory(events=(JumpEvent(time=1e-4, label="allowed_d"),),
                    windows=(), final_level=0, final_time=1e-3)
    p = DetectorParams(epsilon=1.0, gamma_dc=0.0, dead=0.0)
    curve = fluorescence_curve([tr], bin_width=1e-4, p=p,
                               rng=np.random.default_rng(6), t_max=1e-3)
    assert curve.counts.sum() == 1


def test_scaled_returns_new_efficiency():
    p = DetectorParams(epsilon=0.18)
    q = replace(p, epsilon=0.18 * 0.79)
    assert q.epsilon == pytest.approx(0.1422)
    assert q.gamma_dc == p.gamma_dc and q.cycle == p.cycle


def test_fluorescence_curve_bins_the_latest_emission():
    """With the default t_max the latest emission sets the last edge; at
    9e-4 s the nine bins of 1e-4 s end just above it while the quotient
    rounds to 9, so the emission must land in the last bin."""
    p = DetectorParams(epsilon=1.0, gamma_dc=0.0, dead=0.0)
    curve = fluorescence_curve([np.array([9e-4])], bin_width=1e-4, p=p,
                               rng=np.random.default_rng(0))
    assert curve.counts.size == 9
    assert curve.counts[-1] == 1 and curve.counts.sum() == 1
