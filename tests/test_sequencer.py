"""Experiment protocols: spectroscopy, single-shot readout, polarization
trains, forbidden-transition scans, and the frequency-tracking loop."""

import math

import numpy as np
import pytest

from jumpspec import sequencer
from jumpspec.detector import DetectorParams
from jumpspec.dynamics import (NoiseModel, SystemState, gaussian_pi,
                               trajectory_rng, wait)
from jumpspec.sequencer import (TrackerState, dnp_prepare, echo_experiment,
                                eldor_scan, forbidden_pi, rabi_experiment,
                                ramsey_experiment, readout_pair, run_tracking,
                                single_shot_readout, spectroscopy_sweep,
                                trace_experiment, track_step)
from jumpspec.spinmodel import CavityParams, SpinParams, build_system

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def system():
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 103e3)])
    return build_system(p, CavityParams.from_hz(7.334e9, 640e3, 4.5e3))


@pytest.fixture(scope="module")
def quiet_system():
    """Same levels but no anisotropic coupling: the nuclear state is
    strictly conserved (no forbidden decay channel)."""
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 0.0)])
    return build_system(p, CavityParams.from_hz(7.334e9, 640e3, 4.5e3))


@pytest.fixture(scope="module")
def detector():
    return DetectorParams()


def test_readout_pair_ordering(system):
    down, up = readout_pair(system)
    assert system.levels[down.lower][1] == "d"
    assert system.levels[up.lower][1] == "u"
    assert down.frequency < up.frequency


def test_single_shot_readout_contrast(system, detector):
    for prep, expect in (("d", "d"), ("u", "u")):
        rng = trajectory_rng(1, 0 if prep == "d" else 1)
        level = system.level_index(0, prep)
        state = SystemState(level=level)
        rec = single_shot_readout(state, system, detector, rng, n_ro=600)
        assert rec.state_call == expect
        assert abs(rec.delta_c) > 30


def test_readout_is_qnd_without_forbidden_coupling(quiet_system, detector):
    """With no nuclear-flip channel, repeated readout always agrees."""
    rng = trajectory_rng(2, 0)
    state = SystemState(level=quiet_system.level_index(0, "d"))
    calls = [single_shot_readout(state, quiet_system, detector, rng,
                                 n_ro=120).state_call for _ in range(5)]
    assert calls == ["d"] * 5
    assert quiet_system.levels[state.level][1] == "d"


def test_spectroscopy_peak_at_addressed_line(system):
    # dark-count-free detector so the peak position is unambiguous
    quiet_det = DetectorParams(gamma_dc=0.0)
    rng = trajectory_rng(3, 0)
    state = SystemState(level=system.level_index(0, "u"))
    sp = spectroscopy_sweep(state, system, quiet_det, rng,
                            center=system.params.omega_s, span_hz=60e3,
                            step_hz=2e3, n_averages=60, t_int=1.6e-3)
    # nuclear-up spectra peak at +A/2; saturation broadens the top, so
    # locate the line by its count-weighted centroid
    centroid = np.sum(sp.delta_hz * sp.counts) / np.sum(sp.counts)
    assert centroid == pytest.approx(17.25e3, abs=3e3)
    assert sp.counts.max() >= 5 * np.median(sp.counts)


def test_trace_experiment_is_deterministic(system, detector):
    kwargs = dict(n_spectra=2, center=system.params.omega_s, span_hz=20e3,
                  step_hz=4e3, n_averages=5, t_int=1e-3)
    a = trace_experiment(system, detector, 17, **kwargs)
    b = trace_experiment(system, detector, 17, **kwargs)
    for sa, sb in zip(a.spectra, b.spectra):
        assert np.array_equal(sa.counts, sb.counts)


def test_forbidden_pi_carrier_is_shifted(system):
    seg = forbidden_pi(system, "zero_quantum")
    bare = system.transition("zero_quantum").frequency
    assert abs(seg.frequency - bare) / TWO_PI > 10e3
    assert seg.amplitude > 0 and seg.duration > 0


def test_dnp_polarizes_both_targets(system):
    for target in ("d", "u"):
        ok = 0
        for i in range(40):
            rng = trajectory_rng(4, i)
            state = SystemState(level=i % 4)
            dnp_prepare(state, target, system, rng, n_prep=2)
            ok += (system.levels[state.level][1] == target)
        assert ok / 40 >= 0.9
    with pytest.raises(ValueError):
        dnp_prepare(SystemState(level=0), "x", system, trajectory_rng(4, 0))


def test_dnp_monotone_in_pulse_number(system):
    fractions = []
    for n_prep in (1, 2, 4):
        ok = 0
        for i in range(60):
            rng = trajectory_rng(5, 100 * n_prep + i)
            state = SystemState(level=i % 4)
            dnp_prepare(state, "d", system, rng, n_prep=n_prep)
            ok += (system.levels[state.level][1] == "d")
        fractions.append(ok / 60)
    assert fractions[-1] >= fractions[0]
    assert fractions[-1] >= 0.95


def test_eldor_transfer_at_shifted_line_vanishing_at_zero_duration(system):
    """The scan sees the zero-quantum line at its drive-shifted offset;
    shrinking the pulse toward zero length removes the transfer."""
    from jumpspec.spinmodel import (ac_zeeman_frequencies, drive_filter,
                                    forbidden_rabi)
    det = DetectorParams()
    p = system.params
    amp = TWO_PI * 200e3
    zq_off = system.transition("zero_quantum").frequency - p.omega_s
    filt = drive_filter(system.cavity, zq_off)
    shifted = ac_zeeman_frequencies(p, amp * filt)[1] / TWO_PI
    omega_zd = forbidden_rabi(amp, p, system.cavity, zq_off)
    duration = math.pi / omega_zd
    kwargs = dict(deltas_hz=[shifted],
                  amplitude=amp, prepare="u", n_prep=2,
                  n_shots=24, n_ro=150)
    driven = eldor_scan(system, det, 6, duration=duration, **kwargs)
    undriven = eldor_scan(system, det, 6, duration=1e-7, edge=4e-8,
                          **kwargs)
    assert driven[0] > 0.7
    assert undriven[0] < 0.35
    assert driven[0] - undriven[0] > 0.4


def test_eldor_and_readout_draw_the_t2_star_detuning(system, detector):
    """A per-shot static detuning (t2*) reaches the ELDOR pulse and every
    readout cycle; without t2* nothing is drawn and the scan is the
    noise-free one."""
    kwargs = dict(deltas_hz=[-20e3, 0.0], amplitude=TWO_PI * 200e3,
                  duration=20e-6, prepare="u", n_prep=2, n_shots=6, n_ro=60)
    clean = eldor_scan(system, detector, 34, **kwargs)
    assert clean.tolist() == pytest.approx([0.0, 1.0 / 3.0])
    # t2* = 1 us: a Lorentzian detuning of 160 kHz HWHM
    noisy = eldor_scan(system, detector, 34, noise=NoiseModel(t2_star=1e-6),
                       **kwargs)
    assert noisy.tolist() != pytest.approx(clean.tolist())

    def readout(noise):
        rng = trajectory_rng(39, 0)
        state = SystemState(level=system.level_index(0, "d"))
        rec = single_shot_readout(state, system, detector, rng, n_ro=30,
                                  noise=noise)
        return rec.c_down, rec.c_up, _next_draw(rng)

    assert readout(NoiseModel()) != readout(NoiseModel(t2_star=1e-6))


def test_rabi_zero_duration_is_no_pulse(system):
    """A zero-length drive leaves the lower level dark (no dark counts
    here); a pi drive of the same amplitude lights it up."""
    from jumpspec.spinmodel import drive_filter
    det = DetectorParams(gamma_dc=0.0)
    trans = system.transition("allowed_d")
    amp = TWO_PI * 50e3
    omega = amp * 2.0 * trans.matrix_element * drive_filter(
        system.cavity, trans.frequency - system.cavity.omega_0)
    signal = rabi_experiment(system, det, 4, transition="allowed_d",
                             amplitude=amp, durations=[0.0, math.pi / omega],
                             n_averages=100)
    assert signal[0] == 0.0
    assert signal[1] > 0.05


def test_tracker_null_input_gives_zero_corrections():
    tracker = TrackerState(p_gain=10.0, i_gain=1e-3)
    rec = run_tracking(tracker, slope=50.0, drift=0.0, n_iter=300,
                       t_iter=0.05)
    assert np.all(rec.corrections == 0.0)
    assert np.all(rec.detunings == 0.0)


def test_tracker_cancels_linear_drift():
    tracker = TrackerState(p_gain=10.0, i_gain=1e-3)
    rate = TWO_PI * 1e3 / 60.0      # 1 kHz per minute
    rec = run_tracking(tracker, slope=50.0, drift=lambda t: rate * t,
                       n_iter=3000, t_iter=0.05)
    settled = rec.detunings[750:]
    rms = np.sqrt(np.mean(settled ** 2)) / TWO_PI
    assert rms < 2e3


def test_track_step_leaky_integrator():
    tracker = TrackerState(p_gain=2.0, i_gain=0.5, f=10.0)
    t1, corr1 = track_step(tracker, 1.0, 0.0)
    assert t1.y == pytest.approx(1.0)
    assert corr1 == pytest.approx(2.0 * 1.0 + 0.5 * 1.0)
    t2, _ = track_step(t1, 0.0, 0.0)
    assert t2.y == pytest.approx(0.9)
    with pytest.raises(ValueError):
        TrackerState(p_gain=1.0, i_gain=0.0, f=0.5)


def test_readout_requires_cycles(system, detector):
    with pytest.raises(ValueError):
        single_shot_readout(SystemState(level=0), system, detector,
                            trajectory_rng(7, 0), n_ro=0)


# ---------------------------------------------------------------------------
# compiled schedules: skip rule, random streams, names the benchmark traces

def test_pulse_skips_far_and_ambiguous_carriers(system):
    fwhm = 80e-6
    skipped = wait(2.0 * fwhm)
    far = system.params.omega_s + TWO_PI * 300e3
    cutoff = TWO_PI * sequencer.SKIP_CUTOFF_SCALE / fwhm
    assert min(abs(t.frequency - far) for t in system.transitions) > cutoff
    assert sequencer._pulse(system, far, fwhm) == skipped
    line = system.transition("allowed_d").frequency
    assert sequencer._pulse(system, line, fwhm) == gaussian_pi(line, fwhm=fwhm)
    # a 1.5 kHz splitting puts the midpoint within 1 kHz of both lines
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(1.5e3, 0.0)])
    close = build_system(p, CavityParams.from_hz(7.334e9, 640e3, 4.5e3))
    mid = 0.5 * (close.transition("allowed_d").frequency
                 + close.transition("allowed_u").frequency)
    assert sequencer._pulse(close, mid, fwhm) == skipped


def _next_draw(rng):
    """The stream position after a protocol, as one further draw."""
    return int(rng.integers(2 ** 32))


def _pinned_sweep(system, det):
    rng = trajectory_rng(31, 0)
    state = SystemState(level=system.level_index(0, "u"))
    sp = spectroscopy_sweep(state, system, det, rng,
                            center=system.params.omega_s, span_hz=60e3,
                            step_hz=6e3, n_averages=10, t_int=2e-3)
    return sp.counts.tolist(), state.level, state.time, _next_draw(rng)


def _pinned_readout(system, det):
    rng = trajectory_rng(32, 0)
    state = SystemState(level=system.level_index(0, "d"))
    rec = single_shot_readout(state, system, det, rng, n_ro=60)
    return rec.c_down, rec.c_up, rec.duration, state.level, _next_draw(rng)


def _pinned_dnp(system, det):
    out = []
    for target in ("d", "u"):
        rng = trajectory_rng(33, 0)
        state = SystemState(level=1)
        dnp_prepare(state, target, system, rng, n_prep=2)
        out.append((state.level, state.time, _next_draw(rng)))
    return out


def _pinned_eldor(system, det):
    return eldor_scan(system, det, 34, deltas_hz=[-20e3, 0.0],
                      amplitude=TWO_PI * 200e3, duration=20e-6, prepare="u",
                      n_prep=2, n_shots=4, n_ro=60).tolist()


def _pinned_rabi(system, det):
    return rabi_experiment(system, det, 35, transition="allowed_d",
                           amplitude=TWO_PI * 50e3,
                           durations=[0.0, 5e-6, 10e-6],
                           n_averages=20).tolist()


def _pinned_ramsey(system, det):
    return ramsey_experiment(system, det, 36, transition="allowed_d",
                             delays=[0.0, 50e-6, 100e-6], n_averages=20,
                             noise=NoiseModel(t2_star=100e-6)).tolist()


def _pinned_echo(system, det):
    return echo_experiment(system, det, 37, transition="allowed_d",
                           delays=[0.0, 50e-6, 100e-6], n_averages=20,
                           noise=NoiseModel(t2=200e-6)).tolist()


# Outputs recorded before the protocols were compiled into schedules: any
# change in the order or number of random draws shows up here. Times are
# sums of segment lengths and are compared to rounding.
PINNED = {
    _pinned_sweep: ([2.0, 5.0, 2.0, 1.0, 3.0, 3.0, 1.0, 8.0, 3.0, 3.0, 2.0],
                    0, pytest.approx(0.2464), 2067955936),
    _pinned_readout: (33, 23, pytest.approx(0.3312), 1, 2505740611),
    _pinned_dnp: [(1, pytest.approx(0.007675515629420796), 3455283106),
                  (0, pytest.approx(0.007675515629420796), 3694404596)],
    _pinned_eldor: [0.0, 0.5],
    _pinned_rabi: [0.25, 0.3, 0.35],
    _pinned_ramsey: [0.3, 0.4, 0.3],
    _pinned_echo: [0.4, 0.2, 0.65],
}


@pytest.mark.parametrize("run", list(PINNED),
                         ids=lambda f: f.__name__.removeprefix("_pinned_"))
def test_protocol_random_stream_is_pinned(system, detector, run):
    assert run(system, detector) == PINNED[run]


def test_every_segment_and_window_goes_through_the_traced_names(
        system, detector, monkeypatch):
    """The benchmark traces a run by replacing ``sequencer.apply_pulse``
    and ``sequencer.count_window``; a protocol that reached the engine or
    the detector another way would drop out of its counts unseen."""
    calls = {"apply_pulse": 0, "count_window": 0, "clicks": 0}
    apply_pulse, count_window = sequencer.apply_pulse, sequencer.count_window

    def counted_pulse(*args, **kwargs):
        calls["apply_pulse"] += 1
        return apply_pulse(*args, **kwargs)

    def counted_window(*args, **kwargs):
        clicks = count_window(*args, **kwargs)
        calls["count_window"] += 1
        calls["clicks"] += clicks
        return clicks

    monkeypatch.setattr(sequencer, "apply_pulse", counted_pulse)
    monkeypatch.setattr(sequencer, "count_window", counted_window)
    rng = trajectory_rng(38, 0)
    state = SystemState(level=system.level_index(0, "u"))
    sp = spectroscopy_sweep(state, system, detector, rng,
                            center=system.params.omega_s, span_hz=40e3,
                            step_hz=8e3, n_averages=3, t_int=1e-3)
    n_windows = sp.delta_hz.size * sp.n_averages
    assert calls == {"apply_pulse": 3 * n_windows, "count_window": n_windows,
                     "clicks": sp.counts.sum()}
    calls.update(apply_pulse=0, count_window=0, clicks=0)
    rec = single_shot_readout(state, system, detector, rng, n_ro=7)
    assert calls == {"apply_pulse": 4 * 7, "count_window": 2 * 7,
                     "clicks": rec.c_down + rec.c_up}
