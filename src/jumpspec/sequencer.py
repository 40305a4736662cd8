"""Experiment protocols over the jump engine and the detector.

Spectroscopy sweeps and long traces, interleaved single-shot nuclear
readout, ELDOR-style forbidden-transition scans, nuclear polarization by
forbidden pulse trains, Rabi/Ramsey/echo characterization, and the
closed-loop frequency tracker.

Each protocol compiles its schedule (a tuple of segments) once per call
and runs every shot through :func:`_run`. Compiling applies the skip
rule: a pulse with no transition within its bandwidth (excitation below
1e-6) becomes an equal-length wait, which keeps long sweeps affordable
without touching the physics near resonance. A spectroscopy sweep's
offsets and schedule are memoised on the system, keyed by the sweep's
carriers, pulse width and window, because traces call the sweep once
per repetition; every ``Spectrum`` still gets its own offsets array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics as dyn
from .detector import DetectorParams, count_window
from .dynamics import (NO_NOISE, AmbiguousDriveError, NoiseModel,
                       PulseSegment, SystemState,
                       apply_pulse, gaussian_pi, trajectory_rng, wait)
from .spinmodel import SpinSystem, Transition, drive_filter

TWO_PI = 2.0 * math.pi

#: detuning beyond which a Gaussian pulse of FWHM T no longer excites
#: (numerically, the inversion profile is < 1e-6 past ~1/T)
SKIP_CUTOFF_SCALE = 1.0

#: wait between a spectroscopy pulse and its count window (s)
BLANKING = 80e-6


@dataclass(frozen=True)
class ExperimentConfig:
    """Named protocol with its keyword parameters (CLI dispatch unit)."""

    protocol: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Spectrum:
    delta_hz: np.ndarray       # sweep offsets from the center (Hz)
    counts: np.ndarray         # total clicks per point over all averages
    center: float              # carrier at delta=0 (rad/s)
    n_averages: int
    start_time: float          # trajectory wall-clock at sweep start (s)

    @property
    def mean_counts(self) -> np.ndarray:
        return self.counts / self.n_averages


@dataclass(frozen=True)
class Trace:
    spectra: tuple[Spectrum, ...]


@dataclass(frozen=True)
class CountRecord:
    c_down: int
    c_up: int
    n_ro: int
    duration: float

    @property
    def state_call(self) -> str:
        return "d" if self.c_down > self.c_up else "u"

    @property
    def delta_c(self) -> int:
        return self.c_down - self.c_up


def _pulse(sys: SpinSystem, carrier: float, fwhm: float) -> PulseSegment:
    """Gaussian pi pulse at ``carrier``, or a wait of the same length.

    The wait replaces a pulse with no transition within its bandwidth,
    and one whose carrier the engine cannot address unambiguously (two
    lines within its ambiguity band): such a pulse has no resolvable
    target, and in a sweep it contributes only its wall time.
    """
    pulse = gaussian_pi(carrier, fwhm=fwhm)
    try:
        nearest = dyn._address(pulse, sys)
    except AmbiguousDriveError:
        return wait(2.0 * fwhm)
    if abs(nearest.frequency - carrier) > TWO_PI * SKIP_CUTOFF_SCALE / fwhm:
        return wait(2.0 * fwhm)
    return pulse


def _run(state: SystemState, schedule, sys: SpinSystem, det: DetectorParams,
         rng, noise: NoiseModel) -> list[int]:
    """One pass over ``schedule``; returns the clicks of each detect window,
    counted as it closes so the random numbers are drawn in schedule order."""
    counts = []
    for seg in schedule:
        t0 = state.time
        events = apply_pulse(state, seg, sys, rng, noise)
        if seg.kind == "detect_window":
            emissions = [e.time for e in events]
            counts.append(count_window(emissions, (t0, t0 + seg.duration),
                                       det, rng))
    return counts


def spectroscopy_sweep(state: SystemState, sys: SpinSystem,
                       det: DetectorParams, rng, *, center: float,
                       span_hz: float = 100e3, step_hz: float = 2e3,
                       n_averages: int = 200, pulse_fwhm: float = 80e-6,
                       t_int: float = 2.0e-3,
                       noise: NoiseModel = NO_NOISE) -> Spectrum:
    """Pulsed spectrum around ``center``: pi pulse, blank, count window.

    Sweeps are repeated ``n_averages`` times in experiment order (full
    frequency scan per repetition), so slow state changes show up as
    averaged peak weights. The state persists and is mutated.
    """
    deltas, schedule = _sweep_schedule(sys, center, span_hz, step_hz,
                                       pulse_fwhm, t_int)
    counts = np.zeros(deltas.size)
    start = state.time
    for _ in range(n_averages):
        if noise.t2_star:
            state.shot_offset = noise.shot_offset(rng)
        counts += _run(state, schedule, sys, det, rng, noise)
    return Spectrum(delta_hz=deltas.copy(), counts=counts, center=center,
                    n_averages=n_averages, start_time=start)


def _sweep_schedule(sys: SpinSystem, center: float, span_hz: float,
                    step_hz: float, pulse_fwhm: float, t_int: float):
    """The system's memoised ``(deltas, schedule)`` of a sweep: per
    offset, the pi pulse (or its skip wait), the blanking and the window."""
    key = (spectroscopy_sweep, center, span_hz, step_hz, pulse_fwhm, t_int)
    compiled = sys._memo.get(key)
    if compiled is None:
        deltas = np.arange(-span_hz / 2.0, span_hz / 2.0 + step_hz / 2.0,
                           step_hz)
        blank, window = wait(BLANKING), dyn.detect(t_int)
        schedule = tuple(seg for d_hz in deltas
                         for seg in (_pulse(sys, center + TWO_PI * d_hz,
                                            pulse_fwhm), blank, window))
        compiled = sys._memo[key] = (deltas, schedule)
    return compiled


def trace_experiment(sys: SpinSystem, det: DetectorParams, seed: int,
                     n_spectra: int, *, initial_level: int = 0,
                     noise: NoiseModel = NO_NOISE, **sweep_kwargs) -> Trace:
    """Consecutive spectra sharing one trajectory; nuclear flips during
    the acquisition appear as telegraphic peak-position changes."""
    rng = trajectory_rng(seed, 0)
    state = SystemState(level=initial_level)
    spectra = [spectroscopy_sweep(state, sys, det, rng, noise=noise,
                                  **sweep_kwargs)
               for _ in range(n_spectra)]
    return Trace(spectra=tuple(spectra))


def readout_pair(sys: SpinSystem) -> tuple[Transition, Transition]:
    """The two electron-spin-resonance lines, (nuclear-down, nuclear-up)."""
    allowed = sys.allowed_transitions()
    if len(allowed) != 2:
        raise ValueError("interleaved readout needs exactly two allowed lines")
    down = next(t for t in allowed if sys.levels[t.lower][1] == "d")
    up = next(t for t in allowed if t is not down)
    return down, up


def single_shot_readout(state: SystemState, sys: SpinSystem,
                        det: DetectorParams, rng, *, n_ro: int = 1000,
                        t_d: float = 2.6e-3, pulse_fwhm: float = 80e-6,
                        noise: NoiseModel = NO_NOISE) -> CountRecord:
    """Interleaved pi pulses on both allowed lines, counts per line.

    Each of the ``n_ro`` cycles pulses the nuclear-down line, counts for
    ``t_d``, then the nuclear-up line, and counts again; only the line
    matching the current nuclear state excites, so the click imbalance
    encodes the state. Under ``noise.t2_star`` each cycle draws its own
    static detuning.
    """
    if n_ro < 1:
        raise ValueError("need at least one readout cycle")
    window = dyn.detect(t_d)
    cycle = tuple(seg for line in readout_pair(sys)
                  for seg in (_pulse(sys, line.frequency, pulse_fwhm), window))
    t_start = state.time
    c_down = c_up = 0
    for _ in range(n_ro):
        if noise.t2_star:
            state.shot_offset = noise.shot_offset(rng)
        down, up = _run(state, cycle, sys, det, rng, noise)
        c_down += down
        c_up += up
    return CountRecord(c_down=c_down, c_up=c_up, n_ro=n_ro,
                       duration=state.time - t_start)


def forbidden_pi(sys: SpinSystem, branch: str, *,
                 omega_eff: float = TWO_PI * 15e3,
                 edge: float = 5e-6) -> PulseSegment:
    """Flattop pi pulse on a forbidden line at its drive-shifted frequency.

    ``branch`` is ``"double_quantum"`` or ``"zero_quantum"``;
    ``omega_eff`` the plateau Rabi frequency on the forbidden pair. The
    carrier is placed at the frequency the line occupies *under* this
    drive (the strong pulse pushes the line while driving it).
    """
    trans = sys.transition(branch)
    filt = drive_filter(sys.cavity, trans.frequency - sys.cavity.omega_0)
    amp = omega_eff / (2.0 * trans.matrix_element * filt)
    # the Gaussian edges carry less area than a full plateau of the same
    # length; extend the duration by the measured deficit so the total
    # rotation is pi
    probe = PulseSegment(kind="flattop", frequency=trans.frequency,
                         amplitude=amp, duration=math.pi / omega_eff + 2 * edge,
                         edge=edge)
    duration = math.pi / omega_eff + (probe.duration
                                      - dyn.pulse_area(probe, sys))
    shift = dyn.ac_zeeman_shift(sys, trans, amp * filt)
    return PulseSegment(kind="flattop", frequency=trans.frequency + shift,
                        amplitude=amp, duration=duration, edge=edge)


def _dnp_train(sys: SpinSystem, target: str, n_prep: int,
               **forbidden) -> tuple[PulseSegment, ...]:
    """The pulse train of :func:`dnp_prepare`."""
    if target not in ("d", "u"):
        raise ValueError("target nuclear state must be 'd' or 'u'")
    branch = "zero_quantum" if target == "d" else "double_quantum"
    gamma = sys.gamma_r
    relax = wait(3.0 / gamma if gamma > 0 else 1e-3)
    return (forbidden_pi(sys, branch, **forbidden), relax) * n_prep


def dnp_prepare(state: SystemState, target: str, sys: SpinSystem, rng, *,
                n_prep: int = 2, omega_eff: float = TWO_PI * 15e3,
                noise: NoiseModel = NO_NOISE) -> None:
    """Polarize the nucleus by a forbidden pi-pulse train; mutates ``state``.

    ``target="d"`` pumps the zero-quantum line (excitation out of the
    nuclear-up ground level relaxes into nuclear-down); ``target="u"``
    pumps the double-quantum line. Each pulse is followed by a
    relaxation wait of 3 electron lifetimes (1 ms without decay).
    """
    train = _dnp_train(sys, target, n_prep, omega_eff=omega_eff)
    _run(state, train, sys, None, rng, noise)


def eldor_scan(sys: SpinSystem, det: DetectorParams, seed: int, *,
               deltas_hz, amplitude: float, duration: float, edge: float = 5e-6,
               prepare: str = "d", n_prep: int = 3,
               n_shots: int = 50, n_ro: int = 120, t_d: float = 2.6e-3,
               noise: NoiseModel = NO_NOISE) -> np.ndarray:
    """P(nuclear down) versus drive offset across a forbidden line.

    Each shot polarizes the nucleus, applies a flattop pulse at
    ``omega_s + delta``, and reads the nuclear state out; under
    ``noise.t2_star`` a shot draws its static detuning as it starts, and
    the readout one per cycle. ``deltas_hz`` are offsets from the
    electron frequency (Hz); ``amplitude`` is the input-referred drive
    (allowed-transition Rabi units, rad/s).
    """
    deltas_hz = np.asarray(deltas_hz, dtype=float)
    train = _dnp_train(sys, prepare, n_prep)
    settle = wait(5.0 / max(sys.gamma_r, 1.0))
    p_down = np.zeros(deltas_hz.size)
    for i, d_hz in enumerate(deltas_hz):
        pulse = PulseSegment(kind="flattop",
                             frequency=sys.params.omega_s + TWO_PI * d_hz,
                             amplitude=amplitude, duration=duration, edge=edge)
        schedule = (*train, pulse, settle)
        n_down = 0
        for shot in range(n_shots):
            rng = trajectory_rng(seed, i * n_shots + shot)
            state = SystemState(level=0, shot_offset=noise.shot_offset(rng))
            _run(state, schedule, sys, det, rng, noise)
            rec = single_shot_readout(state, sys, det, rng, n_ro=n_ro,
                                      t_d=t_d, noise=noise)
            n_down += (rec.state_call == "d")
        p_down[i] = n_down / n_shots
    return p_down


def rabi_experiment(sys: SpinSystem, det: DetectorParams, seed: int, *,
                    transition: str, amplitude: float, durations,
                    n_averages: int = 100, t_int: float = 2.0e-3,
                    noise: NoiseModel = NO_NOISE) -> np.ndarray:
    """Mean clicks after a constant drive (a flattop without edges) of each
    duration (none at 0)."""
    trans = sys.transition(transition)

    def schedule(tau):
        return [PulseSegment(kind="flattop", frequency=trans.frequency,
                             amplitude=amplitude, duration=tau)] if tau else []

    return _interference_experiment(sys, det, seed, trans.lower, schedule,
                                    durations, n_averages, t_int, noise)


def _interference_experiment(sys, det, seed, lower, schedule_fn, taus,
                             n_averages, t_int, noise):
    """Mean clicks after ``schedule_fn(tau)`` from level ``lower``, per tau."""
    signal = np.zeros(len(taus))
    window = dyn.detect(t_int)
    for i, tau in enumerate(taus):
        schedule = (*schedule_fn(tau), window)
        for shot in range(n_averages):
            rng = trajectory_rng(seed, i * n_averages + shot)
            state = SystemState(level=lower,
                                shot_offset=noise.shot_offset(rng))
            (clicks,) = _run(state, schedule, sys, det, rng, noise)
            signal[i] += clicks
    return signal / n_averages


def ramsey_experiment(sys: SpinSystem, det: DetectorParams, seed: int, *,
                      transition: str, delays, detuning_hz: float = 1e3,
                      pulse_fwhm: float = 20e-6, n_averages: int = 100,
                      t_int: float = 2.0e-3,
                      noise: NoiseModel = NO_NOISE) -> np.ndarray:
    """Two pi/2 pulses split by a variable delay at a detuned carrier."""
    trans = sys.transition(transition)
    carrier = trans.frequency + TWO_PI * detuning_hz

    def schedule(tau):
        half = math.pi / 2.0
        return [gaussian_pi(carrier, fwhm=pulse_fwhm, rotation=half),
                wait(tau, frame_frequency=carrier),
                gaussian_pi(carrier, fwhm=pulse_fwhm, rotation=half)]

    return _interference_experiment(sys, det, seed, trans.lower, schedule,
                                    delays, n_averages, t_int, noise)


def echo_experiment(sys: SpinSystem, det: DetectorParams, seed: int, *,
                    transition: str, delays, pulse_fwhm: float = 20e-6,
                    n_averages: int = 100, t_int: float = 2.0e-3,
                    noise: NoiseModel = NO_NOISE) -> np.ndarray:
    """pi/2 -- tau/2 -- pi -- tau/2 -- pi/2: static detunings refocus,
    so the decay tracks the Markovian coherence time."""
    trans = sys.transition(transition)
    carrier = trans.frequency

    def schedule(tau):
        half = math.pi / 2.0
        return [gaussian_pi(carrier, fwhm=pulse_fwhm, rotation=half),
                wait(tau / 2.0, frame_frequency=carrier),
                gaussian_pi(carrier, fwhm=pulse_fwhm),
                wait(tau / 2.0, frame_frequency=carrier),
                gaussian_pi(carrier, fwhm=pulse_fwhm, rotation=half)]

    return _interference_experiment(sys, det, seed, trans.lower, schedule,
                                    delays, n_averages, t_int, noise)


# ---------------------------------------------------------------------------
# closed-loop frequency tracking

@dataclass(frozen=True)
class TrackerState:
    """Leaky-integrator sensor plus PI correction gains.

    The sensor recursion is y' = (1 - 1/f) y + (C - C_ref); the applied
    frequency correction is p_gain * y + i_gain * sum(y).
    """

    p_gain: float
    i_gain: float
    f: float = 2000.0
    tau: float = 25e-6
    y: float = 0.0
    integral: float = 0.0

    def __post_init__(self):
        if self.f < 1:
            raise ValueError("sensor memory f must be at least 1")


def track_step(tracker: TrackerState, c: float,
               c_ref: float) -> tuple[TrackerState, float]:
    """One sensor update; returns the new state and the correction."""
    y = (1.0 - 1.0 / tracker.f) * tracker.y + (c - c_ref)
    integral = tracker.integral + y
    new = replace(tracker, y=y, integral=integral)
    return new, new.p_gain * y + new.i_gain * integral


@dataclass(frozen=True)
class TrackingRecord:
    times: np.ndarray
    detunings: np.ndarray        # drift minus applied correction (rad/s)
    corrections: np.ndarray
    sensors: np.ndarray


def run_tracking(tracker: TrackerState, *, slope: float, drift,
                 n_iter: int, t_iter: float,
                 rng=None, noise_sigma: float = 0.0) -> TrackingRecord:
    """Closed-loop simulation of the interleaved-Ramsey frequency lock.

    The phase sensor responds as C - C_ref = slope * sin(detuning * tau)
    (its linear range covers a few kHz at the default tau); ``drift``
    maps time (s) to the true frequency drift (rad/s). With zero drift
    and zero noise the corrections stay identically zero. Counting noise
    can be added as Gaussian jitter of scale ``noise_sigma``, drawn from
    ``rng``, which it then requires.
    """
    if noise_sigma > 0 and rng is None:
        raise ValueError("noise_sigma > 0 needs an rng to draw the noise")
    drift_fn = drift if callable(drift) else (lambda t: drift)
    times = np.arange(n_iter) * t_iter
    detunings = np.zeros(n_iter)
    corrections = np.zeros(n_iter)
    sensors = np.zeros(n_iter)
    correction = 0.0
    for i, t in enumerate(times):
        detuning = drift_fn(t) - correction
        sensor = slope * math.sin(detuning * tracker.tau)
        if noise_sigma > 0:
            sensor += noise_sigma * rng.standard_normal()
        tracker, correction = track_step(tracker, sensor, 0.0)
        detunings[i] = detuning
        corrections[i] = correction
        sensors[i] = sensor
    return TrackingRecord(times=times, detunings=detunings,
                          corrections=corrections, sensors=sensors)
