"""Quantum-jump Monte Carlo engine.

Evolves the level occupation of a ``SpinSystem`` under a pulse schedule.
The currently driven two-level subspace carries a full Bloch vector
(piecewise-analytic Rabi rotations on a time grid); all other levels are
tracked as classical populations. Radiative decays — allowed and
cross-relaxation branches — are sampled as stochastic jumps, each
emitting one cavity photon; photon loss is the detector's business.

A segment propagates on one of three paths (see ``apply_pulse``):
population mode when no coherence is carried; no-jump maps, in closed
form for free evolution and from cumulative 4x4 maps for driven
segments, both linear on the unnormalised state (Dalibard, Castin &
Mølmer, PRL 68, 580, 1992), tabulated once per drive or, under a
per-shot detuning, once per shot; and the per-step Bloch loop, which is
kept only for lossy drives, whose no-jump survival is below 1e-6. The
maps draw the loop's per-step uniforms and make its comparisons, so the
loop is their reference in the tests. Plans and decay records are
memoised by value on the ``SpinSystem`` they belong to, so they are
freed with it. Threads sharing a system may build an entry twice;
entries depend only on their key, so either copy serves.

Optional dephasing (off by default): a static per-shot detuning
reproducing an exponential Ramsey envelope (t2*), and Markovian
transverse decay (t2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spinmodel import (SpinSystem, Transition, ac_zeeman_frequencies,
                        drive_filter, forbidden_frequencies)

TWO_PI = 2.0 * math.pi

#: Two transitions within this band of the carrier make addressing ambiguous.
AMBIGUITY_BAND = TWO_PI * 1e3


class AmbiguousDriveError(ValueError):
    """A pulse carrier sits within 1 kHz of two different transitions."""


PULSE_KINDS = ("gaussian_pi", "flattop", "square", "wait", "detect_window")


@dataclass(frozen=True)
class PulseSegment:
    """One element of a schedule.

    ``frequency`` is the carrier (rad/s); for ``wait``/``detect_window``
    it sets the rotating frame for any surviving coherence (0 freezes the
    phase). ``amplitude`` is the peak Rabi frequency an allowed
    transition would see (rad/s); ``None`` on a driven kind requests
    automatic calibration to ``rotation`` (default pi) on the addressed
    transition. ``duration`` is the FWHM for ``gaussian_pi`` (wall time
    is twice that) and the full wall time otherwise. ``edge`` is the
    flattop ramp FWHM; ``phase`` the drive phase (rad).
    """

    kind: str
    frequency: float = 0.0
    amplitude: float | None = None
    duration: float = 0.0
    phase: float = 0.0
    edge: float = 0.0
    rotation: float = math.pi

    def __post_init__(self):
        if self.kind not in PULSE_KINDS:
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if self.duration < 0 or (self.duration == 0 and self.driven):
            raise ValueError("segment duration must be positive")
        if self.amplitude is not None and self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        if self.kind == "flattop" and not 0 <= 2 * self.edge <= self.duration:
            raise ValueError("flattop edges must fit inside the duration")

    @property
    def wall_time(self) -> float:
        return 2.0 * self.duration if self.kind == "gaussian_pi" else self.duration

    @property
    def driven(self) -> bool:
        return self.kind in ("gaussian_pi", "flattop", "square")

    def envelope(self, t: float) -> float:
        """Unitless envelope at time t from segment start, in [0, 1]."""
        if self.kind == "gaussian_pi":
            sigma = self.duration / 2.3548200450309493
            return math.exp(-0.5 * ((t - self.duration) / sigma) ** 2)
        if self.kind == "flattop" and self.edge > 0:
            sigma = self.edge / 2.3548200450309493
            if t < self.edge:
                return math.exp(-0.5 * ((t - self.edge) / sigma) ** 2)
            if t > self.duration - self.edge:
                return math.exp(-0.5 * ((t - (self.duration - self.edge)) / sigma) ** 2)
            return 1.0
        return 1.0


def gaussian_pi(frequency: float, fwhm: float = 80e-6,
                rotation: float = math.pi, phase: float = 0.0) -> PulseSegment:
    """Gaussian pulse auto-calibrated to the given rotation angle."""
    return PulseSegment(kind="gaussian_pi", frequency=frequency,
                        duration=fwhm, rotation=rotation, phase=phase)


def wait(duration: float, frame_frequency: float = 0.0) -> PulseSegment:
    return PulseSegment(kind="wait", frequency=frame_frequency, duration=duration)


def detect(duration: float) -> PulseSegment:
    return PulseSegment(kind="detect_window", duration=duration)


@dataclass(frozen=True)
class NoiseModel:
    """Optional imperfections; the all-defaults instance is noise-free.

    ``t2_star`` draws a static detuning per shot from a Lorentzian of
    HWHM 1/t2_star, giving the observed exponential Ramsey envelope.
    ``t2`` applies Markovian transverse decay during evolution. ``None``
    or 0 switches a channel off.
    """

    t2_star: float | None = None
    t2: float | None = None

    def __post_init__(self):
        for name in ("t2_star", "t2"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")

    def shot_offset(self, rng) -> float:
        if not self.t2_star:
            return 0.0
        return rng.standard_cauchy() / self.t2_star


NO_NOISE = NoiseModel()


@dataclass
class SystemState:
    """Mutable trajectory state: occupied level plus the driven-pair coherence."""

    level: int
    time: float = 0.0
    bloch: np.ndarray | None = None          # (x, y, z) of the driven pair
    pair: tuple[int, int] | None = None      # (lower, upper) eigenlevel indices
    shot_offset: float = 0.0                 # static detuning this shot (rad/s)


@dataclass(frozen=True)
class JumpEvent:
    """A relaxation jump; every jump is radiative and emits one photon."""

    time: float
    label: str
    photon: bool = True


@dataclass(frozen=True)
class Trajectory:
    events: tuple[JumpEvent, ...]
    windows: tuple[tuple[float, float], ...]
    final_level: int
    final_time: float

    def emission_times(self) -> np.ndarray:
        return np.array([e.time for e in self.events if e.photon])


class _Decay:
    """Relaxation out of one level: one photon-emitting branch per
    radiative channel."""

    __slots__ = ("rates", "dests", "labels", "total")

    def __init__(self, sys: SpinSystem, level: int):
        channels = sys.channels[level]
        self.rates = [ch.rate for ch in channels]
        self.dests = [ch.transition.lower for ch in channels]
        self.labels = [ch.transition.label for ch in channels]
        self.total = sum(self.rates)

    def jump(self, time, rng, events) -> int:
        """Pick a branch proportionally to rate; append the event."""
        u = rng.random() * self.total
        acc = 0.0
        # past the end (rounding), the last branch is taken
        for rate, dest, label in zip(self.rates, self.dests, self.labels):
            acc += rate
            if u <= acc:
                break
        events.append(JumpEvent(time=time, label=label))
        return dest


def _decays(sys: SpinSystem) -> list[_Decay]:
    """The system's memoised decay records, one per level (memo key
    ``_Decay``; plan keys are tuples)."""
    decays = sys._memo.get(_Decay)
    if decays is None:
        decays = sys._memo[_Decay] = [_Decay(sys, level)
                                      for level in range(len(sys.levels))]
    return decays


def _collapse(state: SystemState, rng):
    """Project a driven-pair coherence onto a definite level."""
    if state.bloch is None:
        return
    p_upper = 0.5 * (1.0 + state.bloch[2])
    lower, upper = state.pair
    state.level = upper if rng.random() < p_upper else lower
    state.bloch = None
    state.pair = None


def _address(seg: PulseSegment, sys: SpinSystem) -> Transition:
    """Nearest transition to the carrier; error if two sit within 1 kHz."""
    dist = [(abs(t.frequency - seg.frequency), t) for t in sys.transitions]
    dist.sort(key=lambda pair: pair[0])
    near = [t for d, t in dist if d < AMBIGUITY_BAND]
    if len(near) > 1:
        raise AmbiguousDriveError(
            "carrier within 1 kHz of transitions "
            + " and ".join(t.label for t in near))
    return dist[0][1]


def calibrated_amplitude(seg: PulseSegment, sys: SpinSystem) -> float:
    """Drive amplitude giving ``seg.rotation`` on an allowed transition.

    The power is referenced to the allowed matrix element, matching a
    calibration done on the strong lines: a carrier sitting on a weak
    (nuclear-flip) line is driven at the element ratio, not boosted to a
    full rotation. The area comes from :func:`pulse_area`, so the
    calibration is exact for the discretized pulse.
    """
    trans = _address(seg, sys)
    allowed = [t.matrix_element for t in sys.transitions if t.is_allowed]
    element = max(allowed) if allowed else trans.matrix_element
    coupling = 2.0 * element * drive_filter(
        sys.cavity, seg.frequency - sys.cavity.omega_0)
    if coupling <= 0:
        raise ValueError(f"transition {trans.label} is not drivable (zero element)")
    return seg.rotation / (coupling * pulse_area(seg, sys))


def pulse_area(seg: PulseSegment, sys: SpinSystem) -> float:
    """Time integral of the envelope (s) on the step grid of ``apply_pulse``."""
    n_steps, dt = _time_steps(seg, sys)
    return sum(_envelope_samples(seg, n_steps, dt)) * dt


def ac_zeeman_shift(sys: SpinSystem, trans: Transition,
                    omega_drive: float) -> float:
    """Drive-induced shift (rad/s) of a forbidden line under drive amplitude
    ``omega_drive``: the off-resonant allowed transitions push the line
    while it is driven. Zero for allowed lines, and for systems of more
    than one nucleus, where the shift is not modelled."""
    if not trans.nuclear_flips or sys.params.n_nuclei != 1:
        return 0.0
    d_d, d_z = ac_zeeman_frequencies(sys.params, omega_drive)
    d0_d, d0_z = forbidden_frequencies(sys.params)
    if trans.label.startswith("double_quantum"):
        return d_d - d0_d
    return d_z - d0_z


def _time_steps(seg: PulseSegment, sys: SpinSystem):
    gamma = max((sys.total_rate(i) for i in range(len(sys.levels))),
                default=0.0)
    wall = seg.wall_time
    dt = wall / 100.0
    if gamma > 0:
        dt = min(dt, 1.0 / (50.0 * gamma))
    n_steps = max(1, math.ceil(wall / dt))
    return n_steps, wall / n_steps


def _envelope_samples(seg: PulseSegment, n_steps: int, dt: float):
    """Mid-step envelope values."""
    return tuple(seg.envelope((i + 0.5) * dt) for i in range(n_steps))


_WEIGHT_FLOOR = 1e-4

#: Smallest no-jump survival over a driven segment for which the tabulated
#: maps are used. The restart vectors invert the cumulative map, so their
#: relative rounding error is about 2e-16 / survival (2e-10 here).
_MIN_SURVIVAL = 1e-6


def _drive_weight(trans: Transition, seg: PulseSegment) -> float:
    """Element-weighted spectral overlap of the carrier with a line."""
    delta = abs(trans.frequency - seg.frequency)
    bandwidth = TWO_PI * 0.44 / max(0.5 * seg.wall_time, 1e-12)
    return trans.matrix_element / (1.0 + (delta / bandwidth) ** 2)


class _StepDecay:
    """A level's decay record on a plan's step grid.

    ``p_step`` is the jump probability of a fully excited level per step,
    q = 1 - p_step. ``survival[i]``, set for undriven segments, is the
    no-jump probability over the first ``i`` steps, q**i.
    """

    __slots__ = ("record", "p_step", "sqrt_survive", "survival")

    def __init__(self, record: _Decay, dt: float):
        self.record = record
        self.p_step = (-math.expm1(-record.total * dt) if record.total > 0
                       else 0.0)
        self.sqrt_survive = math.sqrt(1.0 - self.p_step)
        self.survival = None


class _LevelDrive:
    """Per-level drive target: the transition a pulse actually works on."""

    __slots__ = ("trans", "pair", "omega_peak", "ac_shift", "decay",
                 "tabulable", "table")

    def __init__(self, trans, amp_filt, omega_peak, sys, decay, survival):
        self.trans = trans
        self.pair = (trans.lower, trans.upper)
        self.omega_peak = omega_peak
        # shift of the peak-amplitude drive; it follows the instantaneous
        # power as ac_shift * envelope**2
        self.ac_shift = ac_zeeman_shift(sys, trans, amp_filt)
        self.decay = decay
        self.tabulable = survival >= _MIN_SURVIVAL
        self.table = None           # _NoJumpTable, built on first use


class _NoJumpTable:
    """Cumulative no-jump maps of one drive over a plan's step grid.

    On the unnormalised state v = (rho_ll, rho_uu, X, Y) of the driven
    pair (populations and the transverse Bloch components, all scaled by
    the trace) every step is linear: the rotation about the instantaneous
    drive, the t2 factor on (X, Y), then the no-jump Kraus factor, which
    keeps rho_ll and scales rho_uu by q and (X, Y) by sqrt(q). So for a
    start vector v the jump hazard of step i is (num[i] . v) / (den[i] . v)
    (the upper population after the rotation, times p_step, over the trace
    before the step) and the end state is end @ v. ``restart(i)`` is the
    start vector whose no-jump evolution passes through the lower pole
    right after step i, so a jump back into the pair at step i continues
    from it. The population basis keeps the trace of a decaying upper
    level exact (no cancellation between n and Z).

    The cumulative maps come from a doubling scan, ceil(log2 n) batched
    products (Hillis & Steele, CACM 29, 1170, 1986). A table with a shot
    ``offset`` (rad/s, subtracted from the detuning as in the step loop)
    serves one segment of one shot: it keeps the cumulative maps and
    solves a restart vector only when a jump needs one. A memoised table
    (no offset) solves them all at once, keeps the pole starts, and drops
    the cumulative maps.
    """

    __slots__ = ("num", "den", "end", "prefix", "restarts", "pole_hazard",
                 "pole_end")

    def __init__(self, plan, drive, offset: float = 0.0):
        n = plan.n_steps
        env = np.asarray(plan.envelope)
        wx = drive.omega_peak * env
        detuning = (plan.frame - drive.trans.frequency - offset
                    if plan.frame != 0.0 else 0.0)
        wz = (detuning - drive.ac_shift * env * env
              if drive.ac_shift != 0.0 else np.full(n, detuning))
        w = np.stack([wx * math.cos(plan.phase), wx * math.sin(plan.phase),
                      wz], axis=1)
        decay = drive.decay
        q = 1.0 - decay.p_step
        transverse = decay.sqrt_survive * plan.t2_decay
        weights = np.array([1.0, q, transverse, transverse])
        step_map = (weights[:, None, None] * _STEP_BASIS).reshape(16, 10)
        steps = (_rotation_features(w, plan.dt) @ step_map.T).reshape(n, 4, 4)
        prefix = steps.copy()
        k = 1
        while k < n:
            prefix[k:] = prefix[k:] @ prefix[:-k]
            k *= 2
        before = np.concatenate([np.eye(4)[None], prefix[:-1]])
        self.den = before[:, 0] + before[:, 1]
        # row 1 of a step is the rotated upper population times q
        self.num = (decay.p_step / q) * np.einsum("ij,ijk->ik", steps[:, 1],
                                                  before)
        self.prefix = self.restarts = self.pole_hazard = self.pole_end = None
        if offset != 0.0:
            self.prefix, self.end = prefix, prefix[-1]
            return
        self.end = prefix[-1].copy()
        if decay.p_step > 0.0:
            lower = np.broadcast_to(_LOWER_POLE[:, None], (n, 4, 1))
            self.restarts = np.linalg.solve(prefix, lower)[..., 0]
        # pole starts (v = e_0 or e_1): the readout's common case
        self.pole_hazard = (self.num[:, 0] / self.den[:, 0],
                            self.num[:, 1] / self.den[:, 1])
        self.pole_end = (_bloch(self.end[:, 0]), _bloch(self.end[:, 1]))

    def restart(self, i: int) -> np.ndarray:
        if self.restarts is not None:
            return self.restarts[i]
        return np.linalg.solve(self.prefix[i], _LOWER_POLE)


_LOWER_POLE = np.array([1.0, 0.0, 0.0, 0.0])

#: Cross-product matrix [a]x of an axis a, flattened: a @ _CROSS.
_CROSS = np.zeros((3, 9))
_CROSS[[2, 1, 2, 0, 1, 0], [1, 2, 3, 5, 6, 7]] = [-1, 1, 1, -1, -1, 1]


def _step_basis():
    """One no-jump step before its Kraus and t2 weights: a (4, 4) map on
    (rho_ll, rho_uu, X, Y), linear in the features (1, R00, ..., R22) of
    its rotation R. Row j of R acts through z = rho_uu - rho_ll, and the
    populations after it are (trace -/+ z)/2."""
    basis = np.zeros((4, 4, 10))
    basis[:2, :2, 0] = 0.5
    column = 1 + np.arange(9).reshape(3, 3)          # feature of R[i, j]
    for out, j, scale in ((0, 2, -0.5), (1, 2, 0.5), (2, 0, 1.0),
                          (3, 1, 1.0)):
        basis[out, range(4), column[j, [2, 2, 0, 1]]] = [-scale, scale,
                                                         scale, scale]
    return basis


_STEP_BASIS = _step_basis()


def _rotation_features(w, dt):
    """(1, R00, R01, ..., R22) of the per-step Rodrigues rotations about
    the rows of ``w`` (rad/s) over ``dt``."""
    norm2 = np.einsum("ij,ij->i", w, w)
    turn = norm2 > 1e-28
    norm = np.sqrt(np.where(turn, norm2, 1.0))
    axis = w * np.where(turn, 1.0 / norm, 0.0)[:, None]
    angle = np.where(turn, dt * norm, 0.0)
    c, s = np.cos(angle), np.sin(angle)
    n = len(w)
    feats = np.empty((n, 10))
    feats[:, 0] = 1.0
    feats[:, 1:] = ((1.0 - c)[:, None]
                    * (axis[:, :, None] * axis[:, None, :]).reshape(n, 9)
                    + (s[:, None] * axis) @ _CROSS)
    feats[:, [1, 5, 9]] += c[:, None]
    return feats


def _bloch(v) -> list:
    """Normalised Bloch vector of an unnormalised (rho_ll, rho_uu, X, Y)."""
    n = v[0] + v[1]
    return [float(v[2] / n), float(v[3] / n), float((v[1] - v[0]) / n)]


class _PulsePlan:
    """Shot-independent precomputation for one segment, system and noise.

    A pulse only drives transitions that involve the occupied level, so
    the plan holds one drive target per level: the line with the
    largest element-weighted spectral overlap, or ``None`` when every
    candidate is too far off resonance to matter.
    """

    __slots__ = ("sys", "records", "by_level", "n_steps", "dt", "envelope",
                 "phase", "frame", "t2_decay", "decays")

    def __init__(self, seg: PulseSegment, sys: SpinSystem, noise: NoiseModel):
        self.sys = sys
        self.records = _decays(sys)
        self.n_steps, self.dt = _time_steps(seg, sys)
        self.envelope = _envelope_samples(seg, self.n_steps, self.dt)
        self.phase = seg.phase
        self.frame = seg.frequency
        self.t2_decay = math.exp(-self.dt / noise.t2) if noise.t2 else 1.0
        self.decays: dict[int, _StepDecay] = {}
        self.by_level = [None] * len(sys.levels)
        if not seg.driven:
            return
        _address(seg, sys)          # ambiguous-carrier guard
        amp = seg.amplitude
        if amp is None:
            amp = calibrated_amplitude(seg, sys)
        filt = drive_filter(sys.cavity, seg.frequency - sys.cavity.omega_0)
        drives: dict[Transition, _LevelDrive] = {}
        for level in range(len(sys.levels)):
            cands = [t for t in sys.transitions if level in (t.lower, t.upper)]
            if not cands:
                continue
            best = max(cands, key=lambda t: _drive_weight(t, seg))
            if _drive_weight(best, seg) < _WEIGHT_FLOOR:
                continue
            drive = drives.get(best)
            if drive is None:
                omega_peak = amp * 2.0 * best.matrix_element * filt
                decay = _StepDecay(self.records[best.upper], self.dt)
                survival = ((1.0 - decay.p_step)
                            * self.t2_decay) ** self.n_steps
                drive = drives[best] = _LevelDrive(
                    best, amp * filt, omega_peak, sys, decay, survival)
            self.by_level[level] = drive

    def drive_for(self, level: int):
        return self.by_level[level] if 0 <= level < len(self.by_level) else None

    def decay_for(self, level: int) -> _StepDecay:
        """Decay of the upper level of an undriven coherence."""
        decay = self.decays.get(level)
        if decay is None:
            decay = _StepDecay(self.records[level], self.dt)
            decay.survival = ((1.0 - decay.p_step)
                              ** np.arange(self.n_steps + 1))
            self.decays[level] = decay
        return decay


def _pulse_plan(seg: PulseSegment, sys: SpinSystem,
                noise: NoiseModel) -> _PulsePlan:
    """The system's memoised plan of ``seg`` under ``noise``."""
    # keyed by the segment's fields: the protocols build a new segment per
    # call, and hashing the dataclass costs more than this tuple
    key = (noise, seg.kind, seg.frequency, seg.amplitude, seg.duration,
           seg.phase, seg.edge, seg.rotation)
    plan = sys._memo.get(key)
    if plan is None:
        plan = sys._memo[key] = _PulsePlan(seg, sys, noise)
    return plan


def apply_pulse(state: SystemState, seg: PulseSegment, sys: SpinSystem,
                rng, noise: NoiseModel = NO_NOISE) -> list[JumpEvent]:
    """Evolve through one segment, returning the jump events.

    Driven kinds rotate the addressed two-level subspace, with decay from
    the upper level sampled as jumps on the plan's step grid;
    ``wait``/``detect_window`` precess any surviving coherence in the
    frame of ``seg.frequency`` (0 freezes the phase) while relaxation
    continues. A segment runs on one of three paths:

    - population mode, when no coherence is carried: plain relaxation
      across the whole segment (``_relax``);
    - no-jump maps: the closed form for an undriven coherence, the
      drive's tabulated cumulative maps for a driven one (memoised on the
      drive, or built for this shot and dropped after the segment under
      a per-shot ``t2_star`` detuning); one uniform per step is drawn and
      compared with the step's hazard, as in the step loop, so events,
      levels and random stream match it up to rounding;
    - the per-step loop, kept only for lossy drives (``not
      drive.tabulable``), too lossy for the tables' precision.

    A jump is stamped at the midpoint of the step it falls in.
    """
    if seg.wall_time == 0.0:
        return []
    plan = _pulse_plan(seg, sys, noise)
    drive = _enter(state, seg, plan, rng)
    if state.pair is None or state.bloch is None:
        return _relax(state, plan, seg.wall_time, rng)
    if drive is None:
        return _free_map(state, seg, plan, rng)
    if not drive.tabulable:
        return _step_loop(state, seg, plan, drive, rng)
    if state.shot_offset != 0.0:
        table = _NoJumpTable(plan, drive, state.shot_offset)
    else:
        table = drive.table
        if table is None:
            table = drive.table = _NoJumpTable(plan, drive)
    return _table_map(state, seg, plan, drive, table, rng)


def _enter(state: SystemState, seg: PulseSegment, plan: _PulsePlan, rng):
    """Prepare the coherence a segment evolves; returns its drive or None.

    A driven segment keeps an existing coherence only when its carrier
    re-addresses the same pair, and otherwise starts the occupied level's
    drive target from a pole. An undriven segment resolves a nearly pure
    population state now, so that it runs in the cheap population mode.
    """
    if seg.driven:
        if state.bloch is not None and state.pair is not None:
            cont = plan.drive_for(state.pair[0])
            if cont is not None and cont.pair == state.pair:
                return cont
            _collapse(state, rng)
        drive = plan.drive_for(state.level)
        if drive is not None:
            z0 = -1.0 if state.level == drive.pair[0] else 1.0
            state.bloch, state.pair = [0.0, 0.0, z0], drive.pair
        return drive
    if state.pair is not None and state.bloch is not None:
        x0, y0, z0 = state.bloch
        if x0 * x0 + y0 * y0 < 2.5e-3 and abs(z0) > 0.99:
            _collapse(state, rng)
    return None


def _free_map(state: SystemState, seg: PulseSegment, plan: _PulsePlan, rng):
    """Closed-form no-jump evolution of a coherence with the drive off.

    A rotation about z commutes with the amplitude-damping no-jump map.
    After i no-jump steps the upper population is
    rho_uu q**i / (rho_ll + rho_uu q**i), so the hazard of every step is
    known at once; the end coherence is (x, y) rotated by the detuning
    times the segment length and scaled by (sqrt(q) t2_decay)**n over the
    same norm. A jump back to the lower level leaves the pole, which no
    longer decays or precesses.
    """
    lower, upper = state.pair
    decay = plan.decay_for(upper)
    n, dt = plan.n_steps, plan.dt
    x, y, z = state.bloch
    t0 = state.time
    events: list[JumpEvent] = []
    scale = plan.t2_decay ** n
    if decay.record.total > 0:
        uniforms = rng.random(n)
        p_upper = 0.5 * (1.0 + z)
        p_lower = 1.0 - p_upper
        weight = p_upper * decay.survival
        hazard = decay.p_step * weight[:-1] / (p_lower + weight[:-1])
        hits = np.flatnonzero(uniforms < hazard)
        if hits.size:
            i = int(hits[0])
            state.level = decay.record.jump(t0 + (i + 0.5) * dt, rng, events)
            if state.level != lower:
                state.time = t0 + (i + 1) * dt
                return _leave_pair(state, plan, seg.wall_time - (i + 1) * dt,
                                   rng, events)
            state.bloch = [0.0, 0.0, -1.0]
            state.time = t0 + seg.wall_time
            return events
        upper_end = float(weight[-1])
        norm = p_lower + upper_end
        scale *= decay.sqrt_survive ** n / norm
        z = (upper_end - p_lower) / norm
    detuning = (plan.frame - _pair_frequency(plan.sys, state.pair)
                - state.shot_offset if plan.frame != 0.0 else 0.0)
    angle = detuning * dt * n
    c, s = math.cos(angle), math.sin(angle)
    state.bloch = [(x * c - y * s) * scale, (y * c + x * s) * scale, z]
    state.time = t0 + seg.wall_time
    return events


def _table_map(state: SystemState, seg: PulseSegment, plan: _PulsePlan,
               drive: _LevelDrive, table: _NoJumpTable, rng):
    """Driven no-jump evolution from a table of the drive's maps.

    Each start vector (a pole, the entry coherence, or the restart vector
    after a jump back to the lower level) costs two mat-vecs for the
    hazards of the remaining steps and one for the end state; a memoised
    table has the pole starts precomputed.
    """
    decay = drive.decay
    n, dt = plan.n_steps, plan.dt
    t0 = state.time
    events: list[JumpEvent] = []
    x, y, z = state.bloch
    if (table.pole_hazard is not None and x == 0.0 and y == 0.0
            and (z == 1.0 or z == -1.0)):
        v, hazard, end = None, table.pole_hazard[z > 0], table.pole_end[z > 0]
    else:
        v = np.array([0.5 * (1.0 - z), 0.5 * (1.0 + z), x, y])
        hazard = None
    if decay.record.total > 0:
        uniforms = rng.random(n)
        start = 0
        while start < n:
            if hazard is None:
                hazard = (table.num[start:] @ v) / (table.den[start:] @ v)
            hits = np.flatnonzero(uniforms[start:] < hazard)
            if not hits.size:
                break
            i = start + int(hits[0])
            state.level = decay.record.jump(t0 + (i + 0.5) * dt, rng, events)
            if state.level != drive.pair[0]:
                state.time = t0 + (i + 1) * dt
                return _leave_pair(state, plan, seg.wall_time - (i + 1) * dt,
                                   rng, events)
            v, hazard, start = table.restart(i), None, i + 1
    state.bloch = list(end) if v is None else _bloch(table.end @ v)
    state.time = t0 + seg.wall_time
    return events


def _step_loop(state: SystemState, seg: PulseSegment, plan: _PulsePlan,
               drive: _LevelDrive | None, rng):
    """Per-step propagation of the coherence; the reference for the maps.

    Each step rotates the Bloch vector about the instantaneous drive
    (Rodrigues), applies the t2 factor, and compares one pre-drawn
    uniform with the step's jump hazard; without a jump the conditional
    no-jump map of amplitude damping renormalises the state, so jump
    timing from a partially excited state stays exact.
    """
    lower, upper = state.pair
    if drive is not None:
        decay, trans_freq = drive.decay, drive.trans.frequency
        omega_peak, ac_shift = drive.omega_peak, drive.ac_shift
    else:
        decay = plan.decay_for(upper)
        trans_freq = _pair_frequency(plan.sys, state.pair)
        omega_peak, ac_shift = 0.0, 0.0
    p_step, sqrt_survive = decay.p_step, decay.sqrt_survive
    n_steps, dt, envelope = plan.n_steps, plan.dt, plan.envelope
    t2_decay = plan.t2_decay
    frame = plan.frame
    uniforms = rng.random(n_steps) if decay.record.total > 0 else None
    x, y, z = (float(state.bloch[0]), float(state.bloch[1]),
               float(state.bloch[2]))
    detuning = (frame - trans_freq - state.shot_offset
                if frame != 0.0 else 0.0)
    cphi, sphi = math.cos(plan.phase), math.sin(plan.phase)
    t0 = state.time
    events: list[JumpEvent] = []
    for i in range(n_steps):
        env_i = envelope[i]
        wx = omega_peak * env_i
        wy = wx * sphi
        wx *= cphi
        # AC-Zeeman shift follows the instantaneous drive power
        wz = detuning - ac_shift * env_i * env_i \
            if ac_shift != 0.0 else detuning
        # Rodrigues rotation about (wx, wy, wz) * dt
        norm2 = wx * wx + wy * wy + wz * wz
        if norm2 > 1e-28:
            inv = 1.0 / math.sqrt(norm2)
            angle = dt / inv
            ax, ay, az = wx * inv, wy * inv, wz * inv
            c, s = math.cos(angle), math.sin(angle)
            dot = (ax * x + ay * y + az * z) * (1.0 - c)
            x, y, z = (x * c + (ay * z - az * y) * s + ax * dot,
                       y * c + (az * x - ax * z) * s + ay * dot,
                       z * c + (ax * y - ay * x) * s + az * dot)
        x *= t2_decay
        y *= t2_decay
        state.time = t0 + (i + 1) * dt
        if uniforms is None:
            continue
        p_upper = 0.5 * (1.0 + z)
        if uniforms[i] < p_upper * p_step:
            state.level = decay.record.jump(t0 + (i + 0.5) * dt, rng, events)
            if state.level != lower:
                return _leave_pair(state, plan, seg.wall_time - (i + 1) * dt,
                                   rng, events)
            x, y, z = 0.0, 0.0, -1.0
        else:
            norm = 1.0 - p_upper * p_step
            x *= sqrt_survive / norm
            y *= sqrt_survive / norm
            z = (p_upper * (1.0 - p_step) - (1.0 - p_upper)) / norm
    state.bloch = [x, y, z]
    return events


def _leave_pair(state: SystemState, plan: _PulsePlan, remaining: float, rng,
                events: list[JumpEvent]) -> list[JumpEvent]:
    """After a jump out of the pair: population mode for the rest."""
    state.bloch = None
    state.pair = None
    if remaining > 0:
        events += _relax(state, plan, remaining, rng)
    return events


def _relax(state: SystemState, plan: _PulsePlan, duration: float,
           rng) -> list[JumpEvent]:
    """Population mode: plain relaxation.

    Exact for decay out of each occupied level: a level of total rate
    Gamma jumps within the remaining time with probability
    1 - exp(-Gamma*remaining), at a time drawn from the conditional
    exponential distribution, and the new level may decay in turn.
    """
    events: list[JumpEvent] = []
    while True:
        decay = plan.records[state.level]
        if decay.total <= 0:
            break
        u = rng.random()
        if u >= -math.expm1(-decay.total * duration):
            break
        # inverse-CDF draw; conditioning on u < p_jump keeps it inside
        # the remaining time
        t_jump = state.time + (-math.log1p(-u)) / decay.total
        state.level = decay.jump(t_jump, rng, events)
        state.bloch = None
        state.pair = None
        duration = state.time + duration - t_jump
        state.time = t_jump
    state.time += duration
    return events


def _pair_frequency(sys: SpinSystem, pair) -> float:
    lower, upper = pair
    return float(sys.energies[upper] - sys.energies[lower])


def trajectory_rng(seed: int, index: int):
    """Counter-based stream: independent per trajectory, reproducible."""
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def run_schedule(state: SystemState, schedule, sys: SpinSystem, rng,
                 noise: NoiseModel = NO_NOISE):
    """Run one shot of a schedule; returns (events, detection windows)."""
    events: list[JumpEvent] = []
    windows: list[tuple[float, float]] = []
    for seg in schedule:
        if seg.kind == "detect_window":
            t0 = state.time
            events += apply_pulse(state, seg, sys, rng, noise)
            windows.append((t0, state.time))
        else:
            events += apply_pulse(state, seg, sys, rng, noise)
    return events, windows


def run_trajectories(n: int, schedule, sys: SpinSystem, seed: int,
                     noise: NoiseModel = NO_NOISE,
                     initial_level: int = 0) -> list[Trajectory]:
    """n independent shots of the schedule; deterministic given the seed."""
    if n < 1:
        raise ValueError("need at least one trajectory")
    out = []
    for index in range(n):
        rng = trajectory_rng(seed, index)
        state = SystemState(level=initial_level)
        state.shot_offset = noise.shot_offset(rng)
        events, windows = run_schedule(state, schedule, sys, rng, noise)
        _collapse(state, rng)
        out.append(Trajectory(events=tuple(events), windows=tuple(windows),
                              final_level=state.level, final_time=state.time))
    return out
