"""Quantum-jump Monte Carlo engine.

Evolves the level occupation of a ``SpinSystem`` under a pulse schedule.
The currently driven two-level subspace carries a full Bloch vector
(piecewise-analytic Rabi rotations on a time grid); all other levels are
tracked as classical populations. Radiative decays — allowed and
cross-relaxation branches — are sampled as stochastic jumps, each
emitting one cavity photon; photon loss is the detector's business.

A segment propagates on one of two paths (see ``apply_pulse``):
population mode when no coherence is carried; and no-jump maps, in
closed form for free evolution and from cumulative 4x4 maps for driven
segments, both linear on the unnormalised state (Dalibard, Castin &
Mølmer, PRL 68, 580, 1992), tabulated once per drive and shot offset.
A lossy drive's maps are tabulated in blocks of steps. The maps draw one
uniform per step and compare it with the step's jump hazard, as a
per-step Bloch loop would, so such a loop is their reference in the
tests.

A readout cycle is a few short segments, so the fixed cost of a segment
matters as much as its physics. Each segment builds its plan key once,
when it is constructed; the plan carries what the hot path reads (wall
time, drive targets, step grid), and the first jump of a segment is the
first step whose uniform falls below its hazard, found without
collecting the later ones. Plans and decay records are memoised by value
on the ``SpinSystem`` they belong to, so they are freed with it. Their
only per-shot state is one table slot per drive, holding the table of
the last shot offset the drive ran under: without t2* that offset is 0
for good, and under t2* a shot's repeated pulses share the slot until
the next offset replaces it, so memory does not grow with the number of
shots. Threads sharing a system may build a plan or a table twice; each
depends only on its key (the offset, for a table), so either copy
serves.

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


PULSE_KINDS = ("gaussian_pi", "flattop", "wait", "detect_window")


@dataclass(frozen=True)
class PulseSegment:
    """One element of a schedule.

    Two kinds drive: ``gaussian_pi``, a Gaussian pulse, and ``flattop``,
    a plateau with Gaussian ramps (a constant drive when ``edge`` is 0).
    Two do not: ``wait``, and ``detect_window``, whose emissions the
    protocols count. Every drive is about the x axis of the carrier's
    rotating frame.

    ``frequency`` is the carrier (rad/s); for ``wait``/``detect_window``
    it sets the rotating frame for any surviving coherence (0 freezes the
    phase). ``amplitude`` is the peak Rabi frequency an allowed
    transition would see (rad/s); ``None`` on a driven kind requests
    automatic calibration to ``rotation`` (default pi) on the addressed
    transition. ``duration`` is the FWHM for ``gaussian_pi`` (wall time
    is twice that) and the full wall time otherwise. ``edge`` is the
    flattop ramp FWHM.
    """

    kind: str
    frequency: float = 0.0
    amplitude: float | None = None
    duration: float = 0.0
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
        # the segment's part of its plans' memo key, built once: a plan is
        # looked up for every segment of every shot
        object.__setattr__(self, "_plan_key", (
            self.kind, self.frequency, self.amplitude, self.duration,
            self.edge, self.rotation))

    @property
    def wall_time(self) -> float:
        return 2.0 * self.duration if self.kind == "gaussian_pi" else self.duration

    @property
    def driven(self) -> bool:
        return self.kind in ("gaussian_pi", "flattop")

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
                rotation: float = math.pi) -> PulseSegment:
    """Gaussian pulse auto-calibrated to the given rotation angle."""
    return PulseSegment(kind="gaussian_pi", frequency=frequency,
                        duration=fwhm, rotation=rotation)


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
    bloch: list[float] | None = None         # (x, y, z) of the driven pair
    pair: tuple[int, int] | None = None      # (lower, upper) eigenlevel indices
    shot_offset: float = 0.0                 # static detuning this shot (rad/s)

    def __post_init__(self):
        # a negative index would read the levels from the end
        if self.level < 0:
            raise ValueError(f"level must be non-negative, got {self.level}")


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
        return np.array([e.time for e in self.events])


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
    """Nearest transition to the carrier, the first of equal distances;
    error if two sit within 1 kHz, listed nearest first."""
    carrier = seg.frequency
    best = best_dist = None
    near = []
    for t in sys.transitions:
        dist = abs(t.frequency - carrier)
        if best is None or dist < best_dist:
            best, best_dist = t, dist
        if dist < AMBIGUITY_BAND:
            near.append((dist, t))
    if len(near) > 1:
        near.sort(key=lambda pair: pair[0])
        raise AmbiguousDriveError(
            "carrier within 1 kHz of transitions "
            + " and ".join(t.label for _, t in near))
    return best


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

#: Smallest no-jump survival over one block of a drive's tabulated maps,
#: which sets the block length. The restart vectors invert the cumulative
#: map of a block, so their relative rounding error is about
#: 2e-16 / survival (2e-10 here).
_MIN_SURVIVAL = 1e-6


def _drive_weight(trans: Transition, seg: PulseSegment) -> float:
    """Element-weighted spectral overlap of the carrier with a line."""
    delta = abs(trans.frequency - seg.frequency)
    bandwidth = TWO_PI * 0.44 / max(0.5 * seg.wall_time, 1e-12)
    return trans.matrix_element / (1.0 + (delta / bandwidth) ** 2)


class _StepDecay:
    """A level's decay record on a plan's step grid.

    ``p_step`` is the jump probability of a fully excited level per step,
    q = 1 - p_step. ``survival[i]`` is the no-jump probability over the
    first ``i`` steps, q**i.
    """

    __slots__ = ("record", "p_step", "sqrt_survive", "survival")

    def __init__(self, record: _Decay, dt: float, n_steps: int):
        self.record = record
        self.p_step = (-math.expm1(-record.total * dt) if record.total > 0
                       else 0.0)
        self.sqrt_survive = math.sqrt(1.0 - self.p_step)
        self.survival = (1.0 - self.p_step) ** np.arange(n_steps + 1)


class _LevelDrive:
    """Per-level drive target: the transition a pulse actually works on."""

    __slots__ = ("trans", "pair", "omega_peak", "ac_shift", "decay",
                 "block", "table")

    def __init__(self, trans, amp_filt, omega_peak, sys, decay, block):
        self.trans = trans
        self.pair = (trans.lower, trans.upper)
        self.omega_peak = omega_peak
        # shift of the peak-amplitude drive; it follows the instantaneous
        # power as ac_shift * envelope**2
        self.ac_shift = ac_zeeman_shift(sys, trans, amp_filt)
        self.decay = decay
        self.block = block          # steps per block of the tabulated maps
        # (offset, _NoJumpTable) of the last shot offset this drive ran
        # under, built on first use; a new offset replaces it
        self.table = (None, None)


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

    The step grid is split into blocks of ``drive.block`` steps, the
    longest whose no-jump survival is at least ``_MIN_SURVIVAL``; a drive
    that is not lossy has one block. Each block's cumulative maps start
    at the identity, so ``num``, ``den``, the restart vectors and the
    block's end map (in ``spans`` the one that carries the state into the
    next block, ``end`` the last) act on the state at the block's start,
    and a restart never inverts a map of lower survival. The cumulative
    maps come from a doubling scan within each block, ceil(log2 block)
    batched products (Hillis & Steele, CACM 29, 1170, 1986). A one-block
    table also holds the hazards and end state of the two pole starts, the
    readout's common case.

    A table lives in its drive's one slot for as long as the shot
    ``offset`` (rad/s, subtracted from the detuning as in ``_free_map``)
    stays the same. At offset 0 that is for good, so the table solves
    every restart vector at once and drops the cumulative maps. A
    per-shot offset serves only one shot's segments, so its table keeps
    the maps and solves a restart vector only when a jump needs one. No
    reader mutates a table.
    """

    __slots__ = ("num", "den", "end", "spans", "prefix", "restarts",
                 "pole_hazard", "pole_end")

    def __init__(self, plan, drive, offset: float = 0.0):
        n, block = plan.n_steps, drive.block
        env = np.asarray(plan.envelope)
        wx = drive.omega_peak * env
        detuning = (plan.frame - drive.trans.frequency - offset
                    if plan.frame != 0.0 else 0.0)
        w = np.stack([wx, np.zeros(n), detuning - drive.ac_shift * env * env],
                     axis=1)
        decay = drive.decay
        q = 1.0 - decay.p_step
        transverse = decay.sqrt_survive * plan.t2_decay
        weights = np.array([1.0, q, transverse, transverse])
        step_map = (weights[:, None, None] * _STEP_BASIS).reshape(16, 10)
        steps = (_rotation_features(w, plan.dt) @ step_map.T).reshape(n, 4, 4)
        prefix = steps.copy()
        for first in range(0, n, block):
            part = prefix[first:first + block]
            k = 1
            while k < len(part):
                part[k:] = part[k:] @ part[:-k]
                k *= 2
        eye = np.eye(4)
        before = np.concatenate([eye[None], prefix[:-1]])
        before[block::block] = eye      # each block starts at the identity
        self.den = before[:, 0] + before[:, 1]
        # row 1 of a step is the rotated upper population times q
        self.num = (decay.p_step / q) * np.einsum("ij,ijk->ik", steps[:, 1],
                                                  before)
        ends, self.end = prefix[block - 1::block], prefix[-1]
        self.prefix = self.restarts = None
        if offset != 0.0:
            self.prefix = prefix
        else:
            if decay.p_step > 0.0:
                lower = np.broadcast_to(_LOWER_POLE[:, None], (n, 4, 1))
                self.restarts = np.linalg.solve(prefix, lower)[..., 0]
            # copies free the cumulative maps
            ends, self.end = ends.copy(), self.end.copy()
        # (first step, stop, end map of the block before) of each block
        self.spans = tuple((first, min(first + block, n),
                            ends[first // block - 1] if first else None)
                           for first in range(0, n, block))
        self.pole_hazard = self.pole_end = None
        if block == n:
            # pole starts: v = e_0 or e_1
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

    The plan is where a pulse's drive is resolved: the addressed line,
    the cavity filter at the carrier and, for ``amplitude=None``, the
    calibrated amplitude. A pulse only drives transitions that involve
    the occupied level, so the plan holds one drive target per level in
    ``by_level``: the line with the largest element-weighted spectral
    overlap, or ``None`` when every candidate is too far off resonance
    to matter.
    """

    __slots__ = ("sys", "records", "by_level", "wall_time", "driven",
                 "n_steps", "dt", "envelope", "frame", "t2_decay", "decays")

    def __init__(self, seg: PulseSegment, sys: SpinSystem, noise: NoiseModel):
        self.sys = sys
        self.records = _decays(sys)
        self.wall_time = seg.wall_time
        self.driven = seg.driven
        self.n_steps, self.dt = _time_steps(seg, sys)
        self.envelope = _envelope_samples(seg, self.n_steps, self.dt)
        self.frame = seg.frequency
        self.t2_decay = math.exp(-self.dt / noise.t2) if noise.t2 else 1.0
        self.decays: dict[int, _StepDecay] = {}
        self.by_level = [None] * len(sys.levels)
        if not self.driven:
            return
        nearest = _address(seg, sys)     # also the ambiguous-carrier guard
        filt = drive_filter(sys.cavity, seg.frequency - sys.cavity.omega_0)
        amp = seg.amplitude
        if amp is None:
            # calibrated on the strongest allowed element, as on the strong
            # lines: a carrier on a weak (nuclear-flip) line is driven at the
            # element ratio, not boosted to a full rotation; the area is the
            # envelope's sum on this grid, exact for the discretized pulse
            allowed = [t.matrix_element for t in sys.transitions
                       if t.is_allowed]
            element = max(allowed) if allowed else nearest.matrix_element
            coupling = 2.0 * element * filt
            if coupling <= 0:
                raise ValueError(f"transition {nearest.label} is not "
                                 f"drivable (zero element)")
            amp = seg.rotation / (coupling * (sum(self.envelope) * self.dt))
        drives: dict[Transition, _LevelDrive] = {}
        for level in range(len(sys.levels)):
            # every level has an electron-flip line, so never empty
            cands = [t for t in sys.transitions if level in (t.lower, t.upper)]
            best = max(cands, key=lambda t: _drive_weight(t, seg))
            if _drive_weight(best, seg) < _WEIGHT_FLOOR:
                continue
            drive = drives.get(best)
            if drive is None:
                omega_peak = amp * 2.0 * best.matrix_element * filt
                decay = self.decay_for(best.upper)
                drive = drives[best] = _LevelDrive(
                    best, amp * filt, omega_peak, sys, decay,
                    self._block(decay))
            self.by_level[level] = drive

    def _block(self, decay: _StepDecay) -> int:
        """Steps per block of a drive's maps: all of them, or the most
        whose no-jump survival stays at least ``_MIN_SURVIVAL``."""
        step = (1.0 - decay.p_step) * self.t2_decay
        if step ** self.n_steps >= _MIN_SURVIVAL:
            return self.n_steps
        if step == 0.0:     # the t2 factor of one step underflows
            raise ValueError(f"t2 is too short for a drive step of "
                             f"{self.dt:.3g} s")
        return max(1, int(math.log(_MIN_SURVIVAL) / math.log(step)))

    def decay_for(self, level: int) -> _StepDecay:
        """Decay of ``level`` on this plan's step grid, built once."""
        decay = self.decays.get(level)
        if decay is None:
            decay = self.decays[level] = _StepDecay(self.records[level],
                                                    self.dt, self.n_steps)
        return decay


def _pulse_plan(seg: PulseSegment, sys: SpinSystem,
                noise: NoiseModel) -> _PulsePlan:
    """The system's memoised plan of ``seg`` under ``noise``."""
    # keyed by the segment's fields, not the segment: equal segments share
    # a plan, and hashing the dataclass costs more than its stored tuple
    key = (noise, seg._plan_key)
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
    continues. A segment runs on one of two paths:

    - population mode, when no coherence is carried: plain relaxation
      across the whole segment (``_relax``);
    - no-jump maps: the closed form for an undriven coherence
      (``_free_map``), the drive's tabulated cumulative maps for a driven
      one (``_table_map``). The table sits in the drive's one slot,
      built for the shot offset of the segment that filled it; a segment
      under another offset replaces it. Without ``t2_star`` the offset is
      always 0, and one table serves every shot. A lossy drive's maps run
      block by block. One uniform per step is drawn and compared with the
      step's hazard, as a per-step Bloch loop would, so events, levels
      and random stream match such a loop up to rounding.

    A jump is stamped at the midpoint of the step it falls in. A
    zero-length segment returns at once, before any plan is looked up;
    otherwise the plan, found by the key the segment built when it was
    constructed, is all the rest of the call reads of the segment.
    """
    # ahead of the plan: a zero-length wait has no step grid
    if seg.duration == 0.0:
        return []
    plan = _pulse_plan(seg, sys, noise)
    drive = _enter(state, plan, rng)
    if state.pair is None or state.bloch is None:
        return _relax(state, plan, plan.wall_time, rng)
    if drive is None:
        return _free_map(state, plan, rng)
    # one read of the slot: a thread sharing the drive may replace it,
    # which costs a rebuild at worst
    offset, table = drive.table
    if offset != state.shot_offset:
        table = _NoJumpTable(plan, drive, state.shot_offset)
        drive.table = (state.shot_offset, table)
    return _table_map(state, plan, drive, table, rng)


def _enter(state: SystemState, plan: _PulsePlan, rng):
    """Prepare the coherence a segment evolves; returns its drive or None.

    A driven segment keeps an existing coherence only when its carrier
    re-addresses the same pair, and otherwise starts the occupied level's
    drive target from a pole. An undriven segment resolves a nearly pure
    population state now, so that it runs in the cheap population mode.
    """
    if plan.driven:
        if state.bloch is not None and state.pair is not None:
            cont = plan.by_level[state.pair[0]]
            if cont is not None and cont.pair == state.pair:
                return cont
            _collapse(state, rng)
        drive = plan.by_level[state.level]
        if drive is not None:
            z0 = -1.0 if state.level == drive.pair[0] else 1.0
            state.bloch, state.pair = [0.0, 0.0, z0], drive.pair
        return drive
    if state.pair is not None and state.bloch is not None:
        x0, y0, z0 = state.bloch
        if x0 * x0 + y0 * y0 < 2.5e-3 and abs(z0) > 0.99:
            _collapse(state, rng)
    return None


def _free_map(state: SystemState, plan: _PulsePlan, rng):
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
        i = _first_hit(uniforms < hazard)
        if i is not None:
            state.level = decay.record.jump(t0 + (i + 0.5) * dt, rng, events)
            if state.level != lower:
                state.time = t0 + (i + 1) * dt
                return _leave_pair(state, plan, plan.wall_time - (i + 1) * dt,
                                   rng, events)
            state.bloch = [0.0, 0.0, -1.0]
            state.time = t0 + plan.wall_time
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
    state.time = t0 + plan.wall_time
    return events


def _first_hit(mask: np.ndarray) -> int | None:
    """Index of the first true element of a non-empty mask, or None.

    ``argmax`` stops at the first maximum; a check of that one element
    tells an all-false mask apart. Cheaper than ``np.flatnonzero`` for the
    short masks of one segment.
    """
    i = int(mask.argmax())
    return i if mask[i] else None


def _table_map(state: SystemState, plan: _PulsePlan, drive: _LevelDrive,
               table: _NoJumpTable, rng):
    """Driven no-jump evolution from a table of the drive's maps.

    Each start vector (a pole, the entry coherence, or the restart vector
    after a jump back to the lower level) costs two mat-vecs for the
    hazards of the remaining steps of its block and one for the block's
    end state; a one-block table has the pole starts precomputed. At a
    block boundary the state is carried by the block's end map and
    renormalised to unit trace.
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
    uniforms = rng.random(n) if decay.record.total > 0 else None
    for start, stop, carry in table.spans:
        if carry is not None:
            v = carry @ v
            v /= v[0] + v[1]
            hazard = None
        while uniforms is not None and start < stop:
            if hazard is None:
                hazard = ((table.num[start:stop] @ v)
                          / (table.den[start:stop] @ v))
            hit = _first_hit(uniforms[start:stop] < hazard)
            if hit is None:
                break
            i = start + hit
            state.level = decay.record.jump(t0 + (i + 0.5) * dt, rng, events)
            if state.level != drive.pair[0]:
                state.time = t0 + (i + 1) * dt
                return _leave_pair(state, plan, plan.wall_time - (i + 1) * dt,
                                   rng, events)
            v, hazard, start = table.restart(i), None, i + 1
    state.bloch = list(end) if v is None else _bloch(table.end @ v)
    state.time = t0 + plan.wall_time
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


def run_trajectories(n: int, schedule, sys: SpinSystem, seed: int,
                     noise: NoiseModel = NO_NOISE,
                     initial_level: int = 0) -> list[Trajectory]:
    """n independent shots of the schedule; deterministic given the seed."""
    if n < 1:
        raise ValueError("need at least one trajectory")
    out = []
    for index in range(n):
        rng = trajectory_rng(seed, index)
        state = SystemState(level=initial_level,
                            shot_offset=noise.shot_offset(rng))
        events: list[JumpEvent] = []
        windows: list[tuple[float, float]] = []
        for seg in schedule:
            t0 = state.time
            events += apply_pulse(state, seg, sys, rng, noise)
            if seg.kind == "detect_window":
                windows.append((t0, state.time))
        _collapse(state, rng)
        out.append(Trajectory(events=tuple(events), windows=tuple(windows),
                              final_level=state.level, final_time=state.time))
    return out
