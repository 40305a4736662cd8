"""Jump-trajectory engine: decay statistics, coherent rotations,
reproducibility, noise channels."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from jumpspec import dynamics as dyn
from jumpspec.dynamics import (NO_NOISE, AmbiguousDriveError, NoiseModel,
                               PulseSegment, SystemState, apply_pulse,
                               gaussian_pi, trajectory_rng, wait)
from jumpspec.spinmodel import (CavityParams, SpinParams, Transition,
                                build_system)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def system():
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 103e3)])
    c = CavityParams.from_hz(7.334e9, 640e3, 4.5e3)
    return build_system(p, c)


def decay_times(system, level, n, seed):
    out = []
    for i in range(n):
        rng = trajectory_rng(seed, i)
        state = SystemState(level=level)
        events = apply_pulse(state, wait(20e-3), system, rng)
        if events:
            out.append(events[0].time)
    return np.array(out)


def test_jump_times_exponential(system):
    times = decay_times(system, level=3, n=2000, seed=2)
    gamma = system.total_rate(3)
    assert times.size > 1990       # 20 ms is ~16 lifetimes
    res = stats.kstest(times, "expon", args=(0.0, 1.0 / gamma))
    assert res.pvalue > 0.01


def test_branching_fractions(system):
    n = 3000
    labels = []
    for i in range(n):
        rng = trajectory_rng(3, i)
        state = SystemState(level=3)
        events = apply_pulse(state, wait(30e-3), system, rng)
        if events:
            labels.append(events[0].label)
    rates = {ch.transition.label: ch.rate for ch in system.channels[3]}
    total = sum(rates.values())
    for label, rate in rates.items():
        p = rate / total
        observed = sum(1 for x in labels if x == label)
        sigma = math.sqrt(len(labels) * p * (1 - p))
        assert abs(observed - len(labels) * p) < 4.0 * max(sigma, 1.0)


def test_seed_determinism_bit_exact(system):
    sched = [gaussian_pi(system.transition("allowed_d").frequency),
             wait(3e-3)]

    def shots(seed):
        out = []
        for index in range(50):
            rng = trajectory_rng(seed, index)
            state = SystemState(level=1)
            events = [e for seg in sched
                      for e in apply_pulse(state, seg, system, rng)]
            out.append((events, state, int(rng.integers(2 ** 32))))
        return out

    a = shots(9)
    assert a == shots(9)
    assert any(sa != sc for sa, sc in zip(a, shots(10)))


def test_resonant_pi_pulse_inverts(system):
    t = system.transition("allowed_d")
    excited = 0
    for i in range(200):
        rng = trajectory_rng(11, i)
        state = SystemState(level=t.lower)
        events = apply_pulse(state, gaussian_pi(t.frequency), system, rng)
        if events:
            excited += 1          # a jump proves the pulse excited the spin
        elif state.bloch is not None:
            excited += 0.5 * (1.0 + state.bloch[2])
    assert excited / 200 > 0.97


def test_detuned_pulse_barely_excites(system):
    t = system.transition("allowed_d")
    rng = trajectory_rng(12, 0)
    state = SystemState(level=t.lower)
    # negative offset keeps the carrier nearest to this line
    apply_pulse(state, gaussian_pi(t.frequency - TWO_PI * 40e3), system, rng)
    p_up = 0.5 * (1.0 + state.bloch[2]) if state.bloch is not None else (
        1.0 if state.level == t.upper else 0.0)
    assert p_up < 0.01


def test_half_rotation_gives_even_odds(system):
    t = system.transition("allowed_d")
    ups = 0
    n = 400
    for i in range(n):
        rng = trajectory_rng(13, i)
        state = SystemState(level=t.lower)
        apply_pulse(state, gaussian_pi(t.frequency, rotation=math.pi / 2),
                    system, rng)
        events = apply_pulse(state, wait(30e-3), system, rng)
        ups += bool(events)
    assert abs(ups / n - 0.5) < 4.0 * math.sqrt(0.25 / n)


def test_conditional_decay_after_partial_excitation(system):
    """No-jump evolution must renormalize: the conditional jump-time
    distribution after a pi/2 pulse matches the excited-state exponential."""
    t = system.transition("allowed_d")
    times = []
    for i in range(1500):
        rng = trajectory_rng(14, i)
        state = SystemState(level=t.lower)
        apply_pulse(state, gaussian_pi(t.frequency, rotation=math.pi / 2),
                    system, rng)
        t0 = state.time
        events = apply_pulse(state, wait(25e-3), system, rng)
        if events:
            times.append(events[0].time - t0)
    gamma = system.total_rate(t.upper)
    res = stats.kstest(np.array(times), "expon", args=(0.0, 1.0 / gamma))
    assert res.pvalue > 0.01


def test_level_out_of_range_fails_loudly(system):
    """A negative level is rejected as the state is made; one past the
    last level fails on the first segment that reads it."""
    with pytest.raises(ValueError, match="level"):
        SystemState(level=-1)
    n = len(system.levels)
    for seg in (wait(5e-3),
                gaussian_pi(system.transition("allowed_d").frequency)):
        with pytest.raises(IndexError):
            apply_pulse(SystemState(level=n), seg, system,
                        trajectory_rng(15, 1))


def test_zero_duration_wait_is_noop(system):
    state = SystemState(level=2, time=1.0)
    events = apply_pulse(state, wait(0.0), system, trajectory_rng(15, 0))
    assert events == [] and state.time == 1.0


def test_frame_wait_accumulates_ramsey_phase(system):
    """Detuned Ramsey: pi/2 -- tau -- pi/2 oscillates at the detuning."""
    t = system.transition("allowed_d")
    delta_hz = 20e3
    # detune away from the other allowed line so addressing stays fixed
    carrier = t.frequency - TWO_PI * delta_hz
    half = math.pi / 2
    fwhm = 10e-6

    def p_up(tau, i):
        # retry seeds until a shot survives without a relaxation jump
        for j in range(20):
            rng = trajectory_rng(16, 100 * i + j)
            state = SystemState(level=t.lower)
            jumped = False
            for seg in (gaussian_pi(carrier, fwhm=fwhm, rotation=half),
                        wait(tau, frame_frequency=carrier),
                        gaussian_pi(carrier, fwhm=fwhm, rotation=half)):
                jumped = jumped or bool(apply_pulse(state, seg, system, rng))
            if not jumped and state.bloch is not None:
                return 0.5 * (1.0 + state.bloch[2])
        raise AssertionError("every shot jumped; decay rate implausible")

    period = 1.0 / delta_hz
    taus = np.linspace(0.0, period, 9)
    fringe = np.array([p_up(tau, i) for i, tau in enumerate(taus)])
    # one full period: endpoints agree, and the fringe swings through it
    assert abs(fringe[0] - fringe[-1]) < 0.05
    assert fringe.max() - fringe.min() > 0.8
    # extremes half a period apart
    assert abs(taus[np.argmax(fringe)] - taus[np.argmin(fringe)]) == (
        pytest.approx(period / 2.0, abs=period / 8.0))


def test_ambiguous_carrier_rejected(system):
    freq = 0.5 * (system.transition("allowed_d").frequency
                  + system.transition("double_quantum").frequency)
    # allowed_d and double_quantum sit ~17 kHz apart near this carrier;
    # halfway between them both are > 1 kHz away, so addressing works
    apply_pulse(SystemState(level=1), gaussian_pi(freq), system,
                trajectory_rng(17, 0))
    # a 1.5 kHz hyperfine splitting puts both allowed lines within 1 kHz
    # of the carrier halfway between them
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(1.5e3, 0.0)])
    sys2 = build_system(p, CavityParams.from_hz(7.334e9, 640e3, 4.5e3))
    mid = 0.5 * (sys2.transition("allowed_d").frequency
                 + sys2.transition("allowed_u").frequency)
    with pytest.raises(AmbiguousDriveError):
        apply_pulse(SystemState(level=1), gaussian_pi(mid), sys2,
                    trajectory_rng(17, 1))


def test_lossless_cavity_is_unitary_and_draws_nothing():
    """With g0 = 0 no level decays, so no segment draws a uniform: a
    resonant pi on the strongest allowed line inverts the pair exactly,
    and a Ramsey pi/2, framed wait, pi/2 keeps a pure Bloch vector."""
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 103e3)])
    sys = build_system(p, CavityParams.from_hz(7.334e9, 640e3, 0.0))
    assert all(sys.total_rate(i) == 0.0 for i in range(len(sys.levels)))
    # the pi is calibrated on the strongest allowed element
    line = max(sys.allowed_transitions(), key=lambda t: t.matrix_element)
    carrier = line.frequency + TWO_PI * 3e3
    schedules = (
        [gaussian_pi(line.frequency)],
        [gaussian_pi(carrier, rotation=math.pi / 2), wait(40e-6, carrier),
         gaussian_pi(carrier, rotation=math.pi / 2)])
    for index, schedule in enumerate(schedules):
        rng = trajectory_rng(31, index)
        state = SystemState(level=line.lower)
        for seg in schedule:
            assert apply_pulse(state, seg, sys, rng) == []
        assert state.pair == (line.lower, line.upper)
        if index == 0:
            assert abs(state.bloch[2] - 1.0) <= 1e-12
        assert abs(math.hypot(*state.bloch) - 1.0) <= 1e-12
        assert rng.random() == trajectory_rng(31, index).random()


def _address_by_sort(seg, sys):
    """Reference addressing: sort every line by distance to the carrier
    (stable, so the first of equal distances stays first)."""
    dist = [(abs(t.frequency - seg.frequency), t) for t in sys.transitions]
    dist.sort(key=lambda pair: pair[0])
    near = [t for d, t in dist if d < dyn.AMBIGUITY_BAND]
    if len(near) > 1:
        raise AmbiguousDriveError(
            "carrier within 1 kHz of transitions "
            + " and ".join(t.label for t in near))
    return dist[0][1]


def _addressing(seg, sys, address):
    try:
        return address(seg, sys), None
    except AmbiguousDriveError as exc:
        return None, str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(grid=st.lists(st.integers(0, 60), min_size=1, max_size=6),
       data=st.data())
def test_address_matches_sorted_reference(grid, data):
    """Lines on a 256 rad/s grid (the band spans about 25 steps), so
    equal distances and two lines in one band are common. Carriers sit on
    a line, inside or at the edge of its band, or halfway between two
    lines. The grid starts at 0 rad/s, where the edge carriers of the low
    lines lie exactly one band away."""
    lines = tuple(Transition(label=f"line{i}", lower=0, upper=1,
                             frequency=256.0 * k, matrix_element=0.5,
                             nuclear_flips=())
                  for i, k in enumerate(grid))
    sys = SimpleNamespace(transitions=lines)
    band = dyn.AMBIGUITY_BAND
    f = data.draw(st.sampled_from(lines)).frequency
    g = data.draw(st.sampled_from(lines)).frequency
    carrier = data.draw(st.one_of(
        st.just(f), st.just(0.5 * (f + g)),
        st.floats(f - band, f + band),
        st.sampled_from([f - band, f + band,
                         math.nextafter(f + band, -math.inf),
                         math.nextafter(f - band, math.inf)])))
    seg = gaussian_pi(carrier)
    got, got_error = _addressing(seg, sys, dyn._address)
    want, want_error = _addressing(seg, sys, _address_by_sort)
    assert got is want
    assert got_error == want_error


def test_static_offset_detunes_the_pulse(system):
    t = system.transition("allowed_d")
    noise = NoiseModel(t2_star=50e-6)
    state = SystemState(level=t.lower, shot_offset=TWO_PI * 40e3)
    apply_pulse(state, gaussian_pi(t.frequency), system,
                trajectory_rng(18, 0), noise)
    p_up = 0.5 * (1.0 + state.bloch[2])
    assert p_up < 0.01


def test_driven_forbidden_transition_needs_shifted_carrier(system):
    """A strong forbidden drive shifts its own resonance; driving at the
    static frequency misses, at the solver-predicted frequency it flips."""
    from jumpspec.sequencer import forbidden_pi
    zq = system.transition("zero_quantum")
    seg = forbidden_pi(system, "zero_quantum")
    assert abs(seg.frequency - zq.frequency) > TWO_PI * 10e3

    def end_flipped(segx, seed):
        n = 0
        for i in range(60):
            rng = trajectory_rng(seed, i)
            state = SystemState(level=zq.lower)
            apply_pulse(state, segx, system, rng)
            apply_pulse(state, wait(8.0 / system.gamma_r), system, rng)
            n += (system.levels[state.level] == (0, "d"))
        return n / 60

    assert end_flipped(seg, 21) > 0.9
    bare = PulseSegment(kind="flattop", frequency=zq.frequency,
                        amplitude=seg.amplitude, duration=seg.duration,
                        edge=seg.edge)
    assert end_flipped(bare, 22) < 0.5


@pytest.mark.parametrize("field", ["t2_star", "t2"])
def test_noise_model_rejects_invalid_times(system, field):
    """Negative or non-finite coherence times fail loudly (a negative t2
    would grow the Bloch vector); None and 0 switch the channel off."""
    for bad in (-1e-4, math.inf, math.nan):
        with pytest.raises(ValueError, match=field):
            NoiseModel(**{field: bad})
    t = system.transition("allowed_d")
    for off in (None, 0, 0.0):
        noise = NoiseModel(**{field: off})
        assert noise.shot_offset(trajectory_rng(28, 0)) == 0.0
        assert dyn._pulse_plan(wait(1e-4, t.frequency), system,
                               noise).t2_decay == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["frequency", "amplitude", "duration",
                                   "edge", "rotation"])
def test_segment_rejects_non_finite_fields(field, bad):
    """A NaN or infinite pulse field fails when the segment is built,
    not as a NaN Bloch vector or an overflow deep inside a segment."""
    fields = dict(kind="flattop", frequency=TWO_PI * 7.334e9,
                  amplitude=TWO_PI * 100e3, duration=80e-6, edge=10e-6,
                  rotation=math.pi)
    PulseSegment(**fields)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        PulseSegment(**{**fields, field: bad})


def test_drive_rejects_t2_below_its_step(fast_system):
    """A t2 whose decay factor over one drive step underflows to 0 leaves
    the no-jump maps singular: the plan fails loudly, while a free
    segment, which never inverts a map, still runs."""
    t = fast_system.transition("allowed_d")
    noise = NoiseModel(t2=1e-12)
    with pytest.raises(ValueError, match="t2 is too short"):
        apply_pulse(SystemState(level=t.lower), gaussian_pi(t.frequency),
                    fast_system, trajectory_rng(29, 0), noise)
    state = SystemState(level=t.lower, bloch=[1.0, 0.0, 0.0],
                        pair=(t.lower, t.upper))
    apply_pulse(state, wait(1e-4, t.frequency), fast_system,
                trajectory_rng(29, 1), noise)
    assert state.bloch is None or state.bloch[:2] == [0.0, 0.0]


@pytest.mark.parametrize("mask", [[False] * 5, [True, False, False],
                                  [False, False, True],
                                  [False, True, False, True, True], [True]])
def test_first_hit_matches_flatnonzero(mask):
    mask = np.array(mask)
    hits = np.flatnonzero(mask)
    assert dyn._first_hit(mask) == (int(hits[0]) if hits.size else None)


@pytest.fixture(scope="module")
def fast_system():
    """Purcell lifetime ~13 us: most pulses see jumps, including jumps
    back into the driven pair."""
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 103e3)])
    return build_system(p, CavityParams.from_hz(7.334e9, 640e3, 45e3))


def _step_loop(state, plan, drive, rng):
    """Per-step propagation of the coherence; the pathwise reference for
    the maps, whose statistics ``test_oracle.py`` checks against the
    master equation.

    Each step rotates the Bloch vector about the instantaneous drive
    (Rodrigues), applies the t2 factor, and multiplies the running no-jump
    survival by one minus the step's jump hazard; without a jump the
    conditional no-jump map of amplitude damping renormalises the state,
    so jump timing from a partially excited state stays exact. One
    uniform is drawn at the start, at the first step of each further
    block of ``drive.block`` steps and after each jump back to the lower
    level, and the jump falls at the first step whose running survival
    drops below it.
    """
    lower, upper = state.pair
    record, trans_freq = plan.records[upper], drive.trans.frequency
    omega_peak, ac_shift = drive.omega_peak, drive.ac_shift
    p_step = plan.p_step[upper]
    sqrt_survive = math.sqrt(1.0 - p_step)
    n_steps, dt, envelope = plan.n_steps, plan.dt, plan.envelope
    t2_decay = plan.t2_decay
    frame = plan.frame
    jumps = record.total > 0
    u = rng.random() if jumps else None
    survival = 1.0
    x, y, z = (float(state.bloch[0]), float(state.bloch[1]),
               float(state.bloch[2]))
    detuning = (frame - trans_freq - state.shot_offset
                if frame != 0.0 else 0.0)
    t0 = state.time
    events = []
    for i in range(n_steps):
        if jumps and i and i % drive.block == 0:
            u, survival = rng.random(), 1.0
        env_i = envelope[i]
        wx, wy = omega_peak * env_i, 0.0
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
        if not jumps:
            continue
        p_upper = 0.5 * (1.0 + z)
        survival *= 1.0 - p_upper * p_step
        if survival < u:
            state.level = record.jump(t0 + (i + 0.5) * dt, rng, events)
            if state.level != lower:
                return dyn._relax(state, plan,
                                  plan.wall_time - (i + 1) * dt, rng, events)
            x, y, z = 0.0, 0.0, -1.0
            u, survival = rng.random(), 1.0
        else:
            norm = 1.0 - p_upper * p_step
            x *= sqrt_survive / norm
            y *= sqrt_survive / norm
            z = (p_upper * (1.0 - p_step) - (1.0 - p_upper)) / norm
    state.bloch = [x, y, z]
    return events


def _via_step_loop(state, seg, sys, rng, noise):
    """``apply_pulse`` through the per-step loop; an undriven segment runs
    it with a zero drive on the carried pair, and one without a coherence
    runs in the engine's population mode."""
    plan = dyn._pulse_plan(seg, sys, noise)
    drive = dyn._enter(state, plan, rng)
    if state.pair is None or state.bloch is None:
        return dyn._relax(state, plan, plan.wall_time, rng, [])
    if drive is None:
        drive = SimpleNamespace(
            omega_peak=0.0, ac_shift=0.0, block=plan.n_steps,
            trans=SimpleNamespace(
                frequency=dyn._pair_frequency(sys, state.pair)))
    return _step_loop(state, plan, drive, rng)


def _assert_same_shot(state, events, rng, ref, ref_events, ref_rng):
    """Same jumps, levels, pair and random stream; times and Bloch vectors
    to rounding."""
    assert [(e.label, e.photon) for e in events] == [
        (e.label, e.photon) for e in ref_events]
    for e, r in zip(events, ref_events):
        assert abs(e.time - r.time) < 1e-12
    assert state.level == ref.level and state.pair == ref.pair
    assert abs(state.time - ref.time) < 1e-12
    assert (repr(rng.bit_generator.state)
            == repr(ref_rng.bit_generator.state))
    assert (state.bloch is None) == (ref.bloch is None)
    if state.bloch is not None:
        np.testing.assert_allclose(state.bloch, ref.bloch, rtol=0, atol=1e-9)


#: Segments, noise, start states and shot offsets of the no-jump maps'
#: property tests.
_MAP_CASES = dict(
    fast=st.booleans(),
    kind=st.sampled_from(["gaussian_pi", "flattop", "wait", "detect_window"]),
    offset_hz=st.floats(-30e3, 8e3),
    pulse_len=st.floats(10e-6, 200e-6),
    free_len=st.floats(10e-6, 3e-3),
    rotation=st.floats(0.1, 2.0 * math.pi),
    t2=st.one_of(st.none(), st.floats(20e-6, 2e-3)),
    start=st.one_of(st.sampled_from(["lower", "upper"]),
                    st.tuples(st.floats(0.06, math.pi - 0.06),
                              st.floats(0.0, 2.0 * math.pi))),
    shot_hz=st.floats(-20e3, 20e3),
    framed=st.booleans(),
    seed=st.integers(0, 2 ** 31))


def _map_case(system, fast_system, fast, kind, offset_hz, pulse_len,
              free_len, rotation, t2, start, framed):
    """(system, segment, noise, plan, start state, drive) of one drawn
    case; the drive is ``None`` for an undriven segment."""
    sys = fast_system if fast else system
    t = sys.transition("allowed_d")
    noise = NoiseModel(t2=t2)
    carrier = t.frequency + TWO_PI * offset_hz
    driven = kind in ("gaussian_pi", "flattop")
    if driven:
        seg = PulseSegment(kind=kind, frequency=carrier, duration=pulse_len,
                           rotation=rotation)
    else:
        seg = PulseSegment(kind=kind, frequency=carrier if framed else 0.0,
                           duration=free_len)
    plan = dyn._pulse_plan(seg, sys, noise)
    state = SystemState(level=t.lower, time=0.0123)
    if isinstance(start, str):
        assume(driven)
        state.level = t.lower if start == "lower" else t.upper
        drive = plan.by_level[state.level]
    else:
        theta, phi = start
        state.bloch = [math.sin(theta) * math.cos(phi),
                       math.sin(theta) * math.sin(phi), math.cos(theta)]
        state.pair = (t.lower, t.upper)
        drive = plan.by_level[t.lower] if driven else None
        if driven:
            assume(drive is not None)
            state.pair = drive.pair
    if driven:
        assume(drive is not None)
    return sys, seg, noise, plan, state, drive


@settings(max_examples=300, deadline=None, derandomize=True)
@given(**_MAP_CASES)
def test_no_jump_maps_match_step_loop(system, fast_system, fast, kind,
                                      offset_hz, pulse_len, free_len,
                                      rotation, t2, start, shot_hz, framed,
                                      seed):
    """The closed-form and tabulated maps against the per-step loop: same
    jumps, levels and random stream; times and Bloch vectors to rounding.
    The first shots carry the static detuning ``shot_hz`` and the rest
    none, so a driven segment's table slot is filled once per offset."""
    sys, seg, noise, plan, start_state, drive = _map_case(
        system, fast_system, fast, kind, offset_hz, pulse_len, free_len,
        rotation, t2, start, framed)
    driven = drive is not None
    # several shots per drawn segment: a hazard that is off by p_step**2
    # flips one comparison in ~1e4
    for shot in range(8):
        offset = TWO_PI * shot_hz if shot < 4 else 0.0
        state = replace(start_state, shot_offset=offset)
        ref = replace(start_state, shot_offset=offset)
        rng, ref_rng = trajectory_rng(seed, shot), trajectory_rng(seed, shot)
        events = apply_pulse(state, seg, sys, rng, noise)
        ref_events = _via_step_loop(ref, seg, sys, ref_rng, noise)
        if driven:
            assert drive.table[0] == offset     # the shot's maps ran
        _assert_same_shot(state, events, rng, ref, ref_events, ref_rng)


def _assert_survival(rows, end):
    """A survival curve lies in [0, 1], never rises by more than 1e-12
    from one step to the next, and ends at ``end``, all within 1e-12: a
    restart's own row is 1 up to the rounding of its solve."""
    assert rows.min() >= -1e-12 and rows.max() <= 1.0 + 1e-12
    assert np.diff(rows).max(initial=0.0) <= 1e-12
    assert abs(rows[-1] - end) <= 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(**_MAP_CASES)
def test_survival_rows_fall_from_one(system, fast_system, fast, kind,
                                     offset_hz, pulse_len, free_len,
                                     rotation, t2, start, shot_hz, framed,
                                     seed):
    """The one-uniform rule rests on the survival curves: from either
    pole, the drawn start carried from block to block, or any restart
    vector, a table's survival rows are a non-increasing curve in [0, 1]
    that ends at the trace of the block's end map, and so is the free
    map's closed form p_lower + p_upper q**i."""
    sys, seg, noise, plan, state, drive = _map_case(
        system, fast_system, fast, kind, offset_hz, pulse_len, free_len,
        rotation, t2, start, framed)
    if drive is None:
        q = 1.0 - plan.p_step[state.pair[1]]
        p_upper = 0.5 * (1.0 + state.bloch[2])
        rows = (1.0 - p_upper) + p_upper * q ** np.arange(plan.n_steps + 1)
        _assert_survival(rows, (1.0 - p_upper) + p_upper * q ** plan.n_steps)
        return
    starts = [np.eye(4)[0], np.eye(4)[1]]
    if state.bloch is not None:
        x, y, z = state.bloch
        starts.append(np.array([0.5 * (1.0 - z), 0.5 * (1.0 + z), x, y]))
    for offset in (TWO_PI * shot_hz, 0.0):
        table = dyn._NoJumpTable(plan, drive, offset)
        table.scan()
        for v in starts:
            for first, stop, end, end_survival in table.spans:
                if first:
                    v = carry @ v
                    v = v / (v[0] + v[1])
                _assert_survival(table.trace[first:stop] @ v,
                                 end_survival @ v)
                carry = end
        for first, stop, end, end_survival in table.spans:
            for i in range(first, stop):
                v = table.restarts[i]
                rows = table.trace[i:stop] @ v
                assert abs(rows[0] - 1.0) <= 1e-12
                _assert_survival(rows, end_survival @ v)
        if table.pole_survival is not None:
            assert table.pole_survival == tuple(table.spans[0][3][:2])


def _jump_to_level_2(time, rng, events):
    events.append(time)
    return 2


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(n=st.integers(1, 3000), p_step=st.floats(1e-9, 0.9),
       z=st.floats(-1.0, 1.0), w=st.floats(0.0, 1.0, exclude_max=True))
def test_free_map_jump_step_matches_survival_rows(n, p_step, z, w):
    """The free map's closed-form first jump step is the first step whose
    survival p_lower + p_upper q**(i+1) falls below the uniform, the rule
    an array of every step's survival applies; draws within rounding of a
    step's survival, where the two may split, are skipped. A unit step
    stamps a jump in step i at i + 0.5."""
    q = 1.0 - p_step
    p_upper = 0.5 * (1.0 + z)
    p_lower = 1.0 - p_upper
    norm = p_lower + p_upper * q ** n
    u = norm + w * (1.0 - norm)
    assume(u < 1.0)
    rows = p_lower + p_upper * q ** np.arange(1, n + 1)
    rows[-1] = norm
    assume(np.all(np.abs(rows - u) > 1e-12 * u))
    expected = np.flatnonzero(rows < u)[:1].tolist() if u > norm else []
    quiet = SimpleNamespace(total=0.0)
    plan = SimpleNamespace(
        records=[quiet, SimpleNamespace(total=1.0, jump=_jump_to_level_2),
                 quiet],
        p_step=[0.0, p_step, 0.0], n_steps=n, dt=1.0, wall_time=float(n),
        t2_decay=1.0, frame=0.0)
    state = SystemState(level=0, bloch=[0.0, 0.0, z], pair=(0, 1))
    events = dyn._free_map(state, plan, SimpleNamespace(random=lambda: u))
    assert [int(t) for t in events] == expected
    assert state.time == n


def test_window_photons_lie_inside_the_window(system):
    """A jump is stamped inside its step, so a jump in the last step of a
    detection window is a photon of that window, not one at its end."""
    from jumpspec.dynamics import detect
    t = system.transition("allowed_d")
    seg = detect(1.5e-3)
    photons = 0
    for i in range(3000):
        rng = trajectory_rng(24, i)
        state = SystemState(level=t.lower, time=0.1234 + 1e-3 * i,
                            bloch=[0.6, 0.0, 0.8], pair=(t.lower, t.upper))
        t0 = state.time
        for e in apply_pulse(state, seg, system, rng):
            assert t0 <= e.time < t0 + seg.duration
            photons += e.photon
    assert photons > 1000


def test_no_jump_cache_is_independent_of_shot_count():
    """Per-shot t2* detunings must not leave a cached table per shot."""
    from jumpspec.detector import DetectorParams
    from jumpspec.sequencer import ramsey_experiment
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 103e3)])
    sys = build_system(p, CavityParams.from_hz(7.334e9, 640e3, 4.5e3))
    noise = NoiseModel(t2_star=100e-6)

    def cached():
        n = 0
        for plan in sys._memo.values():
            if isinstance(plan, dyn._PulsePlan):
                drives = set(d for d in plan.by_level if d is not None)
                n += sum(d.table[1] is not None for d in drives)
        return n

    def run(shots):
        ramsey_experiment(sys, DetectorParams(), 3, transition="allowed_d",
                          delays=[0.0, 60e-6], n_averages=shots, noise=noise)
        return cached()

    assert run(10) == run(100)


def test_shot_table_is_built_once_per_offset(monkeypatch):
    """Under t2* a Ramsey shot's two pi/2 pulses run on one drive and one
    offset, so they share one table; the next shot's offset rebuilds it.
    Without t2* a drive's one table serves every readout cycle."""
    from jumpspec.detector import DetectorParams
    from jumpspec.sequencer import ramsey_experiment, single_shot_readout
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 103e3)])
    sys = build_system(p, CavityParams.from_hz(7.334e9, 640e3, 4.5e3))
    noise = NoiseModel(t2_star=100e-6)
    built = []
    table_class = dyn._NoJumpTable

    def counted(plan, drive, offset=0.0):
        built.append(offset)
        return table_class(plan, drive, offset)

    monkeypatch.setattr(dyn, "_NoJumpTable", counted)
    ramsey_experiment(sys, DetectorParams(), 41, transition="allowed_d",
                      delays=[0.0, 60e-6], n_averages=5, noise=noise)
    assert len(built) == 10 and len(set(built)) == 10 and 0.0 not in built
    # a later pulse under the last shot's offset finds its table in the slot
    t = sys.transition("allowed_d")
    half = gaussian_pi(t.frequency + TWO_PI * 1e3, fwhm=20e-6,
                       rotation=math.pi / 2)
    state = SystemState(level=t.lower, shot_offset=built[-1])
    apply_pulse(state, half, sys, trajectory_rng(41, 0), noise)
    assert len(built) == 10

    def readout_tables(n_ro):
        """Tables a noise-free readout builds on a fresh system: offset 0
        for good, so one per drive, however many cycles run."""
        built.clear()
        fresh = build_system(p, CavityParams.from_hz(7.334e9, 640e3, 4.5e3))
        single_shot_readout(SystemState(level=0), fresh, DetectorParams(),
                            trajectory_rng(42, 0), n_ro=n_ro)
        assert set(built) == {0.0}
        return len(built)

    assert readout_tables(5) == readout_tables(50)


def _ramsey_shots(sys, n, noise):
    """n seeded shots of pi/2 -- 30 us -- pi/2 on ``allowed_d``, each
    with its own t2* offset: (events, level, Bloch vector, random stream
    state) after each."""
    t = sys.transition("allowed_d")
    carrier = t.frequency + TWO_PI * 1e3
    half = gaussian_pi(carrier, fwhm=20e-6, rotation=math.pi / 2)
    out = []
    for i in range(n):
        rng = trajectory_rng(43, i)
        state = SystemState(level=t.lower, shot_offset=noise.shot_offset(rng))
        events = []
        for seg in (half, wait(30e-6, frame_frequency=carrier), half):
            events += apply_pulse(state, seg, sys, rng, noise)
        out.append((events, state.level, state.bloch,
                    repr(rng.bit_generator.state)))
    return out


def _assert_same_shots(shots, ref_shots):
    """Same events, levels and random stream; Bloch vectors to 1e-12."""
    assert len(shots) == len(ref_shots)
    for (events, level, bloch, stream), ref in zip(shots, ref_shots):
        assert (events, level, stream) == (ref[0], ref[1], ref[3])
        assert (bloch is None) == (ref[2] is None)
        if bloch is not None:
            np.testing.assert_allclose(bloch, ref[2], rtol=0, atol=1e-12)


@pytest.mark.parametrize("g0_hz, shots, t2_star", [
    (4.5e3, 60, 100e-6), (45e3, 20, 100e-6), (4.5e3, 20, None)],
    ids=["4500.0-60", "45000.0-20", "4500.0-20-offset_0"])
def test_shot_table_scans_only_when_a_segment_jumps(monkeypatch, g0_hz,
                                                    shots, t2_star):
    """A table defers its scan until one of its segments jumps: the
    tables that scan are exactly those with a jumping segment, few of the
    per-shot tables on the slow system and some on the fast one, and
    none of the one offset-0 table that noise-free shots share on the
    slow system. The scan leaves the spans the table was built with, so
    scanning every table at once gives the same shots."""
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 103e3)])
    cavity = CavityParams.from_hz(7.334e9, 640e3, g0_hz)
    noise = NoiseModel(t2_star=t2_star)
    built, scanned, jumped = [], set(), set()
    init, scan = dyn._NoJumpTable.__init__, dyn._NoJumpTable.scan
    table_map = dyn._table_map

    def counted_init(table, *args):
        built.append(table)
        init(table, *args)

    def counted_scan(table):
        before = table.spans, table.pole_end, table.pole_survival
        if table.steps is not None:
            scanned.add(id(table))
        scan(table)
        assert all(a is b for a, b in zip(
            before, (table.spans, table.pole_end, table.pole_survival)))

    def counted_map(state, plan, drive, table, rng):
        events = table_map(state, plan, drive, table, rng)
        if events:
            jumped.add(id(table))
        return events

    monkeypatch.setattr(dyn._NoJumpTable, "__init__", counted_init)
    monkeypatch.setattr(dyn._NoJumpTable, "scan", counted_scan)
    monkeypatch.setattr(dyn, "_table_map", counted_map)
    deferred = _ramsey_shots(build_system(p, cavity), shots, noise)
    assert len(built) == (shots if t2_star else 1)
    assert scanned == jumped
    if g0_hz < 10e3:
        assert len(scanned) < len(built) / 4
    else:
        assert scanned

    def scanned_init(table, *args):
        init(table, *args)
        table.scan()

    monkeypatch.setattr(dyn._NoJumpTable, "__init__", scanned_init)
    _assert_same_shots(deferred,
                       _ramsey_shots(build_system(p, cavity), shots, noise))


def test_memo_is_freed_with_its_system():
    """Plans and decay records live on their system and keep nothing
    else alive: a system is collected once the caller drops it."""
    import gc
    import weakref
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 103e3)])
    sys = build_system(p, CavityParams.from_hz(7.334e9, 640e3, 45e3))
    t = sys.transition("allowed_d")
    state = SystemState(level=t.lower)
    rng = trajectory_rng(26, 0)
    for seg in (gaussian_pi(t.frequency, rotation=math.pi / 2),
                wait(50e-6, frame_frequency=t.frequency), wait(1e-3)):
        apply_pulse(state, seg, sys, rng)
    ref = weakref.ref(sys)
    del sys
    gc.collect()
    assert ref() is None


def test_decay_records_are_shared_across_noise_models():
    """Relaxation does not depend on the dephasing: the plans of one
    system under every noise model read one list of decay records."""
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 103e3)])
    sys = build_system(p, CavityParams.from_hz(7.334e9, 640e3, 4.5e3))
    t = sys.transition("allowed_d")
    rng = trajectory_rng(27, 0)
    for noise in (NoiseModel(), NoiseModel(t2=200e-6),
                  NoiseModel(t2_star=100e-6)):
        state = SystemState(level=t.lower, shot_offset=noise.shot_offset(rng))
        apply_pulse(state, gaussian_pi(t.frequency), sys, rng, noise)
        apply_pulse(state, wait(1e-3), sys, rng, noise)
    plans = [v for v in sys._memo.values() if isinstance(v, dyn._PulsePlan)]
    # one plan per segment and t2: the noise-free and the t2* model,
    # both without t2, share theirs
    assert len(plans) == 4
    assert all(plan.records is plans[0].records for plan in plans)


def test_threads_sharing_a_table_agree_with_one_thread():
    """Threads that run the same shots on one system share each shot's
    table and may scan it at once; every thread's shots match a serial
    run."""
    import sys
    import threading
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 103e3)])
    cavity = CavityParams.from_hz(7.334e9, 640e3, 45e3)
    noise = NoiseModel(t2_star=100e-6)
    serial = _ramsey_shots(build_system(p, cavity), 30, noise)
    shared = build_system(p, cavity)
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda w=w: results.__setitem__(
            w, _ramsey_shots(shared, 30, noise))) for w in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4
    for shots in results.values():
        _assert_same_shots(shots, serial)


@pytest.mark.parametrize("shot_hz", [0.0, 3e3])
def test_undriven_flattop_matches_step_loop(fast_system, shot_hz):
    """A flattop of zero amplitude framed on its line: without a shot
    offset every step's rotation vector is zero, with one it turns about
    z; either way the maps match the step loop."""
    t = fast_system.transition("allowed_d")
    seg = PulseSegment(kind="flattop", frequency=t.frequency, amplitude=0.0,
                       duration=60e-6)
    for i in range(40):
        start = SystemState(level=t.upper if i % 2 else t.lower,
                            shot_offset=TWO_PI * shot_hz)
        if i % 4 == 0:
            start.bloch, start.pair = [0.6, 0.0, 0.8], (t.lower, t.upper)
        state, ref = replace(start), replace(start)
        rng, ref_rng = trajectory_rng(44, i), trajectory_rng(44, i)
        events = apply_pulse(state, seg, fast_system, rng)
        ref_events = _via_step_loop(ref, seg, fast_system, ref_rng, NO_NOISE)
        _assert_same_shot(state, events, rng, ref, ref_events, ref_rng)


def test_lossy_drive_keeps_step_loop_precision(fast_system):
    """Drives spanning ~30 to ~230 lifetimes: their maps are tabulated in
    blocks, and each segment must still match the step loop. The strong
    drive jumps back into the pair in many blocks, some of them in a
    block's last step, where the restart crosses the boundary."""
    t = fast_system.transition("allowed_d")
    cases = [(PulseSegment(kind="flattop", frequency=t.frequency,
                           duration=duration), NO_NOISE)
             for duration in (400e-6, 1e-3)]
    cases += [(PulseSegment(kind="flattop", frequency=t.frequency
                            + TWO_PI * 3e3, amplitude=TWO_PI * 40e3,
                            duration=duration), NoiseModel(t2=t2))
              for duration in (400e-6, 1e-3, 3e-3) for t2 in (None, 30e-6)]
    at_block_end = 0
    for seg, noise in cases:
        plan = dyn._pulse_plan(seg, fast_system, noise)
        block = plan.by_level[t.lower].block
        assert block < plan.n_steps
        for i in range(50):
            state, ref = SystemState(level=t.lower), SystemState(level=t.lower)
            rng, ref_rng = trajectory_rng(25, i), trajectory_rng(25, i)
            events = apply_pulse(state, seg, fast_system, rng, noise)
            ref_events = _via_step_loop(ref, seg, fast_system, ref_rng, noise)
            _assert_same_shot(state, events, rng, ref, ref_events, ref_rng)
            # steps of the jumps back into the pair
            steps = [round(e.time / plan.dt - 0.5) for e in events
                     if e.label == t.label]
            at_block_end += sum((k + 1) % block == 0 and k + 1 < plan.n_steps
                                for k in steps)
    assert at_block_end > 0

