"""Jump-trajectory engine: decay statistics, coherent rotations,
reproducibility, noise channels."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from jumpspec import dynamics as dyn
from jumpspec.dynamics import (NO_NOISE, AmbiguousDriveError, NoiseModel,
                               PulseSegment, SystemState, apply_pulse,
                               gaussian_pi, run_schedule, run_trajectories,
                               trajectory_rng, wait)
from jumpspec.spinmodel import CavityParams, SpinParams, build_system

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
    a = run_trajectories(50, sched, system, seed=9, initial_level=1)
    b = run_trajectories(50, sched, system, seed=9, initial_level=1)
    for ta, tb in zip(a, b):
        assert ta == tb
    c = run_trajectories(50, sched, system, seed=10, initial_level=1)
    assert any(ta != tc for ta, tc in zip(a, c))


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
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 1e3)])
    sys2 = build_system(p, CavityParams.from_hz(7.334e9, 640e3, 4.5e3))
    mid = 0.5 * (sys2.transition("allowed_d").frequency
                 + sys2.transition("allowed_u").frequency)
    with pytest.raises(AmbiguousDriveError):
        # 34.5 kHz splitting: carriers near both lines at once are not
        # resolvable below the 1 kHz ambiguity band only when degenerate;
        # force it with a tiny splitting instead
        p3 = SpinParams.from_hz(7.334e9, -788.1e3, [(1.5e3, 0.0)])
        sys3 = build_system(p3, CavityParams.from_hz(7.334e9, 640e3, 4.5e3))
        mid3 = 0.5 * (sys3.transition("allowed_d").frequency
                      + sys3.transition("allowed_u").frequency)
        apply_pulse(SystemState(level=1), gaussian_pi(mid3), sys3,
                    trajectory_rng(17, 1))
    del mid


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


def test_trajectory_windows_recorded(system):
    from jumpspec.dynamics import detect
    sched = [wait(1e-3), detect(2e-3)]
    trajs = run_trajectories(3, sched, system, seed=23, initial_level=2)
    for tr in trajs:
        assert tr.windows == ((1e-3, 3e-3),)
        assert tr.final_time == pytest.approx(3e-3)


@pytest.fixture(scope="module")
def fast_system():
    """Purcell lifetime ~13 us: most pulses see jumps, including jumps
    back into the driven pair."""
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 103e3)])
    return build_system(p, CavityParams.from_hz(7.334e9, 640e3, 45e3))


def _via_step_loop(state, seg, sys, rng, noise):
    plan = dyn._pulse_plan(seg, sys, noise)
    drive = dyn._enter(state, seg, plan, rng)
    return dyn._step_loop(state, seg, plan, drive, rng)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fast=st.booleans(),
       kind=st.sampled_from(["gaussian_pi", "square", "wait",
                             "detect_window"]),
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
def test_no_jump_maps_match_step_loop(system, fast_system, fast, kind,
                                      offset_hz, pulse_len, free_len,
                                      rotation, t2, start, shot_hz, framed,
                                      seed):
    """The closed-form and tabulated maps against the per-step loop: same
    jumps, levels and random stream; times and Bloch vectors to rounding.
    The first shots carry the static detuning ``shot_hz``, so driven ones
    run on maps built for the shot, and the rest the memoised maps."""
    sys = fast_system if fast else system
    t = sys.transition("allowed_d")
    noise = NoiseModel(t2=t2)
    carrier = t.frequency + TWO_PI * offset_hz
    driven = kind in ("gaussian_pi", "square")
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
        drive = plan.drive_for(state.level)
    else:
        theta, phi = start
        state.bloch = [math.sin(theta) * math.cos(phi),
                       math.sin(theta) * math.sin(phi), math.cos(theta)]
        state.pair = (t.lower, t.upper)
        drive = plan.drive_for(t.lower) if driven else None
        if driven:
            assume(drive is not None)
            state.pair = drive.pair
    if driven:
        assume(drive is not None and drive.tabulable)
    start_state = state
    # several shots per drawn segment: a hazard that is off by p_step**2
    # flips one comparison in ~1e4
    for shot in range(8):
        offset = TWO_PI * shot_hz if shot < 4 else 0.0
        state = replace(start_state, shot_offset=offset)
        ref = replace(start_state, shot_offset=offset)
        rng, ref_rng = trajectory_rng(seed, shot), trajectory_rng(seed, shot)
        table = drive.table if driven else None
        events = apply_pulse(state, seg, sys, rng, noise)
        ref_events = _via_step_loop(ref, seg, sys, ref_rng, noise)
        if driven and offset == 0.0:
            assert drive.table is not None  # the memoised maps ran
        elif driven:
            assert drive.table is table     # the shot's maps were not kept
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
            np.testing.assert_allclose(state.bloch, ref.bloch, rtol=0,
                                       atol=1e-9)


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
                n += len(plan.decays) + sum(d.table is not None
                                            for d in drives)
        return n

    def run(shots):
        ramsey_experiment(sys, DetectorParams(), 3, transition="allowed_d",
                          delays=[0.0, 60e-6], n_averages=shots, noise=noise)
        return cached()

    assert run(10) == run(100)


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
    assert len(plans) == 6
    assert all(plan.records is plans[0].records for plan in plans)


def test_lossy_drive_keeps_step_loop_precision(fast_system):
    """A drive spanning ~30 and ~80 lifetimes: too lossy for the tables'
    restart vectors, so the segment must still match the step loop."""
    t = fast_system.transition("allowed_d")
    for duration in (400e-6, 1e-3):
        seg = PulseSegment(kind="square", frequency=t.frequency,
                           duration=duration)
        for i in range(50):
            state, ref = SystemState(level=t.lower), SystemState(level=t.lower)
            rng, ref_rng = trajectory_rng(25, i), trajectory_rng(25, i)
            events = apply_pulse(state, seg, fast_system, rng)
            ref_events = _via_step_loop(ref, seg, fast_system, ref_rng,
                                        NO_NOISE)
            assert [e.label for e in events] == [e.label for e in ref_events]
            assert state.level == ref.level and state.bloch == ref.bloch
