"""Master-equation oracle for the jump engine.

The Lindblad equation of the full spin system, stepped with
``scipy.linalg.expm`` on the engine's own grid (``_time_steps``,
``_envelope_samples``), is an independent reference for the engine's
statistics: the level populations after each segment, the mean number of
jumps in each segment, and the law of the first jump's step.

- Hamiltonian, in the frame rotating at the carrier w_c with the
  electron: diag(E - w_c e), e the electron quantum number, plus
  amp * filter(carrier) * envelope times the signed Sx elements
  (eigenvectors.T @ Sx @ eigenvectors) on every electron-flip pair, in
  the rotating-wave approximation. The relative signs matter, because
  the four levels of one nucleus form a closed loop.
- Collapse operators: sqrt(rate) |lower><upper| for each decay channel.
- The expected jump count is the integral of sum(rate * rho_upper), from
  a counter row appended to the Liouvillian.
- The first jump follows from the no-jump evolution, the Liouvillian
  without its recycling terms kron(J, J) (Dalibard, Castin and Molmer,
  PRL 68, 580, 1992): its counter row gathers the probability that the
  first jump falls in each step, and its trace at the end is the
  probability that none falls.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from jumpspec import dynamics as dyn
from jumpspec.dynamics import (PulseSegment, SystemState, apply_pulse,
                               detect, gaussian_pi, trajectory_rng, wait)
from jumpspec.sequencer import _dnp_train, forbidden_pi
from jumpspec.spinmodel import CavityParams, SpinParams, build_system, \
    drive_filter

TWO_PI = 2.0 * math.pi
SHOTS = 4000


def _system(g0_hz):
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 103e3)])
    return build_system(p, CavityParams.from_hz(7.334e9, 640e3, g0_hz))


SLOW = _system(4.5e3)       # Purcell lifetime ~1.3 ms
FAST = _system(45e3)        # ~13 us: a pi pulse sees many jumps


def _drive_amplitude(seg: PulseSegment, sys) -> float:
    """amp * filter(carrier) of a driven segment (rad/s), calibrated as
    the segment defines it when ``amplitude`` is None: ``rotation`` on
    the strongest allowed element over the envelope's area."""
    filt = drive_filter(sys.cavity, seg.frequency - sys.cavity.omega_0)
    if seg.amplitude is not None:
        return seg.amplitude * filt
    element = max(t.matrix_element for t in sys.transitions if t.is_allowed)
    return seg.rotation / (2.0 * element * dyn.pulse_area(seg, sys))


def _generators(sys):
    """(no-jump dissipator with counter row, its recycling terms,
    Hamiltonian of the drive per unit amplitude, electron numbers) of the
    vectorised Lindblad equation, row-major: vec(A rho B) = kron(A, B.T)
    vec(rho). The full dissipator is the sum of the first two."""
    d = len(sys.levels)
    electron = np.array([e for e, _ in sys.levels], dtype=float)
    sx_product = np.kron([[0.0, 0.5], [0.5, 0.0]], np.eye(d // 2))
    sx = sys.eigenvectors.T @ sx_product @ sys.eigenvectors
    flips = np.equal.outer(electron, 1.0 - electron)
    drive = np.where(flips, sx, 0.0)
    eye = np.eye(d)
    no_jump = np.zeros((d * d + 1, d * d + 1), dtype=complex)
    recycle = np.zeros_like(no_jump)
    loss = np.zeros((d, d))
    for upper, channels in enumerate(sys.channels):
        for ch in channels:
            jump = np.zeros((d, d))
            jump[ch.transition.lower, upper] = math.sqrt(ch.rate)
            lj = jump.T @ jump
            loss += lj
            recycle[:d * d, :d * d] += np.kron(jump, jump)
            no_jump[:d * d, :d * d] -= 0.5 * (np.kron(lj, eye)
                                              + np.kron(eye, lj.T))
    no_jump[d * d, :d * d] = loss.T.reshape(-1)   # d(count)/dt = Tr(L rho)
    return no_jump, recycle, drive, electron


def _frame(sys, carrier, electron):
    """diag(E - carrier e), less its mean (a common phase)."""
    diag = sys.energies - carrier * electron
    return np.diag(diag - diag.mean())


def _liouvillian(h, dissipator):
    d = h.shape[0]
    out = dissipator.copy()
    eye = np.eye(d)
    out[:d * d, :d * d] += -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    return out


def oracle(sys, schedule, level):
    """From the master equation on the engine's step grid: the populations
    after each segment, the expected jumps in each segment, and the
    probability that the first jump falls in each step of the schedule's
    concatenated grids, followed by the probability that none falls."""
    d = len(sys.levels)
    no_jump, recycle, drive, electron = _generators(sys)
    rho = np.zeros(d * d + 1, dtype=complex)
    rho[level * d + level] = 1.0
    clean = rho.copy()          # the no-jump part: no jump so far
    pops, jumps, first = [], [], []
    for seg in schedule:
        n, dt = dyn._time_steps(seg, sys)
        counted = rho[-1].real
        # a frame of 0 freezes the engine's phase; any frame serves the
        # populations, and one near the spin keeps the exponent small
        h0 = _frame(sys, seg.frequency or sys.params.omega_s, electron)
        amp = _drive_amplitude(seg, sys) if seg.driven else 0.0
        envs = dyn._envelope_samples(seg, n, dt) if seg.driven else (0.0,) * n
        maps = {}
        for env in envs:
            if env not in maps:
                h = h0 + amp * env * drive
                maps[env] = (expm(_liouvillian(h, no_jump + recycle) * dt),
                             expm(_liouvillian(h, no_jump) * dt))
            full, kept = maps[env]
            left = clean[-1].real
            rho, clean = full @ rho, kept @ clean
            first.append(clean[-1].real - left)
        pops.append(rho[:d * d].reshape(d, d).diagonal().real.copy())
        jumps.append(rho[-1].real - counted)
    first.append(clean[:d * d].reshape(d, d).trace().real)
    return np.array(pops), np.array(jumps), np.array(first)


def engine(sys, schedule, level, seed, shots=SHOTS):
    """Per shot and segment: the level populations after the segment (a
    carried coherence counts with its Bloch populations) and the events
    of the segment."""
    d = len(sys.levels)
    pops = np.zeros((shots, len(schedule), d))
    events = []
    for shot in range(shots):
        rng = trajectory_rng(seed, shot)
        state = SystemState(level=level)
        per_seg = []
        for k, seg in enumerate(schedule):
            per_seg.append(apply_pulse(state, seg, sys, rng))
            if state.bloch is None:
                pops[shot, k, state.level] = 1.0
            else:
                lower, upper = state.pair
                pops[shot, k, upper] = 0.5 * (1.0 + state.bloch[2])
                pops[shot, k, lower] = 0.5 * (1.0 - state.bloch[2])
        events.append(per_seg)
    return pops, events


def _allowed_d(sys):
    return sys.transition("allowed_d")


def _pi(sys, offset_hz=0.0, rotation=math.pi, fwhm=80e-6):
    return gaussian_pi(_allowed_d(sys).frequency + TWO_PI * offset_hz,
                       fwhm=fwhm, rotation=rotation)


def _half_then_wait(sys):
    half = _pi(sys, rotation=math.pi / 2)
    return [half, wait(20e-6, frame_frequency=half.frequency), detect(1e-3)]


#: name -> (system, schedule, start level, engine seed)
CASES = {
    "pi": (SLOW, [_pi(SLOW), detect(1e-3)], _allowed_d(SLOW).lower, 61),
    "half_pi": (SLOW, [_pi(SLOW, rotation=math.pi / 2), detect(1e-3)],
                _allowed_d(SLOW).lower, 62),
    # 20 us FWHM: the carrier sits inside the pulse's band, so about a
    # quarter of the shots are excited
    "pi_15khz_off": (SLOW, [_pi(SLOW, offset_hz=-15e3, fwhm=20e-6),
                            detect(1e-3)], _allowed_d(SLOW).lower, 63),
    "half_pi_wait": (SLOW, _half_then_wait(SLOW), _allowed_d(SLOW).lower, 64),
    "pi_fast": (FAST, [_pi(FAST), detect(50e-6)], _allowed_d(FAST).lower, 65),
}

def _first_jump_steps(sys, schedule, events):
    """Per shot: the step of its first jump on the schedule's concatenated
    step grids, or the number of steps when it has none."""
    grids = [dyn._time_steps(seg, sys) for seg in schedule]
    starts = np.cumsum([0.0] + [seg.wall_time for seg in schedule])
    offsets = np.cumsum([0] + [n for n, _ in grids])
    steps = []
    for per_seg in events:
        k = next((k for k, seg_events in enumerate(per_seg) if seg_events),
                 None)
        steps.append(offsets[-1] if k is None else offsets[k] + int(
            (per_seg[k][0].time - starts[k]) // grids[k][1]))
    return steps


def _goodness_of_fit(observed, expected):
    """Chi-squared p-value of counts against their expectations, on runs
    of adjacent bins merged until each run expects at least 10; a short
    last run joins the one before it."""
    runs, acc = [], np.zeros(2)
    for pair in zip(observed, expected):
        acc = acc + pair
        if acc[1] >= 10.0:
            runs.append(acc)
            acc = np.zeros(2)
    runs[-1] = runs[-1] + acc
    got, want = np.array(runs).T
    return stats.chisquare(got, want).pvalue


def _assert_agree(sys, schedule, level, pops, events):
    """Against the oracle: every level population after every segment,
    and the mean jump count of every segment, within 4 sigma, where sigma
    is the engine's standard error plus one shot in SHOTS, so a level that
    no shot reached is compared with 1/SHOTS; and the first jump's step,
    no jump counting as one more step, by a chi-squared test at
    p > 1e-3."""
    want_pops, want_jumps, want_first = oracle(sys, schedule, level)
    shots = pops.shape[0]
    sigma = pops.std(axis=0) / math.sqrt(shots) + 1.0 / shots
    gap = np.abs(pops.mean(axis=0) - want_pops)
    assert np.all(gap < 4.0 * sigma), (gap / sigma).max()
    counts = np.array([[len(seg_events) for seg_events in per_seg]
                       for per_seg in events], dtype=float)
    sigma = counts.std(axis=0) / math.sqrt(shots) + 1.0 / shots
    gap = np.abs(counts.mean(axis=0) - want_jumps)
    assert np.all(gap < 4.0 * sigma), (gap / sigma).max()
    observed = np.bincount(_first_jump_steps(sys, schedule, events),
                           minlength=want_first.size)
    p = _goodness_of_fit(observed, shots * want_first)
    assert p > 1e-3, p


@pytest.mark.parametrize("name", list(CASES))
def test_engine_matches_the_master_equation(name):
    sys, schedule, level, seed = CASES[name]
    pops, events = engine(sys, schedule, level, seed)
    _assert_agree(sys, schedule, level, pops, events)


def test_oracle_conserves_the_trace_and_counts_every_decay():
    """Without a drive, a level that starts excited decays; the expected
    jump count over 10 lifetimes is the population that left it, the
    trace stays 1, and the first jump follows the waiting-time law
    exp(-Gamma t_{k-1}) - exp(-Gamma t_k) on the step grid, with no jump
    left at exp(-Gamma t_n)."""
    sys = SLOW
    upper = _allowed_d(sys).upper
    life = 1.0 / sys.total_rate(upper)
    seg = wait(10 * life)
    pops, jumps, first = oracle(sys, [seg], upper)
    assert pops[0].sum() == pytest.approx(1.0, abs=1e-12)
    assert pops[0][upper] == pytest.approx(math.exp(-10.0), rel=1e-9)
    assert jumps[0] == pytest.approx(1.0 - math.exp(-10.0), rel=1e-9)
    n, dt = dyn._time_steps(seg, sys)
    survival = np.exp(-dt * np.arange(n + 1) / life)
    assert first.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        first, np.append(-np.diff(survival), survival[-1]), rtol=0, atol=1e-9)


@pytest.mark.xfail(strict=True, reason=(
    "forbidden pi: the engine inverts 95.4 % and the oracle 97.4 % "
    "(about 13 sigma at 4,000 shots); the pulse is sized at the unshifted "
    "line's filter and the closed-form AC-Zeeman root misses the dressed "
    "line by about 1.1 kHz"))
def test_forbidden_pi_matches_the_master_equation():
    sys = SLOW
    seg = forbidden_pi(sys, "zero_quantum")
    schedule = [seg, detect(1e-3)]
    level = sys.transition("zero_quantum").lower
    pops, events = engine(sys, schedule, level, seed=66)
    _assert_agree(sys, schedule, level, pops, events)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "DNP train to 'd' (one forbidden pi and its 3-lifetime wait) from "
    "(0, 'u'): the engine leaves 3.2 % there after the pi and 3.3 % after "
    "the wait, the oracle 1.1 % and 1.2 % (66 and 10 sigma at 4,000 "
    "shots), so P(nuclear d) ends at 0.967 against 0.988; the gap is the "
    "forbidden pi's, above"))
def test_dnp_train_matches_the_master_equation():
    sys = SLOW
    schedule = list(_dnp_train(sys, "d", 1))
    level = sys.transition("zero_quantum").lower
    pops, events = engine(sys, schedule, level, seed=67)
    _assert_agree(sys, schedule, level, pops, events)
