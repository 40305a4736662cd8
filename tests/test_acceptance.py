"""End-to-end acceptance gate.

Eleven headline checks covering the whole stack, each printing one
PASS/FAIL line. Data volumes are reduced to keep every check under five
minutes while leaving the statistical tolerances meaningful.
"""

import math

import numpy as np
import pytest
from scipy import stats

from jumpspec import analysis, fitting, sequencer
from jumpspec.detector import DetectorParams
from jumpspec.dynamics import SystemState, apply_pulse, trajectory_rng, wait
from jumpspec.lattice import FieldOrientation, dipolar_coupling, load_structure
from jumpspec.spinmodel import (CavityParams, SpinParams,
                                ac_zeeman_frequencies, build_system,
                                closed_form_transitions, forbidden_rabi,
                                purcell_rate)

TWO_PI = 2.0 * math.pi


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def default_cavity():
    return CavityParams.from_hz(7.334e9, 640e3, 4.5e3)


def default_system(a_hz=34.5e3, b_hz=103e3):
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(a_hz, b_hz)])
    return build_system(p, default_cavity())


def test_01_eigen_oracle():
    """Closed-form frequencies and matrix elements against exact
    diagonalization over random high-field parameter draws."""
    rng = np.random.default_rng(101)
    cav = default_cavity()
    worst = 0.0
    n_checked = 0
    while n_checked < 10_000:
        wi = rng.uniform(2e5, 5e6) * rng.choice([-1.0, 1.0])
        a = rng.uniform(-1.0, 1.0) * abs(wi) / 5.5
        b = rng.uniform(0.0, abs(wi) / 5.5)
        p = SpinParams.from_hz(rng.uniform(2e9, 12e9), wi, [(a, b)])
        if not p.high_field:
            continue
        n_checked += 1
        sys = build_system(p, cav)
        for label, (freq, element) in closed_form_transitions(p).items():
            t = sys.transition(label)
            worst = max(worst,
                        abs(t.frequency - freq) / abs(freq),
                        abs(t.matrix_element - element) / 0.5)
    ok = worst < 1e-6
    assert report("eigen oracle", ok,
                  f"10^4 draws, worst relative error {worst:.2e} < 1e-6")


def test_02_purcell_lifetime():
    cav = default_cavity()
    t1 = 1.0 / purcell_rate(cav)
    sys = default_system()
    times = []
    for i in range(2500):
        rng = trajectory_rng(102, i)
        state = SystemState(level=3)
        events = apply_pulse(state, wait(25e-3), sys, rng)
        if events:
            times.append(events[0].time)
    t1_mc = float(np.mean(times))
    ok = 1.24e-3 <= t1 <= 1.28e-3 and abs(t1_mc - t1) < 0.05 * t1
    assert report("Purcell lifetime", ok,
                  f"closed form {t1 * 1e3:.4f} ms, sampled "
                  f"{t1_mc * 1e3:.4f} ms, band 1.24-1.28 ms")


def test_03_cross_relaxation_probability():
    sys = default_system(b_hz=74e3)
    eta = sys.eta_d
    ok = abs(eta - 3.2e-4) <= 0.2e-4
    assert report("cross-relaxation probability", ok,
                  f"eta(B=74 kHz) = {eta:.3e}, target 3.2 +/- 0.2e-4")


def test_04_forbidden_rabi_frequency():
    sys = default_system()
    p = sys.params
    # 220 kHz effective drive amplitude at the forbidden frequency, so
    # no cavity filter (zero detuning)
    omega = forbidden_rabi(TWO_PI * 220e3, p, sys.cavity, 0.0) / TWO_PI
    ok = abs(omega - 15e3) <= 1e3
    assert report("forbidden Rabi frequency", ok,
                  f"{omega / 1e3:.2f} kHz, target 15 +/- 1 kHz")


def test_05_omega_i_round_trip():
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 103e3)])
    a, b = p.couplings[0]
    amps = TWO_PI * np.array([100e3, 160e3, 220e3])
    d_d = np.array([ac_zeeman_frequencies(p, om)[0] for om in amps])
    d_z = np.array([ac_zeeman_frequencies(p, om)[1] for om in amps])
    rng = np.random.default_rng(105)
    noise = TWO_PI * 1.5e3
    fit = analysis.fit_omega_I(amps, d_d + rng.normal(0, noise, 3),
                               amps, d_z + rng.normal(0, noise, 3), a, b)
    err = abs(fit.omega_i / TWO_PI + 788.1e3)
    ok = err <= 4e3
    assert report("nuclear frequency round trip", ok,
                  f"recovered {fit.omega_i / TWO_PI / 1e3:.2f} kHz, "
                  f"error {err / 1e3:.2f} kHz <= 4 kHz")


def test_06_readout_curve():
    """Readout-success curve versus train depth, regenerated at the count
    level and refit with the success-probability model.

    Each shot draws per-cycle detector clicks (binomial detections plus
    Poisson dark counts) and lets the nucleus flip with probability eta
    per readout cycle; the state call thresholds the integrated count
    difference against the end-of-train state, which is the regime the
    analytic model describes.
    """
    eps, gamma_dc, t_d = 0.18, 150.0, 2.6e-3
    p0_true, eta_true = 0.97, 3.2e-4
    rng = trajectory_rng(106, 0)

    n_ro_values = [100, 250, 500, 1000, 1800, 2800]
    n_shots = 800                          # per prepared state per depth
    p_success = []
    for n in n_ro_values:
        dark = gamma_dc * t_d * n
        hits = 0
        for _prep in range(2):
            correct = rng.random(n_shots) < p0_true
            # odd number of per-cycle flips leaves the state inverted
            flipped = rng.random(n_shots) < 0.5 * (1 - (1 - 2 * eta_true) ** n)
            matched = correct ^ flipped
            c_match = rng.binomial(n, eps, n_shots) + rng.poisson(dark, n_shots)
            c_other = rng.poisson(dark, n_shots)
            hits += int(np.sum((c_match > c_other) == matched))
        p_success.append(hits / (2 * n_shots))
    model = analysis.fit_readout_curve(n_ro_values, p_success, epsilon=eps,
                                       gamma_dc=gamma_dc, t_d=t_d)
    omega_i = -TWO_PI * 788.1e3
    kappa = TWO_PI * 640e3
    b_hz = model.b_from_eta(omega_i, kappa) / TWO_PI
    ok = (abs(model.p0 - p0_true) <= 0.02
          and abs(model.eta - eta_true) <= 0.4e-4
          and 67e3 <= b_hz <= 81e3)
    assert report(
        "readout curve", ok,
        f"p0 {model.p0:.3f} (true {p0_true}), eta {model.eta:.2e} "
        f"(true {eta_true:.2e}), |B| {b_hz / 1e3:.1f} kHz in [67, 81]")


def test_07_nuclear_polarization():
    sys = default_system()
    fractions = []
    for n_prep in (1, 2, 4, 6):
        ok_count = 0
        for i in range(60):
            rng = trajectory_rng(107, 100 * n_prep + i)
            state = SystemState(level=i % 4)
            sequencer.dnp_prepare(state, "d", sys, rng, n_prep=n_prep)
            ok_count += (sys.levels[state.level][1] == "d")
        fractions.append(ok_count / 60)
    sigma = math.sqrt(0.25 / 60)
    monotone = all(b >= a - 2 * sigma
                   for a, b in zip(fractions, fractions[1:]))
    ok = fractions[1] >= 0.8 and monotone
    assert report("nuclear polarization", ok,
                  f"P(target) vs pulse number {fractions}, "
                  f">= 0.8 at 2 pulses and saturating")


def _simulate_trace(sys, det, seed, n_spectra, span_hz, n_averages):
    trace = sequencer.trace_experiment(
        sys, det, seed, n_spectra=n_spectra, initial_level=0,
        center=sys.params.omega_s, span_hz=span_hz, step_hz=2e3,
        n_averages=n_averages, t_int=2.0e-3)
    centers = []
    for sp in trace.spectra:
        y = sp.counts.astype(float)
        i = int(np.argmax(y))
        amp = float(y[i] - np.median(y))
        try:
            fit = analysis.fit_lorentzian(sp.delta_hz, y,
                                          p0=(float(sp.delta_hz[i]), 8e3, amp))
        except fitting.FitError:
            continue
        # jump-straddling or background-dominated spectra produce wild
        # fits; keep only well-localized lines inside the scan window
        if (abs(fit.center) <= span_hz / 2 and fit.fwhm <= 40e3
                and fit.amplitude > 0 and fit.center_sigma <= 3e3):
            centers.append(fit.center)
    return np.array(centers)


def _state_medians(centers, cl):
    """Per-state line positions, median over the assigned spectra."""
    return np.sort([float(np.median(centers[cl.states == s]))
                    for s in range(cl.n_states)])


def test_08_trace_pipeline():
    det = DetectorParams(epsilon=0.18, gamma_dc=150.0)

    # two-state system: one nucleus at A = 35 kHz with eta = 2e-4
    sys2 = default_system(a_hz=35e3, b_hz=59.175e3)
    eta_true = sys2.eta_d
    n_averages = 200
    centers = _simulate_trace(sys2, det, 108, 110, 70e3, n_averages)
    cl = analysis.classify_trace(centers)
    med = _state_medians(centers, cl)
    a_est = med[-1] - med[0]
    corr = analysis.excitation_count_correction(80e-6, 2e3)
    eta_d, eta_z = analysis.estimate_eta(cl, n_averages * corr)
    eta_mean = np.mean([e.eta for e in (eta_d, eta_z)])
    eta_sigma = 0.5 * math.hypot(eta_d.sigma, eta_z.sigma)
    two_ok = (cl.n_states == 2
              and abs(a_est - 35e3) <= 1.5e3
              and abs(eta_mean - eta_true) <= 2.0 * eta_sigma)

    # four-state system: two nuclei at A = 35.8 and 19 kHz
    p4 = SpinParams.from_hz(7.334e9, -788.1e3,
                            [(35.8e3, 40e3), (19e3, 40e3)])
    sys4 = build_system(p4, default_cavity())
    centers4 = _simulate_trace(sys4, det, 109, 120, 90e3, n_averages)
    cl4 = analysis.classify_trace(centers4)
    four_ok = cl4.n_states == 4
    m4 = _state_medians(centers4, cl4)
    if four_ok:
        a1 = m4[3] - m4[1]
        a2 = m4[3] - m4[2]
        four_ok = abs(a1 - 35.8e3) <= 1.5e3 and abs(a2 - 19e3) <= 1.5e3
    ok = two_ok and four_ok
    assert report(
        "trace pipeline", ok,
        f"two-state |A| {a_est / 1e3:.2f} kHz (true 35), eta "
        f"{eta_mean:.2e} +/- {eta_sigma:.1e} (true {eta_true:.2e}); "
        f"four-state n={cl4.n_states}, centers {np.round(m4 / 1e3, 1)} kHz")


def test_09_lattice_reference_values():
    model = load_structure()
    ori = FieldOrientation(theta=0.88, beta=0.0)
    vals = {}
    for s in model.sites:
        a, b = dipolar_coupling(model.site_vector(s), model, ori)
        vals.setdefault(s.label, []).append((a, b))
    a1 = np.array([a for a, _ in vals["I"]])
    b1 = np.array([b for _, b in vals["I"]])
    a3 = np.array([abs(a) for a, _ in vals["III"]])
    b3 = np.array([b for _, b in vals["III"]])
    ok = (np.allclose(a1, 40e3, rtol=0.15)
          and b1.min() >= 35e3 * 0.85 and b1.max() <= 48e3 * 1.15
          and np.allclose(a3, 23e3, rtol=0.15)
          and np.allclose(b3, 8e3, rtol=0.15))
    assert report(
        "lattice reference values", ok,
        f"shell I A ~{a1.mean() / 1e3:.1f} kHz B {b1.min() / 1e3:.1f}-"
        f"{b1.max() / 1e3:.1f} kHz; shell III |A| ~{a3.mean() / 1e3:.1f} "
        f"kHz B ~{b3.mean() / 1e3:.1f} kHz (within 15%)")


def test_10_frequency_tracking():
    tracker = sequencer.TrackerState(p_gain=10.0, i_gain=1e-3, f=2000.0)
    null = sequencer.run_tracking(tracker, slope=50.0, drift=0.0,
                                  n_iter=500, t_iter=0.05)
    null_ok = np.all(null.corrections == 0.0)
    rate = TWO_PI * 1e3 / 60.0
    rec = sequencer.run_tracking(tracker, slope=50.0,
                                 drift=lambda t: rate * t,
                                 n_iter=3000, t_iter=0.05,
                                 rng=trajectory_rng(110, 0),
                                 noise_sigma=5.0)
    rms = float(np.sqrt(np.mean(rec.detunings[750:] ** 2)) / TWO_PI)
    ok = null_ok and rms < 2e3
    assert report("frequency tracking", ok,
                  f"1 kHz/min drift residual {rms:.0f} Hz RMS < 2 kHz, "
                  f"null input corrections all zero: {null_ok}")


def test_11_statistical_suites():
    sys = default_system()
    # jump-time distribution
    times = []
    labels = []
    for i in range(2500):
        rng = trajectory_rng(111, i)
        state = SystemState(level=3)
        events = apply_pulse(state, wait(30e-3), sys, rng)
        if events:
            times.append(events[0].time)
            labels.append(events[0].label)
    gamma = sys.total_rate(3)
    ks = stats.kstest(np.array(times), "expon", args=(0.0, 1.0 / gamma))
    ks_ok = ks.pvalue > 0.01

    # branching fractions
    rates = {ch.transition.label: ch.rate for ch in sys.channels[3]}
    branch_ok = True
    for label, rate in rates.items():
        p = rate / gamma
        n_obs = sum(1 for x in labels if x == label)
        sigma = math.sqrt(len(labels) * p * (1 - p))
        branch_ok &= abs(n_obs - len(labels) * p) <= 4.0 * max(sigma, 1.0)

    # bit-exact determinism
    def rabi():
        return sequencer.rabi_experiment(
            sys, DetectorParams(), 112, transition="allowed_d",
            amplitude=TWO_PI * 50e3, durations=[0.0, 5e-6, 10e-6],
            n_averages=40)
    det_ok = np.array_equal(rabi(), rabi())

    ok = ks_ok and branch_ok and det_ok
    assert report("statistical suites", ok,
                  f"KS p = {ks.pvalue:.3f} > 0.01, branching within "
                  f"4 sigma: {branch_ok}, seed determinism: {det_ok}")
