"""Estimation pipelines: peak fitting, telegraph classification, flip
probabilities, readout model, coupling inversions."""

import math

import numpy as np
import pytest

from jumpspec import analysis
from jumpspec.spinmodel import (CavityParams, SpinParams,
                                ac_zeeman_frequencies, build_system,
                                closed_form_transitions, forbidden_rabi)

TWO_PI = 2.0 * math.pi


def test_fit_lorentzian_recovers_center():
    rng = np.random.default_rng(0)
    x = np.arange(-30e3, 30e3, 2e3)
    y = 4.0 / (1.0 + (2.0 * (x - 3e3) / 7e3) ** 2) + 0.5
    y += rng.normal(0, 0.2, x.size)
    fit = analysis.fit_lorentzian(x, y)
    assert fit.center == pytest.approx(3e3, abs=500)
    assert fit.center_sigma < 500
    assert abs(fit.fwhm) == pytest.approx(7e3, rel=0.3)


def test_fit_multi_lorentzian_permutation_stable():
    rng = np.random.default_rng(1)
    x = np.arange(-40e3, 40e3, 1e3)
    y = (3.0 / (1.0 + (2.0 * (x + 15e3) / 6e3) ** 2)
         + 2.0 / (1.0 + (2.0 * (x - 12e3) / 6e3) ** 2)
         + rng.normal(0, 0.1, x.size))
    peaks = analysis.fit_multi_lorentzian(x, y, n_peaks=2)
    centers = sorted(p.center for p in peaks)
    assert centers[0] == pytest.approx(-15e3, abs=1e3)
    assert centers[1] == pytest.approx(12e3, abs=1e3)


def two_state_series(rng, n=240, c0=-17.25e3, c1=17.25e3, sigma=800.0,
                     flip=0.04):
    centers, states = [], []
    s = 0
    for _ in range(n):
        if rng.random() < flip:
            s = 1 - s
        states.append(s)
        centers.append((c0, c1)[s] + rng.normal(0, sigma))
    return np.array(centers), np.array(states)


def test_classify_two_state_trace():
    rng = np.random.default_rng(2)
    centers, truth = two_state_series(rng)
    cl = analysis.classify_trace(centers)
    assert cl.n_states == 2
    assert np.array_equal(cl.states, truth)
    mean, _, n = cl.jump_size_estimate()
    assert mean == pytest.approx(34.5e3, rel=0.05)
    assert n == len(cl.jumps)


def test_classify_is_permutation_stable():
    rng = np.random.default_rng(3)
    centers, _ = two_state_series(rng)
    cl = analysis.classify_trace(centers)
    perm = rng.permutation(centers.size)
    cl2 = analysis.classify_trace(centers[perm])
    assert np.array_equal(cl2.states, cl.states[perm])
    assert np.allclose(np.sort(cl2.thresholds), np.sort(cl.thresholds))


def test_classify_single_state_finds_one_cluster():
    rng = np.random.default_rng(4)
    centers = rng.normal(0.0, 500.0, 200)
    cl = analysis.classify_trace(centers)
    assert cl.n_states == 1 and len(cl.jumps) == 0
    flagged = analysis.classify_trace(centers, n_states=2)
    assert not flagged.resolved


def test_classify_four_states():
    rng = np.random.default_rng(5)
    levels = [-27.4e3, -8.4e3, 8.4e3, 27.4e3]   # two nuclei: +/-A1/2 +/- A2/2
    s = 0
    centers, truth = [], []
    for _ in range(400):
        if rng.random() < 0.05:
            s = rng.integers(4)
        truth.append(s)
        centers.append(levels[s] + rng.normal(0, 600.0))
    cl = analysis.classify_trace(np.array(centers))
    assert cl.n_states == 4
    assert np.array_equal(cl.states, np.array(truth))


def test_estimate_eta_counts_direction_resolved():
    rng = np.random.default_rng(6)
    centers, truth = two_state_series(rng, n=300, flip=0.06)
    cl = analysis.classify_trace(centers)
    eta_d, eta_z = analysis.estimate_eta(cl, excitations_per_spectrum=100.0)
    n_up = sum(1 for i in range(1, 300) if truth[i] == 1 and truth[i - 1] == 0)
    dwell0 = np.sum(truth == 0)
    assert eta_z.n_jumps == n_up
    assert eta_z.eta == pytest.approx(n_up / (dwell0 * 100.0))
    assert eta_z.sigma > 0 and not eta_z.is_upper_bound


def test_estimate_eta_zero_jumps_is_upper_bound():
    rng = np.random.default_rng(7)
    half = np.concatenate([rng.normal(-17e3, 500, 50),
                           rng.normal(17e3, 500, 50)])
    cl = analysis.classify_trace(half)
    eta_d, eta_z = analysis.estimate_eta(cl, excitations_per_spectrum=40.0)
    # one jump at the concatenation point; the reverse direction has none
    assert eta_d.n_jumps == 0 and eta_d.is_upper_bound
    assert eta_d.sigma == pytest.approx(1.0 / (50 * 40.0))


def test_excitation_count_correction_gaussian():
    # 80 us Gaussian swept in 2 kHz steps: bandwidth/step ~ 3.9
    corr = analysis.excitation_count_correction(80e-6, 2e3)
    assert corr == pytest.approx(3.93, rel=0.05)
    # the bandwidth is the exact FWHM of the power spectrum
    # exp(-(2 pi f sigma)**2) of the envelope
    f_half = corr * 2e3 / 2.0
    sigma = 80e-6 / 2.3548200450309493
    assert math.exp(-(2.0 * math.pi * f_half * sigma) ** 2) == (
        pytest.approx(0.5, rel=1e-9))
    # a step larger than the bandwidth floors at one pulse
    assert analysis.excitation_count_correction(80e-6, 50e3) == 1.0
    with pytest.raises(ValueError):
        analysis.excitation_count_correction(-1.0, 2e3)


def test_readout_threshold_symmetry_and_fidelity():
    rng = np.random.default_rng(8)
    lo = rng.normal(-30.0, 10.0, 3000)
    hi = rng.normal(30.0, 10.0, 3000)
    samples = np.concatenate([lo, hi])
    res = analysis.readout_threshold(samples)
    assert not res.unimodal
    assert res.threshold == pytest.approx(0.0, abs=2.0)
    assert res.fidelity == pytest.approx(0.9987, abs=0.005)
    mirrored = analysis.readout_threshold(-samples)
    assert mirrored.threshold == pytest.approx(-res.threshold, abs=1.0)


def test_readout_threshold_unimodal():
    rng = np.random.default_rng(9)
    res = analysis.readout_threshold(rng.normal(0.0, 10.0, 2000))
    assert res.unimodal and res.fidelity is None


@pytest.mark.parametrize("seed", range(8))
def test_readout_threshold_of_a_clear_small_sample(seed):
    """100 rounded counts, half from N(-40, 22) and half from N(42, 20):
    the two-Gaussian fit stops at a minimum of cost 10 to 100, where the
    gradient norm is ~1e-8. The fit counts as converged and the threshold
    is kept, between the two modes."""
    rng = np.random.default_rng(seed)
    samples = np.round(np.concatenate([rng.normal(-40.0, 22.0, 50),
                                       rng.normal(42.0, 20.0, 50)]))
    res = analysis.readout_threshold(samples)
    assert res.fit.converged
    assert res.threshold is not None
    (c1, _, _), (c2, _, _) = res.modes
    assert c1 < res.threshold < c2


def test_readout_model_roundtrip_fit():
    truth = analysis.ReadoutModel(epsilon=0.18, gamma_dc=150.0, t_d=2.6e-3,
                                  p0=0.97, eta=3.2e-4)
    n_ro = np.array([50, 100, 200, 400, 800, 1600, 3200])
    rng = np.random.default_rng(10)
    p = truth.success_probability(n_ro)
    noisy = p + rng.normal(0, 0.01, p.size)
    model = analysis.fit_readout_curve(n_ro, noisy, epsilon=0.18,
                                       gamma_dc=150.0, t_d=2.6e-3)
    assert model.p0 == pytest.approx(0.97, abs=0.02)
    assert model.eta == pytest.approx(3.2e-4, abs=0.4e-4)


def test_snr_increases_with_shots_population_decreases():
    m = analysis.ReadoutModel(epsilon=0.18, gamma_dc=150.0, t_d=2.6e-3,
                              p0=0.97, eta=3.2e-4)
    n = np.array([10, 100, 1000, 10000])
    assert np.all(np.diff(m.snr(n)) > 0)
    assert np.all(np.diff(m.population(n)) < 0)
    assert m.population(1e9) == pytest.approx(0.5)


def test_b_from_eta_inverts_cross_relaxation():
    cav = CavityParams.from_hz(7.334e9, 640e3, 4.5e3)
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 74e3)])
    sys = build_system(p, cav)
    m = analysis.ReadoutModel(epsilon=0.18, gamma_dc=150.0, t_d=2.6e-3,
                              p0=0.97, eta=sys.eta_d)
    b = m.b_from_eta(p.omega_i, cav.kappa) / TWO_PI
    assert b == pytest.approx(74e3, rel=0.03)


def test_fit_omega_i_roundtrip():
    a, b = TWO_PI * 34.5e3, TWO_PI * 103e3
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 103e3)])
    amps = TWO_PI * np.array([100e3, 160e3, 220e3])
    d_d = [ac_zeeman_frequencies(p, om)[0] for om in amps]
    d_z = [ac_zeeman_frequencies(p, om)[1] for om in amps]
    rng = np.random.default_rng(11)
    noise = TWO_PI * 1e3
    fit = analysis.fit_omega_I(amps, d_d + rng.normal(0, noise, 3),
                               amps, d_z + rng.normal(0, noise, 3), a, b)
    assert fit.omega_i / TWO_PI == pytest.approx(-788.1e3, abs=4e3)
    assert fit.sigma > 0


def test_extract_b_rabi_exact_roundtrip():
    p = SpinParams.from_hz(7.334e9, -788.1e3, [(34.5e3, 103e3)])
    cav = CavityParams.from_hz(7.334e9, 640e3, 4.5e3)
    a = p.couplings[0][0]
    delta = -TWO_PI * 788.1e3
    alpha = 1.0 / 6.2
    omega_allowed = TWO_PI * 97e3
    omega_zd = forbidden_rabi(omega_allowed / alpha, p, cav, delta)
    b = analysis.extract_B_rabi(omega_zd, omega_allowed, alpha, a,
                                p.omega_i, delta, cav.kappa)
    assert b == pytest.approx(p.couplings[0][1], rel=1e-9)
