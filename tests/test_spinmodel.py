"""Spin-system construction: closed forms vs diagonalization, radiative
rates, cavity filters, AC-Zeeman shifts, forbidden Rabi frequencies."""

import math

import numpy as np
import pytest

from jumpspec.spinmodel import (CavityParams, DegenerateTransitionError,
                                SpinParams, ac_zeeman_frequencies,
                                ac_zeeman_residual, build_system,
                                cavity_filter, closed_form_transitions,
                                drive_filter,
                                forbidden_frequencies, forbidden_rabi,
                                hamiltonian, nuclear_manifold_frequencies,
                                purcell_rate)

TWO_PI = 2.0 * math.pi


def default_params(a=34.5e3, b=103e3):
    return SpinParams.from_hz(7.334e9, -788.1e3, [(a, b)])


def default_cavity(kappa=640e3, g0=4.5e3):
    return CavityParams.from_hz(7.334e9, kappa, g0)


def test_hamiltonian_is_hermitian_and_traceless():
    h = hamiltonian(default_params())
    assert np.allclose(h, h.T)
    assert abs(np.trace(h)) < 1e-6 * np.abs(h).max()


def test_level_ordering_and_labels():
    sys = build_system(default_params(), default_cavity())
    assert sys.levels == ((0, "u"), (0, "d"), (1, "u"), (1, "d"))
    labels = {t.label for t in sys.transitions}
    assert labels == {"allowed_u", "allowed_d", "double_quantum",
                      "zero_quantum"}


def test_allowed_frequencies_split_by_a():
    p = default_params()
    sys = build_system(p, default_cavity())
    a = p.couplings[0][0]
    split = sys.transition("allowed_u").frequency - sys.transition(
        "allowed_d").frequency
    # the splitting approaches A in the high-field limit; B mixes it slightly
    assert split == pytest.approx(a, rel=0.02)
    assert sys.transition("allowed_d").frequency < p.omega_s


def test_forbidden_frequencies_near_nuclear_frequency():
    p = default_params()
    sys = build_system(p, default_cavity())
    dq = sys.transition("double_quantum").frequency - p.omega_s
    zq = sys.transition("zero_quantum").frequency - p.omega_s
    # omega_i is signed (negative here): the branches sit at +/- omega_i
    assert dq == pytest.approx(p.omega_i, rel=0.01)
    assert zq == pytest.approx(-p.omega_i, rel=0.01)


def test_closed_forms_match_diagonalization():
    p = default_params()
    sys = build_system(p, default_cavity())
    for label, (freq, element) in closed_form_transitions(p).items():
        t = sys.transition(label)
        assert t.frequency == pytest.approx(freq, rel=1e-12)
        assert t.matrix_element == pytest.approx(element, rel=1e-9)


def test_closed_forms_random_draws():
    rng = np.random.default_rng(5)
    for _ in range(300):
        wi = rng.uniform(3e5, 3e6) * (-1) ** rng.integers(2)
        a = rng.uniform(-1, 1) * abs(wi) / 6.0
        b = rng.uniform(0, abs(wi) / 6.0)
        p = SpinParams.from_hz(rng.uniform(3e9, 12e9), wi, [(a, b)])
        if not p.high_field:
            continue
        sys = build_system(p, default_cavity())
        for label, (freq, element) in closed_form_transitions(p).items():
            t = sys.transition(label)
            assert abs(t.frequency - freq) < 1e-6 * abs(freq)
            assert abs(t.matrix_element - element) < 1e-6


def test_matrix_element_sum_rule():
    """|Sx|^2 summed over the two lines out of one level is 1/4."""
    p = default_params()
    sys = build_system(p, default_cavity())
    for upper in (2, 3):
        total = sum(t.matrix_element ** 2 for t in sys.transitions
                    if t.upper == upper)
        assert total == pytest.approx(0.25, rel=1e-9)


def test_purcell_rate_value():
    cav = default_cavity()
    t1 = 1.0 / purcell_rate(cav)
    assert t1 == pytest.approx(1.2575e-3, rel=1e-3)


def test_purcell_rate_off_resonance_halves_at_kappa_over_two():
    cav = default_cavity()
    on = purcell_rate(cav)
    off = purcell_rate(cav, detuning=cav.kappa / 2.0)
    assert off == pytest.approx(on / 2.0, rel=1e-12)


def test_cavity_filter_symmetric_and_normalized():
    cav = default_cavity()
    assert cavity_filter(cav, 0.0) == 1.0
    for d in (1e3, 1e5, 3e6):
        assert cavity_filter(cav, d) == cavity_filter(cav, -d)
        assert drive_filter(cav, d) == pytest.approx(
            math.sqrt(cavity_filter(cav, d)))


def test_total_rate_sums_channels():
    sys = build_system(default_params(), default_cavity())
    for level in (2, 3):
        rates = [ch.rate for ch in sys.channels[level]]
        assert sys.total_rate(level) == pytest.approx(sum(rates))
        assert all(r >= 0 for r in rates)
    assert sys.total_rate(0) == 0.0 and sys.total_rate(1) == 0.0


def test_eta_value_and_monotonicity():
    cav = default_cavity()
    sys = build_system(default_params(b=74e3), cav)
    eta_d, eta_z = sys.eta_d, sys.eta_z
    assert eta_d == pytest.approx(3.114e-4, rel=0.01)
    etas = [build_system(default_params(b=b), cav).eta_d
            for b in (20e3, 50e3, 74e3, 110e3)]
    assert all(x < y for x, y in zip(etas, etas[1:]))
    assert eta_z == pytest.approx(eta_d, rel=0.15)


def test_degenerate_transitions_rejected():
    # A = 2*omega_I makes an allowed and a forbidden line coincide
    with pytest.raises((DegenerateTransitionError, ZeroDivisionError)):
        p = SpinParams.from_hz(7.334e9, -788.1e3, [(2 * 788.1e3, 50e3)])
        build_system(p, default_cavity())


def test_mixing_angles_reduce_at_zero_b():
    p = default_params(b=0.0)
    _, _, xi_p, xi_m = nuclear_manifold_frequencies(p)
    assert xi_p == 0.0 and xi_m == 0.0
    freqs = closed_form_transitions(p)
    assert freqs["double_quantum"][1] == 0.0
    assert freqs["zero_quantum"][1] == 0.0


def test_ac_zeeman_shift_value_and_residual():
    p = default_params()
    om = TWO_PI * 220e3
    d_d, d_z = ac_zeeman_frequencies(p, om)
    d0_d, d0_z = forbidden_frequencies(p)
    shift = abs(d_z - d0_z) / TWO_PI
    assert shift == pytest.approx(31.95e3, rel=0.02)
    assert abs(ac_zeeman_residual(p, om, d_z, "zero_quantum")) < 1e-4 * abs(d_z)
    assert abs(ac_zeeman_residual(p, om, d_d, "double_quantum")) < 1e-4 * abs(d_d)
    # the drive pushes both branches toward the electron line
    assert (d_z - d0_z) < 0 < (d_d - d0_d)


def test_ac_zeeman_zero_drive_is_identity():
    p = default_params()
    assert ac_zeeman_frequencies(p, 0.0) == forbidden_frequencies(p)


def test_forbidden_rabi_filtered_and_unfiltered():
    p = default_params()
    cav = default_cavity()
    d_z = forbidden_frequencies(p)[1]
    om = TWO_PI * 220e3
    unfiltered = forbidden_rabi(om, p, cav, d_z,
                                amplitude_at_drive_frequency=True)
    filtered = forbidden_rabi(om, p, cav, d_z)
    assert filtered == pytest.approx(
        unfiltered * drive_filter(cav, d_z), rel=1e-12)
    assert unfiltered / TWO_PI == pytest.approx(15.1e3, rel=0.05)


def test_forbidden_rabi_linear_in_b_and_amplitude():
    cav = default_cavity()
    d = -TWO_PI * 788e3
    r1 = forbidden_rabi(1.0, default_params(b=50e3), cav, d)
    r2 = forbidden_rabi(2.0, default_params(b=100e3), cav, d)
    assert r2 == pytest.approx(4.0 * r1, rel=1e-12)


def test_two_nuclei_level_count_and_splittings():
    p = SpinParams.from_hz(7.334e9, -788.1e3,
                           [(35.8e3, 80e3), (19e3, 60e3)])
    sys = build_system(p, default_cavity())
    assert len(sys.levels) == 8
    allowed = sorted(t.frequency for t in sys.allowed_transitions())
    assert len(allowed) == 4
    gaps = np.diff(allowed) / TWO_PI
    assert gaps.min() > 10e3      # four resolved lines
