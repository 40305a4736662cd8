"""Estimation pipelines inverting the simulated experiments.

Peak fitting of spectra, telegraph classification of spectral traces,
cross-relaxation probability with Wald intervals, readout-fidelity
modeling, and the closed-form inversions recovering the nuclear
frequency and the transverse hyperfine coupling.

Frequencies here follow the spin-model convention: angular (rad/s)
unless a name says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fitting
from .spinmodel import SpinParams, ac_zeeman_frequencies

TWO_PI = 2.0 * math.pi


def _phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# peak fitting

@dataclass(frozen=True)
class LorentzianFit:
    center: float
    fwhm: float
    amplitude: float
    offset: float
    covariance: np.ndarray
    result: fitting.FitResult

    @property
    def center_sigma(self) -> float:
        return float(np.sqrt(max(self.covariance[0, 0], 0.0)))


def fit_lorentzian(x, y, p0=None) -> LorentzianFit:
    """Single-peak Lorentzian with automatic initial guess."""
    fits = fit_multi_lorentzian(x, y, 1, p0=None if p0 is None else [p0])
    return fits[0]


def fit_multi_lorentzian(x, y, n_peaks: int, p0=None) -> list[LorentzianFit]:
    """Multi-peak fit with a shared offset; multi-start over peak seeds.

    Returns one fit per peak, sorted by center. Raises ``FitError``
    when there are fewer than 5 points per peak or no start converges
    (callers exclude such spectra).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if n_peaks < 1:
        raise ValueError("need at least one peak")
    if x.size < 5 * n_peaks:
        raise fitting.FitError("need at least 5 points per peak")
    span = x.max() - x.min()
    offset = float(np.median(y))
    amp = float(y.max() - offset)
    width = max(span / (6.0 * n_peaks), (x[1] - x[0]) if x.size > 1 else 1.0)

    if p0 is not None:
        starts = [np.concatenate([np.ravel([[c, w, a] for c, w, a in p0]),
                                  [offset]])]
    else:
        seeds = _peak_seeds(x, y, n_peaks)
        starts = []
        for centers in seeds:
            p = []
            for c in centers:
                p += [c, width, amp]
            starts.append(np.array(p + [offset]))

    best = None
    for start in starts:
        res = fitting.curve_fit(fitting.multi_lorentzian, x, y, start)
        if res.converged and (best is None or res.cost < best.cost):
            best = res
    if best is None:
        raise fitting.FitError("no multi-Lorentzian start converged")
    fits = []
    for k in range(n_peaks):
        center, fwhm, amp_k = best.x[3 * k:3 * k + 3]
        idx = [3 * k, 3 * k + 1, 3 * k + 2, len(best.x) - 1]
        cov = best.covariance[np.ix_(idx, idx)]
        fits.append(LorentzianFit(center=float(center), fwhm=abs(float(fwhm)),
                                  amplitude=float(amp_k),
                                  offset=float(best.x[-1]),
                                  covariance=cov, result=best))
    fits.sort(key=lambda f: f.center)
    return fits


def _peak_seeds(x, y, n_peaks):
    """A few candidate center sets: prominent maxima plus a uniform grid."""
    smooth = np.convolve(y, np.ones(3) / 3.0, mode="same")
    order = np.argsort(smooth)[::-1]
    picked = []
    min_sep = (x.max() - x.min()) / (4.0 * n_peaks)
    for i in order:
        if all(abs(x[i] - c) > min_sep for c in picked):
            picked.append(float(x[i]))
        if len(picked) == n_peaks:
            break
    seeds = []
    if len(picked) == n_peaks:
        seeds.append(sorted(picked))
    grid = list(np.linspace(x.min(), x.max(), n_peaks + 2)[1:-1])
    seeds.append(grid)
    return seeds


# ---------------------------------------------------------------------------
# telegraph classification

@dataclass(frozen=True)
class Jump:
    index: int          # spectrum index at which the new state appears
    from_state: int
    to_state: int
    size: float         # center change (same units as the centers)


@dataclass(frozen=True)
class TraceClassification:
    centers: np.ndarray
    states: np.ndarray               # per-spectrum state index, ascending center
    thresholds: np.ndarray
    state_centers: np.ndarray        # mean center per state
    jumps: tuple[Jump, ...]
    delta_series: np.ndarray         # centers[i] - centers[i-1]
    resolved: bool = True

    @property
    def n_states(self) -> int:
        return len(self.state_centers)

    def jump_size_estimate(self):
        """(mean, std, n) of |delta| over jump steps; None without jumps."""
        sizes = np.array([abs(j.size) for j in self.jumps])
        if sizes.size == 0:
            return None
        return float(sizes.mean()), float(sizes.std(ddof=1)) if sizes.size > 1 else 0.0, sizes.size

    def dwell_counts(self) -> np.ndarray:
        return np.bincount(self.states, minlength=self.n_states)


SPLIT_GAP = 5.0             # median gaps
MIN_CLUSTER_FRAC = 0.05     # of the spectra
MIN_SEPARATION = 3.0        # summed spreads


def classify_trace(centers, n_states: int | None = None) -> TraceClassification:
    """Cluster the sorted center series by its large spacings.

    Candidate splits sit where consecutive sorted-center gaps exceed
    ``SPLIT_GAP`` (5) times the median gap. Two merge passes then reject
    spurious splits: clusters holding less than ``MIN_CLUSTER_FRAC``
    (5%) of the spectra (extreme order-statistic spacings in a cluster
    tail would otherwise masquerade as states), and adjacent clusters
    whose means differ by less than ``MIN_SEPARATION`` (3) times the sum
    of their spreads (chance gaps inside one noise cluster).
    Deterministic and permutation-stable: the result depends only on the
    sorted values. When ``n_states`` is given and fewer clusters are
    found, the result is flagged unresolved.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.size < 20:
        raise ValueError("need at least 20 spectra to classify")
    s = np.sort(centers)
    gaps = np.diff(s)
    median_gap = float(np.median(gaps))
    if median_gap <= 0:
        median_gap = float(np.mean(gaps)) or 1.0
    split = list(np.where(gaps > SPLIT_GAP * median_gap)[0])
    min_count = max(2, math.ceil(MIN_CLUSTER_FRAC * centers.size))

    def clusters():
        bounds = [0] + [i + 1 for i in split] + [centers.size]
        return [s[bounds[j]:bounds[j + 1]] for j in range(len(bounds) - 1)]

    while split:
        counts = [c.size for c in clusters()]
        worst = int(np.argmin(counts))
        if counts[worst] >= min_count:
            break
        # merge the undersized cluster across its narrower bounding gap
        left = split[worst - 1] if worst > 0 else None
        right = split[worst] if worst < len(split) else None
        if left is None:
            split.remove(right)
        elif right is None:
            split.remove(left)
        else:
            split.remove(left if gaps[left] <= gaps[right] else right)
    while split:
        cl = clusters()
        spreads = [max(float(c.std()), median_gap) for c in cl]
        means = [float(c.mean()) for c in cl]
        ratios = [(means[j + 1] - means[j]) / (spreads[j] + spreads[j + 1])
                  for j in range(len(cl) - 1)]
        worst = int(np.argmin(ratios))
        if ratios[worst] >= MIN_SEPARATION:
            break
        split.pop(worst)
    split = np.array(split, dtype=int)
    thresholds = 0.5 * (s[split] + s[split + 1])
    states = np.searchsorted(thresholds, centers)
    state_centers = np.array([centers[states == i].mean()
                              for i in range(len(thresholds) + 1)])
    jumps = []
    for i in range(1, centers.size):
        if states[i] != states[i - 1]:
            jumps.append(Jump(index=i, from_state=int(states[i - 1]),
                              to_state=int(states[i]),
                              size=float(centers[i] - centers[i - 1])))
    resolved = n_states is None or len(thresholds) + 1 >= n_states
    return TraceClassification(centers=centers, states=states,
                               thresholds=thresholds,
                               state_centers=state_centers,
                               jumps=tuple(jumps),
                               delta_series=np.diff(centers),
                               resolved=resolved)


# ---------------------------------------------------------------------------
# cross-relaxation probability

@dataclass(frozen=True)
class EtaEstimate:
    eta: float
    sigma: float
    n_jumps: int
    n_excitations: float
    is_upper_bound: bool = False


def estimate_eta(classification: TraceClassification,
                 excitations_per_spectrum: float):
    """Per-direction flip probabilities with Wald 1-sigma intervals.

    Returns ``(eta_d, eta_z)`` where the z direction flips the nucleus
    out of the lower-frequency state (index 0) and the d direction out
    of the higher one. Requires a two-state classification; a direction
    with zero dwell time comes back as ``None``.
    """
    if classification.n_states != 2:
        raise ValueError("flip-probability estimation expects a two-state trace")
    dwell = classification.dwell_counts()
    n_up = sum(1 for j in classification.jumps if j.from_state == 0)
    n_down = sum(1 for j in classification.jumps if j.from_state == 1)
    eta_z = _wald(n_up, dwell[0] * excitations_per_spectrum)
    eta_d = _wald(n_down, dwell[1] * excitations_per_spectrum)
    return eta_d, eta_z


def _wald(n_jumps: int, n_exc: float):
    if n_exc <= 0:
        return None
    if n_jumps == 0:
        return EtaEstimate(eta=0.0, sigma=1.0 / n_exc, n_jumps=0,
                           n_excitations=n_exc, is_upper_bound=True)
    eta = n_jumps / n_exc
    sigma = math.sqrt(eta * (1.0 - eta) / n_exc)
    return EtaEstimate(eta=eta, sigma=sigma, n_jumps=n_jumps,
                       n_excitations=n_exc)


def excitation_count_correction(duration: float,
                                sweep_step_hz: float) -> float:
    """Effective excitations per sweep crossing of a resonance.

    The pulse's spectral excitation bandwidth is the FWHM of the power
    spectrum of its Gaussian amplitude envelope of FWHM ``duration``.
    For the envelope's sigma that spectrum is exp(-(2 pi f sigma)**2),
    whose FWHM is sqrt(ln 2) / (pi sigma), about 0.62/T for a FWHM T.
    The correction is bandwidth / sweep step, floored at one pulse.
    """
    if duration <= 0 or sweep_step_hz <= 0:
        raise ValueError("duration and sweep step must be positive")
    sigma = duration / 2.3548200450309493
    bandwidth = math.sqrt(math.log(2.0)) / (math.pi * sigma)
    return max(1.0, bandwidth / sweep_step_hz)


# ---------------------------------------------------------------------------
# readout model

@dataclass(frozen=True)
class ThresholdResult:
    threshold: float | None
    fidelity: float | None
    fit: fitting.FitResult | None
    modes: tuple | None      # ((c1, s1, a1), (c2, s2, a2)) sorted by center

    @property
    def unimodal(self) -> bool:
        return self.threshold is None


def readout_threshold(samples) -> ThresholdResult:
    """Two-Gaussian fit of count differences; equal-likelihood threshold.

    Overlap of the fitted modes gives the assignment fidelity. An
    unresolved (effectively unimodal) distribution yields a
    no-threshold result.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 100:
        raise ValueError("need at least 100 samples")
    bins = max(20, int(math.sqrt(samples.size)))
    counts, edges = np.histogram(samples, bins=bins)
    xc = 0.5 * (edges[:-1] + edges[1:])
    med = float(np.median(samples))
    lo, hi = samples[samples <= med], samples[samples > med]
    p0 = np.array([lo.mean(), max(lo.std(), 1e-9), counts.max(),
                   hi.mean(), max(hi.std(), 1e-9), counts.max()])
    res = fitting.curve_fit(fitting.double_gaussian, xc, counts.astype(float), p0)
    m1, m2 = sorted([tuple(res.x[:3]), tuple(res.x[3:])], key=lambda m: m[0])
    (c1, s1, a1), (c2, s2, a2) = m1, m2
    s1, s2 = abs(s1), abs(s2)
    # two Gaussians only produce distinct maxima when their separation
    # exceeds twice the geometric-mean width
    if (not res.converged or a1 <= 0 or a2 <= 0
            or (c2 - c1) < 2.0 * math.sqrt(s1 * s2)):
        return ThresholdResult(threshold=None, fidelity=None, fit=res,
                               modes=(m1, m2))
    thr = _equal_likelihood(c1, s1, a1, c2, s2, a2)
    err1 = 1.0 - _phi((thr - c1) / s1)       # lower mode above threshold
    err2 = _phi((thr - c2) / s2)             # upper mode below threshold
    fidelity = 1.0 - 0.5 * (err1 + err2)
    return ThresholdResult(threshold=thr, fidelity=fidelity, fit=res,
                           modes=(m1, m2))


def _equal_likelihood(c1, s1, a1, c2, s2, a2):
    xs = np.linspace(c1, c2, 2001)
    g1 = a1 * np.exp(-0.5 * ((xs - c1) / s1) ** 2)
    g2 = a2 * np.exp(-0.5 * ((xs - c2) / s2) ** 2)
    return float(xs[np.argmin(np.abs(g1 - g2))])


@dataclass(frozen=True)
class ReadoutModel:
    """Readout-success model: Gaussian-separation SNR times slow
    nuclear depolarization during the readout train."""

    epsilon: float
    gamma_dc: float
    t_d: float
    p0: float
    eta: float
    p0_sigma: float = float("nan")
    eta_sigma: float = float("nan")

    def snr(self, n_ro):
        n_ro = np.asarray(n_ro, dtype=float)
        noise = self.epsilon * (1.0 - self.epsilon) + 2.0 * self.gamma_dc * self.t_d
        return self.epsilon * np.sqrt(n_ro) / math.sqrt(noise)

    def population(self, n_ro):
        n_ro = np.asarray(n_ro, dtype=float)
        return (self.p0 - 0.5) * np.exp(-2.0 * self.eta * n_ro) + 0.5

    def success_probability(self, n_ro):
        snr = self.snr(n_ro)
        phi = 0.5 * (1.0 + np.vectorize(math.erf)(snr / math.sqrt(2.0)))
        return phi * self.population(n_ro)

    def b_from_eta(self, omega_i: float, kappa: float) -> float:
        """Transverse coupling (rad/s) implied by the flip probability."""
        return (2.0 * abs(omega_i)
                * math.sqrt(self.eta * (kappa ** 2 + 4.0 * omega_i ** 2))
                / kappa)


def fit_readout_curve(n_ro, p_success, epsilon: float, gamma_dc: float,
                      t_d: float) -> ReadoutModel:
    """Joint (p0, eta) fit with the detector triple held fixed, started
    from p0 = 0.95, eta = 3e-4."""
    n_ro = np.asarray(n_ro, dtype=float)
    p_success = np.asarray(p_success, dtype=float)
    if n_ro.size < 5:
        raise ValueError("need at least 5 readout-depth points")

    def model(x, p):
        m = ReadoutModel(epsilon=epsilon, gamma_dc=gamma_dc, t_d=t_d,
                         p0=p[0], eta=p[1])
        return m.success_probability(x)

    model_jac = fitting.finite_difference(model, 2)
    res = fitting.curve_fit(model_jac, n_ro, p_success, np.array([0.95, 3e-4]))
    sig = res.sigma
    return ReadoutModel(epsilon=epsilon, gamma_dc=gamma_dc, t_d=t_d,
                        p0=float(res.x[0]), eta=float(res.x[1]),
                        p0_sigma=float(sig[0]), eta_sigma=float(sig[1]))


# ---------------------------------------------------------------------------
# nuclear-frequency and coupling inversions

@dataclass(frozen=True)
class OmegaIFit:
    omega_i: float           # rad/s, signed
    sigma: float
    result: fitting.FitResult


def fit_omega_I(amplitudes_d, deltas_d, amplitudes_z, deltas_z,
                a: float, b: float) -> OmegaIFit:
    """Joint fit of both drive-shifted forbidden-frequency branches.

    Inputs are angular: drive amplitudes and measured offsets delta_d
    (double-quantum, near +|omega_I|) and delta_z (near -|omega_I|).
    The fit starts from -|mean offset|, averaged over the branches.
    """
    amplitudes_d = np.asarray(amplitudes_d, dtype=float)
    amplitudes_z = np.asarray(amplitudes_z, dtype=float)
    deltas = np.concatenate([np.asarray(deltas_d, float),
                             np.asarray(deltas_z, float)])
    if amplitudes_d.size + amplitudes_z.size < 3:
        raise ValueError("need at least 3 amplitude points across the branches")
    guess = float(np.mean([-abs(np.mean(d)) for d in (deltas_d, deltas_z)
                           if len(d)]))
    scale = abs(guess)

    def model(_, p):
        omega_i = p[0] * scale
        sp = SpinParams(omega_s=TWO_PI * 1e9, omega_i=omega_i,
                        couplings=((a, b),))
        out = []
        for om in amplitudes_d:
            out.append(ac_zeeman_frequencies(sp, om)[0])
        for om in amplitudes_z:
            out.append(ac_zeeman_frequencies(sp, om)[1])
        return np.array(out)

    model_jac = fitting.finite_difference(model, 1)
    res = fitting.curve_fit(model_jac, np.zeros(deltas.size), deltas,
                            np.array([guess / scale]))
    return OmegaIFit(omega_i=float(res.x[0] * scale),
                     sigma=float(res.sigma[0] * scale), result=res)


def extract_B_rabi(omega_zd: float, omega: float, alpha: float, a: float,
                   omega_i: float, delta: float, kappa: float) -> float:
    """Transverse coupling from the forbidden/allowed Rabi-frequency ratio.

    ``alpha`` is the allowed-to-forbidden drive-amplitude ratio (< 1
    when the forbidden transition is driven harder); ``delta`` the
    drive-to-cavity detuning whose field filter is undone. Exact
    algebraic inverse of the forbidden Rabi frequency, so a round trip
    through that formula returns the input coupling.
    """
    if omega <= 0 or alpha <= 0:
        raise ValueError("allowed Rabi frequency and alpha must be positive")
    x = 2.0 * abs(omega_i)
    filt = math.sqrt(1.0 + 4.0 * delta ** 2 / kappa ** 2)
    return alpha * (omega_zd / omega) * (x * x - a * a) / x * filt
