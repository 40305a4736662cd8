"""The benchmark workloads and the checks on their physics output.

A workload is built from a frozen config under ``inputs/`` (that is its
set-up: config parsing and ``build_system``), then started with a seed
and run in passes. Every pass does the same amount of work on fresh
random streams derived from the seed; each unit inside a pass (one sweep
repetition or one shot) goes through :meth:`Recorder.unit`, which times
it and counts it as failed if it raises. The output checks compare the
results with closed forms from ``spinmodel``; a failed check marks the
units it covers as failed.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from jumpspec import analysis, fitting, sequencer
from jumpspec.config import load_config
from jumpspec.dynamics import NoiseModel, SystemState, trajectory_rng
from jumpspec.spinmodel import build_system

INPUTS = Path(__file__).resolve().parent / "inputs"
TWO_PI = 2.0 * math.pi

#: trace: accepted line centers against the allowed line of the nuclear
#: state the trajectory was in. Calibrated on 360 spectra (12 seeds x 15
#: passes, both systems): 303 accepted, median offset 1.1 kHz, 99th
#: percentile 4.2 kHz, and one fit on noise 47.6 kHz away (the acceptance
#: filter admits a few), so the check is on the run, not on each spectrum
LINE_NEAR_HZ = 4e3
LINE_NEAR_FRACTION = 0.8
LINE_MEDIAN_HZ = 2.5e3
#: readout success at the deepest n_ro, pooled over the run, must reach
#: this (calibrated: ~0.87 with 250 shots per depth and pass)
READOUT_FLOOR = 0.75
#: ramsey_t2star: the second-half fringe may exceed the t2* envelope's
#: share of the first-half fringe by this many standard errors (its noise
#: floor; a Rice tail beyond 4 sigma has probability < 1e-3). Calibrated
#: on 15 runs (12 at 200 shots per delay, 3 at 800): second-half fringe
#: at most 0.034 against limits of 0.040-0.073; with no t2* detuning it
#: is 0.29-0.31 against 0.097
RAMSEY_SIGMAS = 4.0


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Recorder:
    """Times the units of one run and counts the failed ones.

    ``tracer`` is set for traced passes only; ``rss_every`` > 0 samples
    the resident set size after every that many units.
    """

    def __init__(self, rss_every: int = 0):
        self.unit_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.sim_s = 0.0
        self.tracer = None
        self.errors: list[str] = []
        self.rss_every = rss_every
        self.rss: list[tuple[int, int]] = []

    def unit(self, name, fn, *args, **kwargs):
        """One unit of work; returns ``None`` if it raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            if self.tracer is None:
                out = fn(*args, **kwargs)
            else:
                out = self.tracer.unit(name, fn, *args, **kwargs)
        except Exception as exc:       # a failing unit must not stop the run
            self.fail(1, f"{name}: {exc!r}")
            out = None
        self.unit_s.append(perf_counter() - t0)
        if self.rss_every and self.attempted % self.rss_every == 0:
            self.rss.append((self.attempted, _rss_bytes()))
        return out

    def call(self, name, fn, *args, **kwargs):
        """A call that is not a unit (analysis), in a span when tracing."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    def fail(self, n: int, reason: str):
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(reason)


class Workload:
    """Config-driven workload; keyword overrides replace experiment params."""

    config = ""
    #: a run makes at least this many passes; peak RSS, RSS growth and
    #: the readout threshold are taken over them, so that they cover a
    #: fixed amount of work however many passes fit in the run
    fixed_passes = 1

    def __init__(self, **overrides):
        cfg = load_config(INPUTS / self.config)
        self.det = cfg.detector
        self.experiments = []
        for exp in cfg.experiments:
            params = {**exp.params, **overrides}
            couplings = params.pop("couplings", None)
            spin = cfg.system if couplings is None else replace(
                cfg.system, couplings=tuple((TWO_PI * c["a"], TWO_PI * c["b"])
                                            for c in couplings))
            self.experiments.append((build_system(spin, cfg.cavity), params))

    def start(self, seed: int):
        raise NotImplementedError

    def run_pass(self, index: int, rec: Recorder):
        raise NotImplementedError

    def finish(self, rec: Recorder) -> dict:
        """Run-level analysis and checks; returns a summary of the output."""
        return {}


class Trace(Workload):
    """Pulsed spectra on one continuous trajectory per system.

    A unit is one sweep repetition on each system, one after the other
    (the one-nucleus sweep skips about 10 of its 36 carriers as waits, the
    two-nucleus sweep drives all of them, so a per-system unit would make
    the unit time bimodal). A pass takes ``n_averages`` units, which make one
    spectrum per system (the trajectories continue from pass to pass),
    fits each with ``analysis.fit_lorentzian`` and keeps the fit under
    the acceptance filter of the acceptance trace pipeline. Each accepted
    center is checked against the allowed line of the nuclear
    configuration the trajectory was in while the spectrum was swept
    (between the lines of all of them if the nucleus flipped).
    """

    config = "trace.yaml"
    fixed_passes = 3

    def start(self, seed):
        averages = {int(p["n_averages"]) for _, p in self.experiments}
        if len(averages) != 1:
            raise ValueError("trace systems need equal n_averages")
        self.n_averages = averages.pop()
        self.trajectories = [(SystemState(level=0), trajectory_rng(seed, k))
                             for k in range(len(self.experiments))]
        # allowed line offset from omega_s (Hz) per nuclear configuration
        self.lines = [{sys.levels[t.lower][1]:
                       (t.frequency - sys.params.omega_s) / TWO_PI
                       for t in sys.allowed_transitions()}
                      for sys, _ in self.experiments]
        self.fits = 0
        self.accepted = 0
        self.centers: list[list[float]] = [[] for _ in self.experiments]
        self.spectra: list[np.ndarray] = []
        self.misses: list[float] = []

    def _nuclear(self, k):
        return self.experiments[k][0].levels[self.trajectories[k][0].level][1]

    def _sweep_each(self):
        """One sweep repetition on every system's trajectory."""
        return [sequencer.spectroscopy_sweep(
                    state, sys, self.det, rng, center=sys.params.omega_s,
                    span_hz=p["span"], step_hz=p["step"], n_averages=1,
                    pulse_fwhm=p["pulse_fwhm"], t_int=p["t_int"])
                for (sys, p), (state, rng) in zip(self.experiments,
                                                  self.trajectories)]

    def run_pass(self, index, rec):
        n = len(self.experiments)
        t_start = [state.time for state, _ in self.trajectories]
        nuclear = [{self._nuclear(k)} for k in range(n)]
        counts, deltas = [0.0] * n, [None] * n
        for _ in range(self.n_averages):
            sweeps = rec.unit("sequencer.spectroscopy_sweep",
                              self._sweep_each)
            for k in range(n):
                nuclear[k].add(self._nuclear(k))
            if sweeps is not None:
                counts = [c + sp.counts for c, sp in zip(counts, sweeps)]
                deltas = [sp.delta_hz for sp in sweeps]
        rec.sim_s += sum(state.time - t0 for (state, _), t0
                         in zip(self.trajectories, t_start))
        for k, (sys, p) in enumerate(self.experiments):
            if deltas[k] is None:
                continue
            self.spectra.append(counts[k])
            self.fits += 1
            center = self._fit(rec, deltas[k], counts[k], p["span"])
            if center is None:
                continue
            self.accepted += 1
            self.centers[k].append(center)
            lines = [self.lines[k][m] for m in nuclear[k]]
            miss = max(min(lines) - center, center - max(lines), 0.0)
            self.misses.append(miss)

    @staticmethod
    def _fit(rec, deltas, counts, span_hz):
        """Line center of an accepted fit, or ``None`` if rejected."""
        i = int(np.argmax(counts))
        amp = float(counts[i] - np.median(counts))
        try:
            fit = rec.call("analysis.fit_lorentzian", analysis.fit_lorentzian,
                           deltas, counts, p0=(float(deltas[i]), 8e3, amp))
        except fitting.FitError:
            return None
        if (abs(fit.center) <= span_hz / 2 and fit.fwhm <= 40e3
                and fit.amplitude > 0 and fit.center_sigma <= 3e3):
            return fit.center
        return None

    def finish(self, rec):
        misses = np.array(self.misses)
        median = near = None
        if not misses.size:
            problem = "no spectrum passed the acceptance filter"
        else:
            median = float(np.median(misses))
            near = float(np.mean(misses <= LINE_NEAR_HZ))
            problem = None
            if median > LINE_MEDIAN_HZ or near < LINE_NEAR_FRACTION:
                problem = (f"accepted lines lie a median {median:.0f} Hz "
                           f"from their allowed lines, {near:.0%} within "
                           f"{LINE_NEAR_HZ:.0f} Hz")
        if problem:
            rec.fail(rec.attempted - rec.failed, problem)
        return {"fits": self.fits, "accepted": self.accepted,
                "centers_hz": self.centers, "median_offset_hz": median,
                "near_fraction": near}


class Readout(Workload):
    """Single-shot readout curve: independent shots keyed (seed, index).

    A pass runs the whole curve (every depth, both prepared states) and
    fits it with ``analysis.fit_readout_curve``. At the end of the run the
    count differences at the deepest depth, pooled over the first
    ``fixed_passes`` passes, go through ``analysis.readout_threshold``,
    and the curve pooled over every pass is checked.
    """

    config = "readout.yaml"
    fixed_passes = 4

    def start(self, seed):
        self.seed = seed
        sys, p = self.experiments[0]
        self.depths = [int(n) for n in p["n_ro_values"]]
        self.hits = np.zeros(len(self.depths))
        self.shots = np.zeros(len(self.depths))
        self.deep_deltas: list[int] = []
        self.records: list[tuple] = []

    def run_pass(self, index, rec):
        sys, p = self.experiments[0]
        n_shots = int(p["n_shots"])
        down, up = sequencer.readout_pair(sys)
        shot = index * len(self.depths) * 2 * n_shots
        p_success = []
        for j, n_ro in enumerate(self.depths):
            hits = ok = 0
            for prep, level in (("d", down.lower), ("u", up.lower)):
                for _ in range(n_shots):
                    rng = trajectory_rng(self.seed, shot)
                    shot += 1
                    out = rec.unit("sequencer.single_shot_readout",
                                   sequencer.single_shot_readout,
                                   SystemState(level=level), sys, self.det,
                                   rng, n_ro=n_ro, t_d=p["t_d"])
                    if out is None:
                        continue
                    ok += 1
                    hits += out.state_call == prep
                    rec.sim_s += out.duration
                    self.records.append((n_ro, prep, out.c_down, out.c_up))
                    if n_ro == self.depths[-1] and index < self.fixed_passes:
                        self.deep_deltas.append(out.delta_c)
            self.hits[j] += hits
            self.shots[j] += ok
            p_success.append(hits / max(ok, 1))
        rec.call("analysis.fit_readout_curve", analysis.fit_readout_curve,
                 self.depths, p_success, epsilon=self.det.epsilon,
                 gamma_dc=self.det.gamma_dc, t_d=p["t_d"])

    def finish(self, rec):
        threshold = None
        if len(self.deep_deltas) >= 100:
            threshold = rec.call("analysis.readout_threshold",
                                 analysis.readout_threshold, self.deep_deltas)
        p = self.hits / np.maximum(self.shots, 1)
        # success must rise with depth: least-squares slope against
        # log2(n_ro) over the pooled curve
        x = np.log2(self.depths)
        slope = float(np.polyfit(x, p, 1)[0])
        problems = []
        if not slope > 0:
            problems.append(f"success falls with depth (slope {slope:.3g})")
        if not p[-1] >= READOUT_FLOOR:
            problems.append(f"success {p[-1]:.3f} at n_ro={self.depths[-1]} "
                            f"is below {READOUT_FLOOR}")
        if problems:
            rec.fail(rec.attempted - rec.failed, "; ".join(problems))
        return {"n_ro": self.depths, "p_success": p.tolist(),
                "slope_per_doubling": slope,
                "threshold": None if threshold is None else threshold.threshold,
                "fidelity": None if threshold is None else threshold.fidelity}


class RamseyT2Star(Workload):
    """Ramsey fringes under a static detuning drawn per shot (t2*).

    Every unit is one call of ``sequencer.ramsey_experiment`` over the
    whole delay grid with one average: one shot at each delay, seeded by
    the run seed and the unit index. (A single shot is not the unit: its
    time is bimodal, as the detection window either collapses at once or
    runs the step loop about half the time, so its median would sit in
    the gap between the two modes.) A pass takes ``n_averages`` units. At
    the end of the run the pooled fringe must lose contrast from the first
    half of the delay range to the second as the t2* envelope predicts: a
    Lorentzian static detuning of HWHM 1/t2* damps the fringe by
    exp(-tau/t2*), so the second half, ``dtau`` later, keeps at most
    exp(-dtau/t2*) of the first half's amplitude (Purcell T2 damps it a
    little more).
    """

    config = "ramsey_t2star.yaml"
    fixed_passes = 8

    def start(self, seed):
        if not 0 <= seed < 2 ** 32:
            raise ValueError("seed must fit in 32 bits")
        self.seed = seed
        sys, p = self.experiments[0]
        self.delays = np.linspace(p["tau_min"], p["tau_max"],
                                  int(p["tau_points"]))
        self.noise = NoiseModel(t2_star=p["t2_star"])
        self.sums = np.zeros(self.delays.size)
        self.sumsq = np.zeros(self.delays.size)
        self.shots = np.zeros(self.delays.size)
        # per delay: two Gaussian pulses of wall time 2*FWHM, the delay,
        # the detection window
        self.sim_per_unit = float(np.sum(4.0 * p["pulse_fwhm"] + self.delays
                                         + p["t_int"]))

    def run_pass(self, index, rec):
        sys, p = self.experiments[0]
        n_avg = int(p["n_averages"])
        for k in range(index * n_avg, (index + 1) * n_avg):
            sig = rec.unit("sequencer.ramsey_experiment",
                           sequencer.ramsey_experiment, sys, self.det,
                           (self.seed << 32) | k, transition=p["transition"],
                           delays=self.delays, detuning_hz=p["detuning"],
                           pulse_fwhm=p["pulse_fwhm"], n_averages=1,
                           t_int=p["t_int"], noise=self.noise)
            if sig is None:
                continue
            self.sums += sig
            self.sumsq += sig ** 2
            self.shots += 1
            rec.sim_s += self.sim_per_unit

    def fringe_amplitudes(self):
        """(amplitude, standard error) of the fringe in each half of the
        delay range, from a linear fit of a + b cos(dt) + c sin(dt)."""
        sys, p = self.experiments[0]
        n = np.maximum(self.shots, 1)
        mean = self.sums / n
        var = np.maximum(self.sumsq / n - mean ** 2, 1e-12)
        sigma = float(np.sqrt(np.mean(var / n)))
        d = TWO_PI * p["detuning"]
        mid = self.delays.size // 2
        out = []
        for half in (slice(0, mid + 1), slice(mid, None)):
            t = self.delays[half]
            a = np.column_stack([np.ones_like(t), np.cos(d * t),
                                 np.sin(d * t)])
            coef = np.linalg.lstsq(a, mean[half], rcond=None)[0]
            cov = sigma ** 2 * np.linalg.inv(a.T @ a)
            out.append((float(math.hypot(coef[1], coef[2])),
                        float(math.sqrt(max(cov[1, 1], cov[2, 2])))))
        return out

    def envelope_ratio(self) -> float:
        """exp(-dtau/t2*) between the starts of the two halves."""
        p = self.experiments[0][1]
        mid = self.delays.size // 2
        return math.exp(-(self.delays[mid] - self.delays[0]) / p["t2_star"])

    def finish(self, rec):
        (a1, s1), (a2, s2) = self.fringe_amplitudes()
        ratio = self.envelope_ratio()
        problems = []
        if not a1 > 3.0 * s1:
            problems.append(f"no fringe in the first half ({a1:.3g} +/- "
                            f"{s1:.2g})")
        if not a2 <= ratio * a1 + RAMSEY_SIGMAS * s2:
            problems.append(f"fringe contrast {a1:.3g} -> {a2:.3g} +/- "
                            f"{s2:.2g} does not decay to the t2* envelope "
                            f"({ratio:.3f} of it)")
        if problems:
            rec.fail(rec.attempted - rec.failed, "; ".join(problems))
        return {"amplitude_first_half": a1, "amplitude_second_half": a2,
                "amplitude_sigma": [s1, s2], "envelope_ratio": ratio,
                "shots": int(self.shots.sum())}


WORKLOADS = {"trace": Trace, "readout": Readout, "ramsey_t2star": RamseyT2Star}
