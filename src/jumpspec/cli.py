"""Command-line front end: run configured experiments, summarize results.

``jumpspec run <config>`` executes every experiment in a YAML config and
writes CSV curves, JSON-lines event streams, and a manifest recording the
config hash, seed, and package version. ``jumpspec report <dir>``
produces one summary row per experiment. ``jumpspec lattice-sweep``
tabulates dipolar couplings versus field angle from a structure file.

Re-running an identical config byte-reproduces every data file (the
manifest timestamp excepted). Errors are emitted as one JSON object on
stderr and a nonzero exit code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__, analysis, fitting, sequencer
from .config import ConfigError, RunConfig, load_config
from .detector import DetectorParams
from .dynamics import SystemState, trajectory_rng
from .lattice import angle_sweep, load_structure
from .sequencer import ExperimentConfig, TrackerState, run_tracking
from .spinmodel import SpinSystem, build_system

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RunContext:
    sys: SpinSystem
    det: DetectorParams
    seed: int
    outdir: Path
    name: str
    lattice_file: str | None
    index: int          # the experiment's place in the config


def _cell(v):
    return f"{v:.10g}" if isinstance(v, float) else v


def _write_csv(path: Path | None, header: list[str], rows) -> None:
    """Write a table with LF line ends to ``path``, or to stdout if None."""
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _grid(params, prefix, default_lo, default_hi, default_n):
    """Either an explicit ``<prefix>_values`` list or a lo/hi/n range."""
    values = params.pop(f"{prefix}_values", None)
    if values is not None:
        return np.asarray(values, dtype=float)
    lo = params.pop(f"{prefix}_min", default_lo)
    hi = params.pop(f"{prefix}_max", default_hi)
    n = int(params.pop(f"{prefix}_points", default_n))
    return np.linspace(lo, hi, n)


def _all_read(exp: ExperimentConfig, ctx: RunContext) -> None:
    """Reject a parameter the runner did not pop: a typo, or another's."""
    if exp.params:
        raise ConfigError(
            f"experiments[{ctx.index}].params.{next(iter(exp.params))}",
            f"not a parameter of protocol {exp.protocol!r}: "
            + ", ".join(exp.params))


# ---------------------------------------------------------------------------
# protocol runners: each pops the parameters it reads from ``exp.params``
# (a copy), calls ``_all_read`` before it simulates, and returns
# (artifact file names, summary dict)

def _run_spectroscopy(exp: ExperimentConfig, ctx: RunContext):
    p = exp.params
    args = dict(
        n_spectra=int(p.pop("n_spectra", 1)),
        initial_level=int(p.pop("initial_level", 0)),
        center=p.pop("center", ctx.sys.params.omega_s / TWO_PI) * TWO_PI,
        span_hz=p.pop("span", 100e3),
        step_hz=p.pop("step", 2e3),
        n_averages=int(p.pop("n_averages", 50)),
        pulse_fwhm=p.pop("pulse_fwhm", 80e-6),
        t_int=p.pop("t_int", 2.0e-3))
    _all_read(exp, ctx)
    trace = sequencer.trace_experiment(ctx.sys, ctx.det, ctx.seed, **args)
    rows = [(i, d, int(c), c / sp.n_averages)
            for i, sp in enumerate(trace.spectra)
            for d, c in zip(sp.delta_hz, sp.counts)]
    fname = f"{ctx.name}_spectra.csv"
    _write_csv(ctx.outdir / fname,
               ["spectrum_index", "delta_hz", "counts", "mean_counts"], rows)
    mean = np.mean([sp.mean_counts for sp in trace.spectra], axis=0)
    deltas = trace.spectra[0].delta_hz
    summary = {"protocol": exp.protocol, "n_spectra": len(trace.spectra)}
    try:
        fit = analysis.fit_lorentzian(deltas, mean)
        summary.update(peak_delta_hz=fit.center, peak_sigma_hz=fit.center_sigma,
                       fwhm_hz=fit.fwhm)
    except fitting.FitError as exc:
        summary.update(peak_delta_hz=None, fit_error=str(exc))
    return [fname], summary


def _run_readout(exp: ExperimentConfig, ctx: RunContext):
    p = exp.params
    n_ro_values = [int(v) for v in
                   np.atleast_1d(p.pop("n_ro_values", [50, 100, 200]))]
    n_shots = int(p.pop("n_shots", 20))
    t_d = p.pop("t_d", 2.6e-3)
    _all_read(exp, ctx)
    down, up = sequencer.readout_pair(ctx.sys)
    records, p_success = [], []
    shot_index = 0
    for n_ro in n_ro_values:
        hits = 0
        for prep, level in (("d", down.lower), ("u", up.lower)):
            for _ in range(n_shots):
                rng = trajectory_rng(ctx.seed, shot_index)
                shot_index += 1
                state = SystemState(level=level)
                rec = sequencer.single_shot_readout(
                    state, ctx.sys, ctx.det, rng, n_ro=n_ro, t_d=t_d)
                hits += (rec.state_call == prep)
                records.append({"n_ro": n_ro, "prepared": prep,
                                "c_down": rec.c_down, "c_up": rec.c_up,
                                "call": rec.state_call})
        p_success.append(hits / (2 * n_shots))
    curve_name = f"{ctx.name}_curve.csv"
    events_name = f"{ctx.name}_shots.jsonl"
    _write_csv(ctx.outdir / curve_name, ["n_ro", "p_success"],
               zip(n_ro_values, p_success))
    _write_jsonl(ctx.outdir / events_name, records)
    summary = {"protocol": exp.protocol, "n_shots_per_point": 2 * n_shots}
    deltas = [r["c_down"] - r["c_up"] for r in records
              if r["n_ro"] == max(n_ro_values)]
    if len(deltas) >= 100:
        thr = analysis.readout_threshold(deltas)
        summary.update(threshold=thr.threshold, fidelity=thr.fidelity)
    if len(n_ro_values) >= 5:
        model = analysis.fit_readout_curve(
            n_ro_values, p_success, epsilon=ctx.det.epsilon,
            gamma_dc=ctx.det.gamma_dc, t_d=t_d)
        wi, kap = ctx.sys.params.omega_i, ctx.sys.cavity.kappa
        summary.update(p0=model.p0, p0_sigma=model.p0_sigma, eta=model.eta,
                       eta_sigma=model.eta_sigma)
        if model.eta > 0:    # too little data can fit a negative eta
            summary["b_hz"] = model.b_from_eta(wi, kap) / TWO_PI
    return [curve_name, events_name], summary


def _run_eldor(exp: ExperimentConfig, ctx: RunContext):
    p = exp.params
    deltas = _grid(p, "delta", -820e3, -760e3, 13)
    args = dict(
        amplitude=TWO_PI * p.pop("amplitude", 200e3),
        duration=p.pop("duration", 50e-6),
        prepare=p.pop("prepare", "d"),
        n_prep=int(p.pop("n_prep", 3)),
        n_shots=int(p.pop("n_shots", 20)),
        n_ro=int(p.pop("n_ro", 100)),
        t_d=p.pop("t_d", 2.6e-3))
    _all_read(exp, ctx)
    p_down = sequencer.eldor_scan(ctx.sys, ctx.det, ctx.seed,
                                  deltas_hz=deltas, **args)
    fname = f"{ctx.name}_eldor.csv"
    _write_csv(ctx.outdir / fname, ["delta_hz", "p_down"],
               zip(deltas, p_down))
    summary = {"protocol": exp.protocol,
               "dip_delta_hz": float(deltas[np.argmin(p_down)]),
               "depth": float(np.max(p_down) - np.min(p_down))}
    return [fname], summary


def _run_dnp(exp: ExperimentConfig, ctx: RunContext):
    p = exp.params
    target = p.pop("target", "d")
    n_prep_values = [int(v) for v in np.atleast_1d(p.pop("n_prep_values",
                                                         [1, 2, 4]))]
    n_shots = int(p.pop("n_shots", 40))
    _all_read(exp, ctx)
    rows = []
    for k, n_prep in enumerate(n_prep_values):
        hit = 0
        for i in range(n_shots):
            rng = trajectory_rng(ctx.seed, k * n_shots + i)
            state = SystemState(level=i % len(ctx.sys.levels))
            sequencer.dnp_prepare(state, target, ctx.sys, rng, n_prep=n_prep)
            lev = ctx.sys.levels[state.level]
            hit += (lev[0] == 0 and lev[1] == target)
        rows.append((n_prep, hit / n_shots))
    fname = f"{ctx.name}_dnp.csv"
    _write_csv(ctx.outdir / fname, ["n_prep", "p_target"], rows)
    return [fname], {"protocol": exp.protocol, "target": target,
                     "p_target_final": rows[-1][1]}


def _run_oscillation(exp: ExperimentConfig, ctx: RunContext):
    p = exp.params
    taus = _grid(p, "tau", 0.0, 200e-6, 21)
    args = dict(transition=p.pop("transition", "allowed_d"),
                n_averages=int(p.pop("n_averages", 50)),
                t_int=p.pop("t_int", 2.0e-3))
    if exp.protocol == "rabi":
        experiment = sequencer.rabi_experiment
        args.update(durations=taus,
                    amplitude=TWO_PI * p.pop("amplitude", 50e3))
    elif exp.protocol == "ramsey":
        experiment = sequencer.ramsey_experiment
        args.update(delays=taus, detuning_hz=p.pop("detuning", 5e3),
                    noise=sequencer.NoiseModel(t2_star=p.pop("t2_star", 0.0)))
    else:
        experiment = sequencer.echo_experiment
        args.update(delays=taus,
                    noise=sequencer.NoiseModel(t2=p.pop("t2", 0.0)))
    _all_read(exp, ctx)
    signal = experiment(ctx.sys, ctx.det, ctx.seed, **args)
    fname = f"{ctx.name}_{exp.protocol}.csv"
    _write_csv(ctx.outdir / fname, ["tau_s", "mean_counts"],
               zip(taus, signal))
    return [fname], {"protocol": exp.protocol,
                     "contrast": float(np.max(signal) - np.min(signal))}


def _run_tracking(exp: ExperimentConfig, ctx: RunContext):
    p = exp.params
    tracker = TrackerState(p_gain=p.pop("p_gain", 10.0),
                           i_gain=p.pop("i_gain", 1e-3),
                           f=p.pop("f", 2000.0),
                           tau=p.pop("tau", 25e-6))
    drift_rate = TWO_PI * p.pop("drift_hz_per_min", 1e3) / 60.0
    args = dict(
        slope=p.pop("slope", 50.0),
        n_iter=int(p.pop("n_iter", 2000)), t_iter=p.pop("t_iter", 0.05),
        noise_sigma=p.pop("noise_sigma", 0.0))
    _all_read(exp, ctx)
    rec = run_tracking(tracker, drift=lambda t: drift_rate * t,
                       rng=trajectory_rng(ctx.seed, 0), **args)
    fname = f"{ctx.name}_tracking.csv"
    _write_csv(ctx.outdir / fname,
               ["time_s", "residual_hz", "correction_hz"],
               zip(rec.times, rec.detunings / TWO_PI,
                   rec.corrections / TWO_PI))
    settled = rec.detunings[len(rec.detunings) // 4:]
    rms = float(np.sqrt(np.mean(settled ** 2)) / TWO_PI)
    return [fname], {"protocol": exp.protocol, "rms_residual_hz": rms}


_COUPLING_HEADER = ["site", "shell", "theta_deg", "a_hz", "b_hz"]


def _coupling_rows(sweep):
    """One row per site and field angle, as written by ``lattice`` and
    ``lattice-sweep``."""
    return [(j, sweep.labels[j], float(th), sweep.a_hz[j, i],
             sweep.b_hz[j, i])
            for j in range(len(sweep.labels))
            for i, th in enumerate(sweep.thetas)]


def _run_lattice(exp: ExperimentConfig, ctx: RunContext):
    p = exp.params
    args = dict(beta=p.pop("beta", 0.0),
                theta_range=(p.pop("theta_min", -1.0),
                             p.pop("theta_max", 1.0)),
                n_points=int(p.pop("theta_points", 21)))
    _all_read(exp, ctx)
    sweep = angle_sweep(load_structure(ctx.lattice_file), **args)
    fname = f"{ctx.name}_couplings.csv"
    _write_csv(ctx.outdir / fname, _COUPLING_HEADER, _coupling_rows(sweep))
    return [fname], {"protocol": exp.protocol, "n_sites": len(sweep.labels)}


PROTOCOLS = {
    "spectroscopy": _run_spectroscopy,
    "trace": _run_spectroscopy,
    "readout": _run_readout,
    "eldor": _run_eldor,
    "dnp": _run_dnp,
    "rabi": _run_oscillation,
    "ramsey": _run_oscillation,
    "echo": _run_oscillation,
    "tracking": _run_tracking,
    "lattice": _run_lattice,
}


def _execute(cfg: RunConfig, config_bytes: bytes) -> Path:
    outdir = Path(cfg.output)
    outdir.mkdir(parents=True, exist_ok=True)
    system = build_system(cfg.system, cfg.cavity)
    try:
        file_lists = []
        for i, exp in enumerate(cfg.experiments):
            runner = PROTOCOLS.get(exp.protocol)
            if runner is None:
                raise ConfigError(f"experiments[{i}].protocol",
                                  f"unknown protocol {exp.protocol!r}")
            ctx = RunContext(sys=system, det=cfg.detector, index=i,
                             seed=cfg.seed + 1000 * i, outdir=outdir,
                             name=cfg.names[i], lattice_file=cfg.lattice_file)
            files, summary = runner(replace(exp, params=dict(exp.params)), ctx)
            summary_name = f"{cfg.names[i]}_summary.json"
            with open(outdir / summary_name, "w") as fh:
                json.dump({"name": cfg.names[i], **summary}, fh,
                          sort_keys=True, indent=1)
            file_lists.append(files + [summary_name])
        manifest = {
            "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
            "seed": cfg.seed,
            "version": __version__,
            "created": datetime.now(timezone.utc).isoformat(),
            "experiments": [
                {"name": cfg.names[i], "protocol": exp.protocol,
                 "files": sorted(file_lists[i])}
                for i, exp in enumerate(cfg.experiments)],
        }
        with open(outdir / "manifest.json", "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
    except Exception:
        # no partial outputs: every artifact is prefixed by its
        # experiment name, so the failed run can be swept cleanly
        for name in cfg.names:
            for path in outdir.glob(f"{name}_*"):
                path.unlink(missing_ok=True)
        raise
    return outdir


def _fail(kind: str, exc: Exception) -> None:
    payload = {"error": kind, "message": str(exc)}
    if isinstance(exc, ConfigError):
        payload["path"] = exc.path
        payload["message"] = exc.message
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    raise SystemExit(1)


@click.group()
@click.version_option(__version__)
def main():
    """Quantum-jump simulation and estimation toolkit."""


@main.command()
@click.argument("config_path", type=click.Path())
@click.option("--seed", type=int, default=None,
              help="Override the config seed.")
def run(config_path, seed):
    """Execute every experiment in CONFIG_PATH and write artifacts."""
    try:
        cfg = load_config(config_path)
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        outdir = _execute(cfg, Path(config_path).read_bytes())
    except ConfigError as exc:
        _fail("config", exc)
    except Exception as exc:
        _fail("runtime", exc)
    click.echo(f"wrote {len(cfg.experiments)} experiment(s) to {outdir}")


_REPORT_COLUMNS = ["name", "protocol", "p0", "p0_sigma", "eta", "eta_sigma",
                   "b_hz", "fidelity", "peak_delta_hz", "peak_sigma_hz",
                   "p_target_final", "rms_residual_hz", "dip_delta_hz",
                   "contrast", "n_sites"]


@main.command()
@click.argument("results_dir", type=click.Path())
def report(results_dir):
    """Summarize a results directory into a table (text and CSV)."""
    results = Path(results_dir)
    manifest_path = results / "manifest.json"
    if not manifest_path.exists():
        _fail("report", FileNotFoundError(f"no manifest in {results}"))
    manifest = json.loads(manifest_path.read_text())
    rows = []
    for exp in manifest["experiments"]:
        summary_file = results / f"{exp['name']}_summary.json"
        summary = (json.loads(summary_file.read_text())
                   if summary_file.exists() else {"name": exp["name"]})
        rows.append([summary.get(col, "") for col in _REPORT_COLUMNS])
    _write_csv(results / "summary.csv", _REPORT_COLUMNS,
               [[v if v is not None else "" for v in row] for row in rows])
    widths = [max(len(str(c)), 10) for c in _REPORT_COLUMNS]
    click.echo("  ".join(c.ljust(w) for c, w in zip(_REPORT_COLUMNS, widths)))
    for row in rows:
        cells = ["" if v in (None, "") else
                 (f"{v:.6g}" if isinstance(v, float) else str(v))
                 for v in row]
        click.echo("  ".join(c.ljust(w) for c, w in zip(cells, widths)))


def _parse_range(text):
    try:
        lo, hi, n = text.split(":")
        return float(lo), float(hi), int(n)
    except ValueError:
        raise ConfigError("--theta", f"expected lo:hi:n, got {text!r}")


@main.command("lattice-sweep")
@click.argument("structure", type=click.Path(), required=False)
@click.option("--theta", default="-1:1:21", show_default=True,
              help="Field tilt sweep as lo:hi:n (degrees).")
@click.option("--beta", type=float, default=0.0, show_default=True,
              help="Fixed out-of-plane misalignment (degrees).")
@click.option("--output", type=click.Path(), default=None,
              help="Write CSV here instead of stdout.")
def lattice_sweep(structure, theta, beta, output):
    """Tabulate per-site hyperfine couplings versus field angle.

    STRUCTURE is a plain-text structure file in the format of the bundled
    CaWO4 data (jumpspec/data/cawo4.txt), which is used without it.
    """
    try:
        lo, hi, n = _parse_range(theta)
        model = load_structure(structure)
        sweep = angle_sweep(model, beta=beta, theta_range=(lo, hi),
                            n_points=n)
    except ConfigError as exc:
        _fail("config", exc)
    except Exception as exc:
        _fail("runtime", exc)
    _write_csv(Path(output) if output else None, _COUPLING_HEADER,
               _coupling_rows(sweep))


if __name__ == "__main__":
    main()
