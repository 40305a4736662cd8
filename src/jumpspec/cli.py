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
from functools import partial
from pathlib import Path

import click
import numpy as np

from . import __version__, analysis, fitting, sequencer
from .config import ConfigError, ExperimentConfig, RunConfig, load_config
from .detector import DetectorParams
from .dynamics import SystemState, trajectory_rng
from .lattice import angle_sweep, load_structure
from .sequencer import TrackerState, run_tracking
from .spinmodel import SpinSystem, build_system

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RunContext:
    sys: SpinSystem
    det: DetectorParams
    seed: int
    outdir: Path
    name: str
    protocol: str
    lattice_file: str | None


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


# ---------------------------------------------------------------------------
# protocol parameters: a reader checks a config value at its path, and
# returns it as the library takes it

def _number(value, path, least=None):
    """A finite number; given ``least``, a whole number of at least that."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or least is not None
            and (value < least or value != int(value))):
        what = ("a finite number" if least is None
                else f"a whole number of at least {least}")
        raise ConfigError(path, f"expected {what}, got {value!r}")
    return value if least is None else int(value)


def _positive(value, path):
    """A finite number above 0: a duration, span or step."""
    if _number(value, path) <= 0:
        raise ConfigError(path, f"expected a positive number, got {value!r}")
    return value


def _label(value, path, valid):
    """One of the labels ``valid``."""
    if value not in valid:
        raise ConfigError(path, f"expected one of {', '.join(valid)}, "
                          f"got {value!r}")
    return value


def _noise(value, path, name):
    """The noise model of one channel; the library checks the value, and
    its error gets the path."""
    number = _number(value, path)
    try:
        return sequencer.NoiseModel(**{name: number})
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _each(read):     # a list, element by element; one value is a list of one
    return lambda value, path: (
        [read(v, f"{path}[{i}]") for i, v in enumerate(value)]
        if isinstance(value, list) and value else [read(value, path)])


_COUNT, _INDEX = partial(_number, least=1), partial(_number, least=0)
#: how each parameter that is not a plain number is read (a label as given)
_READ = {
    **dict.fromkeys(("n_spectra", "n_averages", "n_shots", "n_ro", "n_iter",
                     "tau_points", "delta_points", "theta_points"), _COUNT),
    **dict.fromkeys(("initial_level", "n_prep"), _INDEX),
    **dict.fromkeys(("span", "step", "t_int", "t_d", "duration", "pulse_fwhm",
                     "t_iter"), _positive),
    **dict.fromkeys(("prepare", "target"),
                    partial(_label, valid=tuple(sequencer.DNP_BRANCH))),
    **dict.fromkeys(("tau_values", "delta_values"), _each(_number)),
    **dict.fromkeys(("center", "amplitude"),      # Hz -> rad/s
                    lambda v, path: TWO_PI * _number(v, path)),
    "n_ro_values": _each(_COUNT), "n_prep_values": _each(_INDEX),
    "t2_star": partial(_noise, name="t2_star"),
    "t2": partial(_noise, name="t2")}
#: the library keywords that differ from the config names
_KEYWORD = {"span": "span_hz", "step": "step_hz", "detuning": "detuning_hz",
            "t2_star": "noise", "t2": "noise", "theta_points": "n_points"}


def _read_params(exp: ExperimentConfig, index: int,
                 system: SpinSystem) -> dict:
    """The keywords of ``exp``'s checked parameters and of the CLI defaults;
    a ``transition`` must name one of ``system``'s."""
    if exp.protocol not in PROTOCOLS:
        raise ConfigError(f"experiments[{index}].protocol",
                          f"unknown protocol {exp.protocol!r}")
    declared, path = PROTOCOLS[exp.protocol][1], f"experiments[{index}].params"
    for name in exp.params:
        if name not in declared:
            raise ConfigError(f"{path}.{name}", "not a parameter of protocol "
                              f"{exp.protocol!r}: {', '.join(declared)}")
        grid = name.rpartition("_")[0] + "_values"
        if name.endswith(("_min", "_max", "_points")) and grid in exp.params:
            raise ConfigError(f"{path}.{name}", f"not read with {grid} given")
    given = {k: v for k, v in declared.items() if v is not None} | exp.params
    read = _READ | {"transition": partial(
        _label, valid=[t.label for t in system.transitions])}
    return {_KEYWORD.get(k, k): read.get(k, _number)(v, f"{path}.{k}")
            for k, v in given.items()}


def _grid(kwargs, prefix):
    """Either an explicit ``<prefix>_values`` list or a lo/hi/n range."""
    lo, hi, n = (kwargs.pop(f"{prefix}_{e}") for e in ("min", "max", "points"))
    values = kwargs.pop(f"{prefix}_values", None)
    return np.asarray(values, float) if values else np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# protocol runners: each takes its experiment's keywords from
# ``_read_params`` and returns (artifact file names, summary dict)

def _run_spectroscopy(kwargs, ctx: RunContext):
    kwargs.setdefault("center", ctx.sys.params.omega_s)
    trace = sequencer.trace_experiment(ctx.sys, ctx.det, ctx.seed, **kwargs)
    rows = [(i, d, int(c), c / sp.n_averages)
            for i, sp in enumerate(trace.spectra)
            for d, c in zip(sp.delta_hz, sp.counts)]
    fname = f"{ctx.name}_spectra.csv"
    _write_csv(ctx.outdir / fname,
               ["spectrum_index", "delta_hz", "counts", "mean_counts"], rows)
    mean = np.mean([sp.mean_counts for sp in trace.spectra], axis=0)
    deltas = trace.spectra[0].delta_hz
    summary = {"protocol": ctx.protocol, "n_spectra": len(trace.spectra)}
    try:
        fit = analysis.fit_lorentzian(deltas, mean)
        summary.update(peak_delta_hz=fit.center, peak_sigma_hz=fit.center_sigma,
                       fwhm_hz=fit.fwhm)
    except fitting.FitError as exc:
        summary.update(peak_delta_hz=None, fit_error=str(exc))
    return [fname], summary


def _run_readout(kwargs, ctx: RunContext):
    n_ro_values, n_shots = kwargs.pop("n_ro_values"), kwargs.pop("n_shots")
    down, up = sequencer.readout_pair(ctx.sys)
    records, p_success = [], []
    for n_ro in n_ro_values:
        hits = 0
        for prep, level in (("d", down.lower), ("u", up.lower)):
            for _ in range(n_shots):
                rng = trajectory_rng(ctx.seed, len(records))   # shot index
                rec = sequencer.single_shot_readout(
                    SystemState(level=level), ctx.sys, ctx.det, rng,
                    n_ro=n_ro, **kwargs)
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
    summary = {"protocol": ctx.protocol, "n_shots_per_point": 2 * n_shots}
    deltas = [r["c_down"] - r["c_up"] for r in records
              if r["n_ro"] == max(n_ro_values)]
    if len(deltas) >= 100:
        thr = analysis.readout_threshold(deltas)
        summary.update(threshold=thr.threshold, fidelity=thr.fidelity)
    if len(n_ro_values) >= 5:
        t_d = kwargs.get("t_d", sequencer.READOUT_T_D)
        model = analysis.fit_readout_curve(
            n_ro_values, p_success, epsilon=ctx.det.epsilon,
            gamma_dc=ctx.det.gamma_dc, t_d=t_d)
        wi, kap = ctx.sys.params.omega_i, ctx.sys.cavity.kappa
        summary.update(p0=model.p0, p0_sigma=model.p0_sigma, eta=model.eta,
                       eta_sigma=model.eta_sigma)
        if model.eta > 0:    # too little data can fit a negative eta
            summary["b_hz"] = model.b_from_eta(wi, kap) / TWO_PI
    return [curve_name, events_name], summary


def _run_eldor(kwargs, ctx: RunContext):
    deltas = _grid(kwargs, "delta")
    p_down = sequencer.eldor_scan(ctx.sys, ctx.det, ctx.seed,
                                  deltas_hz=deltas, **kwargs)
    fname = f"{ctx.name}_eldor.csv"
    _write_csv(ctx.outdir / fname, ["delta_hz", "p_down"],
               zip(deltas, p_down))
    return [fname], {"protocol": ctx.protocol,
                     "dip_delta_hz": float(deltas[np.argmin(p_down)]),
                     "depth": float(np.max(p_down) - np.min(p_down))}


def _run_dnp(kwargs, ctx: RunContext):
    target, n_shots = kwargs["target"], kwargs["n_shots"]
    rows = []
    for k, n_prep in enumerate(kwargs["n_prep_values"]):
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
    return [fname], {"protocol": ctx.protocol, "target": target,
                     "p_target_final": rows[-1][1]}


def _run_oscillation(kwargs, ctx: RunContext):
    taus = _grid(kwargs, "tau")
    grid = "durations" if ctx.protocol == "rabi" else "delays"
    experiment = getattr(sequencer, f"{ctx.protocol}_experiment")
    signal = experiment(ctx.sys, ctx.det, ctx.seed, **{grid: taus}, **kwargs)
    fname = f"{ctx.name}_{ctx.protocol}.csv"
    _write_csv(ctx.outdir / fname, ["tau_s", "mean_counts"],
               zip(taus, signal))
    return [fname], {"protocol": ctx.protocol,
                     "contrast": float(np.max(signal) - np.min(signal))}


def _run_tracking(kwargs, ctx: RunContext):
    tracker = TrackerState(**{k: kwargs.pop(k) for k in
                              ("p_gain", "i_gain", "f", "tau") if k in kwargs})
    rate = TWO_PI * kwargs.pop("drift_hz_per_min") / 60.0    # rad/s per s
    rec = run_tracking(tracker, drift=lambda t: rate * t,
                       rng=trajectory_rng(ctx.seed, 0), **kwargs)
    fname = f"{ctx.name}_tracking.csv"
    _write_csv(ctx.outdir / fname,
               ["time_s", "residual_hz", "correction_hz"],
               zip(rec.times, rec.detunings / TWO_PI,
                   rec.corrections / TWO_PI))
    settled = rec.detunings[len(rec.detunings) // 4:]
    rms = float(np.sqrt(np.mean(settled ** 2)) / TWO_PI)
    return [fname], {"protocol": ctx.protocol, "rms_residual_hz": rms}


_COUPLING_HEADER = ["site", "shell", "theta_deg", "a_hz", "b_hz"]


def _coupling_rows(sweep):
    """One row per site and field angle, as written by ``lattice`` and
    ``lattice-sweep``."""
    return [(j, sweep.labels[j], float(th), sweep.a_hz[j, i],
             sweep.b_hz[j, i])
            for j in range(len(sweep.labels))
            for i, th in enumerate(sweep.thetas)]


def _run_lattice(kwargs, ctx: RunContext):
    theta_range = (kwargs.pop("theta_min"), kwargs.pop("theta_max"))
    sweep = angle_sweep(load_structure(ctx.lattice_file),
                        theta_range=theta_range, **kwargs)
    fname = f"{ctx.name}_couplings.csv"
    _write_csv(ctx.outdir / fname, _COUPLING_HEADER, _coupling_rows(sweep))
    return [fname], {"protocol": ctx.protocol, "n_sites": len(sweep.labels)}


_SWEEP = dict.fromkeys(("initial_level", "center", "span", "step", "t_int",
                        "n_averages", "pulse_fwhm")) | {"n_spectra": 1}
_OSCILLATION = {"n_averages": None, "t_int": None, "tau_values": None,
                "tau_min": 0.0, "tau_max": 200e-6, "tau_points": 21,
                "transition": "allowed_d"}

#: each protocol's runner, and its config parameters with their defaults
#: (config values); None leaves a parameter to the library's default
PROTOCOLS = {
    "spectroscopy": (_run_spectroscopy, _SWEEP),    # center: omega_s
    "trace": (_run_spectroscopy, _SWEEP),
    "readout": (_run_readout, {"n_ro_values": [50, 100, 200], "n_shots": 20,
                               "t_d": None}),
    "eldor": (_run_eldor, dict.fromkeys((
        "delta_values", "prepare", "n_prep", "n_shots", "n_ro", "t_d")) | {
        "delta_min": -820e3, "delta_max": -760e3, "delta_points": 13,
        "amplitude": 200e3, "duration": 50e-6}),
    "dnp": (_run_dnp, {"target": "d", "n_prep_values": [1, 2, 4],
                       "n_shots": 40}),
    "rabi": (_run_oscillation, {**_OSCILLATION, "amplitude": 50e3}),
    "ramsey": (_run_oscillation, {**_OSCILLATION, "detuning": None,
                                  "t2_star": None}),
    "echo": (_run_oscillation, {**_OSCILLATION, "t2": None}),
    "tracking": (_run_tracking, dict.fromkeys(("f", "tau", "noise_sigma")) | {
        "p_gain": 10.0, "i_gain": 1e-3, "drift_hz_per_min": 1e3,
        "slope": 50.0, "n_iter": 2000, "t_iter": 0.05}),
    "lattice": (_run_lattice, {"beta": 0.0, "theta_min": -1.0,
                               "theta_max": 1.0, "theta_points": 21}),
}


def _execute(cfg: RunConfig, config_bytes: bytes) -> Path:
    system = build_system(cfg.system, cfg.cavity)
    # every experiment's parameters are checked before any of them runs
    kwargs = [_read_params(exp, i, system)
              for i, exp in enumerate(cfg.experiments)]
    outdir = Path(cfg.output)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        file_lists = []
        for i, exp in enumerate(cfg.experiments):
            ctx = RunContext(sys=system, det=cfg.detector,
                             seed=cfg.seed + 1000 * i, outdir=outdir,
                             name=cfg.names[i], protocol=exp.protocol,
                             lattice_file=cfg.lattice_file)
            files, summary = PROTOCOLS[exp.protocol][0](kwargs[i], ctx)
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


@main.command()
@click.argument("results_dir", type=click.Path())
def report(results_dir):
    """Summarize a results directory into a table (text and CSV)."""
    results = Path(results_dir)
    manifest_path = results / "manifest.json"
    if not manifest_path.exists():
        _fail("report", FileNotFoundError(f"no manifest in {results}"))
    manifest = json.loads(manifest_path.read_text())
    summaries = []
    for exp in manifest["experiments"]:
        summary_file = results / f"{exp['name']}_summary.json"
        summaries.append(json.loads(summary_file.read_text())
                         if summary_file.exists() else {"name": exp["name"]})
    # every key any summary holds: name and protocol first, then sorted
    keys = {key for summary in summaries for key in summary}
    columns = ["name", "protocol"] + sorted(keys - {"name", "protocol"})
    rows = [[summary.get(col, "") for col in columns] for summary in summaries]
    _write_csv(results / "summary.csv", columns,
               [[v if v is not None else "" for v in row] for row in rows])
    cells = [["" if v in (None, "") else
              (f"{v:.6g}" if isinstance(v, float) else str(v)) for v in row]
             for row in rows]
    # each column as wide as its name or its widest cell
    widths = [max(map(len, column)) for column in zip(columns, *cells)]
    for line in [columns, *cells]:
        click.echo("  ".join(c.ljust(w) for c, w in zip(line, widths)))


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
