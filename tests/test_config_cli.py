"""Config parsing and the command-line front end."""

import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from jumpspec.cli import PROTOCOLS, main
from jumpspec.config import (ConfigError, load_config, parse_config,
                             parse_quantity)
from jumpspec.detector import DetectorParams

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_DIR = ROOT / "configs"

MINIMAL = """
seed: 3
output: {out}
system:
  omega_s: 7.334 GHz
  omega_i: -788.1 kHz
  couplings:
    - {{a: 34.5 kHz, b: 103 kHz}}
cavity:
  frequency: 7.334 GHz
  kappa: 640 kHz
  g0: 4.5 kHz
detector:
  epsilon: 0.18
experiments: {experiments}
"""


def config_text(out="results", experiments="[]"):
    return MINIMAL.format(out=out, experiments=experiments)


@pytest.mark.parametrize("text,value", [
    ("34.5 kHz", 34.5e3),
    ("7.334 GHz", 7.334e9),
    ("-788.1 kHz", -788.1e3),
    ("2.6 ms", 2.6e-3),
    ("17 us", 17e-6),
    ("80 μs", 80e-6),
    ("5 ns", 5e-9),
    ("150 Hz", 150.0),
    ("0.446 T", 0.446),
    ("1e3", 1e3),
    (42, 42.0),
])
def test_parse_quantity(text, value):
    assert parse_quantity(text) == pytest.approx(value)


@pytest.mark.parametrize("bad", ["12 k", "kHz", "1 2 Hz", "fast", True, None])
def test_parse_quantity_rejects(bad):
    with pytest.raises(ConfigError):
        parse_quantity(bad)


def test_parse_config_roundtrip():
    cfg = parse_config(config_text())
    assert cfg.seed == 3
    assert cfg.system.omega_s == pytest.approx(2 * math.pi * 7.334e9)
    assert cfg.system.omega_i == pytest.approx(-2 * math.pi * 788.1e3)
    assert cfg.cavity.kappa == pytest.approx(2 * math.pi * 640e3)
    assert cfg.detector.epsilon == 0.18
    # the fields a config leaves out take DetectorParams' defaults
    assert cfg.detector == DetectorParams(epsilon=0.18)
    assert cfg.experiments == ()


def test_schema_error_carries_field_path():
    for field, bad, path in (
            ("kappa: 640 kHz", "kappa: fast", "cavity.kappa"),
            ("epsilon: 0.18", "epsilon: 0.18\n  dark_rate: fast",
             "detector.dark_rate"),
            ("epsilon: 0.18", "epsilon: 18 %", "detector.epsilon")):
        with pytest.raises(ConfigError) as err:
            parse_config(config_text().replace(field, bad))
        assert err.value.path == path
    with pytest.raises(ConfigError) as err:
        parse_config("seed: 1\n")
    assert "system" in str(err.value)


def test_intrinsic_efficiency_multiplies():
    text = config_text().replace(
        "epsilon: 0.18", "epsilon: 0.18\n  intrinsic_efficiency: 0.5")
    cfg = parse_config(text)
    assert cfg.detector.epsilon == pytest.approx(0.09)


def test_run_empty_experiment_list_writes_manifest(tmp_path):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(config_text(out=str(tmp_path / "out")))
    result = CliRunner().invoke(main, ["run", str(cfg_file)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["experiments"] == []
    assert len(manifest["config_sha256"]) == 64


def test_run_invalid_config_machine_readable_error(tmp_path):
    cfg_file = tmp_path / "bad.yaml"
    cfg_file.write_text("seed: nope\n")
    result = CliRunner().invoke(main, ["run", str(cfg_file)])
    assert result.exit_code == 1
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert "seed" in err["path"]


@pytest.mark.parametrize("path,field,bad", [
    ("cavity", "kappa: 640 kHz", "kappa: .nan"),
    ("system", "omega_i: -788.1 kHz", "omega_i: .inf"),
    ("detector", "dark_rate: 150 Hz", "dark_rate: .inf"),
    ("detector", "cycle: 17 us", "cycle: .inf"),
])
def test_run_rejects_non_finite_parameters(tmp_path, path, field, bad):
    """A NaN kappa, or an infinite omega_i, dark rate or cycle, in the
    readout config fails as a config error that names its section,
    instead of a run that fails midway or writes NaN estimates into its
    JSON summaries."""
    text = (SHIPPED_DIR / "readout.yaml").read_text()
    assert field in text
    cfg_file = tmp_path / "readout.yaml"
    cfg_file.write_text(text.replace(field, bad)
                        .replace("results/readout", str(tmp_path / "out")))
    result = CliRunner().invoke(main, ["run", str(cfg_file)])
    assert result.exit_code == 1
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert err["path"] == path
    assert not (tmp_path / "out").exists()


def test_run_unknown_protocol_leaves_no_partial_outputs(tmp_path):
    exps = ("[{name: ok, protocol: lattice, params: {theta_points: 3}}, "
            "{name: broken, protocol: bogus}]")
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(config_text(out=str(tmp_path / "out"),
                                    experiments=exps))
    result = CliRunner().invoke(main, ["run", str(cfg_file)])
    assert result.exit_code == 1
    out = tmp_path / "out"
    assert not (out / "manifest.json").exists()
    assert list(out.glob("*.csv")) == []


@pytest.mark.parametrize("experiment,key", [
    ("{name: spec, protocol: spectroscopy, params: {span: 8 kHz, "
     "step: 2 kHz, n_averages: 1, t_int: 100 us, n_shot: 3}}", "n_shot"),
    ("{name: spec, protocol: ramsey, params: {tau_points: 2, "
     "n_averages: 1, t_int: 100 us, t2: 1 ms}}", "t2"),
    ("{name: spec, protocol: ramsey, params: {tau_points: 2, "
     "n_averages: 1, t_int: 100 uss}}", "t_int"),
    ("{name: spec, protocol: rabi, params: {tau_values: [0 us, 10 us], "
     "tau_min: 5 us, n_averages: 1, t_int: 100 us}}", "tau_min"),
], ids=["typo", "other_protocol", "misspelt_unit", "values_and_range"])
def test_run_unknown_parameter_fails_with_its_path(tmp_path, experiment,
                                                   key):
    """A parameter the protocol does not read (a typo, or a parameter of
    another protocol) fails the run instead of running on the defaults,
    and so does a quantity with a misspelt unit instead of running as a
    label."""
    exps = ("[{name: ok, protocol: lattice, params: {theta_points: 3}}, "
            + experiment + "]")
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(config_text(out=str(tmp_path / "out"),
                                    experiments=exps))
    result = CliRunner().invoke(main, ["run", str(cfg_file)])
    assert result.exit_code == 1
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert err["path"] == f"experiments[1].params.{key}"
    out = tmp_path / "out"
    assert list(out.glob("ok_*")) == [] and list(out.glob("spec_*")) == []
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_run_unknown_parameter_fails_before_the_run(tmp_path, monkeypatch,
                                                     protocol):
    """Every runner rejects a parameter it does not read before it
    simulates anything."""
    from jumpspec import cli, sequencer

    def must_not_run(*args, **kwargs):
        raise AssertionError("the experiment ran")

    for name in ("trace_experiment", "single_shot_readout", "eldor_scan",
                 "dnp_prepare", "rabi_experiment", "ramsey_experiment",
                 "echo_experiment"):
        monkeypatch.setattr(sequencer, name, must_not_run)
    monkeypatch.setattr(cli, "run_tracking", must_not_run)
    monkeypatch.setattr(cli, "angle_sweep", must_not_run)
    exps = f"[{{name: x, protocol: {protocol}, params: {{n_shot: 3}}}}]"
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(config_text(out=str(tmp_path / "out"),
                                    experiments=exps))
    result = CliRunner().invoke(main, ["run", str(cfg_file)])
    assert result.exit_code == 1
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert err["path"] == "experiments[0].params.n_shot"


COUNT = "whole number of at least 1"


@pytest.mark.parametrize("protocol,params,key,message", [
    ("readout", "{n_shots: 2.5, n_ro_values: [2]}", "n_shots", COUNT),
    ("rabi", "{tau_points: 2.7, n_averages: 1, t_int: 100 us}", "tau_points",
     COUNT),
    ("readout", "{n_ro_values: [2.9], n_shots: 1}", "n_ro_values[0]", COUNT),
    ("rabi", "{tau_points: 2, n_averages: 0}", "n_averages", COUNT),
    ("trace", "{n_averages: 0, span: 4 kHz}", "n_averages", COUNT),
    ("tracking", "{n_iter: 0}", "n_iter", COUNT),
    ("eldor", "{n_shots: 0, delta_points: 1, n_ro: 1}", "n_shots", COUNT),
    ("dnp", "{n_shots: 0}", "n_shots", COUNT),
    ("readout", "{n_shots: 0, n_ro_values: [2]}", "n_shots", COUNT),
    ("spectroscopy", "{n_spectra: 0, span: 4 kHz}", "n_spectra", COUNT),
    ("rabi", "{tau_points: 0}", "tau_points", COUNT),
    ("spectroscopy", "{span: wide}", "span", "finite number"),
    ("readout", "{n_shots: many}", "n_shots", COUNT),
    ("rabi", "{transition: bogus}", "transition", "allowed_d, got 'bogus'"),
    ("dnp", "{target: x}", "target", "one of d, u, got 'x'"),
    ("eldor", "{prepare: x}", "prepare", "one of d, u, got 'x'"),
    ("spectroscopy", "{span: 0}", "span", "positive"),
    ("spectroscopy", "{step: 0}", "step", "positive"),
    ("spectroscopy", "{t_int: -1 ms}", "t_int", "positive"),
    ("readout", "{t_d: 0}", "t_d", "positive"),
    ("eldor", "{duration: 0}", "duration", "positive"),
    ("trace", "{pulse_fwhm: -80 us}", "pulse_fwhm", "positive"),
    ("tracking", "{t_iter: 0}", "t_iter", "positive"),
    ("ramsey", "{t2_star: -1 us}", "t2_star", "non-negative"),
    ("echo", "{t2: -1 us}", "t2", "non-negative"),
], ids=["fractional_shots", "fractional_points", "fractional_depth",
        "zero_averages_rabi", "zero_averages_trace", "zero_iterations",
        "zero_shots_eldor", "zero_shots_dnp", "zero_shots_readout",
        "zero_spectra", "zero_points", "label_for_a_number",
        "label_for_a_count", "unknown_transition", "unknown_target",
        "unknown_prepare", "zero_span", "zero_step", "negative_t_int",
        "zero_t_d", "zero_duration", "negative_pulse_fwhm", "zero_t_iter",
        "negative_t2_star", "negative_t2"])
def test_run_bad_number_fails_with_its_path(tmp_path, protocol, params, key,
                                            message):
    """A count must be a whole number of at least 1, a duration, span or
    step a positive number, and a label one the library takes (the
    system's transitions, the polarization targets), standing only where
    the protocol takes one; anything else fails as a config error at its
    path that says what is valid, before anything is written, instead of
    running truncated, writing NaN or failing as a runtime error."""
    exps = f"[{{name: x, protocol: {protocol}, params: {params}}}]"
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(config_text(out=str(tmp_path / "out"),
                                    experiments=exps))
    result = CliRunner().invoke(main, ["run", str(cfg_file)])
    assert result.exit_code == 1, result.output
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert err["path"] == f"experiments[0].params.{key}"
    assert message in err["message"]
    assert not (tmp_path / "out").exists()


def test_readme_table_lists_each_protocols_parameters():
    """README's parameter table names exactly the parameters that each
    protocol declares."""
    text = (ROOT / "README.md").read_text()
    table = text.split("| protocol | parameters |")[1].split("\n\n")[0]
    listed = {}
    for row in table.strip().splitlines()[1:]:
        protocols, names = row.strip("|").split("|")
        for protocol in re.findall(r"`(\w+)`", protocols):
            listed[protocol] = set(re.findall(r"`(\w+)`", names))
    assert listed == {protocol: set(params)
                      for protocol, (_, params) in PROTOCOLS.items()}


def test_run_report_and_reproducibility(tmp_path):
    exps = ("[{name: shells, protocol: lattice, "
            "params: {theta_points: 5, beta: 0.2}}, "
            "{name: lock, protocol: tracking, params: {n_iter: 200}}]")
    outputs = []
    for sub in ("a", "b"):
        cfg_file = tmp_path / f"{sub}.yaml"
        cfg_file.write_text(config_text(out=str(tmp_path / sub),
                                        experiments=exps))
        result = CliRunner().invoke(main, ["run", str(cfg_file)])
        assert result.exit_code == 0, result.output
        outputs.append(tmp_path / sub)
    a, b = outputs
    for f in sorted(a.glob("*.csv")) + sorted(a.glob("*.jsonl")):
        assert (b / f.name).read_bytes() == f.read_bytes()
    result = CliRunner().invoke(main, ["report", str(a)])
    assert result.exit_code == 0, result.output
    assert "shells" in result.output and "lock" in result.output
    assert (a / "summary.csv").exists()
    header = (a / "shells_couplings.csv").read_text().splitlines()[0]
    assert "theta_deg" in header and "a_hz" in header


def test_run_seed_override_changes_manifest(tmp_path):
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(config_text(out=str(tmp_path / "out")))
    result = CliRunner().invoke(main, ["run", str(cfg_file), "--seed", "99"])
    assert result.exit_code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_rabi_default_grid_runs(tmp_path):
    """The default tau grid starts at 0, which is a shot with no pulse."""
    exps = "[{name: nut, protocol: rabi}]"
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(config_text(out=str(tmp_path / "out"),
                                    experiments=exps))
    result = CliRunner().invoke(main, ["run", str(cfg_file)])
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "out" / "nut_rabi.csv").read_text().splitlines()
    assert rows[0] == "tau_s,mean_counts" and rows[1].startswith("0,")
    assert len(rows) == 1 + 21


SHIPPED = sorted(SHIPPED_DIR.glob("*.yaml"))


@pytest.mark.parametrize("config", SHIPPED, ids=lambda path: path.stem)
def test_shipped_config_runs_and_reports(config, tmp_path, monkeypatch):
    """Every shipped config runs from its own relative output path and
    reports every key of every summary; the two-experiment trace config
    and the one-per-protocol config reproduce byte for byte, and the
    readout config yields the threshold and fidelity it promises."""
    output = load_config(config).output
    runs = ("a", "b") if config.stem in ("trace", "protocols") else ("a",)
    for sub in runs:
        (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / sub)
        result = CliRunner().invoke(main, ["run", str(config)])
        assert result.exit_code == 0, result.output
        result = CliRunner().invoke(main, ["report", output])
        assert result.exit_code == 0, result.output

    def data_files(sub):
        return {f.name: f.read_bytes()
                for f in (tmp_path / sub / output).iterdir()
                if f.name != "manifest.json"}

    first = data_files(runs[0])
    assert first
    for sub in runs[1:]:
        assert data_files(sub) == first
    header = first["summary.csv"].decode().splitlines()[0].split(",")
    keys = {key for name, data in first.items()
            if name.endswith("_summary.json") for key in json.loads(data)}
    assert header[:2] == ["name", "protocol"] and set(header) == keys
    if config.stem == "readout":
        summary = json.loads(first["readout_summary.json"])
        assert summary.get("threshold") is not None
        assert summary.get("fidelity") is not None


def test_spectroscopy_fit_error_is_recorded(tmp_path, monkeypatch):
    """A failed line fit leaves a reason in the summary; any other error
    in the fit still fails the run."""
    from jumpspec import analysis, fitting
    exps = ("[{name: spec, protocol: spectroscopy, params: {span: 4 kHz, "
            "step: 2 kHz, n_averages: 1, t_int: 100 us}}]")
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(config_text(out=str(tmp_path / "out"),
                                    experiments=exps))

    def no_fit(*args, **kwargs):
        raise fitting.FitError("no convergence")

    monkeypatch.setattr(analysis, "fit_lorentzian", no_fit)
    result = CliRunner().invoke(main, ["run", str(cfg_file)])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "out" / "spec_summary.json").read_text())
    assert summary["peak_delta_hz"] is None
    assert summary["fit_error"] == "no convergence"

    def broken(*args, **kwargs):
        raise ValueError("bad spectrum")

    monkeypatch.setattr(analysis, "fit_lorentzian", broken)
    result = CliRunner().invoke(main, ["run", str(cfg_file)])
    assert result.exit_code == 1
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"] == "runtime" and "bad spectrum" in err["message"]


def test_short_sweep_records_fit_error(tmp_path):
    """A sweep of fewer than 5 points is too short for the line fit: the
    run succeeds, records why, and keeps the spectrum."""
    exps = ("[{name: spec, protocol: spectroscopy, params: {span: 4 kHz, "
            "step: 2 kHz, n_averages: 1, t_int: 100 us}}]")
    cfg_file = tmp_path / "run.yaml"
    cfg_file.write_text(config_text(out=str(tmp_path / "out"),
                                    experiments=exps))
    result = CliRunner().invoke(main, ["run", str(cfg_file)])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "out" / "spec_summary.json").read_text())
    assert summary["peak_delta_hz"] is None
    assert "5 points" in summary["fit_error"]
    rows = (tmp_path / "out" / "spec_spectra.csv").read_text().splitlines()
    assert len(rows) == 1 + 3


def test_report_missing_manifest_errors(tmp_path):
    result = CliRunner().invoke(main, ["report", str(tmp_path)])
    assert result.exit_code == 1
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"] == "report"


def test_report_table_keeps_cells_under_their_names(tmp_path):
    """A cell wider than its column's name widens the column, so every
    row's cells start at the header's column offsets."""
    summaries = [{"name": "spectroscopy_run", "protocol": "spectroscopy",
                  "fit_error": "too few points to fit a line", "n_spectra": 1},
                 {"name": "lock", "protocol": "tracking", "rms_hz": 1234.5678}]
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"experiments": [{"name": s["name"]} for s in summaries]}))
    for s in summaries:
        (tmp_path / f"{s['name']}_summary.json").write_text(json.dumps(s))
    result = CliRunner().invoke(main, ["report", str(tmp_path)])
    assert result.exit_code == 0, result.output
    header, *lines = result.output.splitlines()
    assert header.split() == ["name", "protocol", "fit_error", "n_spectra",
                              "rms_hz"]
    starts = [m.start() for m in re.finditer(r"\S+", header)]
    cells = [[line[a:b].strip() for a, b in zip(starts, starts[1:] + [None])]
             for line in lines]
    assert cells == [["spectroscopy_run", "spectroscopy",
                      "too few points to fit a line", "1", ""],
                     ["lock", "tracking", "", "", "1234.57"]]


def test_lattice_sweep_command(tmp_path):
    args = ["lattice-sweep", "--theta", "-0.5:0.5:3", "--beta", "0.1"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[0] == "site,shell,theta_deg,a_hz,b_hz"
    assert len(lines) == 1 + 10 * 3
    # --output writes the same bytes, LF line ends included
    out = tmp_path / "sweep.csv"
    written = CliRunner().invoke(main, args + ["--output", str(out)])
    assert written.exit_code == 0, written.output
    assert out.read_bytes() == result.stdout_bytes
    bad = CliRunner().invoke(main, ["lattice-sweep", "--theta", "oops"])
    assert bad.exit_code == 1
