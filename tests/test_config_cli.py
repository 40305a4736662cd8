"""Config parsing and the command-line front end."""

import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

from jumpspec.cli import main
from jumpspec.config import (ConfigError, load_config, parse_config,
                             parse_quantity)

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
    assert cfg.experiments == ()


def test_schema_error_carries_field_path():
    text = config_text().replace("kappa: 640 kHz", "kappa: fast")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "cavity.kappa" in str(err.value)
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
], ids=["typo", "other_protocol"])
def test_run_unknown_parameter_fails_with_its_path(tmp_path, experiment,
                                                   key):
    """A parameter the protocol does not read (a typo, or a parameter of
    another protocol) fails the run instead of running on the defaults."""
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


SHIPPED = sorted((Path(__file__).resolve().parents[1] / "configs").glob(
    "*.yaml"))


@pytest.mark.parametrize("config", SHIPPED, ids=lambda path: path.stem)
def test_shipped_config_runs_and_reports(config, tmp_path, monkeypatch):
    """Every shipped config runs from its own relative output path and
    reports; the two-experiment trace config and the one-per-protocol
    config reproduce byte for byte, and the readout config yields the
    threshold and fidelity it promises."""
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


def test_report_missing_manifest_errors(tmp_path):
    result = CliRunner().invoke(main, ["report", str(tmp_path)])
    assert result.exit_code == 1
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"] == "report"


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
