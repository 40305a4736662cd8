"""Checks on the benchmark itself: exact work counters, tracing that does
not perturb the simulation, output checks that pass on a small run, and
the result line the benchmark prints."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from jumpspec.dynamics import NoiseModel
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

#: small sizes for the exactness tests (output checks are not asserted)
TINY = {"trace": {"n_averages": 4},
        "readout": {"n_shots": 2, "n_ro_values": [5, 10, 20, 40, 80]},
        "ramsey_t2star": {"n_averages": 2}}
#: sizes at which the output checks have the statistics they need
SMOKE = {"trace": {}, "readout": {},
         "ramsey_t2star": {"n_averages": 25}}


def _outputs(workload):
    if isinstance(workload, WORKLOADS["trace"]):
        return [s.tolist() for s in workload.spectra]
    if isinstance(workload, WORKLOADS["readout"]):
        return list(workload.records)
    return [workload.sums.tolist(), workload.sumsq.tolist(),
            workload.shots.tolist()]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_exactly(name):
    workload = WORKLOADS[name](**TINY[name])
    first = run.run_passes(workload, 5, 0.0, traced=True)["counters"]
    second = run.run_passes(workload, 5, 0.0, traced=True)["counters"]
    assert first["spans"] and first == second


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_outputs_bit_identical(name):
    workload = WORKLOADS[name](**TINY[name])
    traced = run.run_passes(workload, 6, 0.0, traced=True)
    out_traced = _outputs(workload)
    plain = run.run_passes(workload, 6, 0.0, traced=False)
    assert _outputs(workload) == out_traced
    assert json.dumps(plain["summary"]) == json.dumps(traced["summary"])
    assert traced["rec"].unit_s and traced["tracer"].stats


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_run_passes_output_checks(name):
    workload = WORKLOADS[name](**SMOKE[name])
    result = run.run_passes(workload, 1, 0.0, traced=False)
    rec = result["rec"]
    assert rec.attempted > 0 and rec.failed == 0, rec.errors


class _RamseyWithoutT2Star(WORKLOADS["ramsey_t2star"]):
    """Checked against the t2* envelope, but run without the detuning."""

    def start(self, seed):
        super().start(seed)
        self.noise = NoiseModel()


def test_ramsey_check_fails_without_t2star_detuning():
    workload = _RamseyWithoutT2Star(**SMOKE["ramsey_t2star"])
    rec = run.run_passes(workload, 1, 0.0, traced=False)["rec"]
    assert rec.attempted > 0 and rec.failed == rec.attempted
    assert "t2* envelope" in rec.errors[-1]


def test_trace_spans_nest_inside_units():
    workload = WORKLOADS["trace"](**TINY["trace"])
    tracer = run.run_passes(workload, 2, 0.0, traced=True)["tracer"]
    spans = {s[0]: s for s in tracer.log}
    for span_id, parent, unit, name, t0, t1 in tracer.log:
        assert t0 <= t1
        if parent is None:
            assert name.startswith(("sequencer.", "analysis."))
        else:
            p = spans[parent]
            assert p[4] <= t0 and t1 <= p[5] and p[2] == unit
    for st in tracer.stats.values():
        assert 0.0 <= st.self <= st.busy + 1e-12


def _result_line(cmd, cwd):
    res = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=170)
    return res, res.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_declared_metrics(trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    res, lines = _result_line(
        [sys.executable, "perfbench/run.py", "--workload", "trace",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        HERE.parent)
    assert res.returncode == 0, res.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    res, lines = _result_line(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "trace",
         "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert res.returncode != 0
    assert not any(line.startswith('{"correct"') for line in lines)
