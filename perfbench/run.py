#!/usr/bin/env python3
"""jumpspec benchmark: seeded simulation workloads, end to end and by layer.

    python3 perfbench/run.py --workload trace --seed 1 --seconds 30 --trace 0

runs one workload (``trace``, ``readout`` or ``ramsey_t2star``, see
BENCHMARK.json for why each) in this process, single-threaded, against the
jumpspec sources of this checkout (``src/``). Without ``--workload`` it
runs the three one after another, each in its own process.

A run sets the workload up, then runs passes of fixed size on fresh
random streams until ``--seconds`` have passed (at least two passes, and
at least the workload's ``fixed_passes``),
checks the physics output, and prints one JSON object as its last line:
``correct``, ``attempted`` and ``failed`` units, and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every other pass is traced and the metrics are the per-layer ones (see
tracing.py). The line before it records the environment and the exact
work counters; both, and the first spans of a traced run, are also
written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NAMES = ("trace", "readout", "ramsey_t2star")

MIN_PASSES = 2
SETUP_REPEATS = 9
LAYER_REPEATS = 20
RSS_EVERY = 16

#: set-up in a fresh interpreter: package import, config parsing and
#: build_system, as a user pays them before the first unit
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]]()
print(time.perf_counter() - t0)
"""

PULSE_PATHS = (("gaussian_pi", "pole"), ("gaussian_pi", "coherent"),
               ("wait", "population"), ("wait", "coherent"),
               ("detect_window", "population"), ("detect_window", "coherent"))


def _import_program():
    """Put this checkout's sources first on the path; refuse any other copy."""
    pkg = SRC / "jumpspec" / "__init__.py"
    if not pkg.is_file():
        sys.exit(f"perfbench: no jumpspec sources at {pkg.parent}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import jumpspec
    if Path(jumpspec.__file__).resolve() != pkg.resolve():
        sys.exit(f"perfbench: imported jumpspec from {jumpspec.__file__}, "
                 f"not from {pkg.parent}")


class SetupSampler:
    """Times set-up in fresh interpreters, spread evenly over the run.

    Host speed on a shared machine drifts over seconds; samples taken at
    different times of the run keep their median from following one
    drift phase. Call it between passes with the elapsed time.
    """

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.due = [k * seconds / SETUP_REPEATS for k in range(SETUP_REPEATS)]
        self.samples: list[float] = []

    def __call__(self, elapsed: float = float("inf")):
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            res = subprocess.run([sys.executable, "-c", _SETUP_PROBE,
                                  str(SRC), str(HERE), self.name],
                                 capture_output=True, text=True, timeout=120,
                                 check=True)
            self.samples.append(float(res.stdout.split()[-1]))


def environment(seed: int, seconds: float) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "jumpspec").rglob("*.py")):
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_commit": commit,
            "source_sha256": digest.hexdigest(), "seed": seed,
            "run_seconds": seconds}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(workload, seed: int, seconds: float, traced: bool,
               between=None):
    """Run passes until ``seconds`` have passed; returns the run record.

    In a traced run the even passes are traced and the odd ones are not,
    so both pass times come from the same process. Counters are those of
    pass 0, which depend only on the seed; peak RSS and the units whose
    RSS growth is reported are those of the first ``fixed_passes``
    passes. ``between(elapsed)``, if given, runs before each pass,
    outside the pass times.
    """
    from tracing import Tracer
    from workloads import Recorder

    rec = Recorder(rss_every=RSS_EVERY if traced else 0)
    tracer = Tracer() if traced else None
    workload.start(seed)
    passes = []
    counters = {}
    fixed_units = peak_rss = None
    least = max(MIN_PASSES, workload.fixed_passes)
    start = perf_counter()
    while len(passes) < least or perf_counter() - start < seconds:
        if between is not None:
            between(perf_counter() - start)
        index = len(passes)
        on = traced and index % 2 == 0
        if on:
            tracer.install()
            rec.tracer = tracer
        t0 = perf_counter()
        try:
            workload.run_pass(index, rec)
        finally:
            wall = perf_counter() - t0
            if on:
                tracer.uninstall()
                rec.tracer = None
        passes.append((wall, on))
        if index == 0:
            counters = {"units": rec.attempted, "simulated_s": rec.sim_s}
            if traced:
                counters["spans"] = tracer.snapshot()
        if index + 1 == workload.fixed_passes:
            peak_rss = _peak_rss_mb()
            fixed_units = rec.attempted
    if traced:
        tracer.install()
        rec.tracer = tracer
    try:
        summary = workload.finish(rec)
    finally:
        if traced:
            tracer.uninstall()
            rec.tracer = None
    return {"rec": rec, "tracer": tracer, "passes": passes,
            "counters": counters, "summary": summary,
            "peak_rss_mb": peak_rss, "fixed_units": fixed_units}


def end_to_end(run: dict, setup: list[float]) -> dict:
    rec = run["rec"]
    walls = [w for w, _ in run["passes"]]
    units = rec.unit_s
    q = statistics.quantiles(units, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "sim_s_per_wall_s": (rec.sim_s / sum(walls), "s/s"),
        "unit_p50_ms": (statistics.median(units) * 1e3, "ms"),
        "unit_p90_ms": (q[8] * 1e3, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def _median_ms(fn, *args) -> float:
    times = []
    for _ in range(LAYER_REPEATS):
        t0 = perf_counter()
        fn(*args)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def setup_layers(name: str) -> dict:
    """Set-up layers timed in process: config parsing, build_system."""
    from jumpspec.config import load_config
    from jumpspec.spinmodel import build_system
    from workloads import INPUTS, WORKLOADS, Trace

    systems = [s for s, _ in Trace().experiments]
    one, two = (next(s for s in systems if s.params.n_nuclei == n)
                for n in (1, 2))
    return {
        "config.load_config_ms": (
            _median_ms(load_config, INPUTS / WORKLOADS[name].config), "ms"),
        "spinmodel.build_system_1n_ms": (
            _median_ms(build_system, one.params, one.cavity), "ms"),
        "spinmodel.build_system_2n_ms": (
            _median_ms(build_system, two.params, two.cavity), "ms"),
    }


def per_layer(run: dict, name: str) -> dict:
    tracer, rec = run["tracer"], run["rec"]
    counts = run["counters"]["spans"]
    stats = tracer.stats
    traced = [w for w, on in run["passes"] if on]
    plain = [w for w, on in run["passes"] if not on]
    n_traced = len(traced)

    def calls(key):
        return counts.get(key, {}).get("calls", 0)

    def count(key, what):
        return counts.get(key, {}).get(what, 0)

    def busy(key):
        st = stats.get(key)
        return st.busy / n_traced if st else 0.0

    m = {}
    segments = jumps = photons = 0
    for kind, entry in PULSE_PATHS:
        key = f"dynamics.apply_pulse.{kind}.{entry}"
        st = stats.get(key)
        m[f"{key}.calls"] = (calls(key), "count")
        m[f"{key}.busy_s"] = (busy(key), "s")
        m[f"{key}.us_per_call"] = (
            st.busy / st.calls * 1e6 if st else 0.0, "us")
    for key in counts:
        if key.startswith("dynamics.apply_pulse."):
            segments += calls(key)
            jumps += count(key, "jumps")
            photons += count(key, "photons")
    m["dynamics.segments"] = (segments, "count")
    m["dynamics.jumps"] = (jumps, "count")
    m["dynamics.photons"] = (photons, "count")
    m["dynamics.rss_growth_mb"] = (
        _rss_growth_mb(rec.rss, run["fixed_units"]), "MB")
    m["detector.count_window.calls"] = (calls("detector.count_window"),
                                        "count")
    m["detector.count_window.busy_s"] = (busy("detector.count_window"), "s")
    m["detector.count_window.clicks"] = (
        count("detector.count_window", "clicks"), "count")
    m["sequencer.self_s"] = (
        sum(st.self for key, st in stats.items()
            if key.startswith("sequencer.")) / n_traced, "s")
    summary = run["summary"]
    fits = summary.get("fits", 0)
    m["analysis.fit_lorentzian.calls"] = (calls("analysis.fit_lorentzian"),
                                          "count")
    m["analysis.fit_lorentzian.busy_ms"] = (
        busy("analysis.fit_lorentzian") * 1e3, "ms")
    m["analysis.fit_lorentzian.accept_ratio"] = (
        summary.get("accepted", 0) / fits if fits else 0.0, "ratio")
    m["analysis.fit_readout_curve_ms"] = (
        busy("analysis.fit_readout_curve") * 1e3, "ms")
    threshold = stats.get("analysis.readout_threshold")
    m["analysis.readout_threshold_ms"] = (
        threshold.busy * 1e3 if threshold else 0.0, "ms")
    m["fitting.curve_fit.calls"] = (calls("fitting.curve_fit"), "count")
    m["fitting.curve_fit.lm_iterations"] = (
        count("fitting.curve_fit", "lm_iterations"), "count")
    m.update(setup_layers(name))
    traced_wall = statistics.median(traced)
    plain_wall = statistics.median(plain)
    m["tracing.traced_wall_s"] = (traced_wall, "s")
    m["tracing.untraced_wall_s"] = (plain_wall, "s")
    m["tracing.overhead_s"] = (traced_wall - plain_wall, "s")
    return m


def _rss_growth_mb(samples, total: int) -> float:
    """RSS after the first ``total`` units minus RSS after a tenth of them,
    from the samples taken every ``RSS_EVERY`` units."""
    done = [(n, rss) for n, rss in samples if n <= total]
    if not done:
        return 0.0
    early = next(rss for n, rss in done if n >= total / 10)
    return (done[-1][1] - early) / 2 ** 20


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    _import_program()
    from workloads import WORKLOADS

    sampler = None if traced else SetupSampler(name, seconds)
    workload = WORKLOADS[name]()
    run = run_passes(workload, seed, seconds, traced, between=sampler)
    setup = []
    if sampler is not None:
        sampler()
        setup = sampler.samples
    rec = run["rec"]
    metrics = (per_layer(run, name) if traced
               else end_to_end(run, setup))
    info = {"workload": name, "traced": traced,
            "environment": environment(seed, seconds),
            "samples": {"passes": len(run["passes"]),
                        "units": len(rec.unit_s),
                        "setup_repeats": len(setup)},
            "pass_s": [w for w, _ in run["passes"]],
            "counters_pass0": run["counters"],
            "output": run["summary"], "errors": rec.errors}
    OUT.mkdir(exist_ok=True)
    result = {"correct": rec.failed == 0, "attempted": rec.attempted,
              "failed": rec.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (OUT / f"{name}-trace{int(traced)}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1))
    if traced:
        run["tracer"].write_log(OUT / f"spans-{name}.jsonl")
    for err in rec.errors:
        print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is not None:
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    status = 0
    for name in NAMES:
        res = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace)])
        status = status or res.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
