"""One fresh benchmark worker process.

    python3 perfbench/worker.py '<json parameters>'

Modes (the ``mode`` parameter):

- ``setup``: import obkit and run the workload's first job; print the
  time this took.
- ``measure``: check a round of the default seed against the committed
  digests, then run whole rounds of the run's seed, one job after
  another, until the time is up and at least MIN_JOBS were timed; with
  ``trace`` set, half the time goes to a second, traced phase.
- ``golden``: print the digests of the default seed's outputs, the
  content of ``perfbench/golden.json``.

Each job makes the calls ``obkit.cli.main`` makes: ``load_scenario``,
then ``run_command``, then ``Report.render``.  Load and compute are
timed separately.  The worker starts no threads and no processes.  It
prints one JSON object on stdout.
"""

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import tracing  # noqa: E402

GOLDEN = HERE / "golden.json"
# Enough timed jobs that at least ten lie above the 90th percentile.
MIN_JOBS = 100
# What probe() takes on an Intel Xeon at 2.1 GHz, the machine the
# benchmark was defined on, when no other tenant competes for the core.
PROBE_NOMINAL_S = 0.00062

# Per-layer metrics: traced name and what is reported for it.  Calls and
# self time are per traced job.
SPANS = (
    ("chi.verify_cocycle", ("calls", "self_ms")),
    ("chi.Cocycle.__init__", ("self_ms",)),
    ("groups.GroupElement.__hash__", ("calls",)),
    ("groups.GroupElement.__eq__", ("calls",)),
    ("groups.multiply", ("calls", "self_ms")),
    ("groups.conjugacy_canonical_with_conjugator", ("calls", "self_ms")),
    ("groupring.RingMatrix.__matmul__", ("calls", "self_ms")),
    ("groupring.RingElement.__mul__", ("calls",)),
    ("groupring.verify_inverse", ("calls", "self_ms")),
    ("groupring.build_invertible", ("self_ms",)),
    ("intlinalg.smith_normal_form", ("calls", "self_ms")),
    ("intlinalg.QuotientPresentation.reduce", ("calls", "self_ms")),
    ("restricted_json.parse_json", ("self_ms",)),
    ("words.parse_word", ("calls", "self_ms")),
    ("words.parse_generator_sequence", ("self_ms",)),
    ("words.parse_wh", ("self_ms",)),
    ("scenario.parse_scenario", ("self_ms",)),
    ("gmodules.GModule.act_vec", ("calls", "self_ms")),
    ("gmodules.GModule.validate", ("self_ms",)),
    ("gmodules.check_equivariant", ("calls",)),
    ("wh1.WhElement.build", ("calls", "self_ms")),
    ("wh1.oracle_wh_presentation", ("calls", "self_ms")),
    ("wh1.induced_map", ("calls",)),
    ("obstruction.power_report", ("self_ms",)),
    ("obstruction.retraction_invariant", ("calls",)),
    ("chi.linearize_eval", ("calls", "self_ms")),
    ("chi.chi_eval", ("calls", "self_ms")),
    ("cli.run_command", ("self_ms",)),
)
# Scaling curves: per-job self time of a span at each sweep point of the
# workload that sweeps it.
CURVES = (
    ("cocycle-torsion", "chi.verify_cocycle", tuple(f"m{m}" for m in gen.TORSION_POINTS)),
    ("chi-matrix", "chi.chi_eval", tuple(f"n{n}" for n in gen.MATRIX_SIZES)),
    ("wh-finite", "intlinalg.smith_normal_form", tuple(f"m{m}" for m in gen.WH_POINTS)),
)


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for span, fields in SPANS:
        for f in fields:
            out.append((f"{span}.{f}", "count" if f == "calls" else "ms", "lower"))
    out += [
        ("chi.verify_cocycle.quads", "count", "lower"),
        ("chi.verify_cocycle.calls_per_cocycle", "ratio", "lower"),
        ("groupring.verify_inverse.calls_per_certified_pair", "ratio", "lower"),
        ("intlinalg.smith_normal_form.max_cells", "cells", "lower"),
    ]
    for _, span, points in CURVES:
        out += [(f"{span}.self_ms.{p}", "ms", "lower") for p in points]
    out += [
        ("trace.overhead_ratio", "ratio", "lower"),
        ("code.src_lines", "lines", "lower"),
        ("code.public_names", "count", "lower"),
    ]
    return out


# -- jobs ------------------------------------------------------------------


class Runner:
    """Parses each job's argv once and runs it as ``obkit.cli.main`` would."""

    def __init__(self):
        from obkit import cli, scenario

        self.cli = cli
        self.scenario = scenario
        self.parser = cli._build_parser()
        self.args = {}

    def namespace(self, job: gen.Job):
        if job.argv not in self.args:
            self.args[job.argv] = self.parser.parse_args(list(job.argv))
        return self.args[job.argv]

    def run(self, args):
        """(load seconds or None, compute seconds, status, report text)."""
        clock = time.perf_counter
        t0 = clock()
        loaded = None
        if args.scenario is not None:
            loaded = self.scenario.load_scenario(args.scenario)
        t1 = clock()
        report = self.cli.run_command(loaded, args.command, args)
        text = report.render()
        t2 = clock()
        return (t1 - t0 if args.scenario is not None else None), t2 - t1, report.status, text


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def problems_of(job: gen.Job, status: int, text: str, want: str | None) -> list[str]:
    """Why an output is wrong; empty when it is right."""
    out = []
    if status != 0:
        out.append(f"exit status {status}")
    lines = set(text.splitlines())
    out += [f"no line '{k}: {v}'" for k, v in job.expect if f"{k}: {v}" not in lines]
    if want is not None and digest(text) != want:
        out.append(f"output digest {digest(text)[:12]} is not {want[:12]}")
    return out


class Checked:
    """Runs jobs, checks every output and keeps the failures."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, job: gen.Job, want: str | None):
        """Timings of a correct job, or None when it failed."""
        self.attempted += 1
        args = self.runner.namespace(job)
        try:
            load_s, compute_s, status, text = self.runner.run(args)
        except Exception as err:  # a crash is a failed job, not a failed benchmark
            self.failures.append(f"{job.key}: {type(err).__name__}: {err}")
            return None
        problems = problems_of(job, status, text, want)
        if problems:
            self.failures.append(f"{job.key}: {'; '.join(problems)}")
            return None
        return load_s, compute_s, text


def workdir_inputs(params: dict, seed: int) -> gen.Inputs:
    return gen.generate(params["workload"], seed, f"{params['workdir']}/s{seed}")


# -- modes -----------------------------------------------------------------


def setup_mode(params: dict) -> dict:
    job = workdir_inputs(params, params["seed"]).jobs[0]
    before = probe()
    t0 = time.perf_counter()
    checked = Checked(Runner())
    checked.run(job, None)
    setup_s = time.perf_counter() - t0
    scale = PROBE_NOMINAL_S * 2 / (before + probe())
    return {"setup_s": setup_s * scale, "attempted": checked.attempted,
            "failures": checked.failures}


def golden_mode(params: dict) -> dict:
    runner = Runner()
    workdir = f".perfbench_work/golden-{os.getpid()}"
    out = {}
    try:
        for workload in gen.WORKLOADS:
            inputs = gen.generate(workload, gen.DEFAULT_SEED, workdir)
            write_files(inputs)
            out[workload] = {}
            for job in inputs.jobs:
                _, _, status, text = runner.run(runner.namespace(job))
                problems = problems_of(job, status, text, None)
                if problems:
                    raise SystemExit(f"{workload} {job.key}: {'; '.join(problems)}")
                out[workload][job.key] = digest(text)
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)
    return out


def write_files(inputs: gen.Inputs) -> None:
    for path, text in inputs.files.items():
        target = ROOT / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")


def probe() -> float:
    """Seconds a fixed piece of pure-Python work takes right now.

    The machine is shared: other tenants slow everything down by up to
    1.9x, in phases that come and go within seconds.  A job timed between
    two probes is scaled by PROBE_NOMINAL_S over their mean, which
    cancels the phase the job ran in."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(3000):
        key = (i & 255, i % 7)
        acc += hash(key) & 15
        table[key] = acc
    return time.perf_counter() - start


def timed_rounds(checked: Checked, jobs, seconds: float, min_jobs: int, wants: dict,
                 after_job=None) -> list[dict]:
    """Whole rounds, one job after another, until ``seconds`` have passed
    and ``min_jobs`` jobs were correct.  The first correct output of a job
    is the one its later runs must reproduce byte for byte.  Returns one
    sample per correct run, in seconds at the probe's nominal speed."""
    samples = []
    start = time.perf_counter()
    while True:
        for job in jobs:
            before = probe()
            result = checked.run(job, wants.get(job.key))
            scale = PROBE_NOMINAL_S * 2 / (before + probe())
            if after_job is not None:
                after_job(job)
            if result is not None:
                load_s, compute_s, text = result
                wants.setdefault(job.key, digest(text))
                load_s = None if load_s is None else load_s * scale
                samples.append({"load_s": load_s, "compute_s": compute_s * scale,
                                "job_s": (load_s or 0.0) + compute_s * scale,
                                "slowdown": 1 / scale})
        elapsed = time.perf_counter() - start
        # The cap ends a run whose jobs keep failing.
        if elapsed >= seconds and (len(samples) >= min_jobs or elapsed >= 4 * seconds):
            return samples


def measure_mode(params: dict) -> dict:
    runner = Runner()
    checked = Checked(runner)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(params["workload"], {})
    gate = workdir_inputs(params, gen.DEFAULT_SEED).jobs
    if len(golden) != len(gate):
        checked.failures.append("golden.json does not cover the default seed's jobs")
    for job in gate:
        checked.run(job, golden.get(job.key, ""))
    jobs = workdir_inputs(params, params["seed"]).jobs
    trace = params["trace"]
    seconds = params["seconds"] / 2 if trace else params["seconds"]
    wants = {}
    samples = timed_rounds(checked, jobs, seconds, 0 if trace else MIN_JOBS, wants)
    out = {"samples": samples,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        traced_jobs = []
        traced = timed_rounds(checked, jobs, seconds, 1, wants,
                              lambda job: traced_jobs.append((job.point, tracer.take_job())))
        out["per_layer"] = per_layer(params["workload"], traced_jobs, traced, samples)
    out["attempted"] = checked.attempted
    out["failures"] = checked.failures
    return out


# -- per-layer metrics -----------------------------------------------------


def per_layer(workload: str, traced_jobs, traced_samples, untraced_samples) -> dict:
    n = len(traced_jobs)
    calls = sum((job["calls"] for _, job in traced_jobs), start=Counter())
    self_s = sum((job["self_s"] for _, job in traced_jobs), start=Counter())
    counts = sum((job["counts"] for _, job in traced_jobs), start=Counter())
    cocycles = sum(job["cocycles"] for _, job in traced_jobs)
    values = {}
    for span, fields in SPANS:
        if "calls" in fields:
            values[f"{span}.calls"] = calls[span] / n
        if "self_ms" in fields:
            values[f"{span}.self_ms"] = 1000.0 * self_s[span] / n
    pairs = calls["groupring.InvertiblePair.__init__"]
    values["chi.verify_cocycle.quads"] = counts["chi.verify_cocycle.quads"] / n
    values["chi.verify_cocycle.calls_per_cocycle"] = (
        calls["chi.verify_cocycle"] / cocycles if cocycles else 0.0)
    values["groupring.verify_inverse.calls_per_certified_pair"] = (
        calls["groupring.verify_inverse"] / pairs if pairs else 0.0)
    values["intlinalg.smith_normal_form.max_cells"] = max(
        (job["counts"]["intlinalg.smith_normal_form.max_cells"] for _, job in traced_jobs),
        default=0)
    for owner, span, points in CURVES:
        for p in points:
            at = [1000.0 * job["self_s"][span] for point, job in traced_jobs
                  if owner == workload and point == p]
            values[f"{span}.self_ms.{p}"] = statistics.median(at) if at else 0.0
    values["trace.overhead_ratio"] = (statistics.median(s["job_s"] for s in traced_samples)
                                      / statistics.median(s["job_s"] for s in untraced_samples))
    values.update(tracing.static_counts(ROOT))
    return values


def main() -> int:
    params = json.loads(sys.argv[1])
    mode = params["mode"]
    if mode == "setup":
        result = setup_mode(params)
    elif mode == "measure":
        result = measure_mode(params)
    elif mode == "golden":
        result = golden_mode(params)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    json.dump(result, sys.stdout, indent=None if mode != "golden" else 1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
