"""The obkit benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload paper-report --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  It writes the seeded scenario
files under ``.perfbench_work/``, then starts fresh worker processes one
at a time, never two at once:

- with ``--trace 0``: several set-up workers, each importing obkit and
  running the workload's first job, then one measuring worker that runs
  the workload as a closed loop with one client for ``--seconds``;
- with ``--trace 1``: one measuring worker that spends half the time
  untraced and half traced, and reports the per-layer metrics.

Every output is checked.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  It exits with status 1 when a worker
fails, and 2 when the checkout has no obkit sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import worker  # noqa: E402

SETUP_WORKERS = 5
WORKER_TIMEOUT_S = 150

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_s.p50", "s"),
    ("job_s.p90", "s"),
    ("load_s.p50", "s"),
    ("compute_s.p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def start_worker(params: dict) -> dict:
    """Run one fresh worker to completion and return what it printed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(params)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {params['mode']} exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, 1 <= q <= 99, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(measured: dict, setups: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and one readable line per metric that
    gives its sample count."""
    samples = measured["samples"]
    job = [s["job_s"] for s in samples]
    load = [s["load_s"] for s in samples if s["load_s"] is not None]
    compute = [s["compute_s"] for s in samples]
    values = {
        "jobs_per_s": len(job) / sum(job),
        "job_s.p50": statistics.median(job),
        "job_s.p90": percentile(job, 90),
        "load_s.p50": statistics.median(load),
        "compute_s.p50": statistics.median(compute),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    above = sum(1 for x in job if x > values["job_s.p90"])
    notes = {
        "jobs_per_s": f"{len(job)} jobs",
        "job_s.p50": f"n={len(job)}",
        "job_s.p90": f"n={len(job)}, {above} above",
        "load_s.p50": f"n={len(load)}",
        "compute_s.p50": f"n={len(compute)}",
        "setup_s": f"median of {len(setups)} fresh workers",
        "peak_rss_mb": "measuring worker",
    }
    lines = [f"{name:16s} {values[name]:12.6g} {unit:4s} ({notes[name]})"
             for name, unit in END_TO_END]
    slowdown = statistics.median(s["slowdown"] for s in samples)
    lines.append(f"machine slowdown {slowdown:12.6g}      (median probe time over its nominal; "
                 "timings above are scaled back to nominal speed)")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="obkit benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "obkit" / "cli.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"no obkit checkout at {ROOT}: src/obkit and scenarios/ are missing",
              file=sys.stderr)
        return 2

    workdir = f".perfbench_work/run-{os.getpid()}"
    try:
        for seed in {args.seed, gen.DEFAULT_SEED}:
            worker.write_files(gen.generate(args.workload, seed, f"{workdir}/s{seed}"))
        params = {"workload": args.workload, "seed": args.seed, "workdir": workdir}
        attempted = 0
        failures = []
        setups = []
        if not args.trace:
            for _ in range(SETUP_WORKERS):
                result = start_worker({**params, "mode": "setup"})
                attempted += result["attempted"]
                failures += result["failures"]
                setups.append(result["setup_s"])
        measured = start_worker({**params, "mode": "measure", "seconds": args.seconds,
                                 "trace": args.trace})
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)
    attempted += measured["attempted"]
    failures += measured["failures"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.trace:
        metrics = {}
        for name, unit, _ in worker.per_layer_names():
            value = measured["per_layer"][name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:58s} {value:14.6g} {unit}")
    else:
        metrics, lines = end_to_end(measured, setups)
        print("\n".join(lines))
    print(f"fail_ratio       {len(failures) / attempted:12.6g}      "
          f"({len(failures)} of {attempted} jobs)")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
