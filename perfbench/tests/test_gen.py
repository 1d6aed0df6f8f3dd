"""Tests of the benchmark's input generator and of its metric lists.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from obkit.scenario import parse_scenario  # noqa: E402

SEEDS = (gen.DEFAULT_SEED, 7)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_scenario_is_accepted(workload, seed):
    inputs = gen.generate(workload, seed, "work")
    paths = {job.argv[job.argv.index("--scenario") + 1]
             for job in inputs.jobs if "--scenario" in job.argv}
    for path in sorted(paths):
        text = inputs.files.get(path)
        if text is None:
            text = (ROOT / path).read_text(encoding="utf-8")
        scenario = parse_scenario(text)
        assert scenario.spec is not None


def cocycle_identity_holds(m: int, action, table: dict) -> bool:
    """The inhomogeneous 3-cocycle identity over Z/m, checked exhaustively."""
    zero = (0, 0, 0)

    def f(g, h, k):
        return table.get((g % m, h % m, k % m), zero)

    for g in range(m):
        for h in range(m):
            for q in range(m):
                for l in range(m):
                    acted = gen.mat_pow_vec(action, g, f(h, q, l))
                    for i in range(3):
                        if (acted[i] - f(g + h, q, l)[i] + f(g, h + q, l)[i]
                                - f(g, h, q + l)[i] + f(g, h, q)[i]):
                            return False
    return True


def exponent(word: str) -> int:
    if word == "1":
        return 0
    return 1 if word == "q" else int(word.split("^")[1])


@pytest.mark.parametrize("seed", SEEDS)
def test_coboundary_tables_are_cocycles(seed):
    inputs = gen.generate("cocycle-torsion", seed, "work")
    assert inputs.files
    for text in inputs.files.values():
        doc = json.loads(text)
        m = doc["group"]["factors"][1]["torsion"][0]
        action = doc["cocycles"]["c"]["q_action"]["q"]
        entries = doc["cocycles"]["c"]["entries"]
        table = {tuple(exponent(w) for w in e["args"]): tuple(e["value"]) for e in entries}
        # Dense: most triples carry a value.
        assert len(table) > 0.9 * m ** 3
        assert cocycle_identity_holds(m, action, table)


def test_a_broken_table_is_caught():
    m = 4
    action = gen.ACTIONS["rot4"][0]
    table = gen.coboundary_table(m, action, {(1, 2): (1, 0, -1), (3, 3): (0, 2, 1)})
    assert cocycle_identity_holds(m, action, table)
    key = next(iter(table))
    table[key] = tuple(x + 1 for x in table[key])
    assert not cocycle_identity_holds(m, action, table)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_bytes(workload):
    first = gen.generate(workload, 5, "work")
    second = gen.generate(workload, 5, "work")
    assert first.files == second.files
    assert first.jobs == second.jobs
    if workload != "paper-report":
        other = gen.generate(workload, 6, "work")
        assert other.files != first.files or other.jobs != first.jobs


def test_first_job_is_the_smallest_point():
    assert gen.generate("cocycle-torsion", 3, "w").jobs[0].point == "m4"
    assert gen.generate("chi-matrix", 3, "w").jobs[0].point == "n2"
    assert gen.generate("wh-finite", 3, "w").jobs[0].point == "m8"


def test_half_of_the_wh_pairs_are_equal():
    jobs = [j for j in gen.generate("wh-finite", 9, "w").jobs if j.point != "agree"]
    verdicts = [dict(j.expect)["RESULT"] for j in jobs]
    assert verdicts.count("true") == verdicts.count("false") == len(jobs) // 2


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        worker.per_layer_names()


def test_golden_digests_cover_the_default_seed():
    golden = json.loads(worker.GOLDEN.read_text(encoding="utf-8"))
    for workload in gen.WORKLOADS:
        keys = [j.key for j in gen.generate(workload, gen.DEFAULT_SEED, "w").jobs]
        assert sorted(golden[workload]) == sorted(keys)


def test_jobs_of_two_seeds_keep_their_own_arguments():
    # The measuring worker runs the default seed's round and the run's own
    # round, whose jobs share keys but not files.
    runner = worker.Runner()
    first = gen.generate("cocycle-torsion", gen.DEFAULT_SEED, "w1").jobs[0]
    other = gen.generate("cocycle-torsion", 2, "w2").jobs[0]
    assert first.key == other.key
    assert runner.namespace(first).scenario != runner.namespace(other).scenario
