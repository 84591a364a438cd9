"""Self-tests of the benchmark harness (not part of the library suite).

    python3 -m pytest bench -q
"""
import json
import os
import shutil
import subprocess
import sys
import time

import oracle
import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# small prefixes keep the traced runs quick
COUNTS = {"barrier-scan": 32, "qnm-scan": 1, "mass-recover": 3}


def _worker(workload, trace):
    job = {"workload": workload, "inputs": workloads.generate(workload, 7),
           "count": COUNTS[workload], "trace": trace}
    return run.run_worker(ROOT, SRC, job, time.monotonic() + 170)


def test_same_seed_gives_same_inputs():
    for workload in workloads.POOL:
        assert workloads.generate(workload, 5) == \
            workloads.generate(workload, 5)
        assert workloads.generate(workload, 5) != \
            workloads.generate(workload, 6)


def test_timed_runs_are_whole_passes_at_the_benchmark_length():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    for workload, n in workloads.POOL.items():
        count = workloads.task_count(workload, seconds)
        assert count >= n and count % n == 0, workload


def test_traced_counts_repeat_and_results_match_untraced():
    hit = set()
    for workload in workloads.POOL:
        plain = _worker(workload, False)
        first, second = _worker(workload, True), _worker(workload, True)
        assert plain["results"] == first["results"] == second["results"]
        for name in spans.EXACT:
            assert first["layers"][name] == second["layers"][name], name
        for name in workloads.EXPECTED_SPANS[workload]:
            assert first["hits"][name] > 0, (workload, name)
        hit |= {n for n, c in first["hits"].items() if c}
        assert plain["foreign_modules"] == []
    assert hit == {f"{m}.{a}" for m, a in spans.WRAPPED}


def test_benchmark_json_lists_what_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == list(spans.METRICS)
    for m in bench["per_layer"]:
        assert (m["unit"], m["better"]) == spans.METRICS[m["name"]]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(workloads.POOL)


def test_oracles_reproduce_published_values():
    # README quick start and the collocation prototype in ROADMAP item 2
    assert abs(oracle.barrier_zeros(1.3)[0]
               - complex(1.2126639443596, -0.4431851239244)) < 1e-12
    band, converged = oracle.sds_band(0.36, 10, (1.5, 1.7, -0.1, -0.05))
    assert converged
    assert len(band) == 1
    assert abs(band[0] - complex(1.6155669939, -0.0770788726)) < 1e-9


def test_match_classifies_missing_spurious_and_wrong():
    assert run.match([1j], [], [1j + 1e-9], 1e-8, 1e-4) == (0, 0, 1e-9)
    missing, spurious, _ = run.match([1j, 2j], [], [1j, 5j], 1e-8, 1e-4)
    assert (missing, spurious) == (1, 1)
    assert run.match([], [3j], [], 1e-8, 1e-4) == (0, 0, 0.0)


def test_tail_keeps_ten_inputs_above_the_percentile():
    assert run.tail(list(range(31)))[1] == 60.0
    assert run.tail(list(range(256)))[1] == 95.0
    assert run.tail(list(range(5))) == (4, 100.0)


def test_run_refuses_a_checkout_without_sources():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "barrier-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
