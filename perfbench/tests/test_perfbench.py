"""Self-test of the benchmark: run with ``python3 -m pytest perfbench/tests``.

Every workload runs at a tiny length, so the whole file takes seconds.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import expected  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LayerTracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def tiny(workload):
    """The workload at a few dozen cycles, under a name with no recording."""
    return dataclasses.replace(
        workload, name=workload.name + "-tiny", warmup=10, measure=20,
    )


def run_tiny(workload, trace):
    small = tiny(workload)
    return run.main(
        ["--workload", small.name, "--seed", "3", "--seconds", "0",
         "--trace", str(trace)],
        workloads_by_name={small.name: small},
    )


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace, section, capsys):
    line = run_tiny(workloads.WORKLOADS[name], trace)
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed == line
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == want


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_recordings_cover_both_seeds_and_match_the_spec(name):
    recorded = expected.load(workloads.WORKLOADS[name])
    assert set(recorded) == set(expected.RECORDED_SEEDS)


def _reference(workload, seed):
    outcome = workloads.simulate(workload, seed)
    return {k: expected.canonical(r) for k, r in outcome.results.items()}


def test_perturbed_expected_result_fails_the_operation():
    workload = tiny(workloads.WORKLOADS["mesh8-1flit"])
    reference = _reference(workload, 3)
    good = run.Run(workload, 3, reference)
    good.operate()
    assert (good.attempted, good.failed) == (1, 0)

    reference["run"]["packet_latency"]["max"] += 1
    bad = run.Run(workload, 3, reference)
    bad.operate()
    assert (bad.attempted, bad.failed) == (1, 1)


def test_unrecorded_seed_is_also_checked_against_a_recording(monkeypatch):
    workload = tiny(workloads.WORKLOADS["mesh8-1flit"])
    seed = expected.RECORDED_SEEDS[0]
    recording = _reference(workload, seed)
    monkeypatch.setattr(run, "load", lambda w: {seed: recording})
    argv = ["--workload", workload.name, "--seed", "3", "--seconds", "0",
            "--trace", "0"]
    catalog = {workload.name: workload}
    line = run.main(argv, workloads_by_name=catalog)
    assert (line["attempted"], line["failed"]) == (2, 0)

    recording["run"]["packet_latency"]["max"] += 1
    line = run.main(argv, workloads_by_name=catalog)
    assert (line["attempted"], line["failed"]) == (2, 1)
    assert not line["correct"]


def test_perturbed_sweep_point_fails_only_that_point():
    workload = tiny(workloads.WORKLOADS["sweep-fig7a"])
    reference = _reference(workload, 3)
    key = workloads.point_key("same_input", 0.45)
    reference[key]["chain_stats"]["conflicts"] += 1
    sweep = run.Run(workload, 3, reference)
    sweep.operate()
    assert (sweep.attempted, sweep.failed) == (20, 1)


class PerturbingTracer(LayerTracer):
    """A tracer that changes what it observes (adds a latency sample)."""

    def maybe_sample(self, cycle):
        if cycle == 1:
            self.network.stats.packet_latencies.append(10 ** 6)


def test_traced_run_that_perturbs_the_simulation_fails(monkeypatch):
    monkeypatch.setattr(run, "LayerTracer", PerturbingTracer)
    workload = tiny(workloads.WORKLOADS["mesh8-1flit"])
    bench = run.Run(workload, 3, None)
    metrics = run.traced(bench, 0)
    assert bench.attempted == 2 and bench.failed == 1
    assert "trace.overhead_pct" in metrics


def test_lost_and_retried_sweep_points_are_failures():
    from repro.sim.parallel import MatrixResults, PointError, PointTiming

    matrix = MatrixResults(
        {"any_input": []},
        errors=[PointError("any_input", 1.0, "boom", 2)],
        timings=[PointTiming("any_input", 0.7, 0.1, 1, attempts=2)],
    )
    outcome = workloads.Outcome({}, 1.0, matrix=matrix)
    bad = expected.problems(workloads.WORKLOADS["sweep-fig7a"], outcome)
    assert set(bad) == {workloads.point_key("any_input", 1.0),
                        workloads.point_key("any_input", 0.7)}


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mesh8-1flit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
