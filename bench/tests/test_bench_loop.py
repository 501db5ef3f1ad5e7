import json
import os

import pytest

import checks
import run
import spans
import workloads
from loop import Loop

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture
def algebra(tmp_path):
    import incalg.cli as cli
    workload = workloads.build("algebra", 3, str(tmp_path))
    return Loop(cli, [], workload), {op.key: op for op in workload.ops}


def test_known_defect_invert_counts_as_failure_not_raised(algebra):
    loop, ops = algebra
    seconds, ok, _ = loop.run_op(ops["chain6x-M23-inv-f"])
    assert not ok and seconds >= 0
    assert (loop.attempted, loop.failed, loop.wrong) == (1, 1, [])
    assert loop.outcomes == {"NotImplementedError": 1}


def test_expected_exit_one_passes_and_a_wrong_exit_is_flagged(algebra):
    loop, ops = algebra
    singular = ops["chain60-Z12-inv-singular"]
    assert loop.run_op(singular)[1]
    singular.expect = 0
    assert not loop.run_op(singular)[1]
    assert loop.wrong == ["chain60-Z12-inv-singular: exit 1, expected 0"]


def test_repeated_outputs_must_be_byte_identical(algebra):
    loop, ops = algebra
    op = ops["chain60-Z12-apply"]
    assert loop.run_op(op)[1] and loop.run_op(op)[1]
    digest, systems = loop.first[op.key]
    loop.first[op.key] = ("0" * 64, systems)
    assert not loop.run_op(op)[1]
    assert "differs from its first run" in loop.wrong[-1]


def test_sweep_pass_check_counts_systems():
    workload = workloads.build("verify-sweep", 1, "unused", write=False)
    assert sum(op.sweep_part for op in workload.ops) == 59
    workload.pass_check([workloads.SWEEP_SYSTEMS])
    with pytest.raises(checks.CheckFailed):
        workload.pass_check([workloads.SWEEP_SYSTEMS - 1])


def test_benchmark_json_lists_what_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.metric_names()
    raw = {"latencies": [0.1, 0.2], "busy_s": 0.4, "attempted": 3, "peak_rss_mb": 30.0,
           "systems": 2}
    e2e = run.end_to_end(raw, 0.5)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()]


def test_harrell_davis_quantile():
    values = list(range(1, 101))
    assert run.quantile(values, 0.5) == pytest.approx(50.5)
    assert 89 < run.quantile(values, 0.9) < 92
    assert run.quantile([7], 0.9) == 7
    assert run.quantile([3, 1, 2], 0.5) == pytest.approx(2)
