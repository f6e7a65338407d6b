"""Self-test of the benchmark on tiny instances, in seconds.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Every per-layer metric the run record carries, whatever the workload.
RECORD_LAYERS = {
    *bench.PER_LAYER,
    "pcc.iterations",
    "ising.decode_matching_ms",
    "pcc.build_pcc_ms",
    "pcc.init_params_ms",
    "pcc.setup_ms",
    "pcc.decode_upper_ms",
    "pcc.subgradient_ms",
    "pcc.step_ms",
    "pcc.solve_self_ms",
}


def run(capsys, *args):
    code = bench.main(["--tiny", "--seed", "1", "--seconds", "0.2", *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_contract_matches_benchmark():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(capsys, workload, trace):
    code, record, result = run(capsys, "--workload", workload, "--trace", str(trace))
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    shown = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == shown
    if trace:
        assert RECORD_LAYERS <= set(record["metrics"])
        assert record["unmeasured"] == []
    # Every layer in the result line runs on every workload.  Tracing
    # overhead is a difference of two timings and may come out at or below 0.
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k != "trace.overhead_frac")
    for key in ("commit", "engine", "available_engines", "has_compiled_kernel",
                "python", "numpy", "nproc", "cpu", "seed"):
        assert key in record
    assert all("samples" in m and "unit" in m for m in record["metrics"].values())


@pytest.mark.parametrize("workload", ["certify-weak", "ground-state"])
def test_injected_wrong_answer_is_a_failure(capsys, monkeypatch, workload):
    oracle = bench.oracle_reference

    def off_by_one(w):
        return {key: (solves, optimum + 1) for key, (solves, optimum) in oracle(w).items()}

    monkeypatch.setattr(bench, "oracle_reference", off_by_one)
    code, record, result = run(capsys, "--workload", workload)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == record["wrong"]
    assert record["failed_frac"] == 1.0


def _raise(*args, **kwargs):
    raise RuntimeError("injected")


def _uncertified(*args, **kwargs):
    return dataclasses.replace(OPTIMIZE(*args, **kwargs), certificate="gap")


OPTIMIZE = bench.planarcc.optimize


@pytest.mark.parametrize("broken, counter", [(_raise, "exception"), (_uncertified, "not_certified")])
def test_crashes_and_uncertified_runs_are_counted_apart(capsys, monkeypatch, broken, counter):
    reference = bench.oracle_reference(bench.TINY["certify-weak"])
    monkeypatch.setattr(bench, "oracle_reference", lambda w: reference)
    monkeypatch.setattr(bench.planarcc, "optimize", broken)
    code, record, result = run(capsys, "--workload", "certify-weak")
    assert code != 0
    assert result["failed"] == result["attempted"] == record[counter]
    assert record["wrong"] == 0


def test_passes_follow_the_seed():
    w = bench.WORKLOADS["certify-weak"]
    ref = bench.load_reference(w)

    def first(seed, n=4):
        passes = bench.plan_passes(w, ref, seed)
        return [next(passes) for _ in range(n)]

    assert first(3) == first(3)
    assert first(3) != first(4)
    assert all(len(p) == sum(w.per_pass) for p in first(3))


def test_reference_covers_every_pool_instance():
    for w in bench.WORKLOADS.values():
        ref = bench.load_reference(w)
        assert set(ref) == {(side, seed) for side in w.sides for seed in range(w.pool)}
