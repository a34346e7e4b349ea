"""Self-tests of the benchmark: seeded inputs, metric names, the oracle.

Run from the root of a checkout: ``python -m pytest perfbench/tests -q``.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import inputs
import run
import served
import workloads
from common import Sample, matches, reference, tail

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _csr_bytes(csr) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes()
                    for a in (csr.rowptr, csr.colidx, csr.values)) + repr(csr.shape).encode()


def _delta_bytes(delta) -> bytes:
    return (delta.rows.tobytes() + delta.cols.tobytes() + delta.values.tobytes()
            + f"{delta.mode}/{delta.new_rows}".encode())


def _fingerprint(seed: int) -> bytes:
    """Every generated input of every workload, as bytes."""
    parts = []
    for name, csr in inputs.served_matrices(seed).items():
        parts.append(_csr_bytes(csr))
        for k in (inputs.K_SMALL, inputs.K_LARGE):
            parts += [x.tobytes() for x in inputs.operand_pool(seed, name, csr.n_cols, k)]
    for conn in range(served.CONNECTIONS):
        requests = itertools.islice(inputs.warm_requests(seed, conn, ["a", "b"]), 64)
        parts.append(repr(list(requests)).encode())
    for stream in inputs.churn_streams(seed):
        parts.append(_csr_bytes(stream.initial))
        parts += [_delta_bytes(d) for d in itertools.islice(stream.deltas(), 300)]
    for entry in inputs.sweep_corpus(seed):
        parts.append(entry.name.encode() + _csr_bytes(entry.matrix))
    return b"".join(parts)


def test_same_seed_gives_identical_inputs_and_another_seed_changes_them():
    first = _fingerprint(3)
    assert first == _fingerprint(3)
    assert first != _fingerprint(4)


def test_warm_requests_keep_a_three_to_one_mix():
    ks = [k for _, k, _ in itertools.islice(inputs.warm_requests(1, 0, ["m"]), 400)]
    assert ks.count(inputs.K_SMALL) == 3 * ks.count(inputs.K_LARGE)


def test_churn_deltas_alternate_set_and_add_and_apply_cleanly():
    stream = inputs.churn_streams(1)[0]
    csr = stream.initial
    for i, delta in enumerate(itertools.islice(stream.deltas(), 20)):
        assert delta.mode == ("add" if i % 2 else "set")
        grown = delta.apply_to(csr)
        assert grown.nnz == csr.nnz + (delta.n_entries if delta.mode == "add" else 0)
        csr = grown


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_named_in_benchmark_json(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-churn",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    for m in section:  # every name is also printed on a report line
        assert f"# {m['name']} = " in out.stdout


def test_oracle_flags_a_corrupted_result():
    csr = inputs.served_matrices(2)["rmat"]
    x = inputs.operand_pool(2, "rmat", csr.n_cols, inputs.K_SMALL)[0]
    expected = reference(csr, x)
    assert matches(expected.copy(), expected)
    corrupted = expected.copy()
    corrupted[7, 3] += 1e-6
    assert not matches(corrupted, expected)
    assert not matches(expected[:, :-1], expected)

    class CorruptingClient:
        def spmm(self, x, **kwargs):
            return {"status": "ok", "rung": "full", "result": corrupted.tolist()}

    sample = served._spmm(CorruptingClient(), x, expected, "fp", "conn0")
    assert sample.ok and not sample.correct
    result = workloads.Result()
    result.samples += [sample, Sample("spmm", 0.1, True, True)]
    assert (result.attempted, result.failed, result.correct) == (2, 1, False)


def test_refused_request_counts_as_failed_but_not_incorrect():
    class RefusingClient:
        def spmm(self, x, **kwargs):
            return {"status": "rejected_quota"}

    sample = served._spmm(RefusingClient(), np.zeros((2, 2)), np.zeros((2, 2)), "fp", "t")
    result = workloads.Result()
    result.samples.append(sample)
    assert (result.failed, result.correct) == (1, True)


def test_tail_leaves_ten_samples_beyond_it():
    value, percentile, n = tail(list(range(100)))
    assert (value, n) == (89, 100) and percentile == pytest.approx(90.0)
    assert sum(v > value for v in range(100)) == 10
    assert tail([3, 1]) == (3, 100.0, 2)


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
