"""Self-test of the benchmark on small corpora.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

SMALL = ["--seed", "3", "--seconds", "1"]  # stops at the 100-document minimum


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_all(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--trace", str(trace)] + SMALL,
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return _run_all(1), _run_all(1)


def _check(results: dict, metrics: list[dict]) -> None:
    spec = _spec()
    assert sorted(results) == sorted(w["name"] for w in spec["workloads"])
    for name, result in results.items():
        assert result["correct"] is True, name
        assert result["failed"] == 0 and result["attempted"] >= 100, name
        assert list(result["metrics"]) == [m["name"] for m in metrics], name
        for m in metrics:
            assert result["metrics"][m["name"]]["unit"] == m["unit"], (name, m["name"])


def test_untraced_run_prints_every_end_to_end_metric():
    results = _run_all(0)
    _check(results, _spec()["end_to_end"])
    for name, result in results.items():
        for metric in result["metrics"].values():
            assert metric["value"] > 0, name


def test_traced_run_prints_every_per_layer_metric(traced_twice):
    _check(traced_twice[0], _spec()["per_layer"])


def test_per_layer_names_match_the_tracer():
    spec = {m["name"]: (m["unit"], m["better"]) for m in _spec()["per_layer"]}
    assert spec == tracing.per_layer_metrics()


def test_traced_counts_repeat_exactly(traced_twice):
    first, second = traced_twice
    for workload in first:
        a, b = first[workload]["metrics"], second[workload]["metrics"]
        counts = [n for n in a if not n.endswith("self_s") and n != "trace.overhead_frac"]
        assert counts
        assert {n: a[n]["value"] for n in counts} == {n: b[n]["value"] for n in counts}, workload


def test_a_wrong_exit_code_fails_the_document(tmp_path):
    import run

    cli, corpus, tracing_ = run._import_program()
    c = corpus.build_corpus("top_chain", 1, 0, str(tmp_path / "corpus"))
    flipped = sorted(c.expected)[2]
    c.expected[flipped] = 1  # a valid document, so glue verify gives 0
    result = run.Pass()
    run.verify_corpus(cli, tracing_, c, result)
    assert result.attempted == len(c.expected)
    assert result.failed == [flipped]
    assert run._result(result, {})["correct"] is False


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (tmp_path / "perfbench" / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_spec()))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "top_cones", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
