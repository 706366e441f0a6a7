"""Benchmark of the user command ``glue verify <corpus dir>`` on seeded corpora.

    python3 perfbench/run.py --workload top_cones --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each run is one interpreter.  It writes seeded corpora of gluing documents
(perfbench/corpus.py) under .perfbench_work/ and verifies each corpus with
one in-process ``cli.main(["verify", dir, "--seed", ...])`` call, with the
default ``--samples``.  Per-document wall time is taken from outside: every
write ``glue`` makes to stdout is timestamped, and the batch loop writes one
``name: exit N`` line per document.  Every document's exit code and report
is checked.

--trace 0 verifies at least 100 documents and then corpora until the next
one would not fit in --seconds, and prints the end-to-end metrics.
--trace 1 verifies the first corpora holding 100 documents twice, untraced
and then traced (perfbench/tracing.py), and prints the per-layer metrics;
their counts repeat exactly on one seed.  The last line
of output is one JSON object; the lines before it repeat the metrics with
their sample counts and the machine facts.  The exit code is 0 only when
every document was verified correctly, and ``--workload all`` runs every
workload in its own interpreter.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # setup_s counts from here

import argparse
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("top_cones", "top_chain", "sheaf_rank3", "ringed_zmod")
SETUP_SAMPLES = 3  # corpora built before the first verify; setup_s takes their median
MIN_DOCS = 100  # documents a run verifies at least, so the p90 has ten beyond it
EXIT_LINE = re.compile(r"(\S+\.json): exit (\d+)\n\Z")


class _Stamped(io.TextIOBase):
    """stdout for ``glue``: keeps every write with the time it was made and
    moves the tracer to the next document after each exit line."""

    def __init__(self, tracer=None):
        self.chunks: list[tuple[float, str]] = []
        self.tracer = tracer

    def writable(self):
        return True

    def write(self, text):
        self.chunks.append((time.perf_counter(), text))
        if self.tracer is not None and EXIT_LINE.match(text):
            self.tracer.doc += 1
        return len(text)


@dataclass
class Pass:
    """Outcome of verifying corpora: times and failures."""
    seconds: float = 0.0
    corpus_rates: list[float] = field(default_factory=list)
    doc_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def _report_ok(expected: int, code: int, text: str) -> bool:
    if code != expected:
        return False
    try:
        report = json.loads(text)
    except ValueError:
        return False
    if expected == 1:
        return report.get("verdict") is False
    conditions = report.get("conditions") or {}
    return (report.get("verdict") is True and bool(conditions)
            and all(v is True for v in conditions.values()))


def verify_corpus(cli, tracing, corpus, result: Pass, tracer=None) -> None:
    """One ``glue verify <dir>`` over a corpus, timed and checked per document."""
    tracing.clear_caches()
    out, err = _Stamped(tracer), io.StringIO()
    argv = ["verify", corpus.directory, "--seed", str(corpus.glue_seed)]
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                cli.main(argv)
            else:
                with tracer.installed():
                    cli.main(argv)
        except Exception:  # a crash fails every document without an exit line
            traceback.print_exc()
        end = time.perf_counter()
    result.seconds += end - start
    result.corpus_rates.append(len(corpus.expected) / (end - start))
    result.attempted += len(corpus.expected)
    seen, pending, last = set(), [], start
    for stamp, text in out.chunks:
        m = EXIT_LINE.match(text)
        if m is None:
            pending.append(text)
            continue
        name, code = m.group(1), int(m.group(2))
        result.doc_seconds.append(stamp - last)
        last = stamp
        seen.add(name)
        if name not in corpus.expected or not _report_ok(corpus.expected[name], code, "".join(pending)):
            result.failed.append(name)
        pending = []
    result.failed.extend(sorted(set(corpus.expected) - seen))
    if result.failed and err.getvalue():
        result.errors.append(err.getvalue()[-2000:])


def _import_program():
    """Import gluekit from this checkout's src/ and the benchmark modules."""
    sys.path.insert(0, SRC)
    import gluekit
    if os.path.dirname(os.path.abspath(gluekit.__file__)) != os.path.join(SRC, "gluekit"):
        raise ImportError(f"gluekit was found at {gluekit.__file__}, not under {SRC}")
    from gluekit import cli

    import corpus
    import tracing
    return cli, corpus, tracing


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


class _Corpora:
    """The workload's corpora for one seed, built on demand and timed."""

    def __init__(self, args, corpus, work):
        self.args, self.corpus, self.work = args, corpus, work
        self.workload = corpus.WORKLOADS[args.workload]
        self.built, self.build_seconds = [], []

    def __getitem__(self, r):
        while len(self.built) <= r:
            t0 = time.perf_counter()
            n = len(self.built)
            self.built.append(self.corpus.build_corpus(
                self.args.workload, self.args.seed, n, os.path.join(self.work, f"corpus{n}")))
            self.build_seconds.append(time.perf_counter() - t0)
        return self.built[r]


def run_timed(args, cli, corpus, tracing, start_s, work) -> tuple[dict, list[str]]:
    """End-to-end metrics over at least MIN_DOCS documents and as many
    further corpora as fit in --seconds."""
    corpora = _Corpora(args, corpus, work)
    corpora[SETUP_SAMPLES - 1]  # the set-up samples are built before the first verify
    result, r, corrupted = Pass(), 0, 0
    while True:
        c = corpora[r]
        verify_corpus(cli, tracing, c, result)
        shutil.rmtree(c.directory)
        r += 1
        corrupted += c.corrupted
        if result.attempted >= MIN_DOCS and result.seconds * (r + 1) / r > args.seconds:
            break
    n, times = result.attempted, result.doc_seconds
    metrics = {
        "docs_per_s": _metric(statistics.median(result.corpus_rates), "1/s"),
        "doc_p50_ms": _metric(statistics.median(times) * 1e3, "ms"),
        "doc_p90_ms": _metric(_quantile(times, 90) * 1e3, "ms"),
        "setup_s": _metric(start_s + statistics.median(corpora.build_seconds), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {
        "docs_per_s": f"median of {r} corpora; {n} documents in {result.seconds:.3f} s",
        "doc_p50_ms": f"{len(times)} documents",
        "doc_p90_ms": f"{len(times)} documents",
        "setup_s": f"start-up and imports {start_s:.4f} s + median of {len(corpora.build_seconds)} corpus builds",
        "peak_rss_mb": "ru_maxrss at the end of the run",
    }
    lines = [f"corpora: {r} verified x {corpora.workload.docs} documents, {corrupted} corrupted; "
             f"generator: {corpora.workload.params}"]
    lines += [f"{name:12s} {m['value']:.6g} {m['unit']}  ({samples[name]})" for name, m in metrics.items()]
    lines.append(f"failed_frac  {len(result.failed) / n:.6g}  ({len(result.failed)} of {n} documents)")
    return _result(result, metrics), lines + _failure_lines(result)


def run_traced(args, cli, corpus, tracing, work) -> tuple[dict, list[str]]:
    """Per-layer metrics from a traced pass over the first corpora that
    hold MIN_DOCS documents, after an untraced pass over the same ones."""
    corpora = _Corpora(args, corpus, work)
    count = -(-MIN_DOCS // corpora.workload.docs)
    chosen = [corpora[r] for r in range(count)]
    plain, traced, tracer = Pass(), Pass(), tracing.Tracer()
    for c in chosen:
        verify_corpus(cli, tracing, c, plain)
    for c in chosen:
        verify_corpus(cli, tracing, c, traced, tracer)
    values = tracer.metrics()
    values["trace.overhead_frac"] = 1 - plain.seconds / traced.seconds
    metrics = {name: _metric(values[name], unit) for name, (unit, _) in tracing.per_layer_metrics().items()}
    os.makedirs(os.path.join(WORK_ROOT, "spans"), exist_ok=True)
    spans_path = os.path.join(WORK_ROOT, "spans", f"{args.workload}-{args.seed}.json.gz")
    tracer.write_spans(spans_path, [f"corpus{r}/{name}" for r, c in enumerate(chosen) for name in sorted(c.expected)])
    leaders = tracing.LEADERS[args.workload]
    share, rival, rival_share = tracer.lead(leaders)
    total = sum(tracer.self_s)
    top = sorted(tracer.function_self_s().items(), key=lambda kv: -kv[1])[:6]
    both = Pass(attempted=plain.attempted + traced.attempted, failed=plain.failed + traced.failed,
                errors=plain.errors + traced.errors)
    lines = [f"corpora: {count} x {corpora.workload.docs} documents, {sum(c.corrupted for c in chosen)} corrupted, "
             f"verified untraced in {plain.seconds:.3f} s and traced in {traced.seconds:.3f} s; "
             f"{len(tracer.span_fn)} spans written to {os.path.relpath(spans_path, ROOT)}",
             f"reason {'confirmed' if share > rival_share else 'NOT confirmed'}: "
             f"{' + '.join(leaders)} take {share:.1%} of traced self time ({total:.3f} s); "
             f"the next largest, {rival}, takes {rival_share:.1%}"]
    lines += [f"  {name:44s} {s:9.4f} s  {s / total:6.1%}" for name, s in top]
    return _result(both, metrics), lines + _failure_lines(both)


def _result(p: Pass, metrics: dict) -> dict:
    return {"correct": not p.failed, "attempted": p.attempted, "failed": len(p.failed),
            "metrics": metrics}


def _failure_lines(p: Pass) -> list[str]:
    if not p.failed:
        return []
    return [f"FAILED documents: {' '.join(p.failed[:20])}"] + p.errors[:3]


def run_all(args) -> int:
    """Every workload in its own interpreter; the last line maps each
    workload to its result line."""
    results, worst = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.splitlines()
        if lines:
            results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return worst if len(results) == len(WORKLOAD_NAMES) else max(worst, 1)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        cli, corpus, tracing = _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    start_s = time.perf_counter() - STARTED
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT)
    try:
        if args.trace:
            result, lines = run_traced(args, cli, corpus, tracing, work)
        else:
            result, lines = run_timed(args, cli, corpus, tracing, start_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"gluekit benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"nproc {os.cpu_count()}, Python {platform.python_version()}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
