"""Golden reports: the `glue verify` report and the `glue build` artifacts of
the fixtures and of seeded generated documents, byte for byte.

Reports are deterministic, so a refactor of the pipeline must leave every one
of them unchanged.  Each entry also pins the sha256 of its document, so the
generators' output for a seed is pinned too.  After an intended change of
the report format, rewrite the golden file with

    PYTHONPATH=src python3 tests/test_golden_reports.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

import pytest

from gluekit import cli
from gluekit import generators as gen
from gluekit import jsonio
from gluekit import sheafglue as sg
from gluekit import topglue as tg

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "reports.json")
FIXTURES = os.path.join(HERE, "..", "fixtures")
FIXTURE_NAMES = ("two_origins.json", "three_chart_cover.json", "two_origins_sheaf.json", "two_origins_ringed.json")
PER_KIND = 30
CORRUPT_EVERY = 6  # every sixth top document is a corrupted functor


def _top(rng: random.Random, corrupt: bool) -> dict:
    while True:
        g = gen.random_top_functor(rng, max_charts=3, max_points=4)
        if corrupt:
            g = gen.corrupt_top_functor(rng, g)
        if g is not None:
            return jsonio.top_data_to_document(tg.data_from_functor(g))


def _sheaf(rng: random.Random) -> dict:
    base, cover, sheaves, transitions, _ = gen.random_sheaf_data(rng, max_points=4, max_charts=3, max_rank=2)
    return jsonio.sheaf_data_to_document(sg.SheafGluingData(base, tuple(cover), sheaves, transitions))


def _ringed(rng: random.Random, variant: str) -> dict:
    return jsonio.ringed_functor_to_document(gen.random_ringed_functor(rng, variant, max_points=4))


def documents() -> list[tuple[str, dict]]:
    """(name, document) for the fixtures, then PER_KIND seeded documents of
    each kind; document k of a kind is drawn from its own seeded stream."""
    docs = []
    for name in FIXTURE_NAMES:
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            docs.append((f"fixture-{name[:-5]}", json.load(fh)))
    for k in range(PER_KIND):
        rng = random.Random(f"golden/top/{k}")
        docs.append((f"top-{k:02d}", _top(rng, k % CORRUPT_EVERY == CORRUPT_EVERY - 1)))
    for k in range(PER_KIND):
        docs.append((f"sheaf-{k:02d}", _sheaf(random.Random(f"golden/sheaf/{k}"))))
    for k in range(PER_KIND):
        variant = ("lrts", "rts")[k % 2]
        docs.append((f"ringed-{k:02d}", _ringed(random.Random(f"golden/ringed/{k}"), variant)))
    return docs


def outputs(doc: dict, seed: int) -> dict:
    """sha256 of the document, exit codes, verify report and build artifacts."""
    text = json.dumps(doc, sort_keys=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            verify_exit = cli.main(["verify", path, "--seed", str(seed)])
            build_exit = cli.main(["build", path, "--out", os.path.join(tmp, "out"), "--seed", str(seed)])
        with open(os.path.join(tmp, "out", "artifacts.json"), encoding="utf-8") as fh:
            artifacts = fh.read()
    report = out.getvalue()
    report = report[: report.rindex("wrote ")]  # drop build's "wrote DIR" line
    return {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "exit": [verify_exit, build_exit],
        "report": report,
        "artifacts": artifacts,
    }


DOCUMENTS = documents()


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_every_document():
    assert sorted(_golden()) == sorted(name for name, _ in DOCUMENTS)


@pytest.mark.parametrize("seed, name, doc", [(k, n, d) for k, (n, d) in enumerate(DOCUMENTS)],
                         ids=[n for n, _ in DOCUMENTS])
def test_report_and_artifacts_are_byte_identical(seed, name, doc):
    expected = _golden()[name]
    got = outputs(doc, seed)
    assert got["sha256"] == expected["sha256"], "the generated document changed"
    assert got["exit"] == expected["exit"]
    assert got["report"] == expected["report"]
    assert got["artifacts"] == expected["artifacts"]


if __name__ == "__main__":
    golden = {name: outputs(doc, seed) for seed, (name, doc) in enumerate(DOCUMENTS)}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {len(golden)} entries to {GOLDEN}", file=sys.stderr)
