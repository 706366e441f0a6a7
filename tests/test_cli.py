import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import time
import traceback
from functools import reduce
from operator import getitem

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gluekit import cli
from gluekit import fintop as ft
from gluekit import jsonio
from gluekit import ringedglue as rgl
from gluekit import sheafglue as sg
from gluekit import topglue as tg
from gluekit.errors import ValidationError

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def load_fixture(name):
    with open(fixture(name), encoding="utf-8") as fh:
        return json.load(fh)


def run_main(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_second_main_call_builds_no_parser(capsys, monkeypatch):
    """The parser is built once per process: an in-process caller that runs
    main per corpus leaves no argparse reference cycles behind per call."""
    assert run_main(capsys, "index", "--n", "1")[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_main(capsys, "verify", fixture("two_origins.json"))[0] == 0
    assert run_main(capsys, "index", "--n", "2")[0] == 0
    assert built == []


def test_verify_two_origins(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, err = run_main(capsys, "verify", fixture("two_origins.json"), "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["verdict"] is True
    assert report["conditions"]["a"] and report["conditions"]["e"]
    assert report["conditions"]["final_topology"]
    assert report["seed"] == 20240


def test_build_artifacts_have_three_point_dump(capsys, tmp_path):
    outdir = tmp_path / "build"
    code, out, err = run_main(capsys, "build", fixture("two_origins.json"), "--out", str(outdir))
    assert code == 0
    artifacts = json.loads((outdir / "artifacts.json").read_text())
    space = ft.space_from_json(artifacts["glued_space"])
    assert space.n == 3 and len(space.opens) == 5
    assert (outdir / "glued_space.dot").exists()
    assert (outdir / "timings.json").exists()


def test_all_fixture_kinds_verify(capsys):
    for name in (
        "two_origins.json",
        "three_chart_cover.json",
        "two_origins_sheaf.json",
        "two_origins_ringed.json",
    ):
        code, out, err = run_main(capsys, "verify", fixture(name))
        assert code == 0, (name, err)
        assert json.loads(out)["verdict"] is True


def test_24_point_chain_verifies_within_a_second(capsys, tmp_path):
    n = 24
    chain = ft.make_space(n, [range(m) for m in range(n + 1)])
    g, _ = tg.cover_functor(chain, [chain.full(), frozenset(range(n - 1))])
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(jsonio.top_data_to_document(tg.data_from_functor(g))))
    start = time.perf_counter()
    code, out, err = run_main(capsys, "verify", str(path))
    assert code == 0, err
    assert time.perf_counter() - start < 1.0
    assert json.loads(out)["conditions"]["final_topology"]


def test_eight_nested_charts_of_a_chain_verify_within_two_seconds(capsys, tmp_path):
    # run time grows with the chart count: eight charts give 232 index objects
    n = 16
    chain = ft.make_space(n, [range(m) for m in range(n + 1)])
    g, _ = tg.cover_functor(chain, [frozenset(range(n - 2 * t)) for t in range(8)])
    path = tmp_path / "chain8.json"
    path.write_text(json.dumps(jsonio.top_data_to_document(tg.data_from_functor(g))))
    start = time.perf_counter()
    code, out, err = run_main(capsys, "verify", str(path))
    assert code == 0, err
    assert time.perf_counter() - start < 2.0


def test_batch_verify_out_writes_one_report_per_document(capsys, tmp_path):
    code, out, err = run_main(capsys, "verify", FIXTURES, "--out", str(tmp_path / "reports"))
    assert code == 0, err
    names = sorted(name for name in os.listdir(FIXTURES) if name.endswith(".json"))
    assert sorted(os.listdir(tmp_path / "reports")) == names
    for name in names:
        single = tmp_path / f"single_{name}"
        assert run_main(capsys, "verify", fixture(name), "--out", str(single))[0] == 0
        assert (tmp_path / "reports" / name).read_bytes() == single.read_bytes()


def test_index_command_and_dot(capsys, tmp_path):
    dot = tmp_path / "idx.dot"
    code, out, err = run_main(capsys, "index", "--n", "2", "--dot", str(dot))
    assert code == 0
    assert "4 objects, 10 morphisms" in out
    text = dot.read_text()
    assert text.count("label=\"[") == 4


def test_sch_variant_rejected(capsys, tmp_path):
    doc = load_fixture("two_origins_ringed.json")
    doc["variant"] = "sch"
    path = tmp_path / "sch.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(capsys, "verify", str(path))
    assert code == 2
    assert "scheme verification unsupported" in err
    # the flag replaces the declared variant before the data is built
    code, out, err = run_main(capsys, "verify", str(path), "--variant", "rts")
    assert code == 0, err
    assert json.loads(out)["variant"] == "rts"


def test_sch_variant_flag_rejects_any_document(capsys):
    for name in ("two_origins.json", "two_origins_sheaf.json", "two_origins_ringed.json"):
        code, out, err = run_main(capsys, "verify", "--variant", "sch", fixture(name))
        assert code == 2, name
        assert "scheme verification unsupported" in err


# (fixture, module, verifier): the verifier each kind runs on its limit
VERIFIERS = [
    ("two_origins.json", tg, "verify_glued"),
    ("two_origins_sheaf.json", sg, "verify_sheaf_glued"),
    ("two_origins_ringed.json", rgl, "verify_ringed_glued"),
]


@pytest.mark.parametrize("name, module, verifier", VERIFIERS, ids=[v[2] for v in VERIFIERS])
def test_false_verdict_on_valid_data_is_a_falsification(capsys, monkeypatch, name, module, verifier):
    """Every kind's limit must pass its own verification: a false verdict
    on valid data exits 3."""
    real = getattr(module, verifier)
    monkeypatch.setattr(module, verifier, lambda *args: {**real(*args), "verdict": False})
    code, out, err = run_main(capsys, "verify", fixture(name), "--samples", "3")
    assert code == 3, err
    assert err.startswith("FALSIFICATION: ") and out == ""


def test_sampled_map_that_is_not_unique_is_a_falsification(capsys, monkeypatch):
    """On valid data, mediating_morphism refusing a sampled cone with
    ValidationError means the map is not unique: exit 3, not 2."""

    def unpinned(*args):
        raise ValidationError("glued space is not covered by its chart legs")

    monkeypatch.setattr(tg, "mediating_morphism", unpinned)
    code, out, err = run_main(capsys, "verify", fixture("two_origins.json"), "--samples", "3")
    assert code == 3, err
    assert err.startswith("FALSIFICATION: sampled mediating morphism is not unique") and out == ""


@pytest.mark.parametrize("name, variant, expected", [
    ("two_origins.json", "top", 0),
    ("two_origins.json", "lrts", 2),
    ("two_origins_ringed.json", "rts", 0),
    ("two_origins_ringed.json", "otop", 2),
    ("two_origins_sheaf.json", "top", 2),
    ("two_origins_sheaf.json", "rts", 2),
])
def test_variant_override_must_belong_to_the_kind(capsys, name, variant, expected):
    code, out, err = run_main(capsys, "verify", fixture(name), "--variant", variant, "--samples", "3")
    assert code == expected, err
    if expected == 2:
        assert "/variant" in err
    else:
        assert json.loads(out)["variant"] == variant


def test_sheaf_document_variant_must_belong_to_the_kind(capsys, tmp_path):
    doc = load_fixture("two_origins_sheaf.json")
    doc["variant"] = "lrts"
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error: /variant:")


# (fixture, members indexed by the charts): the first names the charts
NO_CHARTS = [
    ("two_origins.json", ("charts", "spaces", "overlaps", "transitions", "triples")),
    ("two_origins_ringed.json", ("charts", "overlaps", "transitions")),
    ("two_origins_sheaf.json", ("cover", "sheaves", "transitions")),
]


@pytest.mark.parametrize("name, members", NO_CHARTS, ids=[m[0] for m in NO_CHARTS])
def test_document_without_charts_is_schema_error(capsys, tmp_path, name, members):
    doc = load_fixture(name)
    for key in members:
        doc[key] = type(doc[key])()
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith(f"error: /{members[0]}:")


# (fixture, key path, value): each puts a value of the wrong JSON type into a
# fixture, or a restriction under a key that names no open
MALFORMED = [
    ("two_origins.json", ("spaces",), []),
    ("two_origins.json", ("charts",), 5),
    ("two_origins.json", ("spaces", "s0", "points"), "x"),
    ("two_origins_ringed.json", ("rings", "r0", "one"), "z"),
    ("two_origins_sheaf.json", ("cover", 0), ["a"]),
    ("two_origins_ringed.json", ("charts", 0, "restrictions", "x>0"), [0, 1, 2, 3]),
]


def write_malformed(path, name, keys, value):
    doc = load_fixture(name)
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("name, keys, value", MALFORMED, ids=["/".join(map(str, m[1])) for m in MALFORMED])
def test_malformed_document_is_schema_error(capsys, tmp_path, name, keys, value):
    path = write_malformed(tmp_path / "bad.json", name, keys, value)
    code, out, err = run_main(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error: /")


def test_malformed_document_does_not_end_the_batch(capsys, tmp_path):
    batch = tmp_path / "batch"
    batch.mkdir()
    write_malformed(batch / "a.json", *MALFORMED[0])
    (batch / "b.json").write_text(json.dumps(load_fixture("two_origins.json")))
    code, out, err = run_main(capsys, "verify", str(batch), "--samples", "3")
    assert code == 2
    assert "a.json: exit 2" in out and "b.json: exit 0" in out


def test_referential_error_has_pointer(capsys, tmp_path):
    doc = load_fixture("two_origins.json")
    doc["overlaps"]["0,1"]["space"] = "ghost"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(capsys, "verify", str(path))
    assert code == 2
    assert "/overlaps/0,1/space" in err


@pytest.mark.parametrize("key", ["one", "zero"])
def test_ring_unity_or_zero_out_of_range_names_the_ring(capsys, tmp_path, key):
    path = write_malformed(tmp_path / "bad.json", "two_origins_ringed.json", ("rings", "r0", key), 9)
    code, out, err = run_main(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith(f"error: /rings/r0: {key} 9 out of range for 1 elements"), err


@pytest.mark.parametrize("value", [5, ["r0"], {}], ids=["number", "list", "object"])
def test_section_ring_id_of_any_json_type_names_the_section(capsys, tmp_path, value):
    path = write_malformed(tmp_path / "bad.json", "two_origins_ringed.json", ("charts", 0, "sections", "0"), value)
    code, out, err = run_main(capsys, "verify", str(path))
    assert code == 2
    assert err == f"error: /charts/0/sections/0: undefined ring id {value!r}\n", err


def test_empty_file_is_schema_error(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    code, out, err = run_main(capsys, "verify", str(path))
    assert code == 2


def test_invalid_gluing_data_fails_verification(capsys, tmp_path):
    doc = load_fixture("two_origins.json")
    # make the two transitions fail to be mutually inverse by breaking one
    # into a constant map on a two-point overlap: here the overlap is a
    # single point, so instead cross the attaching maps to break condition c
    doc["spaces"]["s2"] = {"points": 2, "opens": [[], [0], [0, 1]]}
    doc["overlaps"]["0,1"] = {"space": "s2", "map": [0, 1]}
    doc["overlaps"]["1,0"] = {"space": "s2", "map": [0, 1]}
    doc["transitions"]["0,1"] = [0, 0]
    doc["transitions"]["1,0"] = [0, 1]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(capsys, "verify", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["conditions"]["data_valid"] is False
    assert report["verdict"] is False


def test_ringed_document_missing_a_reverse_transport_fails_verification(capsys, tmp_path):
    # the (0,1) laws read the (1,0) transport, so its absence must be
    # reported before they run
    doc = load_fixture("two_origins_ringed.json")
    del doc["transitions"]["1,0"]["sections"]["0"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(capsys, "verify", str(path))
    assert code == 1, err
    assert json.loads(out)["conditions"]["data_valid"] is False


def test_reports_are_deterministic(capsys):
    code1, out1, _ = run_main(capsys, "verify", fixture("two_origins_sheaf.json"))
    code2, out2, _ = run_main(capsys, "verify", fixture("two_origins_sheaf.json"))
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GLUE_SEED", "99")
    code, out, err = run_main(capsys, "verify", fixture("two_origins.json"))
    assert code == 0
    assert json.loads(out)["seed"] == 99
    monkeypatch.delenv("GLUE_SEED")
    code, out, err = run_main(capsys, "verify", fixture("two_origins.json"), "--seed", "7")
    assert json.loads(out)["seed"] == 7


def test_non_integer_seed_env_is_invalid_input(capsys, monkeypatch, tmp_path):
    import shutil

    monkeypatch.setenv("GLUE_SEED", "abc")
    code, out, err = run_main(capsys, "verify", fixture("two_origins.json"))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "GLUE_SEED" in err and "Traceback" not in err
    batch = tmp_path / "batch"
    batch.mkdir()
    shutil.copy(fixture("two_origins.json"), batch / "a.json")
    shutil.copy(fixture("two_origins_sheaf.json"), batch / "b.json")
    code, out, err = run_main(capsys, "verify", str(batch))
    assert code == 2 and out == ""
    assert err.count("GLUE_SEED") == 1 and err.startswith("error:")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_sample_count_below_one_is_refused(capsys, samples):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", fixture("two_origins.json"), "--samples", samples])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "error: argument --samples: must be at least 1" in captured.err


def test_batch_mode_over_directory(capsys, tmp_path):
    import shutil

    batch = tmp_path / "batch"
    batch.mkdir()
    shutil.copy(fixture("two_origins.json"), batch / "a.json")
    shutil.copy(fixture("two_origins_sheaf.json"), batch / "b.json")
    code, out, err = run_main(capsys, "verify", str(batch), "--samples", "3")
    assert code == 0
    assert "a.json: exit 0" in out and "b.json: exit 0" in out
    # a broken document pushes the batch exit code up
    (batch / "c.json").write_text("{}")
    code, out, err = run_main(capsys, "verify", str(batch), "--samples", "3")
    assert code == 2
    assert "c.json: exit 2" in out


def test_report_subcommand(capsys, tmp_path):
    outdir = tmp_path / "b"
    run_main(capsys, "build", fixture("two_origins.json"), "--out", str(outdir))
    code, out, err = run_main(
        capsys, "report", "--in", str(outdir / "artifacts.json"), "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph")
    code, out, err = run_main(
        capsys, "report", "--in", str(outdir / "report.json"), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_unwritable_outputs_and_bad_artifacts_are_input_errors(capsys, tmp_path):
    missing_dir = tmp_path / "missing"
    existing_file = tmp_path / "afile"
    existing_file.write_text("x\n")
    no_points = tmp_path / "no_points.json"
    no_points.write_text(json.dumps({"glued_space": {"opens": [[]]}}))
    # each case, and a word its error line must name
    cases = [
        (("index", "--n", "2", "--dot", str(missing_dir / "x.dot")), "x.dot"),
        (("verify", fixture("two_origins.json"), "--out", str(missing_dir / "r.json")), "r.json"),
        (("build", fixture("two_origins.json"), "--out", str(existing_file)), "afile"),
        (("report", "--in", str(no_points), "--format", "dot"), "/glued_space"),
    ]
    for args, named in cases:
        code, out, err = run_main(capsys, *args)
        assert code == 2, args
        assert err.startswith("error: ") and named in err, (args, err)


FIXTURE_NAMES = sorted(n for n in os.listdir(FIXTURES) if n.endswith(".json"))
# seconds one mutated fixture may take through ``glue verify``; the
# unmutated fixtures take well under a second each
FUZZ_SECONDS = 10.0
# a value of each JSON type, to replace a node of another type
OTHER_TYPES = [None, True, 0, 0.5, "x", [], {}]


def _node_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def mutate_one_node(doc, pick):
    """Mutate one node of ``doc`` in place and return (path, kind): the node
    deleted, replaced by a value of another JSON type, a number moved by at
    most 3, a string renamed, a list truncated, or a point toggled in an
    open.  ``pick(options)`` chooses one of a non-empty sequence.  Numbers
    move only a little because a point count or group rank is the size of
    the structure the parser builds."""
    *head, key = pick(list(_node_paths(doc))[1:])
    parent = reduce(getitem, head, doc)
    node = parent[key]
    kinds = ["delete", "retype"]
    if isinstance(node, int) and not isinstance(node, bool):
        kinds.append("number")
    if isinstance(node, str):
        kinds.append("string")
    if isinstance(node, list) and node:
        kinds.append("truncate")
    if "opens" in head and isinstance(node, list) and all(isinstance(p, int) for p in node):
        kinds.append("toggle_point")
    kind = pick(kinds)
    if kind == "delete":
        del parent[key]
    elif kind == "retype":
        parent[key] = pick([v for v in OTHER_TYPES if type(v) is not type(node)])
    elif kind == "number":
        parent[key] = node + pick((-3, -2, -1, 1, 2, 3))
    elif kind == "string":
        parent[key] = pick([v for v in ("", node + "x", "s0", "r1", "0,1", "lrts") if v != node])
    elif kind == "truncate":
        parent[key] = node[: pick(range(len(node)))]
    else:
        parent[key] = sorted(set(node) ^ {pick(range(4))})
    return head + [key], kind


@st.composite
def mutated_fixtures(draw):
    """A fixture with one node mutated by ``mutate_one_node``."""
    name = draw(st.sampled_from(FIXTURE_NAMES))
    doc = load_fixture(name)
    path, kind = mutate_one_node(doc, lambda options: draw(st.sampled_from(options)))
    return name, path, kind, doc


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_fixtures())
def test_mutated_fixture_keeps_the_exit_code_contract(case):
    """Any one-node mutation of a fixture exits 0, 1 or 2, prints no
    traceback and finishes within FUZZ_SECONDS."""
    name, path, kind, doc = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, name)
        with open(file, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["verify", file])
            except Exception:  # an escaping exception is the traceback the contract forbids
                code, trace = None, traceback.format_exc()
            else:
                trace = ""
        elapsed = time.perf_counter() - start
    where = f"{name} {kind} at /{'/'.join(map(str, path))}"
    assert code in (0, 1, 2), f"{where}: exit {code}\n{trace}{err.getvalue()}"
    assert "Traceback" not in err.getvalue(), where
    assert elapsed < FUZZ_SECONDS, f"{where}: {elapsed:.1f} s"


# The CLI golden: exit code, stdout and stderr (without the timings line) of
# `glue verify` on each fixture under each --variant and on seeded one-node
# mutations of the fixtures, byte for byte.  After an intended change of the
# CLI's output, rewrite the golden file with
#
#     PYTHONPATH=src python3 tests/test_cli.py
GOLDEN_CLI = os.path.join(os.path.dirname(__file__), "golden", "cli.json")
GOLDEN_VARIANTS = (None, "top", "otop", "rts", "lrts", "sch")
GOLDEN_MUTATIONS = 300


def golden_cases():
    """(name, document, extra arguments): each fixture under each
    --variant (None for the document's own), then GOLDEN_MUTATIONS one-node
    mutations, mutation k drawn from its own seeded stream."""
    cases = []
    for name in FIXTURE_NAMES:
        for variant in GOLDEN_VARIANTS:
            args = () if variant is None else ("--variant", variant)
            cases.append((f"{name[:-5]} --variant {variant}", load_fixture(name), args))
    for k in range(GOLDEN_MUTATIONS):
        rng = random.Random(f"cli-golden/{k}")
        name = rng.choice(FIXTURE_NAMES)
        doc = load_fixture(name)
        path, kind = mutate_one_node(doc, rng.choice)
        cases.append((f"mutation-{k:03d} {name[:-5]} {kind} at /{'/'.join(map(str, path))}", doc, ()))
    return cases


def cli_outputs(doc, args) -> dict:
    """sha256 of the document, and the exit code, stdout and stderr of
    `glue verify --samples 3 --seed 7` on it."""
    text = json.dumps(doc, sort_keys=True)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", path, "--samples", "3", "--seed", "7", *args])
    lines = err.getvalue().splitlines(keepends=True)
    return {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": "".join(line for line in lines if not line.startswith("timings: ")),
    }


def test_cli_outputs_match_the_golden_file():
    with open(GOLDEN_CLI, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = {name: cli_outputs(doc, args) for name, doc, args in golden_cases()}
    assert sorted(got) == sorted(golden)
    changed = [name for name in got if got[name] != golden[name]]
    assert not changed, f"{len(changed)} outputs changed, first {changed[0]}: {got[changed[0]]}"


if __name__ == "__main__":
    golden = {name: cli_outputs(doc, args) for name, doc, args in golden_cases()}
    with open(GOLDEN_CLI, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {len(golden)} entries to {GOLDEN_CLI}", file=sys.stderr)
