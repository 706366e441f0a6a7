import json
import os

import pytest

from gluekit import cli
from gluekit import fintop as ft

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


def test_sch_variant_flag_rejects_any_document(capsys):
    code, out, err = run_main(
        capsys, "verify", "--variant", "sch", fixture("two_origins.json")
    )
    assert code == 2
    assert "scheme verification unsupported" in err


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


# (fixture, key path, value): each puts a value of the wrong JSON type into a fixture
MALFORMED = [
    ("two_origins.json", ("spaces",), []),
    ("two_origins.json", ("charts",), 5),
    ("two_origins.json", ("spaces", "s0", "points"), "x"),
    ("two_origins_ringed.json", ("rings", "r0", "one"), "z"),
    ("two_origins_sheaf.json", ("cover", 0), ["a"]),
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
