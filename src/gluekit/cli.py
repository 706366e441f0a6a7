"""Command-line front end.

Subcommands: ``verify <file>`` runs the construction and verification
pipeline for a gluing document, ``build <file> --out DIR`` additionally
writes the constructed artifacts, ``index --n K`` prints a census of the
gluing index category (optionally as DOT), and ``report`` re-emits a saved
artifact file as JSON or DOT.

Exit codes: 0 verified, 1 the gluing data is not a valid gluing functor, 2
invalid input or unsupported variant, 3 internal falsification (the
construction failed its own verification or an executed theorem
conclusion failed; must never happen on valid input).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from . import abgroups as ab
from . import fintop as ft
from . import generators as gen
from . import indexcat as ic
from . import jsonio
from . import presheaves as ps
from . import ringedglue as rgl
from . import sheafglue as sg
from . import topglue as tg
from .errors import FalsificationError, UnsupportedFeature, ValidationError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_FALSIFIED = 3

DEFAULT_SEED = 20240
DEFAULT_SAMPLES = 25


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GLUE_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"GLUE_SEED must be an integer, got {env!r}") from None


def positive_int(text: str) -> int:
    """An integer of at least 1, for --samples."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _top_glue(data):
    try:
        functor = tg.functor_from_data(data)
    except ValidationError:
        return None
    return functor, tg.standard_representative(functor)


def _top_verify(functor, rep) -> dict:
    return tg.verify_glued(rep.space, rep.iota, functor)


def _top_sample(functor, rep, rng, samples) -> None:
    for _ in range(samples):
        _top_check_cone(functor, rep, gen.random_cone(rng, functor, rep))


def _top_check_cone(functor, rep, cone) -> None:
    """One sampled cone: its three cone characterizations must agree, and
    its mediating map must be continuous and unique.  On valid data a glued
    point that no chart leg pins (ValidationError) is a falsification."""
    tg.is_cone(cone.apex, cone.legs, functor)
    try:
        tg.mediating_morphism(cone, rep, functor)
    except ValidationError as exc:
        raise FalsificationError(f"sampled mediating morphism is not unique: {exc}") from None


def _top_artifacts(functor, rep) -> dict:
    return {
        "glued_space": ft.space_to_json(rep.space),
        "chart_images": {
            str(i): sorted(rep.iota[ic.single(i)].image_of(range(functor.objects[ic.single(i)].n)))
            for i in range(functor.n)
        },
    }


def _sheaf_glue(data):
    try:
        functor = sg.sheaf_functor_from_data(data)
    except ValidationError:
        return None
    return functor, sg.build_limit_sheaf(functor)


def _sheaf_verify(functor, lim) -> dict:
    sheaf_ok, cert = ps.is_sheaf(lim.carrier)
    if not sheaf_ok:
        raise FalsificationError(f"limit of sheaves is not a sheaf: {cert}")
    return {"limit_is_sheaf": True, **sg.verify_sheaf_glued(lim.carrier, lim.legs, functor, lim)}


def _sheaf_artifacts(functor, lim) -> dict:
    invariants = {v: ab.invariants(lim.carrier.group(v)) for v in lim.carrier.opens()}
    return {
        "section_invariants": {
            jsonio.open_key(v): list(torsion) + ["Z"] * free for v, (free, torsion) in invariants.items()
        }
    }


def _ringed_glue(g):
    return (g, rgl.glue_ringed(g)) if rgl.validate_ringed_functor(g)["ok"] else None


def _ringed_verify(g, glued) -> dict:
    return rgl.verify_ringed_glued(glued.space, glued.legs, g, glued)


def _ringed_artifacts(g, glued) -> dict:
    return {
        "glued_space": ft.space_to_json(glued.space.top),
        "section_orders": {
            jsonio.open_key(v): glued.space.ring(v).order
            for v in glued.space.top.sorted_opens
        },
    }


# The pipeline of each kind, as plain functions:
#   glue(data) validates the functor and builds its limit: (functor, limit),
#     or None when the data is invalid;
#   verify(functor, limit) checks the limit's cone: the conditions, with a
#     "verdict" that is a theorem on valid data, so false is a falsification;
#   sample(functor, limit, rng, samples) checks sampled cones (top only);
#   artifacts(functor, limit) gives the artifacts dict.
_PIPELINES = {
    "top": (_top_glue, _top_verify, _top_sample, _top_artifacts),
    "sheaf": (_sheaf_glue, _sheaf_verify, None, _sheaf_artifacts),
    "ringed": (_ringed_glue, _ringed_verify, None, _ringed_artifacts),
}


def run_pipeline(payload: dict, seed: int, samples: int = DEFAULT_SAMPLES) -> tuple[dict, dict]:
    """Construct the standard representative for the document's kind, run
    the matching verifier, and return (report, artifacts)."""
    t0 = time.perf_counter()
    glue, verify, sample, artifacts_of = _PIPELINES[payload["kind"]]
    glued = glue(payload["data"])
    conditions = {"data_valid": glued is not None}
    artifacts = {}
    if glued is not None:
        functor, limit = glued
        conditions.update(verify(functor, limit))
        if not conditions.pop("verdict"):
            raise FalsificationError(f"the {payload['kind']} limit failed its own verification: {conditions}")
        if sample is not None:
            sample(functor, limit, random.Random(seed), samples)
            conditions["universal_sampled"] = True
        artifacts = artifacts_of(functor, limit)
    report = {"conditions": conditions, "verdict": glued is not None, "kind": payload["kind"],
              "variant": payload.get("variant"), "seed": seed}
    artifacts["timings"] = {"total_seconds": time.perf_counter() - t0}
    return report, artifacts


def emit_report(report: dict, path: str | None) -> str:
    """Deterministic, sorted-key JSON; timings are emitted separately."""
    text = json.dumps(report, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _verify_one(path: str, args, out: str | None) -> int:
    report, artifacts = run_pipeline(jsonio.parse_document(_load(path), args.variant), _seed(args), args.samples)
    sys.stdout.write(emit_report(report, out))
    sys.stderr.write(f"timings: {json.dumps(artifacts['timings'], sort_keys=True)}\n")
    return EXIT_OK if report["verdict"] else EXIT_VERIFY_FAILED


def _cmd_verify(args) -> int:
    # resolved once, so a bad GLUE_SEED is one error before any document
    args.seed = _seed(args)
    if os.path.isdir(args.file):
        # batch mode: one document per file, worst exit code wins; --out
        # names a directory that gets each document's report under its name
        if args.out:
            os.makedirs(args.out, exist_ok=True)
        worst = EXIT_OK
        for name in sorted(os.listdir(args.file)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(args.file, name)
            try:
                code = _verify_one(path, args, args.out and os.path.join(args.out, name))
            except (UnsupportedFeature, ValidationError) as exc:
                sys.stderr.write(f"error: {path}: {exc}\n")
                code = EXIT_INVALID_INPUT
            sys.stdout.write(f"{name}: exit {code}\n")
            worst = max(worst, code)
        return worst
    return _verify_one(args.file, args, args.out)


def _cmd_build(args) -> int:
    report, artifacts = run_pipeline(jsonio.parse_document(_load(args.file), args.variant), _seed(args), args.samples)
    os.makedirs(args.out, exist_ok=True)
    emit_report(report, os.path.join(args.out, "report.json"))
    timings = artifacts.pop("timings")
    with open(os.path.join(args.out, "artifacts.json"), "w", encoding="utf-8") as fh:
        json.dump(artifacts, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(args.out, "timings.json"), "w", encoding="utf-8") as fh:
        json.dump(timings, fh, sort_keys=True)
        fh.write("\n")
    if "glued_space" in artifacts:
        space = ft.space_from_json(artifacts["glued_space"])
        with open(os.path.join(args.out, "glued_space.dot"), "w", encoding="utf-8") as fh:
            fh.write(ft.specialization_dot(space, "glued") + "\n")
    sys.stdout.write(f"wrote {args.out}\n")
    return EXIT_OK if report["verdict"] else EXIT_VERIFY_FAILED


def _cmd_index(args) -> int:
    cat = ic.enumerate_category(args.n)
    sys.stdout.write(
        f"n={args.n}: {len(cat.objects)} objects, {cat.morphism_count()} morphisms\n"
    )
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(ic.category_dot(cat) + "\n")
        sys.stdout.write(f"wrote {args.dot}\n")
    return EXIT_OK


def _cmd_report(args) -> int:
    doc = _load(getattr(args, "in"))
    if args.format == "json":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        if not isinstance(doc, dict) or "glued_space" not in doc:
            raise ValidationError("artifact file has no glued_space to draw")
        space = jsonio.parse_space(doc["glued_space"], "/glued_space")
        text = ft.specialization_dot(space, "glued") + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="glue", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    variant_choices = ("top", "otop", "rts", "lrts", "sch")

    p_verify = sub.add_parser("verify", help="verify a gluing document")
    p_verify.add_argument("file")
    p_verify.add_argument("--out", default=None, help="write the report JSON here (a directory in batch mode)")
    p_verify.set_defaults(func=_cmd_verify)

    p_build = sub.add_parser("build", help="verify and write artifacts")
    p_build.add_argument("file")
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=_cmd_build)

    for p in (p_verify, p_build):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=positive_int, default=DEFAULT_SAMPLES)
        p.add_argument("--variant", choices=variant_choices, default=None,
                       help="override the document's variant")

    p_index = sub.add_parser("index", help="census of the gluing index category")
    p_index.add_argument("--n", type=int, required=True)
    p_index.add_argument("--dot", default=None)
    p_index.set_defaults(func=_cmd_index)

    p_report = sub.add_parser("report", help="re-emit a saved artifact file")
    p_report.add_argument("--in", required=True)
    p_report.add_argument("--format", choices=("json", "dot"), default="json")
    p_report.add_argument("--out", default=None)
    p_report.set_defaults(func=_cmd_report)
    return parser


# built on the first main call and kept: argparse's formatters and sections
# form reference cycles, so one parser per call leaves garbage that only the
# cyclic collector frees; not an lru_cache, which cache sweeps would empty
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnsupportedFeature, ValidationError, OSError) as exc:
        # OSError: an output path that cannot be written
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID_INPUT
    except FalsificationError as exc:
        sys.stderr.write(f"FALSIFICATION: {exc}\n")
        return EXIT_FALSIFIED


if __name__ == "__main__":
    sys.exit(main())
