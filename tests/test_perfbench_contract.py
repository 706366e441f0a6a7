"""The names the benchmark tracer reads still exist in gluekit.

``perfbench/tracing.py`` wraps gluekit functions by name and reads the
``cache_info()`` of some of them.  This runs the tracer, unchanged, around
one batch verify of the fixtures, so a refactor that drops or renames
something it reads fails here instead of only in the slow benchmark
self-test.
"""

import importlib.util
import os

from gluekit import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reads_every_metric_on_the_fixtures(capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        code = cli.main(["verify", os.path.join(ROOT, "fixtures")])
    capsys.readouterr()
    assert code == 0
    assert set(tracer.metrics()) == set(tracing.per_layer_metrics()) - {"trace.overhead_frac"}
