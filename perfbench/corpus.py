"""Seeded document corpora for the `glue verify` benchmark.

A workload is an endless stream of corpora.  Corpus ``r`` of a workload is
built from a ``random.Random`` seeded with the workload name, the workload
seed and ``r`` alone, so one seed always yields the same documents.  Each
document carries the exit code ``glue verify`` must give.

The cost of a document grows steeply with its shape (points, opens,
section ring orders), and the generators draw the rare large shapes with
probabilities under one percent.  A corpus therefore holds a fixed number
of documents of each shape class: one of the heaviest class, and the rest
in proportion to the class counts measured over seeded generator draws
(below).  Documents are drawn from the generator until every class has its
quota; a draw in no class, above the heaviest, is dropped.  Otherwise the
number of rare large documents in a run, not the code, would set its
throughput.

    PYTHONPATH=src python3 perfbench/corpus.py 20000    # re-measure the class counts
"""

from __future__ import annotations

import collections
import json
import math
import os
import random
import sys
from dataclasses import dataclass

from gluekit import fintop as ft
from gluekit import generators as gen
from gluekit import jsonio
from gluekit import ringedglue as rgl
from gluekit import sheafglue as sg
from gluekit import topglue as tg

import tracing

# n-point chains for top_chain: an odd number of rungs, each equally often
# in a corpus, so the median falls inside the middle rung and the p90
# inside the top rung rather than on the edge between two rungs.
CHAIN_LADDER = (9, 10, 11, 12, 13)

# Class counts over 20000 draws of each generator from
# random.Random("classes/<name>"), as ``class_counts(20000)`` prints them.
# The last class of each table is the heaviest; draws above it are dropped.

# top_cones: (points of the glued space, charts), both uniform in the
# generator, so every class gets the same quota.
TOP_SHAPES = {(points, charts): 1 for points in range(1, 6) for charts in range(1, 4)}

# sheaf_rank3: opens of the base space, bucketed by lower bound (the
# generator's spaces have at most 24 opens), and within each bucket
# (charts, rank), the generator's two uniform choices, filled from the
# middle class (2, 2) outwards.
SHEAF_SHAPES = {2: 8378, 3: 4449, 4: 3040, 6: 2119, 9: 1201, 13: 510, 18: 226, 21: 77}
SHEAF_CHART_RANKS = ((2, 2), (1, 2), (2, 1), (3, 2), (2, 3), (1, 1), (3, 3), (1, 3), (3, 1))

# ringed_zmod: glued section tuples to enumerate (the ringedglue.glue_ringed
# combos count), in half-decades int(2 * log10), per variant.  Dropped
# above the table: lrts 98 draws (up to 24,897 tuples), rts 53 draws (up to
# 374,545 tuples).
RINGED_SHAPES = {
    "lrts": {0: 1035, 1: 6332, 2: 6288, 3: 3882, 4: 1609, 5: 520, 6: 236},
    "rts": {0: 1015, 1: 5786, 2: 3890, 3: 4619, 4: 2577, 5: 1259, 6: 512, 7: 189, 8: 100},
}


@dataclass(frozen=True)
class Workload:
    name: str
    params: str
    docs: int  # documents per corpus


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "top_cones",
            "random_top_functor(max_charts=3, max_points=5); every tenth document corrupted "
            "by corrupt_top_functor; the rest in equal quotas of (glued points, charts)",
            16,
        ),
        Workload(
            "top_chain",
            f"cover_functor(chain(n), [full, prefix(k)]), n cycling over {CHAIN_LADDER}, "
            "k uniform in 1..n-1",
            5,
        ),
        Workload(
            "sheaf_rank3",
            "random_sheaf_data(max_points=5, max_charts=3, max_rank=3); "
            "one document of the heaviest base-space opens bucket, the rest in proportion to "
            f"the measured bucket counts {SHEAF_SHAPES}, split evenly over (charts, rank)",
            100,
        ),
        Workload(
            "ringed_zmod",
            "random_ringed_functor(max_points=5), variant lrts for even k and rts for odd k; "
            "per variant, one document of the heaviest half-decade of glued section tuples, "
            f"the rest in proportion to the measured counts {RINGED_SHAPES}",
            200,
        ),
    )
}


@dataclass
class Corpus:
    directory: str
    expected: dict[str, int]  # file name -> exit code glue verify must give
    corrupted: int
    glue_seed: int


def scaled_quotas(weights: dict, docs: int) -> dict:
    """Split ``docs`` over the classes in proportion to ``weights``, by
    largest remainder (ties to the earlier class)."""
    total = sum(weights.values())
    exact = {c: docs * w / total for c, w in weights.items()}
    quotas = {c: math.floor(x) for c, x in exact.items()}
    by_remainder = sorted(weights, key=lambda c: quotas[c] - exact[c])
    for c in by_remainder[: docs - sum(quotas.values())]:
        quotas[c] += 1
    return quotas


def class_quotas(counts: dict, docs: int) -> dict:
    """One document of the heaviest (last) class, and ``docs - 1`` split
    over the other classes in proportion to their measured counts."""
    *rest, heaviest = counts
    return {**scaled_quotas({c: counts[c] for c in rest}, docs - 1), heaviest: 1}


def _draw(rng: random.Random, left: dict, make, shape):
    """Draw instances until one falls in a class with quota left."""
    while True:
        instance = make(rng)
        key = shape(instance)
        if left.get(key):
            left[key] -= 1
            return instance


def _bucket(value: int, bounds) -> int:
    return max(b for b in bounds if b <= value)


def _chain(n: int) -> ft.FinSpace:
    return ft.make_space(n, [range(m) for m in range(n + 1)])


def _top_cones(rng: random.Random, docs: int):
    """Every tenth document is corrupted; functors are drawn until
    corrupt_top_functor returns one, since it returns None for instances
    with no breakable field."""
    left = class_quotas(TOP_SHAPES, docs - docs // 10)

    def make(r):
        return gen.random_top_functor(r, max_charts=3, max_points=5)

    for k in range(docs):
        if k % 10 == 9:
            broken = None
            while broken is None:
                broken = gen.corrupt_top_functor(rng, make(rng))
            yield jsonio.top_data_to_document(tg.data_from_functor(broken)), 1
        else:
            g = _draw(rng, left, make, lambda g: (tg.standard_representative(g).space.n, g.n))
            yield jsonio.top_data_to_document(tg.data_from_functor(g)), 0


def _top_chain(rng: random.Random, docs: int):
    for k in range(docs):
        n = CHAIN_LADDER[k % len(CHAIN_LADDER)]
        space = _chain(n)
        prefix = frozenset(range(rng.randint(1, n - 1)))
        g, _ = tg.cover_functor(space, [space.full(), prefix])
        yield jsonio.top_data_to_document(tg.data_from_functor(g)), 0


def _sheaf_quotas(docs: int) -> dict:
    quotas = {}
    for bucket, n in class_quotas(SHEAF_SHAPES, docs).items():
        within = scaled_quotas(dict.fromkeys(SHEAF_CHART_RANKS, 1), n)
        quotas.update({(bucket,) + shape: k for shape, k in within.items()})
    return quotas


def _sheaf_rank3(rng: random.Random, docs: int):
    """random_sheaf_data draws its base space, then its cover, then the rank
    of its group; a copy of the generator state replaying those three draws
    tells the shape class before the costly sheaf data is built.  A
    candidate whose class is full is skipped by advancing the state one
    step."""
    left = _sheaf_quotas(docs)
    while any(left.values()):
        probe = random.Random()
        probe.setstate(rng.getstate())
        space = gen.random_space(probe, 5, max_opens=24)
        charts = len(gen.random_open_cover(probe, space, 3))
        key = (_bucket(len(space.opens), SHEAF_SHAPES), charts, probe.randint(1, 3))
        if not left[key]:
            rng.random()
            continue
        base, cover, sheaves, transitions, group = gen.random_sheaf_data(
            rng, max_points=5, max_charts=3, max_rank=3
        )
        if (_bucket(len(base.opens), SHEAF_SHAPES), len(cover), group.ambient) != key:
            raise RuntimeError("random_sheaf_data no longer draws space, cover and rank first")
        left[key] -= 1
        data = sg.SheafGluingData(base, tuple(cover), sheaves, transitions)
        yield jsonio.sheaf_data_to_document(data), 0


def _ringed_class(g: rgl.RingedGluingFunctor) -> int:
    """Half-decade of the section tuples glue_ringed will try."""
    rep = tg.standard_representative(rgl.induced_top_functor(g))
    legs = {i: rep.iota[tg.single(i)] for i in range(g.n)}
    return int(2 * math.log10(sum(tracing.section_tuples(g, rep.space.opens, legs).values())))


def _ringed_zmod(rng: random.Random, docs: int):
    variants = ("lrts", "rts")
    left = {v: class_quotas(RINGED_SHAPES[v], (docs + 1 - i) // 2) for i, v in enumerate(variants)}
    for k in range(docs):
        variant = variants[k % 2]
        g = _draw(
            rng,
            left[variant],
            lambda r: gen.random_ringed_functor(r, variant, max_points=5),
            _ringed_class,
        )
        yield jsonio.ringed_functor_to_document(g), 0


_DOCUMENTS = {
    "top_cones": _top_cones,
    "top_chain": _top_chain,
    "sheaf_rank3": _sheaf_rank3,
    "ringed_zmod": _ringed_zmod,
}


def build_corpus(workload: str, seed: int, round_no: int, directory: str) -> Corpus:
    """Write corpus ``round_no`` of a workload into an empty ``directory``."""
    rng = random.Random(f"{workload}/{seed}/{round_no}")
    os.makedirs(directory)
    expected = {}
    for k, (doc, code) in enumerate(_DOCUMENTS[workload](rng, WORKLOADS[workload].docs)):
        name = f"doc{k:04d}.json"
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        expected[name] = code
    corrupted = sum(1 for code in expected.values() if code == 1)
    return Corpus(directory, expected, corrupted, rng.randrange(1 << 30))


def class_counts(draws: int) -> dict:
    """Shape class counts over ``draws`` draws of each generator, the
    measurement behind the quota tables above."""
    counts = {}
    rng = random.Random("classes/top")
    top = collections.Counter()
    for _ in range(draws):
        g = gen.random_top_functor(rng, max_charts=3, max_points=5)
        top[(tg.standard_representative(g).space.n, g.n)] += 1
    counts["top_cones"] = top
    # the first three draws of random_sheaf_data: base space, then cover
    # and rank, whose sizes are uniform
    rng = random.Random("classes/sheaf")
    sheaf = collections.Counter()
    for _ in range(draws):
        space = gen.random_space(rng, 5, max_opens=24)
        gen.random_open_cover(rng, space, 3)
        rng.randint(1, 3)
        sheaf[_bucket(len(space.opens), SHEAF_SHAPES)] += 1
    counts["sheaf_rank3"] = sheaf
    for variant in ("lrts", "rts"):
        rng = random.Random(f"classes/{variant}")
        counts[f"ringed_zmod/{variant}"] = collections.Counter(
            _ringed_class(gen.random_ringed_functor(rng, variant, max_points=5)) for _ in range(draws)
        )
    return counts


if __name__ == "__main__":
    for name, counter in class_counts(int(sys.argv[1])).items():
        print(name, dict(sorted(counter.items())))
