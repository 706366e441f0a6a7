"""Corpus 0 of each benchmark workload is byte-identical to the pinned one.

The benchmark builds its corpora with ``perfbench/corpus.py`` from the
generators in ``gluekit.generators``, so a change to a generator that
moves one ``rng`` draw, or changes one document byte, changes what every
benchmark run verifies.  This loads ``corpus.py`` read-only, the way
``test_perfbench_contract.py`` loads ``tracing.py``, builds corpus 0 of
each workload at seed 7, and compares a SHA-256 of the file names, the
file bytes, the expected exit codes and ``glue_seed`` with the digest
pinned below.  A generator change that is meant to change the corpora
re-pins the digests and says so.

    PYTHONPATH=src:tests python3 tests/test_corpus_digests.py [ROUNDS] [SEED ...]

prints the digest of rounds 0..ROUNDS-1 (default 6) of every workload at
each seed (default 7 and 11), for comparing two checkouts.
"""

import hashlib
import importlib.util
import os
import sys
from unittest import mock

import pytest

from test_perfbench_contract import ROOT, load_tracing

SEED = 7

PINNED = {
    "ringed_zmod": "fd0e98f37945e104da983520e260d719aa91e8866d31f91c839ee6a97db4c4fb",
    "sheaf_rank3": "aad40275dcc3e9b3063b4b6c399a2512e90aacfbe7f02610a5472a9a04f30da3",
    "top_chain": "5acfd601ec3a067be68f567de464ea685d3574fa1d83b991bf72a68c17811096",
    "top_cones": "98ff038a98b19753ebaac4fd86b6634d1a455f479b35de12034531b003094e1c",
}


def load_corpus_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", os.path.join(ROOT, "perfbench", "corpus.py")
    )
    module = importlib.util.module_from_spec(spec)
    # corpus.py imports its sibling as ``tracing``, and its dataclasses look
    # their module up while the class bodies run
    with mock.patch.dict(sys.modules, {"tracing": load_tracing(), spec.name: module}):
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def corpus_module():
    return load_corpus_module()


def corpus_digest(corpus) -> str:
    h = hashlib.sha256()
    for name in sorted(corpus.expected):
        with open(os.path.join(corpus.directory, name), "rb") as fh:
            body = fh.read()
        h.update(b"%s\0%d\0%s\0" % (name.encode(), corpus.expected[name], body))
    h.update(b"glue_seed %d" % corpus.glue_seed)
    return h.hexdigest()


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_corpus_zero_is_byte_identical(corpus_module, tmp_path, workload):
    corpus = corpus_module.build_corpus(workload, SEED, 0, str(tmp_path / workload))
    assert corpus_digest(corpus) == PINNED[workload]


if __name__ == "__main__":
    import tempfile

    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    seeds = [int(s) for s in sys.argv[2:]] or [7, 11]
    corpus = load_corpus_module()
    with tempfile.TemporaryDirectory() as tmp:
        for workload in corpus.WORKLOADS:
            for seed in seeds:
                h = hashlib.sha256()
                for r in range(rounds):
                    built = corpus.build_corpus(workload, seed, r, os.path.join(tmp, f"{workload}-{seed}-{r}"))
                    h.update(corpus_digest(built).encode())
                print(f"{workload} seed {seed} rounds 0-{rounds - 1}: {h.hexdigest()}")
