"""The memoizing caches are bounded, so a long batch run keeps flat memory.

Each cache is an ``lru_cache`` with a fixed finite ``maxsize``; feeding it
more distinct arguments than that evicts instead of growing.
"""

from gluekit import abgroups as ab
from gluekit import generators as gen
from gluekit import indexcat as ic
from gluekit import intlinalg as il
from gluekit import presheaves as ps
from gluekit import rings as rg

# cached function, and the k-th of its distinct argument tuples
CACHES = [
    (il.snf, lambda k: (((k,),),)),
    (ic.generator_path, lambda k: (k + 1, ic.single(0), ic.single(0))),
    (ic.index_category, lambda k: (k + 1,)),
    (ic.single, lambda k: (k,)),
    (ic.pair, lambda k: (k, k + 1)),
    (ic.triple, lambda k: (k, k + 1, k + 2)),
    (rg.zmod, lambda k: (k + 1,)),
    (gen.power_ring, lambda k: (rg.zmod(1), k)),
    (gen.component_restriction, lambda k: (rg.zmod(1), k, ())),
    (ps.power_projections, lambda k: (ab.free_group(k), 0)),
]


def test_interned_objects_are_shared_and_survive_eviction():
    """single, pair and triple return one object per key; after the caches
    drop it, the object built again is equal and hashes alike, so a table
    keyed by the old one still finds it."""
    keys = (ic.single(2), ic.pair(2, 0), ic.triple(2, 0, 1))
    assert keys == (ic.single(2), ic.pair(2, 0), ic.triple(2, 0, 1))
    assert all(a is b for a, b in zip(keys, (ic.single(2), ic.pair(2, 0), ic.triple(2, 0, 1))))
    table = dict.fromkeys(keys, "found")
    for cached in (ic.single, ic.pair, ic.triple):
        cached.cache_clear()
    again = (ic.single(2), ic.pair(2, 0), ic.triple(2, 1, 0))
    assert all(a is not b for a, b in zip(keys, again))
    assert [table[a] for a in again] == ["found"] * 3


def test_caches_stay_within_a_finite_bound():
    for cached, arguments in CACHES:
        bound = cached.cache_info().maxsize
        assert bound is not None and bound > 0, cached
        cached.cache_clear()
        for k in range(bound + 10):
            cached(*arguments(k))
        info = cached.cache_info()
        assert info.misses == bound + 10 and info.currsize <= bound, (cached, info)
        cached.cache_clear()
