"""The memoizing caches are bounded, so a long batch run keeps flat memory.

Each cache is an ``lru_cache`` with a fixed finite ``maxsize``; feeding it
more distinct arguments than that evicts instead of growing.
"""

from gluekit import indexcat as ic
from gluekit import intlinalg as il

# cached function, and the k-th of its distinct argument tuples
CACHES = [
    (il.snf, lambda k: (((k,),),)),
    (ic.generator_path, lambda k: (k + 1, ic.single(0), ic.single(0))),
    (ic.index_category, lambda k: (k + 1,)),
]


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
