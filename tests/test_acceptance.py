"""Acceptance gate: one test per criterion, each printing a PASS line with
its elapsed time (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is exact; timing bounds are asserted, and the random
sweeps run on fixed seeds so failures are reproducible.
"""

import json
import random
import time

from test_fintop import sierpinski
from test_indexcat import oracle_hom_pairs, oracle_objects, support
from test_intlinalg import is_unimodular
from test_presheaves import inverse_enriched

from gluekit import abgroups as ab
from gluekit import cli
from gluekit import fintop as ft
from gluekit import generators as gen
from gluekit import indexcat as ic
from gluekit import intlinalg as il
from gluekit import jsonio
from gluekit import presheaves as ps
from gluekit import rings as rg
from gluekit import ringedglue as rgl
from gluekit import sheafglue as sg
from gluekit import topglue as tg
from gluekit.indexcat import single


def _report(num, label, t0, bound):
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion {num}: {label} ({elapsed:.2f}s < {bound}s)")
    assert elapsed < bound, f"criterion {num} exceeded {bound}s ({elapsed:.2f}s)"


def test_criterion_01_index_category_census():
    t0 = time.perf_counter()
    cat1 = ic.enumerate_category(1)
    assert (len(cat1.objects), cat1.morphism_count()) == (1, 1)
    cat2 = ic.enumerate_category(2)
    assert (len(cat2.objects), cat2.morphism_count()) == (4, 10)
    assert cat2.morphism_count() == len(oracle_hom_pairs(2))
    cat3 = ic.enumerate_category(3)
    assert len(cat3.objects) == 12 == len(oracle_objects(3))
    _report(1, "index category census (1,1)/(4,10)/12", t0, 1.0)


def test_criterion_02_hom_existence_formula():
    t0 = time.perf_counter()
    for n in (1, 2, 3, 4):
        cat = ic.enumerate_category(n)
        oracle = oracle_hom_pairs(n)
        assert cat.morphism_count() == len(oracle)
        for a in cat.objects:
            for b in cat.objects:
                assert ((a, b) in cat.paths) == (support(a) <= support(b))
    _report(2, "hom existence = support inclusion, n <= 4", t0, 5.0)


def test_criterion_03_two_origins_instance():
    t0 = time.perf_counter()
    pt = ft.point_space()
    s = sierpinski()
    ups = {(0, 1): ft.make_map(pt, s, [0]), (1, 0): ft.make_map(pt, s, [0])}
    trans = {(0, 1): ft.identity_map(pt), (1, 0): ft.identity_map(pt)}
    g = tg.functor_from_data(tg.TopGluingData((s, s), ups, trans, {}, {}, {}, True))
    rep = tg.standard_representative(g)
    assert rep.space.n == 3
    assert len(rep.space.opens) == 5
    report = tg.verify_glued(rep.space, rep.iota, g)
    assert all(report[c] for c in "abcde")
    assert report["final_topology"] and report["overlap_law"]
    assert report["verdict"]
    _report(3, "two-origins: 3 points, 5 opens, all conditions", t0, 1.0)


def test_criterion_04_roundtrip_laws():
    t0 = time.perf_counter()
    rng = random.Random(104)
    for _ in range(200):
        g = gen.random_top_functor(rng)
        d = tg.data_from_functor(g)
        g2 = tg.functor_from_data(d)
        assert g2.objects == g.objects and g2.arrows == g.arrows
        d2 = tg.data_from_functor(g2)
        assert (
            d2.spaces == d.spaces
            and d2.overlaps == d.overlaps
            and d2.transitions == d.transitions
            and d2.triple_spaces == d.triple_spaces
            and d2.triple_projs == d.triple_projs
            and d2.triple_transitions == d.triple_transitions
            and d2.open_variant == d.open_variant
        )
    for _ in range(200):
        base, cover, charts, transitions, _ = gen.random_sheaf_data(rng)
        data = sg.SheafGluingData(base, tuple(cover), charts, transitions)
        assert sg.sheaf_functor_from_data(data) is data
    _report(4, "200 top data/functor round trips + 200 sheaf data validated", t0, 30.0)


def test_criterion_05_universal_property():
    t0 = time.perf_counter()
    rng = random.Random(105)
    for _ in range(100):
        g = gen.random_top_functor(rng, max_charts=3, max_points=5)
        rep = tg.standard_representative(g)
        for _ in range(100):
            cone = gen.random_cone(rng, g, rep)
            mu = tg.mediating_morphism(cone, rep, g)
            for i in range(g.n):
                assert ft.compose(mu, rep.iota[single(i)]) == cone.legs[single(i)]
            assert ft.is_continuous(mu)
            assert tg.count_mediating_functions(cone, rep, g) == 1
    _report(5, "mediating morphism exists, commutes, unique (100 x 100)", t0, 120.0)


def test_criterion_06_cone_lemma_agreement():
    t0 = time.perf_counter()
    rng = random.Random(106)
    total = 0
    while total < 1000:
        g = gen.random_top_functor(rng)
        rep = tg.standard_representative(g)
        for _ in range(5):
            cone = gen.random_cone(rng, g, rep)
            a, b, c = tg.is_cone(cone.apex, cone.legs, g)
            assert a == b == c
            bad = gen.corrupt_cone_legs(rng, g, cone)
            a, b, c = tg.is_cone(bad.apex, bad.legs, g)
            assert a == b == c
            total += 2
    _report(6, "three cone characterizations agree on 1000 leg families", t0, 30.0)


def test_criterion_07_sheaf_limit():
    t0 = time.perf_counter()
    rng = random.Random(107)
    for _ in range(20):
        base, cover, charts, transitions, base_group = gen.random_sheaf_data(
            rng, max_points=4, max_charts=3, max_rank=1
        )
        data = sg.SheafGluingData(base, tuple(cover), charts, transitions)
        functor = sg.sheaf_functor_from_data(data)
        lim = sg.build_limit_sheaf(functor)
        ok, cert = ps.is_sheaf(lim.carrier)
        assert ok, cert
        for i in range(functor.n):
            nat_ok, failures = ps.check_enriched_morphism(lim.legs[single(i)])
            assert nat_ok, failures
        assert sg.verify_sheaf_glued(lim.carrier, lim.legs, functor, lim)["verdict"]
        # a natural-isomorphism twist still verifies
        twist = gen.natural_automorphism(rng, lim.carrier, ab.free_group(1))
        if all(h.dom.ambient for h in twist.alpha.values() if h.dom.ambient):
            twisted = ps.Presheaf(
                lim.carrier.space,
                lim.carrier.domain,
                dict(lim.carrier.sections),
                {
                    (u, v): ab.compose_hom(
                        twist.alpha[v],
                        ab.compose_hom(
                            lim.carrier.res(u, v), ab.inverse_hom(twist.alpha[u])
                        ),
                    )
                    for u in lim.carrier.opens()
                    for v in lim.carrier.opens()
                    if v <= u
                },
            )
            inv = inverse_enriched(twist)
            twisted_legs = {
                a: ps.EnrichedMorphism(
                    twisted,
                    leg.cod,
                    {o: ab.compose_hom(leg.alpha[o], inv.alpha[o]) for o in twisted.opens()},
                )
                for a, leg in lim.legs.items()
            }
            assert sg.verify_sheaf_glued(twisted, twisted_legs, functor, lim)["verdict"]
        # a single zeroed projection component must fail
        target = base.full()
        if lim.legs[single(0)].alpha[target].cod.ambient:
            broken = dict(lim.legs)
            leg0 = broken[single(0)]
            alpha = dict(leg0.alpha)
            alpha[target] = ab.zero_hom(alpha[target].dom, alpha[target].cod)
            broken[single(0)] = ps.EnrichedMorphism(leg0.dom, leg0.cod, alpha)
            assert not sg.verify_sheaf_glued(lim.carrier, broken, functor, lim)["verdict"]
    _report(7, "limit sheaf laws on generated covers", t0, 120.0)


def test_criterion_08_snf_suite():
    t0 = time.perf_counter()
    rng = random.Random(108)
    for _ in range(500):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = il.freeze([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        u, s, v = il.snf(a)
        assert il.mat_mul(il.mat_mul(u, a), v) == s
        assert is_unimodular(u) and is_unimodular(v)
        diag = [s[i][i] for i in range(min(m, n))]
        assert all(d >= 0 for d in diag)
        for i in range(len(diag) - 1):
            assert (diag[i] == 0 and diag[i + 1] == 0) or (
                diag[i] != 0 and diag[i + 1] % diag[i] == 0
            )
    _, s, _ = il.snf(il.freeze([[2, 0], [0, 3]]))
    assert (s[0][0], s[1][1]) == (1, 6)
    _report(8, "Smith form contract on 500 random matrices", t0, 10.0)


def test_criterion_09_stalk_lemma_and_locality():
    t0 = time.perf_counter()
    assert rg.is_local_ring(rg.zmod(4))
    assert not rg.is_local_ring(rg.zmod(6))
    rng = random.Random(109)
    for k in range(12):
        variant = "lrts" if k % 2 == 0 else "rts"
        g = gen.random_ringed_functor(rng, variant)
        glued = rgl.glue_ringed(g)  # executed stalk checks run inside
        for i in range(g.n):
            for x in range(g.charts[i].top.n):
                smap = rgl.stalk_hom(glued.legs[i], x)
                assert rg.is_ring_iso(smap)
        if variant == "lrts":
            for x in range(glued.space.top.n):
                assert rg.is_local_ring(rgl.stalk_at(glued.space, x).ring)
        assert rgl.verify_ringed_glued(glued.space, glued.legs, g, glued)["verdict"]
    _report(9, "stalk isomorphisms, locality, lrts closure", t0, 60.0)


def test_criterion_10_falsification_channel_never_fires(tmp_path, capsys):
    t0 = time.perf_counter()
    rng = random.Random(110)
    docs = []
    for _ in range(10):
        g = gen.random_top_functor(rng)
        docs.append(jsonio.top_data_to_document(tg.data_from_functor(g)))
    for _ in range(8):
        base, cover, charts, transitions, _ = gen.random_sheaf_data(rng)
        data = sg.SheafGluingData(base, tuple(cover), charts, transitions)
        docs.append(jsonio.sheaf_data_to_document(data))
    for k in range(6):
        g = gen.random_ringed_functor(rng, "lrts" if k % 2 else "rts")
        docs.append(jsonio.ringed_functor_to_document(g))
    exit_codes = []
    for k, doc in enumerate(docs):
        path = tmp_path / f"doc{k}.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["verify", str(path), "--samples", "5"])
        capsys.readouterr()
        exit_codes.append(code)
    assert all(code == 0 for code in exit_codes), exit_codes
    assert 3 not in exit_codes
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion 10: exit code 3 never fired on {len(docs)} documents ({elapsed:.2f}s)")
