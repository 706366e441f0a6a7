"""Gluing-document JSON codecs shared by the CLI and the test fixtures.

One document describes one gluing problem.  Spaces are referenced by id
from a table; opens are encoded as sorted point lists and open keys inside
section tables as comma-joined point strings (empty string for the empty
set).  Errors carry a JSON-pointer-style location.
"""

from __future__ import annotations

from itertools import combinations, permutations

from . import abgroups as ab
from . import fintop as ft
from . import presheaves as ps
from . import rings as rg
from . import ringedglue as rgl
from . import sheafglue as sg
from . import topglue as tg
from .errors import ValidationError
from .fintop import FinSpace

KINDS = ("top", "sheaf", "ringed")
VARIANTS = {"top": ("top", "otop"), "sheaf": (None,), "ringed": ("rts", "lrts", "sch")}


def _fail(pointer: str, message: str):
    raise ValidationError(f"{pointer}: {message}")


def open_key(o) -> str:
    return ",".join(str(p) for p in sorted(o))


def parse_open_key(key: str, pointer: str) -> frozenset[int]:
    if key == "":
        return frozenset()
    try:
        return frozenset(int(p) for p in key.split(","))
    except ValueError:
        _fail(pointer, f"bad open key {key!r}")


def _require(doc: dict, key: str, pointer: str):
    if key not in doc:
        _fail(pointer, f"missing key {key!r}")
    return doc[key]


def _space(doc, pointer) -> FinSpace:
    try:
        return ft.space_from_json(doc)
    except (ValidationError, KeyError, TypeError, ValueError) as exc:
        _fail(pointer, f"bad space: {exc}")


def parse_document(doc: dict) -> dict:
    """Schema-check a document and return a normalized payload dict with a
    'kind' key and constructed in-memory objects."""
    if not isinstance(doc, dict):
        _fail("/", "document must be a JSON object")
    kind = _require(doc, "kind", "/")
    if kind not in KINDS:
        _fail("/kind", f"unknown kind {kind!r}")
    variant = doc.get("variant")
    if variant not in VARIANTS[kind]:
        _fail("/variant", f"variant {variant!r} does not apply to {kind} documents")
    members = "cover" if kind == "sheaf" else "charts"
    if members in doc and not doc[members]:
        _fail(f"/{members}", "the index set must be non-empty")
    parse = {"top": _parse_top, "sheaf": _parse_sheaf, "ringed": _parse_ringed}[kind]
    try:
        data = parse(doc)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        # a value of the wrong JSON type somewhere below the top level
        _fail("/", f"malformed {kind} document: {type(exc).__name__}: {exc}")
    return {"kind": kind, "variant": variant, "data": data}


def _parse_top(doc) -> tg.TopGluingData:
    spaces = {}
    for sid, sdoc in _require(doc, "spaces", "/").items():
        spaces[sid] = _space(sdoc, f"/spaces/{sid}")
    chart_ids = _require(doc, "charts", "/")
    for k, cid in enumerate(chart_ids):
        if cid not in spaces:
            _fail(f"/charts/{k}", f"undefined space id {cid!r}")
    charts = tuple(spaces[cid] for cid in chart_ids)
    n = len(charts)

    def get_map(dom, cod, assign, pointer):
        try:
            return ft.make_map(dom, cod, assign)
        except ValidationError as exc:
            _fail(pointer, str(exc))

    overlaps = {}
    for i, j in permutations(range(n), 2):
        key = f"{i},{j}"
        entry = _require(doc, "overlaps", "/").get(key)
        if entry is None:
            _fail(f"/overlaps/{key}", "missing overlap")
        sid = _require(entry, "space", f"/overlaps/{key}")
        if sid not in spaces:
            _fail(f"/overlaps/{key}/space", f"undefined space id {sid!r}")
        overlaps[(i, j)] = get_map(
            spaces[sid], charts[i], _require(entry, "map", f"/overlaps/{key}"), f"/overlaps/{key}/map"
        )
    transitions = {}
    for i, j in permutations(range(n), 2):
        key = f"{i},{j}"
        assign = _require(doc, "transitions", "/").get(key)
        if assign is None:
            _fail(f"/transitions/{key}", "missing transition")
        transitions[(i, j)] = get_map(
            overlaps[(i, j)].dom, overlaps[(j, i)].dom, assign, f"/transitions/{key}"
        )
    triple_spaces = {}
    triple_projs = {}
    triple_transitions = {}
    triples_doc = doc.get("triples", {})
    for i in range(n):
        for j, k in combinations((x for x in range(n) if x != i), 2):
            key = f"{i}|{j},{k}"
            entry = triples_doc.get(key)
            if entry is None:
                _fail(f"/triples/{key}", "missing triple entry (required when n >= 3)")
            sid = _require(entry, "space", f"/triples/{key}")
            if sid not in spaces:
                _fail(f"/triples/{key}/space", f"undefined space id {sid!r}")
            sp = spaces[sid]
            triple_spaces[(i, frozenset({j, k}))] = sp
            projs = _require(entry, "proj", f"/triples/{key}")
            for via, other in ((j, k), (k, j)):
                assign = projs.get(str(via))
                if assign is None:
                    _fail(f"/triples/{key}/proj/{via}", "missing projection")
                triple_projs[(i, via, other)] = get_map(
                    sp, overlaps[(i, via)].dom, assign, f"/triples/{key}/proj/{via}"
                )
    tt_doc = doc.get("triple_transitions", {})
    for i, j, k in permutations(range(n), 3):
        key = f"{i},{j},{k}"
        assign = tt_doc.get(key)
        if assign is None:
            _fail(f"/triple_transitions/{key}", "missing triple transition")
        triple_transitions[(i, j, k)] = get_map(
            triple_spaces[(i, frozenset({j, k}))],
            triple_spaces[(j, frozenset({i, k}))],
            assign,
            f"/triple_transitions/{key}",
        )
    return tg.TopGluingData(
        charts, overlaps, transitions, triple_spaces, triple_projs, triple_transitions,
        open_variant=(doc.get("variant") == "otop"),
    )


def top_data_to_document(data: tg.TopGluingData) -> dict:
    spaces: dict[str, dict] = {}
    ids: dict[FinSpace, str] = {}

    def sid(space: FinSpace) -> str:
        if space not in ids:
            ids[space] = f"s{len(ids)}"
            spaces[ids[space]] = ft.space_to_json(space)
        return ids[space]

    n = data.n
    doc = {
        "kind": "top",
        "variant": "otop" if data.open_variant else "top",
        "charts": [sid(s) for s in data.spaces],
        "overlaps": {},
        "transitions": {},
        "triples": {},
        "triple_transitions": {},
        "spaces": spaces,
    }
    for (i, j), m in sorted(data.overlaps.items()):
        doc["overlaps"][f"{i},{j}"] = {"space": sid(m.dom), "map": list(m.assign)}
    for (i, j), m in sorted(data.transitions.items()):
        doc["transitions"][f"{i},{j}"] = list(m.assign)
    for (i, rest), sp in sorted(data.triple_spaces.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))):
        j, k = sorted(rest)
        doc["triples"][f"{i}|{j},{k}"] = {
            "space": sid(sp),
            "proj": {
                str(j): list(data.triple_projs[(i, j, k)].assign),
                str(k): list(data.triple_projs[(i, k, j)].assign),
            },
        }
    for (i, j, k), m in sorted(data.triple_transitions.items()):
        doc["triple_transitions"][f"{i},{j},{k}"] = list(m.assign)
    return doc


def _parse_sheaf(doc) -> sg.SheafGluingData:
    base = _space(_require(doc, "space", "/"), "/space")
    cover = []
    for k, pts in enumerate(_require(doc, "cover", "/")):
        o = frozenset(int(p) for p in pts)
        if o not in base.opens:
            _fail(f"/cover/{k}", "cover member is not open in the base")
        cover.append(o)
    sheaves = []
    for i, sh_doc in enumerate(_require(doc, "sheaves", "/")):
        sections = {}
        for key, gdoc in _require(sh_doc, "sections", f"/sheaves/{i}").items():
            o = parse_open_key(key, f"/sheaves/{i}/sections/{key}")
            try:
                sections[o] = ab.group_from_json(gdoc)
            except (ValidationError, KeyError, TypeError) as exc:
                _fail(f"/sheaves/{i}/sections/{key}", str(exc))
        restrictions = {}
        for key, mat in _require(sh_doc, "restrictions", f"/sheaves/{i}").items():
            if ">" not in key:
                _fail(f"/sheaves/{i}/restrictions/{key}", "key must look like 'U>V'")
            ukey, vkey = key.split(">", 1)
            u = parse_open_key(ukey, f"/sheaves/{i}/restrictions/{key}")
            v = parse_open_key(vkey, f"/sheaves/{i}/restrictions/{key}")
            if u not in sections or v not in sections:
                _fail(f"/sheaves/{i}/restrictions/{key}", "restriction references an unknown open")
            try:
                restrictions[(u, v)] = ab.make_hom(sections[u], sections[v], mat)
            except ValidationError as exc:
                _fail(f"/sheaves/{i}/restrictions/{key}", str(exc))
        try:
            sheaves.append(ps.make_presheaf(base, cover[i], sections, restrictions))
        except ValidationError as exc:
            _fail(f"/sheaves/{i}", str(exc))
        except IndexError:
            _fail(f"/sheaves/{i}", "more sheaves than cover members")
    if len(sheaves) != len(cover):
        _fail("/sheaves", "one sheaf per cover member required")
    transitions = {}
    tr_doc = _require(doc, "transitions", "/")
    for i, j in permutations(range(len(cover)), 2):
        key = f"{i},{j}"
        comp_doc = tr_doc.get(key)
        if comp_doc is None:
            _fail(f"/transitions/{key}", "missing transition")
        overlap = cover[i] & cover[j]
        dom = ps.restrict_presheaf(sheaves[i], overlap)
        cod = ps.restrict_presheaf(sheaves[j], overlap)
        comps = {}
        for okey, mat in comp_doc.items():
            o = parse_open_key(okey, f"/transitions/{key}/{okey}")
            try:
                comps[o] = ab.make_hom(dom.group(o), cod.group(o), mat)
            except (ValidationError, KeyError) as exc:
                _fail(f"/transitions/{key}/{okey}", str(exc))
        missing = [o for o in dom.opens() if o not in comps]
        if missing:
            _fail(f"/transitions/{key}", f"missing component at {sorted(missing[0])}")
        transitions[(i, j)] = ps.EnrichedMorphism(dom, cod, comps)
    return sg.SheafGluingData(base, tuple(cover), tuple(sheaves), transitions)


def sheaf_data_to_document(data: sg.SheafGluingData) -> dict:
    doc = {
        "kind": "sheaf",
        "space": ft.space_to_json(data.base),
        "cover": [sorted(c) for c in data.cover],
        "sheaves": [],
        "transitions": {},
    }
    for f in data.sheaves:
        sh_doc = {"sections": {}, "restrictions": {}}
        for o in f.opens():
            sh_doc["sections"][open_key(o)] = ab.group_to_json(f.group(o))
        for (u, v), h in sorted(f.restrictions.items(), key=lambda kv: (open_key(kv[0][0]), open_key(kv[0][1]))):
            sh_doc["restrictions"][f"{open_key(u)}>{open_key(v)}"] = [list(r) for r in h.matrix]
        doc["sheaves"].append(sh_doc)
    for (i, j), iso in sorted(data.transitions.items()):
        doc["transitions"][f"{i},{j}"] = {
            open_key(o): [list(r) for r in h.matrix] for o, h in sorted(iso.alpha.items(), key=lambda kv: open_key(kv[0]))
        }
    return doc


def _parse_ringed(doc) -> rgl.RingedGluingFunctor:
    rings = {}
    for rid, rdoc in _require(doc, "rings", "/").items():
        try:
            rings[rid] = rg.ring_from_json(rdoc)
        except (ValidationError, KeyError, TypeError, ValueError) as exc:
            _fail(f"/rings/{rid}", str(exc))
    charts = []
    for i, ch in enumerate(_require(doc, "charts", "/")):
        top = _space(_require(ch, "space", f"/charts/{i}"), f"/charts/{i}/space")
        sections = {}
        for key, rid in _require(ch, "sections", f"/charts/{i}").items():
            if rid not in rings:
                _fail(f"/charts/{i}/sections/{key}", f"undefined ring id {rid!r}")
            sections[parse_open_key(key, f"/charts/{i}/sections/{key}")] = rings[rid]
        restr = {}
        for key, assign in _require(ch, "restrictions", f"/charts/{i}").items():
            if ">" not in key:
                _fail(f"/charts/{i}/restrictions/{key}", "key must look like 'U>V'")
            ukey, vkey = key.split(">", 1)
            u = parse_open_key(ukey, f"/charts/{i}/restrictions/{key}")
            v = parse_open_key(vkey, f"/charts/{i}/restrictions/{key}")
            if u not in sections or v not in sections:
                _fail(f"/charts/{i}/restrictions/{key}", "unknown open")
            try:
                restr[(u, v)] = rg.make_ring_hom(sections[u], sections[v], assign)
            except ValidationError as exc:
                _fail(f"/charts/{i}/restrictions/{key}", str(exc))
        try:
            charts.append(rgl.make_ringed_space(top, sections, restr))
        except ValidationError as exc:
            _fail(f"/charts/{i}", str(exc))
    n = len(charts)
    overlaps = {}
    for i, j in permutations(range(n), 2):
        key = f"{i},{j}"
        pts = _require(doc, "overlaps", "/").get(key)
        if pts is None:
            _fail(f"/overlaps/{key}", "missing overlap")
        o = frozenset(int(p) for p in pts)
        if o not in charts[i].top.opens:
            _fail(f"/overlaps/{key}", "overlap is not open in its chart")
        overlaps[(i, j)] = o
    trans_top = {}
    transports = {}
    for i, j in permutations(range(n), 2):
        key = f"{i},{j}"
        entry = _require(doc, "transitions", "/").get(key)
        if entry is None:
            _fail(f"/transitions/{key}", "missing transition")
        pairs = _require(entry, "top", f"/transitions/{key}")
        tmap = {int(p): int(q) for p, q in pairs}
        if set(tmap) != set(overlaps[(i, j)]):
            _fail(f"/transitions/{key}/top", "transition domain must be the overlap")
        trans_top[(i, j)] = tmap
        comp = {}
        for okey, assign in _require(entry, "sections", f"/transitions/{key}").items():
            w = parse_open_key(okey, f"/transitions/{key}/sections/{okey}")
            img = frozenset(tmap[p] for p in w)
            try:
                comp[w] = rg.make_ring_hom(charts[i].ring(w), charts[j].ring(img), assign)
            except (ValidationError, KeyError) as exc:
                _fail(f"/transitions/{key}/sections/{okey}", str(exc))
        transports[(i, j)] = comp
    variant = doc.get("variant", "rts")
    return rgl.RingedGluingFunctor(variant, tuple(charts), overlaps, trans_top, transports)


def ringed_functor_to_document(g: rgl.RingedGluingFunctor) -> dict:
    ring_ids: dict[rg.FinCommRing, str] = {}
    rings: dict[str, dict] = {}

    def rid(ring: rg.FinCommRing) -> str:
        if ring not in ring_ids:
            ring_ids[ring] = f"r{len(ring_ids)}"
            rings[ring_ids[ring]] = rg.ring_to_json(ring)
        return ring_ids[ring]

    doc = {"kind": "ringed", "variant": g.variant, "rings": rings, "charts": [],
           "overlaps": {}, "transitions": {}}
    for chart in g.charts:
        ch = {"space": ft.space_to_json(chart.top), "sections": {}, "restrictions": {}}
        for o in chart.top.sorted_opens:
            ch["sections"][open_key(o)] = rid(chart.ring(o))
        for (u, v), h in sorted(chart.restr.items(), key=lambda kv: (open_key(kv[0][0]), open_key(kv[0][1]))):
            ch["restrictions"][f"{open_key(u)}>{open_key(v)}"] = list(h.assign)
        doc["charts"].append(ch)
    for (i, j), o in sorted(g.overlaps.items()):
        doc["overlaps"][f"{i},{j}"] = sorted(o)
    for (i, j), tmap in sorted(g.trans_top.items()):
        entry = {
            "top": [[p, tmap[p]] for p in sorted(tmap)],
            "sections": {
                open_key(w): list(h.assign)
                for w, h in sorted(g.transports[(i, j)].items(), key=lambda kv: open_key(kv[0]))
            },
        }
        doc["transitions"][f"{i},{j}"] = entry
    return doc
