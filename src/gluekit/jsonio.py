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
from .errors import UnsupportedFeature, ValidationError
from .fintop import FinSpace
from .indexcat import pair

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


def parse_space(doc, pointer) -> FinSpace:
    try:
        return ft.space_from_json(doc)
    except (ValidationError, KeyError, TypeError, ValueError) as exc:
        _fail(pointer, f"bad space: {exc}")


def _chart_tables(doc, pointer, section, hom) -> tuple[dict, dict]:
    """A chart's ``sections`` table, keyed by open, and its ``restrictions``
    table, keyed by ``"U>V"``: ``section(value, pointer)`` reads one section
    object and ``hom(dom, cod, value)`` one restriction, raising
    ``ValidationError`` on a bad value."""
    sections = {}
    for key, value in _require(doc, "sections", pointer).items():
        at = f"{pointer}/sections/{key}"
        sections[parse_open_key(key, at)] = section(value, at)
    restrictions = {}
    for key, value in _require(doc, "restrictions", pointer).items():
        at = f"{pointer}/restrictions/{key}"
        if ">" not in key:
            _fail(at, "key must look like 'U>V'")
        u, v = (parse_open_key(k, at) for k in key.split(">", 1))
        if u not in sections or v not in sections:
            _fail(at, "restriction references an unknown open")
        try:
            restrictions[(u, v)] = hom(sections[u], sections[v], value)
        except ValidationError as exc:
            _fail(at, str(exc))
    return sections, restrictions


def parse_document(doc: dict, variant: str | None = None) -> dict:
    """Schema-check a document and return a normalized payload dict with a
    'kind' key and constructed in-memory objects.  ``variant`` (--variant)
    replaces the document's own variant; the data is built with the result,
    which is then refused if it is ``sch`` or does not belong to the kind."""
    if not isinstance(doc, dict):
        _fail("/", "document must be a JSON object")
    kind = _require(doc, "kind", "/")
    if kind not in KINDS:
        _fail("/kind", f"unknown kind {kind!r}")
    own = doc.get("variant")
    if own not in VARIANTS[kind]:
        _fail("/variant", f"variant {own!r} does not apply to {kind} documents")
    variant = own if variant is None else variant
    members = "cover" if kind == "sheaf" else "charts"
    if members in doc and not doc[members]:
        _fail(f"/{members}", "the index set must be non-empty")
    try:
        if kind == "sheaf":
            data = _parse_sheaf(doc)
        else:
            data = (_parse_top if kind == "top" else _parse_ringed)(doc, variant)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        # a value of the wrong JSON type somewhere below the top level
        _fail("/", f"malformed {kind} document: {type(exc).__name__}: {exc}")
    if variant == "sch":
        raise UnsupportedFeature("scheme verification unsupported")
    if variant not in VARIANTS[kind]:
        _fail("/variant", f"variant {variant!r} does not apply to {kind} documents")
    return {"kind": kind, "variant": variant, "data": data}


def _parse_top(doc, variant: str) -> tg.TopGluingData:
    spaces = {}
    for sid, sdoc in _require(doc, "spaces", "/").items():
        spaces[sid] = parse_space(sdoc, f"/spaces/{sid}")
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
        charts, overlaps, transitions, triple_spaces, triple_projs, triple_transitions, variant == "otop"
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
    base = parse_space(_require(doc, "space", "/"), "/space")
    cover = []
    for k, pts in enumerate(_require(doc, "cover", "/")):
        o = frozenset(int(p) for p in pts)
        if o not in base.opens:
            _fail(f"/cover/{k}", "cover member is not open in the base")
        cover.append(o)

    def group_at(gdoc, pointer):
        try:
            return ab.group_from_json(gdoc)
        except (ValidationError, KeyError, TypeError) as exc:
            _fail(pointer, str(exc))

    sheaves = []
    for i, sh_doc in enumerate(_require(doc, "sheaves", "/")):
        sections, restrictions = _chart_tables(sh_doc, f"/sheaves/{i}", group_at, ab.make_hom)
        try:
            sheaves.append(ps.make_presheaf(base, cover[i], sections, restrictions))
        except ValidationError as exc:
            _fail(f"/sheaves/{i}", str(exc))
        except IndexError:
            _fail(f"/sheaves/{i}", "more sheaves than cover members")
    if len(sheaves) != len(cover):
        _fail("/sheaves", "one sheaf per cover member required")
    # the transitions run between the datum's own restricted charts
    data = sg.SheafGluingData(base, tuple(cover), tuple(sheaves), {})
    tr_doc = _require(doc, "transitions", "/")
    for i, j in permutations(range(data.n), 2):
        key = f"{i},{j}"
        comp_doc = tr_doc.get(key)
        if comp_doc is None:
            _fail(f"/transitions/{key}", "missing transition")
        dom, cod = data.obj(pair(i, j)), data.obj(pair(j, i))
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
        data.transitions[(i, j)] = ps.EnrichedMorphism(dom, cod, comps)
    return data


def _restriction_entries(restrictions: dict, entry) -> dict:
    """A restriction table as ``"U>V"`` entries, ordered by the two open
    keys, with each open's key formatted once."""
    keys = {o: open_key(o) for pair in restrictions for o in pair}
    return {
        f"{keys[u]}>{keys[v]}": entry(h)
        for (u, v), h in sorted(restrictions.items(), key=lambda kv: (keys[kv[0][0]], keys[kv[0][1]]))
    }


def sheaf_data_to_document(data: sg.SheafGluingData) -> dict:
    doc = {
        "kind": "sheaf",
        "space": ft.space_to_json(data.base),
        "cover": [sorted(c) for c in data.cover],
        "sheaves": [],
        "transitions": {},
    }
    for f in data.sheaves:
        doc["sheaves"].append({
            "sections": {open_key(o): ab.group_to_json(f.group(o)) for o in f.opens()},
            "restrictions": _restriction_entries(f.restrictions, lambda h: [list(r) for r in h.matrix]),
        })
    for (i, j), iso in sorted(data.transitions.items()):
        doc["transitions"][f"{i},{j}"] = {
            open_key(o): [list(r) for r in h.matrix] for o, h in sorted(iso.alpha.items(), key=lambda kv: open_key(kv[0]))
        }
    return doc


def _parse_ringed(doc, variant: str) -> rgl.RingedGluingFunctor:
    rings = {}
    for rid, rdoc in _require(doc, "rings", "/").items():
        try:
            rings[rid] = rg.ring_from_json(rdoc)
        except (ValidationError, KeyError, TypeError, ValueError) as exc:
            _fail(f"/rings/{rid}", str(exc))

    def ring_at(rid, pointer):
        # ring ids are the keys of the rings table, so strings
        if not isinstance(rid, str) or rid not in rings:
            _fail(pointer, f"undefined ring id {rid!r}")
        return rings[rid]

    charts = []
    for i, ch in enumerate(_require(doc, "charts", "/")):
        top = parse_space(_require(ch, "space", f"/charts/{i}"), f"/charts/{i}/space")
        sections, restr = _chart_tables(ch, f"/charts/{i}", ring_at, rg.make_ring_hom)
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
        doc["charts"].append({
            "space": ft.space_to_json(chart.top),
            "sections": {open_key(o): rid(chart.ring(o)) for o in chart.top.sorted_opens},
            "restrictions": _restriction_entries(chart.restr, lambda h: list(h.assign)),
        })
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
