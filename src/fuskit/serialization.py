"""JSON formats for groups, fusion-system specs, and computed systems.

All output is canonical (sorted keys, fixed separators) so repeated runs are
byte-identical, and parse(serialize(x)) round-trips exactly.
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path
from typing import Callable, Optional, Union

from . import permgroup as pg
from .errors import FuskitError, NotAPermutation, ParseError, ValidationError
from .fusion import (
    FusionSystem,
    PreFusionSystem,
    fusion_from_group,
    fusion_generated,
)
from .permgroup import Group, GroupHom, Subgroup


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def payload(value):
    """A value as JSON: a subgroup becomes its order and member ids, a hom its
    domain's members and its [source, image] pairs; lists, tuples and dicts
    are rendered item by item, other values stay."""
    if isinstance(value, Subgroup):
        return {"order": value.order, "members": list(value.members)}
    if isinstance(value, GroupHom):
        return {"domain": list(value.domain.members), "map": [list(x) for x in value.pairs]}
    if isinstance(value, dict):
        return {k: payload(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [payload(v) for v in value]
    return value


def _require(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


def _require_fields(d: dict, what: str, fields: tuple[str, ...]):
    for fld in fields:
        _require(fld in d, f"{what} is missing field {fld!r}")


def _prime_field(d: dict) -> int:
    p = d["p"]
    _require(isinstance(p, int) and p < pg.PRIME_LIMIT and pg.is_prime(p),
             f"field 'p' must be a prime below {pg.PRIME_LIMIT}")
    return p


# -- groups -------------------------------------------------------------------

def group_to_dict(G: Group) -> dict:
    return {
        "name": G.name,
        "degree": G.degree,
        "generators": [list(p.images) for p in G.generators],
    }


def group_from_dict(d: dict) -> Group:
    _require(isinstance(d, dict), "group document must be an object")
    _require_fields(d, "group document", ("name", "degree", "generators"))
    _require(type(d["degree"]) is int and d["degree"] >= 1,
             "field 'degree' must be a positive integer")
    _require(isinstance(d["generators"], list), "field 'generators' must be a list")
    try:
        return pg.group_from_generators(d["degree"], d["generators"], str(d["name"]))
    except NotAPermutation as exc:
        raise ValidationError(f"bad generator in group {d['name']!r}: {exc}") from exc


def load_json(path: Union[str, Path]) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal longer than Python reads
        raise ParseError(f"{path}: {exc}") from exc


def load_group(path: Union[str, Path]) -> Group:
    return group_from_dict(load_json(path))


# -- fusion specs ---------------------------------------------------------------

def _resolve_group(ref, base_dir: Optional[Path],
                   resolver: Optional[Callable[[str], Group]]) -> Group:
    if isinstance(ref, dict):
        return group_from_dict(ref)
    if isinstance(ref, str):
        if ref.endswith(".json"):
            path = Path(ref)
            if not path.is_absolute() and base_dir is not None:
                path = base_dir / path
            return load_group(path)
        if resolver is not None:
            return resolver(ref)
        raise ParseError(f"group reference {ref!r} needs a resolver or a .json path")
    raise ParseError("group reference must be an object or a string")


def _seed_from_dict(G: Group, d: dict) -> GroupHom:
    _require(isinstance(d, dict) and isinstance(d.get("domain_gens"), list)
             and isinstance(d.get("images"), list),
             "seed morphism needs the lists 'domain_gens' and 'images'")
    srcs = [G.index_of(pg.Perm.checked(img, G.degree)) for img in d["domain_gens"]]
    dsts = [G.index_of(pg.Perm.checked(img, G.degree)) for img in d["images"]]
    _require(len(srcs) == len(dsts), "seed morphism lists have unequal lengths")
    domain = G.subgroup_of(srcs)
    codomain = G.subgroup_of(dsts)
    return pg.hom_build(domain, codomain, list(zip(srcs, dsts)))


def fusion_spec_from_dict(d: dict, base_dir: Optional[Path] = None,
                          resolver: Optional[Callable[[str], Group]] = None) -> FusionSystem:
    """Build a system from a spec document: conjugation fusion of an ambient
    group, or a generated system from seed morphisms on a p-group."""
    _require(isinstance(d, dict), "fusion spec must be an object")
    _require_fields(d, "fusion spec", ("group", "p", "mode"))
    p = _prime_field(d)
    mode = d["mode"]
    if mode == "from-group":
        ref = d.get("ambient", d["group"])
        G = _resolve_group(ref, base_dir, resolver)
        return fusion_from_group(G, p)
    if mode == "generated":
        G = _resolve_group(d["group"], base_dir, resolver)
        seeds = d.get("seed_morphisms", [])
        _require(isinstance(seeds, list), "field 'seed_morphisms' must be a list")
        return fusion_generated(G, p, [_seed_from_dict(G, s) for s in seeds])
    raise ParseError(f"unknown fusion mode {mode!r}")


def load_fusion_spec(path: Union[str, Path],
                     resolver: Optional[Callable[[str], Group]] = None) -> FusionSystem:
    path = Path(path)
    return fusion_spec_from_dict(load_json(path), base_dir=path.parent, resolver=resolver)


# -- computed systems -------------------------------------------------------------

def system_to_dict(F: PreFusionSystem) -> dict:
    """The document of a computed system; the stored isos of one (domain,
    image) pair share their two member lists."""
    G = F.parent
    isos = []
    for q, row in F.store.items():
        dom = list(Subgroup(G, q).members)
        for r, images in row.items():
            cod = list(Subgroup(G, r).members)
            isos.extend({"domain": dom, "codomain": cod, "map": list(map(list, zip(dom, imgs)))}
                        for imgs in sorted(images))
    return {
        "format": "fusion-system",
        "version": 1,
        "kind": F.kind,
        "p": F.p,
        "provenance": F.provenance,
        "ambient": group_to_dict(F.parent),
        "carrier": list(F.carrier.members),
        "isos": isos,
    }


_INT, _TWO = {int}, {2}


def system_from_dict(d: dict) -> PreFusionSystem:
    """Parse a computed system, checking every stored iso.

    Each distinct domain or codomain list is parsed once per document: its
    entries must be element ids of the ambient group (ints, not bools), it
    must lie in the carrier, and it must be a subgroup (its Cayley columns,
    ``permgroup.cayley_columns``, must exist).  Each stored iso must be a
    list of [source, image] pairs of element ids whose sorted sources are the
    domain's members, which maps 0 to 0, whose sorted images are the
    codomain's members (so it is injective and onto its codomain), and
    which is multiplicative on the domain's Cayley edges
    (``permgroup.maps_cayley_edges``).  A failed check raises ParseError or
    ValidationError."""
    _require(isinstance(d, dict) and d.get("format") == "fusion-system",
             "not a fusion-system document")
    _require(d.get("version") == 1, "unsupported fusion-system version")
    _require_fields(d, "fusion-system document", ("p", "ambient", "carrier", "isos"))
    p = _prime_field(d)
    G = group_from_dict(d["ambient"])
    carrier = Subgroup(G, _member_mask(G, d["carrier"]))
    _require(G.subgroup_of(carrier.members).mask == carrier.mask, "the carrier is not a subgroup")
    _require(pg._is_p_power(carrier.order, p), f"the carrier's order is not a power of {p}")
    _require(isinstance(d["isos"], list), "field 'isos' must be a list")
    subgroups: dict[tuple[int, ...], Subgroup] = {}  # a member list -> its subgroup

    def subgroup(ids) -> Subgroup:
        # True == 1 and hash(True) == hash(1): only a list of ints may hit
        if isinstance(ids, list) and {*map(type, ids)} == _INT:
            got = subgroups.get(tuple(ids))
            if got is not None:
                return got
        S = Subgroup(G, _member_mask(G, ids))
        if not S <= carrier:
            raise ValidationError("stored morphism does not lie inside the carrier")
        try:
            pg.cayley_columns(S)
        except FuskitError as exc:
            raise ValidationError(f"invalid stored morphism: {exc}") from exc
        subgroups[tuple(ids)] = S
        return S

    def invalid(msg: str):
        raise ValidationError(f"invalid stored morphism: {msg}")

    triples = []
    for iso in d["isos"]:
        _require(isinstance(iso, dict), "a stored morphism must be an object")
        _require_fields(iso, "stored morphism", ("domain", "codomain", "map"))
        dom = subgroup(iso["domain"])
        cod = subgroup(iso["codomain"])
        pairs = iso["map"]
        _require(isinstance(pairs, list) and all(map(isinstance, pairs, repeat(list)))
                 and {*map(len, pairs)} <= _TWO,
                 "field 'map' must be a list of [source, image] pairs")
        srcs, imgs = zip(*pairs) if pairs else ((), ())
        if {*map(type, srcs), *map(type, imgs)} != _INT:
            _element_ids(G, srcs + imgs)
        if srcs != dom.members:
            if tuple(sorted(srcs)) != dom.members:
                invalid("map is not total on the domain")
            srcs, imgs = zip(*sorted(pairs))
        if imgs[0] != 0:
            invalid("identity must map to identity")
        if tuple(sorted(imgs)) != cod.members:
            _element_ids(G, imgs)
            if len(set(imgs)) != len(imgs):
                invalid("map is not injective")
            raise ValidationError("stored morphism is not onto its codomain")
        if not pg.maps_cayley_edges(pg.cayley_columns(dom), imgs, G):
            invalid("map is not multiplicative")
        triples.append((dom.mask, cod.mask, tuple(imgs)))
    cls = FusionSystem if d.get("kind", "fusion") == "fusion" else PreFusionSystem
    return cls(carrier, p, triples=triples, provenance=str(d.get("provenance", "parsed")))


def _element_ids(G: Group, ids):
    n = G.order
    for i in ids:
        if type(i) is not int or not 0 <= i < n:
            raise ValidationError(f"element id {i!r} is not an element index of {G.name}")
    return ids


def _member_mask(G: Group, ids) -> int:
    _require(isinstance(ids, list), "a subgroup must be a list of element ids")
    return pg.mask_of(_element_ids(G, ids))


def dump_system(F: PreFusionSystem) -> str:
    return canonical_json(system_to_dict(F))


def load_system_or_spec(path: Union[str, Path],
                        resolver: Optional[Callable[[str], Group]] = None) -> PreFusionSystem:
    """Load a serialized computed system, a build spec, or the wrapped output
    of the quotient subcommand."""
    path = Path(path)
    d = load_json(path)
    _require(isinstance(d, dict), "a system or spec document must be an object")
    if isinstance(d.get("system"), dict) and d["system"].get("format") == "fusion-system":
        d = d["system"]
    if d.get("format") == "fusion-system":
        return system_from_dict(d)
    return fusion_spec_from_dict(d, base_dir=path.parent, resolver=resolver)
