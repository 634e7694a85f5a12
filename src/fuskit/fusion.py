"""Fusion systems on finite p-groups.

A fusion system is stored by its isomorphisms only: a table mapping pairs of
equal-order subgroups (Q, R) of the carrier to the set of isomorphisms Q -> R
present in the system.  General hom-sets are derived (every morphism factors
as an iso onto its image followed by an inclusion), which keeps the tables
small and makes closure checks exact.

The carrier of a system is a Subgroup of some ambient group; subsystems of a
system share its ambient group, so their morphism sets are literally subsets.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from . import permgroup as pg
from .errors import (
    DifferentCarrier,
    MorphismNotInSystem,
    NotAHomomorphism,
    NotAnIsomorphism,
    NotASubgroup,
    NotASubgroupOfAut,
    NotInjective,
    OrderCapExceeded,
)
from .permgroup import Group, GroupHom, Subgroup, cached, hom_key, memo, subgroup_key

TablePair = tuple[Subgroup, Subgroup]
IsoTable = dict[TablePair, frozenset[GroupHom]]


class _Memo(dict):
    """The named memo tables of a system (a dict subclass, so it can be held weakly)."""


# (kind, p, carrier, table items) -> the memo of the live systems with that content
_MEMOS: "weakref.WeakValueDictionary[tuple, _Memo]" = weakref.WeakValueDictionary()


class PreFusionSystem:
    """Subgroups of a carrier plus arbitrary sets of isomorphisms between them.

    No closure properties are assumed; composition stays partial and is never
    completed implicitly.  The table must not be mutated after construction.

    Equal systems share one memo.  Every memo table a system owns (``norm``,
    ``cent``, ``by_domain``, ``class``, ``fully_normalized``,
    ``strongly_closed``, ``saturated``, ``aut_real``, ``centric``,
    ``radical``, ``fnrc``, ``normal_subgroup``, ``o_p``, ``z_f``,
    ``quotient_parts``, ``factor_system``, ``bar_system``, ``generated_bar``,
    ``pushes_to_factor``, ``is_fusion``, ``k_normalizer``, ``images_by_key``,
    ``invariant``) holds a function of ``(kind, p, carrier, table)`` alone:
    none reads ``provenance`` or depends on which object asks.  So on its
    first memo lookup a system finds its memo by that content key in a weak
    registry: it adopts the memo of any live twin, or registers a fresh one.
    The registry holds memos weakly, so it keeps no system alive, and a memo
    lives as long as one of its systems does.
    Groups compare by content, not by name, so twins may sit on distinct
    equal ambient groups; a memoized subgroup then lives in the first twin's
    group, which compares equal to the others'.  A quotient group is named
    after the ambient group, so ``quotient_parts``, ``factor_system``,
    ``bar_system`` and ``generated_bar`` also key each entry by that name
    (``memo(..., named=True)``): each twin gets quotients of its own name.
    """

    kind = "prefusion"

    def __init__(self, carrier: Subgroup, p: int, table: Iterable, provenance: str = "derived"):
        pg._check_prime(p)
        self.carrier = carrier
        self.p = p
        self.provenance = provenance
        norm: IsoTable = {}
        items = table.items() if isinstance(table, dict) else table
        for (q, r), homs in items:
            homs = frozenset(homs)
            if homs:
                norm[(q, r)] = homs
        self.table = {k: norm[k] for k in sorted(norm, key=lambda k: (subgroup_key(k[0]), subgroup_key(k[1])))}

    @cached_property
    def _caches(self) -> _Memo:
        # resolved lazily: most derived systems are only compared, never queried
        key = (self.kind, self.p, self.carrier, tuple(self.table.items()))
        memo = _MEMOS.get(key)
        if memo is None:
            memo = _MEMOS[key] = _Memo()
        return memo

    # -- carrier helpers -------------------------------------------------

    @property
    def parent(self) -> Group:
        return self.carrier.parent

    def subgroups(self) -> list[Subgroup]:
        """All subgroups of the carrier, canonically ordered."""
        return pg.subgroups_of(self.carrier)

    def normalizer_in_carrier(self, Q: Subgroup) -> Subgroup:
        return cached(self, "norm", Q.mask, pg.normalizer, self.carrier, Q)

    def centralizer_in_carrier(self, Q: Subgroup) -> Subgroup:
        return cached(self, "cent", Q.mask, pg.centralizer, self.carrier, Q)

    # -- iso access ------------------------------------------------------

    def isos(self, Q: Subgroup, R: Subgroup) -> frozenset[GroupHom]:
        return self.table.get((Q, R), frozenset())

    def aut(self, Q: Subgroup) -> frozenset[GroupHom]:
        return self.isos(Q, Q)

    @memo("by_domain")
    def isos_from(self, Q: Subgroup) -> tuple[GroupHom, ...]:
        acc = []
        for (a, _), homs in self.table.items():
            if a.mask == Q.mask:
                acc.extend(homs)
        return tuple(sorted(acc, key=hom_key))

    def all_isos(self) -> list[GroupHom]:
        out = []
        for key in self.table:
            out.extend(sorted(self.table[key], key=hom_key))
        return out

    def contains_iso(self, h: GroupHom) -> bool:
        """Whether h is a stored iso: h lives in the ambient group and its
        images are filed under its masks in ``images_by_key``."""
        parent = self.parent
        return (h.domain.parent == parent and h.codomain.parent == parent
                and h.images in images_by_key(self).get((h.domain.mask, h.image_mask), ()))

    def iso_count(self) -> int:
        return sum(len(v) for v in self.table.values())

    @memo("class")
    def iso_class(self, Q: Subgroup) -> frozenset[Subgroup]:
        return frozenset([Q] + [b for (a, b) in self.table if a.mask == Q.mask])

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(p={self.p}, |P|={self.carrier.order}, "
                f"isos={self.iso_count()}, {self.provenance})")


class FusionSystem(PreFusionSystem):
    """A fusion system: the iso table is closed under composition, inverses,
    restriction to subgroups, and contains all carrier conjugation maps."""

    kind = "fusion"


# -- hom derivation ----------------------------------------------------------

@memo("images_by_key")
def images_by_key(F: PreFusionSystem) -> dict[tuple[int, int], frozenset[tuple[int, ...]]]:
    """The images of F's isos, by the masks of their domain and image: the
    index a membership test reads, so that it builds no hom to hash."""
    return {(q.mask, r.mask): frozenset(h.images for h in homs) for (q, r), homs in F.table.items()}


def hom_set(F: PreFusionSystem, Q: Subgroup, R: Subgroup) -> list[GroupHom]:
    """Hom_F(Q, R): isos from Q onto subgroups of R, viewed into R."""
    if Q.parent != F.parent or R.parent != F.parent:
        raise NotASubgroup("hom_set arguments must live in the ambient group")
    if not (Q <= F.carrier and R <= F.carrier):
        raise NotASubgroup("hom_set arguments must lie in the carrier")
    out = [h.with_codomain(R) for h in F.isos_from(Q) if h.image_mask & ~R.mask == 0]
    out.sort(key=hom_key)
    return out


# -- constructors ------------------------------------------------------------

def _conjugation_table(carrier: Subgroup, acting_ids: Iterable[int]) -> dict[TablePair, set[GroupHom]]:
    """The conjugation maps by the acting ids between subgroups of the
    carrier.  Conjugation is read on the carrier's members only, and each
    distinct restriction to the carrier is walked over the subgroups once."""
    G = carrier.parent
    subs = pg.subgroups_of(carrier)
    cmask = carrier.mask
    mem = carrier.members
    homs = []
    for imgs in dict.fromkeys(pg.conj_images(G, g, mem) for g in acting_ids):
        get = dict(zip(mem, imgs)).__getitem__
        for Q in subs:
            q_imgs = tuple(map(get, Q.members))
            img = pg.mask_of(q_imgs)
            if not img & ~cmask:
                homs.append(GroupHom(Q, Subgroup(G, img), q_imgs, img))
    return iso_table(homs)


def fusion_from_group(G: Group, p: int) -> FusionSystem:
    """The fusion system of G on one of its Sylow p-subgroups."""
    if G.order > pg.order_cap():
        raise OrderCapExceeded(f"group of order {G.order} exceeds cap")
    P = pg.sylow(G, p)
    table = _conjugation_table(P, range(G.order))
    return FusionSystem(P, p, table, provenance="from-group")


def validate_hom(h: GroupHom):
    """Check that h is a well-formed injective homomorphism into its codomain.

    A hom is total on its domain by construction (``GroupHom.from_map``
    checks a given map).  Multiplicativity is checked on the Cayley edges of
    the domain (``permgroup.maps_cayley_edges``)."""
    imgs = h.images
    if imgs[0] != 0:
        raise NotAHomomorphism("identity must map to identity")
    if not pg.maps_cayley_edges(pg.cayley_columns(h.domain), imgs, h.codomain.parent):
        raise NotAHomomorphism("map is not multiplicative")
    if len(set(imgs)) != len(imgs):
        raise NotInjective("map is not injective")
    if h.image_mask & ~h.codomain.mask:
        raise NotAHomomorphism("image escapes the codomain")


def generated_on(carrier: Subgroup, p: int, seeds: Sequence[GroupHom],
                 base: Optional[dict[TablePair, Iterable[GroupHom]]] = None,
                 provenance: str = "generated") -> FusionSystem:
    """Smallest fusion system on the carrier containing its conjugation maps,
    the seed isomorphisms (as isos onto their images) and the base maps.

    That system is the set of composites of restrictions of the given maps and
    of their inverses (Aschbacher, Kessar and Oliver, Part I, I.1).  A
    restriction of a composite is the composite of the restrictions, and the
    inverse of a composite is the reversed composite of the inverses; so the
    generators are the given maps closed under restriction and inverse, and
    the system is every word in them.  Conjugation by x is a positive word in
    conjugations by the carrier's generating ids, so only those are used.

    A generator is a plain {x: y} dict over its domain, filed under the
    domain's mask with the mask of its image, and kept once per image tuple.
    A word Q -> R is the ``images`` of the hom it stands for, the images of
    Q.members in order; a generator on R extends it by one lookup per
    member, and the extension's image is the generator's.  The search starts
    from the identity of every subgroup and extends each new word by every
    generator on its image.  Each word found becomes a hom as it is.  The
    trivial subgroup has only its identity, so no generator is filed for it."""
    G = carrier.parent
    subs = pg.subgroups_of(carrier)
    gens: dict[int, dict[tuple[int, ...], tuple[dict[int, int], int]]] = {}

    def add(q: int, m: dict[int, int], r: int):  # m lists q's members in order
        gens.setdefault(q, {})[tuple(m.values())] = (m, r)

    for g in carrier.generating_ids():
        cm = G.conj_map(g)
        for Q in subs[1:]:
            m = {x: cm[x] for x in Q.members}
            add(Q.mask, m, pg.mask_of(m.values()))

    def insert(h: GroupHom):  # with its inverse, restricted to every subgroup
        hm = h.mapping
        for Q in pg.subgroups_of(h.domain)[1:]:
            m = {x: hm[x] for x in Q.members}
            r = pg.mask_of(m.values())
            add(Q.mask, m, r)
            add(r, dict(sorted(zip(m.values(), m))), Q.mask)

    for homs in (base or {}).values():
        for h in homs:
            insert(h)
    for seed in sorted(seeds, key=hom_key):
        if not (seed.domain <= carrier) or seed.image_mask & ~carrier.mask:
            raise NotASubgroup("seed morphism does not lie inside the carrier")
        validate_hom(seed)
        insert(seed)

    steps = {q: list(d.values()) for q, d in gens.items()}
    words = [(Q.mask, Q.members, Q.mask) for Q in subs]
    seen = {(q, imgs) for q, imgs, _ in words}
    for q, imgs, r in words:  # words grows while we walk it
        if r in steps:
            get = itemgetter(*imgs)
            for m, s in steps[r]:
                w = get(m)
                if (q, w) not in seen:
                    seen.add((q, w))
                    words.append((q, w, s))
    sub = {Q.mask: Q for Q in subs}
    table = iso_table(GroupHom(sub[q], sub[r], imgs, r) for q, imgs, r in words)
    return FusionSystem(carrier, p, table, provenance=provenance)


def fusion_generated(P: Group, p: int, seeds: Sequence[GroupHom] = ()) -> FusionSystem:
    """Fusion system on the p-group P generated by inner maps plus seeds."""
    if not pg._is_p_power(P.order, p):
        raise NotASubgroup(f"{P.name} is not a {p}-group")
    return generated_on(P.full_subgroup(), p, seeds)


def restricted_to(F: PreFusionSystem, T: Subgroup) -> FusionSystem:
    """The full subsystem of F on a subgroup T of its carrier."""
    if not T <= F.carrier:
        raise NotASubgroup("T must lie inside the carrier")
    table = {(q, r): homs for (q, r), homs in F.table.items()
             if q <= T and r <= T}
    return FusionSystem(T, F.p, table, provenance="derived")


def fusion_intersect(F1: PreFusionSystem, F2: PreFusionSystem) -> FusionSystem:
    """Entrywise intersection of two systems on the same carrier."""
    if F1.carrier != F2.carrier:
        raise DifferentCarrier("systems live on different carriers")
    table = {}
    for key, homs in F1.table.items():
        both = homs & F2.table.get(key, frozenset())
        if both:
            table[key] = both
    return FusionSystem(F1.carrier, F1.p, table, provenance="derived")


def same_system(F1: PreFusionSystem, F2: PreFusionSystem) -> bool:
    """Equality of carriers and iso tables."""
    return F1.carrier == F2.carrier and F1.table == F2.table


def iso_table(homs: Iterable[GroupHom]) -> dict[TablePair, set[GroupHom]]:
    """The homs, each onto its codomain, filed by their domain and codomain."""
    table: dict[TablePair, set[GroupHom]] = {}
    for h in homs:
        table.setdefault((h.domain, h.codomain), set()).add(h)
    return table


def transport(F: PreFusionSystem, theta: GroupHom) -> FusionSystem:
    """Move F along a group isomorphism defined on its carrier."""
    if theta.domain != F.carrier:
        raise NotAnIsomorphism("theta must be defined on the carrier")
    try:
        validate_hom(theta)
    except (NotAHomomorphism, NotInjective) as exc:
        raise NotAnIsomorphism(str(exc)) from exc
    m, G = theta.mapping, theta.codomain.parent
    table = iso_table(pg.induced_hom(h, m, G) for homs in F.table.values() for h in homs)
    return FusionSystem(theta.image(), F.p, table, provenance="derived")


# -- closure predicates --------------------------------------------------------

@memo("fully_normalized")
def is_fully_normalized(F: PreFusionSystem, Q: Subgroup) -> bool:
    """True iff |N_P(Q)| is maximal over the F-isomorphism class of Q."""
    mine = F.normalizer_in_carrier(Q).order
    return all(F.normalizer_in_carrier(R).order <= mine for R in F.iso_class(Q))


def is_weakly_closed(F: PreFusionSystem, Q: Subgroup) -> bool:
    return F.iso_class(Q) == frozenset((Q,))


@memo("strongly_closed")
def is_strongly_closed(F: PreFusionSystem, Q: Subgroup) -> bool:
    """No F-morphism carries a subgroup of Q outside Q."""
    return all(h.image_mask & ~Q.mask == 0
               for R in pg.subgroups_of(Q) for h in F.isos_from(R))


# -- N_phi and saturation ------------------------------------------------------

def n_phi(F: PreFusionSystem, phi: GroupHom) -> Subgroup:
    """The subgroup of N_P(Q) whose induced automorphisms transfer through phi
    into carrier-conjugation automorphisms of the image."""
    if not F.contains_iso(phi):
        raise MorphismNotInSystem("phi is not an isomorphism of the system")
    return _n_phi(F, phi)


def _n_phi(F: PreFusionSystem, phi: GroupHom) -> Subgroup:
    """N_phi for an iso phi of F, unchecked."""
    Q = phi.domain
    R = phi.image()
    G = F.parent
    NQ = F.normalizer_in_carrier(Q)
    NR = F.normalizer_in_carrier(R)
    # phi c_x phi^-1 = c_y on R exactly when phi(c_x(q)) = c_y(phi(q)) for
    # every q in Q: both sides are read as tuples over Q.members
    imgs = phi.images
    aut_p_r = {tuple(map(G.conj_map(y).__getitem__, imgs)) for y in NR.members}
    fm = phi.mapping.__getitem__
    mask = 0
    for x in NQ.members:
        if tuple(map(fm, map(G.conj_map(x).__getitem__, Q.members))) in aut_p_r:
            mask |= 1 << x
    return Subgroup(G, mask)


@memo("saturated")
def is_saturated(F: FusionSystem) -> bool:
    """Both saturation axioms, checked exhaustively.

    (1) the carrier-conjugation automorphisms of P form the full p-part of
        Aut_F(P), and
    (2) every iso with fully normalized image extends to its N_phi.
    """
    P = F.carrier
    aut_f = F.aut(P)
    if not aut_f:  # not even the identity of P: the Sylow axiom fails
        return False
    n = len(aut_f)
    p_part = 1
    while n % F.p == 0:
        p_part *= F.p
        n //= F.p
    if p_part != P.order // pg.center(P).order:  # |Inn(P)| = |P : Z(P)|
        return False
    for (q, r), homs in F.table.items():
        if not is_fully_normalized(F, r):
            continue
        for phi in homs:
            n_sub = _n_phi(F, phi)
            if n_sub.mask != q.mask and next(extensions(F, phi, n_sub), None) is None:
                return False
    return True


def extensions(F: PreFusionSystem, phi: GroupHom, over: Subgroup) -> Iterator[GroupHom]:
    """The isos of F out of `over` whose restriction to the domain of phi is phi."""
    omask = over.mask  # x sits in over.members after the members below it
    at = itemgetter(*[(omask & ((1 << x) - 1)).bit_count() for x in phi.domain.members])
    imgs = phi.images
    want = imgs if len(imgs) > 1 else imgs[0]  # one item is read bare
    for psi in F.isos_from(over):
        if at(psi.images) == want:
            yield psi


# -- Aut_F(Q) as an abstract group ----------------------------------------------

@dataclass
class AutRealization:
    """Aut_F(Q) realized as a permutation group on the members of Q."""

    group: Group
    members: tuple[int, ...]          # parent element ids of Q, ascending
    homs: tuple[GroupHom, ...]        # indexed by realized element id
    inn: Subgroup                     # the conjugation automorphisms from Q

    def __post_init__(self):
        self._index = {h.images: i for i, h in enumerate(self.homs)}

    def id_of(self, h: GroupHom) -> int:
        i = self._index.get(h.images)
        if i is None or h.domain.members != self.members:
            raise NotASubgroupOfAut("automorphism is not in Aut_F(Q)")
        return i

    def subgroup_for(self, homs: Iterable[GroupHom]) -> Subgroup:
        """The realized subgroup for a closed set of automorphisms."""
        mask = 1 | pg.mask_of(self.id_of(h) for h in homs)
        sub = Subgroup(self.group, mask)
        if pg._closure_mask(self.group, mask) != mask:
            raise NotASubgroupOfAut("the given automorphisms are not a subgroup")
        return sub

    def homs_for(self, sub: Subgroup) -> frozenset[GroupHom]:
        return frozenset(self.homs[i] for i in sub.members)


def check_in_carrier(F: PreFusionSystem, Q: Subgroup):
    if Q.parent != F.parent or not Q <= F.carrier:
        raise NotASubgroup("the subgroup does not lie in the carrier")


def aut_realization(F: PreFusionSystem, Q: Subgroup) -> AutRealization:
    check_in_carrier(F, Q)  # reads Q.parent, which the memo key omits
    return cached(F, "aut_real", Q.mask, _aut_realization, F, Q)


def _aut_realization(F: PreFusionSystem, Q: Subgroup) -> AutRealization:
    members = Q.members
    pos = {x: i for i, x in enumerate(members)}
    auts = sorted(F.aut(Q), key=hom_key)
    perms = {}
    for h in auts:
        perms[h] = pg.Perm(tuple(map(pos.__getitem__, h.images)))
    grp = Group._from_elements(max(len(members), 1), perms.values(),
                               f"Aut({Q.order})")
    homs: list[Optional[GroupHom]] = [None] * grp.order
    for h, perm in perms.items():
        homs[grp.index_of(perm)] = h
    inner = (pg.conjugation_hom(g, Q, Q) for g in members)
    inn_mask = 1 | pg.mask_of(grp.index_of(perms[h]) for h in inner if h in perms)
    return AutRealization(grp, members, tuple(homs), Subgroup(grp, inn_mask))
