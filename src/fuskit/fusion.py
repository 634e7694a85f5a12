"""Fusion systems on finite p-groups.

A fusion system is stored by its isomorphisms only: ``store[q][r]`` holds
the isos from the subgroup with mask q onto the one with mask r, each as the
tuple of the images of the domain's members, in canonical (order, mask)
order of q and r.  General hom-sets are derived (every morphism factors as
an iso onto its image followed by an inclusion), which keeps the store small
and makes closure checks exact.  Checks read the store and builders file
(domain mask, image mask, images) triples; ``GroupHom`` is the output type
of the public API, built on demand (``table`` is a view of the store).

The carrier of a system is a Subgroup of some ambient group; subsystems of a
system share its ambient group, so their morphism sets are literally subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

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
from .permgroup import Group, GroupHom, Subgroup, hom_key, memo

Images = tuple[int, ...]            # the images of a domain's members, in order
Triple = tuple[int, int, Images]    # (domain mask, image mask, images)

_NO_ROW: dict[int, frozenset[Images]] = {}
_NO_ISOS: frozenset[Images] = frozenset()


class _Memo(dict):
    """The named memo tables of a system's content, numbered from a counter:
    no two memos get one serial."""

    serials = count()

    def __init__(self):
        self.serial = next(self.serials)


class PreFusionSystem:
    """Subgroups of a carrier plus arbitrary sets of isomorphisms between them.

    No closure properties are assumed; composition stays partial and is never
    completed implicitly.  The store must not be mutated after construction.
    ``PreFusionSystem(carrier, p, table)`` takes a table of GroupHoms and
    files each hom under its own domain and image; the builders of this
    package pass (domain mask, image mask, images) ``triples`` instead.

    Equal systems share one memo.  Every memo table a system owns (``norm``,
    ``cent``, ``aut_p``, ``class``, ``fully_normalized``, ``strongly_closed``,
    ``saturated``, ``aut_real``, ``fnrc``, ``normal_subgroup``, ``o_p``,
    ``z_f``, ``quotient_parts``, ``factor_system``, ``bar_system``,
    ``generated_bar``, ``pushes_to_factor``, ``is_fusion``, ``k_normalizer``,
    ``knorm``, ``invariant``, ``aut_stabilizer``) holds a function of
    ``(kind, p, carrier, store)`` and the key alone: none reads
    ``provenance`` or depends on which object asks.  ``invariant`` reads the
    stores and carriers of the system and of a second one, keyed by that
    one's memo serial, which stands for its content.  So on its first memo
    lookup a system finds its memo in its ambient group's ``_systems``, by
    the key (kind, p, carrier mask, store items), or files a fresh one there.
    A memo lives as long as the group's elements, like every other table of
    the group: it outlives its systems, and a system rebuilt with equal
    content reads it again.  Renamed twins share ``_systems`` (see
    ``permgroup.Group``), so twins may sit on distinct equal ambient groups;
    a memoized subgroup then lives in the first twin's group, which compares
    equal to the others'.  A quotient group is named after the ambient
    group, so ``quotient_parts``, ``factor_system``, ``bar_system`` and
    ``generated_bar`` also key each entry by that name (``memo(...,
    named=True)``): each twin gets quotients of its own name.
    """

    kind = "prefusion"

    def __init__(self, carrier: Subgroup, p: int, table: Iterable = (),
                 provenance: str = "derived", triples: Iterable[Triple] = ()):
        pg._check_prime(p)
        self.carrier = carrier
        self.p = p
        self.provenance = provenance
        items = table.items() if isinstance(table, dict) else table  # the one conversion of homs
        homs = ((h.domain.mask, h.image_mask, h.images) for _, hs in items for h in hs)
        rows: dict[int, dict[int, set[Images]]] = {}
        for q, r, imgs in chain(homs, triples):
            rows.setdefault(q, {}).setdefault(r, set()).add(imgs)
        by_key = lambda mask: (mask.bit_count(), mask)  # subgroup_key's order
        self.store = {q: {r: frozenset(rows[q][r]) for r in sorted(rows[q], key=by_key)}
                      for q in sorted(rows, key=by_key)}

    @cached_property
    def _caches(self) -> _Memo:
        # resolved lazily: most derived systems are only compared, never queried
        key = (self.kind, self.p, self.carrier.mask,
               tuple((q, tuple(row.items())) for q, row in self.store.items()))
        systems = self.parent._systems
        memo = systems.get(key)
        if memo is None:
            memo = systems[key] = _Memo()
        return memo

    @property
    def memo_key(self) -> int:  # permgroup.memo keys a system argument by it
        return self._caches.serial

    # -- carrier helpers -------------------------------------------------

    @property
    def parent(self) -> Group:
        return self.carrier.parent

    def subgroups(self) -> list[Subgroup]:
        """All subgroups of the carrier, canonically ordered."""
        return pg.subgroups_of(self.carrier)

    @memo("norm")
    def normalizer_in_carrier(self, Q: Subgroup) -> Subgroup:
        return pg.normalizer(self.carrier, Q)

    @memo("cent")
    def centralizer_in_carrier(self, Q: Subgroup) -> Subgroup:
        return pg.centralizer(self.carrier, Q)

    # -- the store -------------------------------------------------------

    def images(self, q: int, r: int) -> frozenset[Images]:
        """The stored isos from the subgroup mask q onto the mask r."""
        return self.store.get(q, _NO_ROW).get(r, _NO_ISOS)

    def triples(self) -> Iterator[Triple]:
        """Every stored iso as (domain mask, image mask, images), the masks
        in canonical order."""
        return ((q, r, imgs) for q, row in self.store.items()
                for r, images in row.items() for imgs in images)

    def iso_count(self) -> int:
        return sum(len(images) for row in self.store.values() for images in row.values())

    @memo("class")
    def iso_class(self, Q: Subgroup) -> frozenset[Subgroup]:
        G = self.parent
        return frozenset([Q] + [Subgroup(G, r) for r in self.store.get(Q.mask, _NO_ROW)])

    def contains_iso(self, h: GroupHom) -> bool:
        """Whether h is a stored iso: h lives in the ambient group and its
        images are filed under its masks."""
        parent = self.parent
        return (h.domain.parent == parent and h.codomain.parent == parent
                and h.images in self.images(h.domain.mask, h.image_mask))

    # -- GroupHoms at the API boundary -------------------------------------

    def hom(self, q: int, r: int, imgs: Images) -> GroupHom:
        """The stored iso with these masks and images, as a GroupHom onto its image."""
        G = self.parent
        return GroupHom(Subgroup(G, q), Subgroup(G, r), imgs, r)

    @cached_property
    def table(self) -> dict[tuple[Subgroup, Subgroup], frozenset[GroupHom]]:
        """The stored isos as GroupHoms onto their images, by (domain, image)
        pairs in canonical order: a view of the store, built on first read."""
        G = self.parent
        out = {}
        for q, row in self.store.items():
            Q = Subgroup(G, q)
            for r, images in row.items():
                R = Subgroup(G, r)
                out[(Q, R)] = frozenset([GroupHom(Q, R, imgs, r) for imgs in images])
        return out

    def isos(self, Q: Subgroup, R: Subgroup) -> frozenset[GroupHom]:
        if Q.parent != self.parent or R.parent != self.parent:
            return frozenset()
        return frozenset([GroupHom(Q, R, imgs, R.mask) for imgs in self.images(Q.mask, R.mask)])

    def aut(self, Q: Subgroup) -> frozenset[GroupHom]:
        return self.isos(Q, Q)

    def all_isos(self) -> list[GroupHom]:
        return [h for homs in self.table.values() for h in sorted(homs, key=hom_key)]

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(p={self.p}, |P|={self.carrier.order}, "
                f"isos={self.iso_count()}, {self.provenance})")


class FusionSystem(PreFusionSystem):
    """A fusion system: the iso table is closed under composition, inverses,
    restriction to subgroups, and contains all carrier conjugation maps."""

    kind = "fusion"


def hom_set(F: PreFusionSystem, Q: Subgroup, R: Subgroup) -> list[GroupHom]:
    """Hom_F(Q, R): isos from Q onto subgroups of R, viewed into R."""
    if Q.parent != F.parent or R.parent != F.parent:
        raise NotASubgroup("hom_set arguments must live in the ambient group")
    if not (Q <= F.carrier and R <= F.carrier):
        raise NotASubgroup("hom_set arguments must lie in the carrier")
    return [GroupHom(Q, R, imgs, r) for r, images in F.store.get(Q.mask, _NO_ROW).items()
            if r & ~R.mask == 0 for imgs in sorted(images)]


def stored_in(E: PreFusionSystem, F: PreFusionSystem) -> bool:
    """Whether every stored iso of E is stored in F (both in one ambient group)."""
    return all(images <= F.images(q, r) for q, row in E.store.items() for r, images in row.items())


def pushed(F: PreFusionSystem, m) -> Iterator[Triple]:
    """The push of every stored iso of F through the element map m, as the
    triples of ``permgroup.pushed_images``; InvariantViolation when one of
    them induces no map."""
    members = {q: Subgroup(F.parent, q).members for q in F.store}
    return (pg.pushed_images(members[q], imgs, m) for q, _, imgs in F.triples())


def carries(D: PreFusionSystem, m, E: PreFusionSystem) -> bool:
    """Whether the push of D's stored isos through the element map m is
    exactly E's; every iso is pushed first, so one that induces no map raises."""
    got = set(pushed(D, m))
    return len(got) == E.iso_count() and all(imgs in E.images(q, r) for q, r, imgs in got)


def restrictor(over: int, xs: Sequence[int]) -> Callable[[Images], Images]:
    """The map from the images of a map out of the subgroup mask ``over``
    to the images of its restriction to xs, members of it in order."""
    at = [(over & ((1 << x) - 1)).bit_count() for x in xs]  # x's position in over
    if len(at) == 1:
        i = at[0]
        return lambda imgs: (imgs[i],)
    return itemgetter(*at)


# -- constructors ------------------------------------------------------------

def _conjugation_table(carrier: Subgroup, acting_ids: Iterable[int]) -> list[Triple]:
    """The conjugation maps by the acting ids between subgroups of the
    carrier, as triples.  Conjugation is read on the carrier's members only,
    and each distinct restriction to the carrier is walked over the
    subgroups once."""
    G = carrier.parent
    subs = pg.subgroups_of(carrier)
    cmask = carrier.mask
    mem = carrier.members
    triples = []
    for imgs in dict.fromkeys(pg.conj_images(G, g, mem) for g in acting_ids):
        get = dict(zip(mem, imgs)).__getitem__
        for Q in subs:
            q_imgs = tuple(map(get, Q.members))
            img = pg.mask_of(q_imgs)
            if not img & ~cmask:
                triples.append((Q.mask, img, q_imgs))
    return triples


def fusion_from_group(G: Group, p: int) -> FusionSystem:
    """The fusion system of G on one of its Sylow p-subgroups."""
    if G.order > pg.order_cap():
        raise OrderCapExceeded(f"group of order {G.order} exceeds cap")
    P = pg.sylow(G, p)
    return FusionSystem(P, p, triples=_conjugation_table(P, range(G.order)),
                        provenance="from-group")


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


def generated_on(carrier: Subgroup, p: int, seeds: Sequence[GroupHom] = (),
                 provenance: str = "generated", triples: Iterable[Triple] = ()) -> FusionSystem:
    """Smallest fusion system on the carrier containing its conjugation maps,
    the seed isomorphisms (as isos onto their images) and the isos given as
    (domain mask, image mask, images) triples.

    That system is the set of composites of restrictions of the given maps and
    of their inverses (Aschbacher, Kessar and Oliver, Part I, I.1).  A
    restriction of a composite is the composite of the restrictions, and the
    inverse of a composite is the reversed composite of the inverses; so the
    generators are the given maps closed under restriction and inverse, and
    the system is every word in them.  Conjugation by x is a positive word in
    conjugations by the carrier's generating ids, so only those are used.

    A generator is a plain {x: y} dict over its domain, filed under the
    domain's mask with the mask of its image, and kept once per image tuple.
    A word Q -> R is the images of Q.members in order; a generator on R
    extends it by one lookup per member, and the extension's image is the
    generator's.  The search starts from the identity of every subgroup and
    extends each new word by every generator on its image.  The words found
    are the new system's store.  The trivial subgroup has only its identity,
    so no generator is filed for it."""
    seeds = sorted(seeds, key=hom_key)
    for seed in seeds:
        if not (seed.domain <= carrier) or seed.image_mask & ~carrier.mask:
            raise NotASubgroup("seed morphism does not lie inside the carrier")
        validate_hom(seed)
    G = carrier.parent
    subs = pg.subgroups_of(carrier)
    gens: dict[int, dict[Images, tuple[dict[int, int], int]]] = {}

    def add(q: int, m: dict[int, int], r: int):  # m lists q's members in order
        gens.setdefault(q, {})[tuple(m.values())] = (m, r)

    for g in carrier.generating_ids():
        cm = G.conj_map(g)
        for Q in subs[1:]:
            m = {x: cm[x] for x in Q.members}
            add(Q.mask, m, pg.mask_of(m.values()))

    seeded = [(h.domain.mask, h.image_mask, h.images) for h in seeds]
    for q, _, imgs in chain(seeded, triples):
        # with its inverse, restricted to every subgroup
        D = Subgroup(G, q)
        hm = dict(zip(D.members, imgs))
        for Q in pg.subgroups_of(D)[1:]:
            m = {x: hm[x] for x in Q.members}
            r = pg.mask_of(m.values())
            add(Q.mask, m, r)
            add(r, dict(sorted(zip(m.values(), m))), Q.mask)

    steps = {q: list(d.values()) for q, d in gens.items()}
    words = [(Q.mask, Q.mask, Q.members) for Q in subs]
    seen = {(q, imgs) for q, _, imgs in words}
    for q, r, imgs in words:  # words grows while we walk it
        if r in steps:
            get = itemgetter(*imgs)
            for m, s in steps[r]:
                w = get(m)
                if (q, w) not in seen:
                    seen.add((q, w))
                    words.append((q, s, w))
    return FusionSystem(carrier, p, triples=words, provenance=provenance)


def fusion_generated(P: Group, p: int, seeds: Sequence[GroupHom] = ()) -> FusionSystem:
    """Fusion system on the p-group P generated by inner maps plus seeds."""
    if not pg._is_p_power(P.order, p):
        raise NotASubgroup(f"{P.name} is not a {p}-group")
    return generated_on(P.full_subgroup(), p, seeds)


def restricted_to(F: PreFusionSystem, T: Subgroup) -> FusionSystem:
    """The full subsystem of F on a subgroup T of its carrier."""
    if not T <= F.carrier:
        raise NotASubgroup("T must lie inside the carrier")
    outside = ~T.mask
    return FusionSystem(T, F.p, triples=(t for t in F.triples() if not (t[0] | t[1]) & outside))


def fusion_intersect(F1: PreFusionSystem, F2: PreFusionSystem) -> FusionSystem:
    """Entrywise intersection of two systems on the same carrier."""
    if F1.carrier != F2.carrier:
        raise DifferentCarrier("systems live on different carriers")
    return FusionSystem(F1.carrier, F1.p,
                        triples=(t for t in F1.triples() if t[2] in F2.images(t[0], t[1])))


def same_system(F1: PreFusionSystem, F2: PreFusionSystem) -> bool:
    """Equality of carriers and stores."""
    return F1.carrier == F2.carrier and F1.store == F2.store


def transport(F: PreFusionSystem, theta: GroupHom) -> FusionSystem:
    """Move F along a group isomorphism defined on its carrier."""
    if theta.domain != F.carrier:
        raise NotAnIsomorphism("theta must be defined on the carrier")
    try:
        validate_hom(theta)
    except (NotAHomomorphism, NotInjective) as exc:
        raise NotAnIsomorphism(str(exc)) from exc
    return FusionSystem(theta.image(), F.p, triples=pushed(F, theta.mapping))


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
    """No F-morphism carries a subgroup of Q outside Q; a Q outside the carrier raises."""
    if Q.mask & ~F.carrier.mask:
        raise NotASubgroup("the subgroup does not lie in the carrier")
    outside = ~Q.mask
    return all(r & outside == 0
               for R in pg.subgroups_of(Q) for r in F.store.get(R.mask, _NO_ROW))


# -- N_phi and saturation ------------------------------------------------------

def n_phi(F: PreFusionSystem, phi: GroupHom) -> Subgroup:
    """The subgroup of N_P(Q) whose induced automorphisms transfer through phi
    into carrier-conjugation automorphisms of the image."""
    if not F.contains_iso(phi):
        raise MorphismNotInSystem("phi is not an isomorphism of the system")
    return _n_phi(F, phi.domain.mask, phi.image_mask, phi.images)


@memo("aut_p")
def aut_p(F: PreFusionSystem, Q: Subgroup) -> dict[Images, int]:
    """Aut_P(Q), P the carrier: each automorphism of Q by conjugation in P,
    as the images of Q.members, mapped to the mask of the x in N_P(Q) that
    induce it.  These masks are the fibres, the cosets of C_P(Q) in N_P(Q)."""
    fibres: dict[Images, int] = {}
    for x in F.normalizer_in_carrier(Q).members:
        c = tuple(map(F.parent.conj_map(x).__getitem__, Q.members))
        fibres[c] = fibres.get(c, 0) | 1 << x
    return fibres


def _n_phi(F: PreFusionSystem, q: int, r: int, imgs: Images) -> Subgroup:
    """N_phi for the stored iso phi with these masks and images, unchecked.

    Whether phi c_x phi^-1 lies in Aut_P(R) depends only on c_x, so N_phi is
    the sum of the fibres c of ``aut_p(F, Q)`` whose conjugate through phi,
    phi(y) -> phi(c(y)) read over R.members, is a key of ``aut_p(F, R)``."""
    G = F.parent
    fm = dict(zip(Subgroup(G, q).members, imgs)).__getitem__
    back = sorted(range(len(imgs)), key=imgs.__getitem__)  # R.members = phi(Q.members[back])
    aut_r = aut_p(F, Subgroup(G, r))
    return Subgroup(G, sum(xs for c, xs in aut_p(F, Subgroup(G, q)).items()  # disjoint fibres
                           if tuple([fm(c[i]) for i in back]) in aut_r))


@memo("saturated")
def is_saturated(F: FusionSystem) -> bool:
    """Both saturation axioms, checked exhaustively.

    (1) |Aut_P(P)|, a power of p, divides |Aut_F(P)| with a quotient
        prime to p (0 is not): Aut_P(P) is a Sylow p-subgroup, and
    (2) every iso with fully normalized image extends to its N_phi.
    """
    P = F.carrier
    n, m = len(F.images(P.mask, P.mask)), len(aut_p(F, P))
    if n % m or n // m % F.p == 0:
        return False
    G = F.parent
    for q, r, imgs in F.triples():
        if is_fully_normalized(F, Subgroup(G, r)):
            n_sub = _n_phi(F, q, r, imgs).mask
            if n_sub != q and next(extensions(F, Subgroup(G, q).members, imgs, n_sub), None) is None:
                return False
    return True


def extensions(F: PreFusionSystem, xs: Sequence[int], imgs: Images, over: int) -> Iterator[Images]:
    """The images of the stored isos out of the subgroup mask ``over`` that
    send xs, members of it in order, to imgs."""
    at = restrictor(over, xs)
    for images in F.store.get(over, _NO_ROW).values():
        for psi in images:
            if at(psi) == imgs:
                yield psi


def extensions_on(F: PreFusionSystem, Q: Subgroup) -> Callable[[int, Images], Iterator[Images]]:
    """The function of a stored iso phi, given by its domain mask and images,
    whose values are the images of Q.members under the stored isos out of
    Q joined with phi's domain that extend phi."""
    over: dict[int, tuple] = {}  # a domain mask -> its members, its join with Q, and Q's part

    def on_q(r: int, imgs: Images) -> Iterator[Images]:
        if r not in over:
            R = Subgroup(F.parent, r)
            qr = pg.join(Q, R).mask
            over[r] = (R.members, qr, restrictor(qr, Q.members))
        xs, qr, at = over[r]
        return map(at, extensions(F, xs, imgs, qr))
    return on_q


# -- Aut_F(Q) as an abstract group ----------------------------------------------

@dataclass
class AutRealization:
    """Aut_F(Q) realized as a permutation group on the members of Q."""

    group: Group
    domain: Subgroup                  # Q
    images: tuple[Images, ...]        # indexed by realized element id
    inn: Subgroup                     # the conjugation automorphisms from Q

    def __post_init__(self):
        self._index = {imgs: i for i, imgs in enumerate(self.images)}

    @property
    def generators(self) -> list[Images]:
        """Image tuples that generate Aut_F(Q) under composition."""
        return [self.images[i] for i in self.group.full_subgroup().generating_ids()]

    def id_of(self, h: GroupHom) -> int:
        i = self._index.get(h.images)
        if i is None or h.domain.mask != self.domain.mask:
            raise NotASubgroupOfAut("automorphism is not in Aut_F(Q)")
        return i

    def subgroup_for(self, homs: Iterable[GroupHom]) -> Subgroup:
        """The realized subgroup for a closed set of automorphisms."""
        mask = 1 | pg.mask_of(self.id_of(h) for h in homs)
        if pg._closure_mask(self.group, mask) != mask:
            raise NotASubgroupOfAut("the given automorphisms are not a subgroup")
        return Subgroup(self.group, mask)


def check_in_carrier(F: PreFusionSystem, Q: Subgroup):
    if Q.parent != F.parent or not Q <= F.carrier:
        raise NotASubgroup("the subgroup does not lie in the carrier")


def aut_realization(F: PreFusionSystem, Q: Subgroup) -> AutRealization:
    check_in_carrier(F, Q)  # reads Q.parent, which the memo key omits
    return _aut_realization(F, Q)


@memo("aut_real")
def _aut_realization(F: PreFusionSystem, Q: Subgroup) -> AutRealization:
    members = Q.members
    if members not in F.images(Q.mask, Q.mask):
        raise MorphismNotInSystem(f"the identity of a subgroup of order {Q.order} is not stored")
    pos = {x: i for i, x in enumerate(members)}  # monotone: Perms sort as their images
    images = tuple(sorted(F.images(Q.mask, Q.mask)))  # so element id i of grp is images[i]
    perms = [pg.Perm(tuple(map(pos.__getitem__, imgs))) for imgs in images]
    grp = Group._from_elements(max(len(members), 1), perms, f"Aut({Q.order})")
    fibres = aut_p(F, Q)
    inn_mask = 1 | pg.mask_of(i for i, c in enumerate(images) if fibres.get(c, 0) & Q.mask)
    return AutRealization(grp, Q, images, Subgroup(grp, inn_mask))
