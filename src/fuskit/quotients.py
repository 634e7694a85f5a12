"""Factor systems, induced quotient systems, morphisms of fusion systems,
closure transfer to quotients, and the isomorphism-theorem verifiers.

Quotient carriers are always realized explicitly by the coset action of the
carrier, read off its parent's table, and every comparison between systems
on quotients pushes isos along an explicitly constructed map of carriers
(``fusion.carries``, ``_pushes``); nothing is identified "by name".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

from . import permgroup as pg
from .errors import (
    ImageNotAFusionSystem,
    NotNormal,
    NotNormalInP,
    NotSaturated,
    NotStronglyClosed,
)
from .fusion import (
    FusionSystem,
    PreFusionSystem,
    Triple,
    carries,
    generated_on,
    is_saturated,
    is_strongly_closed,
    is_weakly_closed,
    restrictor,
    same_system,
    stored_in,
)
from .permgroup import Group, GroupHom, Subgroup, memo


# -- quotient plumbing --------------------------------------------------------

@dataclass
class _QuotientParts:
    group: Group                    # the quotient permutation group
    proj: dict[int, int]            # carrier member id (ambient) -> quotient id


@memo("quotient_parts", named=True)
def _quotient_parts(F: PreFusionSystem, Q: Subgroup) -> _QuotientParts:
    if not Q <= F.carrier:
        raise NotNormalInP("Q must lie inside the carrier")
    try:
        QG, proj = pg.quotient_group(F.carrier, Q)
    except NotNormal:
        raise NotNormalInP("Q is not normal in the carrier") from None
    return _QuotientParts(QG, dict(zip(F.carrier.members, proj)))


def _image_subgroup(parts: _QuotientParts, R: Subgroup) -> Subgroup:
    return Subgroup(parts.group, pg.mask_image(parts.proj, R.mask))


def _preimage_subgroup(F: PreFusionSystem, parts: _QuotientParts, S: Subgroup) -> Subgroup:
    return Subgroup(F.parent, pg.mask_of(x for x in F.carrier.members if parts.proj[x] in S))


# -- factor and bar systems ---------------------------------------------------

def factor_parts(F: PreFusionSystem, Q: Subgroup) -> tuple[FusionSystem, dict[int, int]]:
    """The factor system F/Q plus the carrier projection map."""
    return factor_system(F, Q), _quotient_parts(F, Q).proj


def _pushes(F: PreFusionSystem, Q: Subgroup, fixing: bool) -> list[Triple]:
    """The push through P -> P/Q of F's isos between overgroups of Q that map
    Q onto Q (fixing) or of all the others (not fixing).  Every iso is pushed,
    so one that induces no map raises InvariantViolation."""
    proj = _quotient_parts(F, Q).proj
    over = {r: restrictor(r, Q.members) for r in F.store if not Q.mask & ~r}  # the overgroups of Q
    members = {q: Subgroup(F.parent, q).members for q in F.store}
    return [pg.pushed_images(members[q], imgs, proj) for q, _, imgs in F.triples()
            if (q in over and pg.mask_of(over[q](imgs)) == Q.mask) == fixing]


@memo("factor_system", named=True)
def factor_system(F: PreFusionSystem, Q: Subgroup) -> FusionSystem:
    """The factor system on P/Q: morphisms between overgroups of Q fixing Q."""
    return FusionSystem(_quotient_parts(F, Q).group.full_subgroup(), F.p,
                        triples=_pushes(F, Q, True), provenance="factor")


@memo("bar_system", named=True)
def bar_system(F: PreFusionSystem, Q: Subgroup) -> PreFusionSystem:
    """The prefusion system on P/Q induced by ALL morphisms of F: the factor
    system F/Q, which holds the pushes of the isos fixing Q, and the pushes of
    the others."""
    if not is_strongly_closed(F, Q):
        raise NotStronglyClosed("the bar construction needs a strongly closed kernel")
    # phi: R' -> S' induces QR'/Q -> QS'/Q, well defined as Q is strongly closed
    return PreFusionSystem(_quotient_parts(F, Q).group.full_subgroup(), F.p,
                           triples=chain(factor_system(F, Q).triples(), _pushes(F, Q, False)),
                           provenance="bar")


@memo("generated_bar", named=True)
def generated_bar(F: PreFusionSystem, Q: Subgroup) -> FusionSystem:
    """The fusion closure of the bar system."""
    bar = bar_system(F, Q)
    return generated_on(bar.carrier, F.p, triples=bar.triples(), provenance="generated-bar")


# -- the prefusion axiom checker ----------------------------------------------

@dataclass(frozen=True)
class PrefusionWitness:
    """A concrete axiom failure: which closure property, and the hom(s) involved."""

    kind: str                      # missing-conjugation | missing-inverse |
                                   # missing-restriction | missing-composite
    homs: tuple[GroupHom, ...]


@memo("is_fusion")
def prefusion_is_fusion(pre: PreFusionSystem) -> tuple[bool, Optional[PrefusionWitness]]:
    """Do the stored isos satisfy the fusion-system axioms (with hom-sets
    derived as iso-then-inclusion)?  Returns the first failure in canonical
    iteration order as a witness.

    Every map checked is made from the stored isos, so it lives in the
    ambient group, and it is in the system when its images are stored under
    its masks; a hom is built only for the witness."""
    carrier = pre.carrier
    G = pre.parent

    def missing(q: int, imgs: tuple[int, ...]) -> bool:
        return imgs not in pre.images(q, pg.mask_of(imgs))

    for A in pg.subgroups_of(carrier):
        for g in carrier.members:
            if missing(A.mask, tuple(map(G.conj_map(g).__getitem__, A.members))):
                theta = pg.conjugation_hom(g, A, A.conjugate(g))
                return False, PrefusionWitness("missing-conjugation", (theta,))
    # (domain, its members, image mask, images) in hom_key order
    isos = [(D, D.members, r, imgs) for q, row in pre.store.items() for D in [Subgroup(G, q)]
            for r, images in row.items() for imgs in sorted(images)]
    for D, xs, r, imgs in isos:  # h^-1 sends h(x) to x: its images sorted by h(x)
        if missing(r, tuple(x for _, x in sorted(zip(imgs, xs)))):
            return False, PrefusionWitness("missing-inverse", (pre.hom(D.mask, r, imgs),))
    for D, xs, r, imgs in isos:
        get = dict(zip(xs, imgs)).__getitem__
        for A in pg.subgroups_of(D)[:-1]:  # the proper subgroups
            if missing(A.mask, tuple(map(get, A.members))):
                h = pre.hom(D.mask, r, imgs)
                return False, PrefusionWitness("missing-restriction", (h, h.restriction(A)))
    for D, xs, r, imgs in isos:
        for s, images in pre.store.get(r, {}).items():
            for psi in sorted(images):  # phi then psi: psi read on phi's images
                if missing(D.mask, tuple(map(dict(zip(pg._bits(r), psi)).__getitem__, imgs))):
                    return False, PrefusionWitness(
                        "missing-composite", (pre.hom(D.mask, r, imgs), pre.hom(r, s, psi)))
    return True, None


# -- morphisms of fusion systems ------------------------------------------------

@dataclass
class FusionSystemMorphism:
    """A projection-induced morphism of fusion systems.

    The action on morphisms is completely determined by the carrier-level
    group homomorphism, stored here as an element-index map.
    """

    source: PreFusionSystem
    target: PreFusionSystem
    carrier_map: dict[int, int]     # source carrier member -> target carrier member
    kernel: Subgroup

    def apply(self, phi: GroupHom) -> GroupHom:
        return pg.induced_hom(phi, self.carrier_map, self.target.parent)


def quotient_morphism(F: FusionSystem, Q: Subgroup) -> FusionSystemMorphism:
    """The natural morphism F -> F/Q, with the functor condition validated
    exhaustively.

    The target follows from F.  A saturated F maps onto the factor system
    F/Q, and the bar image must already be a closed fusion system equal to
    it (ImageNotAFusionSystem otherwise); any other F maps onto the generated
    bar, the closure of the bar image.  The kernel is computed: it is the
    preimage of the identity of P/Q under the carrier map.
    """
    if not is_strongly_closed(F, Q):
        raise NotStronglyClosed("a fusion-system morphism kernel must be strongly closed")
    bar = bar_system(F, Q)  # the image of every morphism of F under the projection
    if is_saturated(F):
        closed, witness = prefusion_is_fusion(bar)
        tgt = factor_system(F, Q)
        if not closed or not same_system(bar, tgt):
            raise ImageNotAFusionSystem(
                f"bar image is not the factor system (witness: {witness})")
    else:
        tgt = generated_bar(F, Q)
    if not stored_in(bar, tgt):
        raise ImageNotAFusionSystem("functor condition failed on a morphism")
    parts = _quotient_parts(F, Q)
    kernel = _preimage_subgroup(F, parts, parts.group.trivial_subgroup())
    return FusionSystemMorphism(F, tgt, dict(parts.proj), kernel)


# -- closure transfer -----------------------------------------------------------

@dataclass
class ClosureTransferReport:
    weakly_closed_over: list[Subgroup]
    weakly_closed_quotient: list[Subgroup]
    weak_bijection_ok: bool
    weak_images_ok: bool
    strongly_closed_over: list[Subgroup]
    strongly_closed_quotient: list[Subgroup]
    strong_bijection_ok: bool
    strong_images_ok: bool

    @property
    def ok(self) -> bool:
        return (self.weak_bijection_ok and self.weak_images_ok
                and self.strong_bijection_ok and self.strong_images_ok)


def closure_transfer(F: FusionSystem, Q: Subgroup) -> ClosureTransferReport:
    """Check that projection to F/Q matches weak/strong closure on both sides:
    a bijection over subgroups containing Q, and image closure for all others.
    F must be saturated."""
    if not is_strongly_closed(F, Q):
        raise NotStronglyClosed("closure transfer needs a strongly closed Q")
    if not is_saturated(F):
        raise NotSaturated("closure transfer requires a saturated system")
    quot, _ = factor_parts(F, Q)
    parts = _quotient_parts(F, Q)
    subs = F.subgroups()
    qsubs = quot.subgroups()

    def transfer(closed):  # over Q, closed on F/Q, bijection ok, images ok
        over = [R for R in subs if Q <= R and closed(F, R)]
        on_quot = [S for S in qsubs if closed(quot, S)]
        images = {_image_subgroup(parts, R).mask for R in over}
        bijection = len(images) == len(over) and images == {S.mask for S in on_quot}
        return over, on_quot, bijection, all(
            closed(quot, _image_subgroup(parts, R)) for R in subs if closed(F, R))

    return ClosureTransferReport(*transfer(is_weakly_closed), *transfer(is_strongly_closed))


# -- isomorphism theorems ---------------------------------------------------------

def _canonical_iso(A: Subgroup, B: Subgroup, xs, to_a, to_b) -> Optional[dict[int, int]]:
    """The map to_a(x) -> to_b(x), x in xs, when it is an isomorphism of A
    onto B; None (a failed comparison, not an error) unless it is well
    defined, total on A, bijective onto B and multiplicative on A's Cayley
    edges (``permgroup.maps_cayley_edges``)."""
    m = {to_a[x]: to_b[x] for x in xs}
    imgs = tuple(map(m.get, A.members))  # None where m is not defined
    if any(m[to_a[x]] != to_b[x] for x in xs) or len(m) != A.order or None in imgs:
        return None
    iso = (imgs[0] == 0 and pg.mask_of(imgs) == B.mask and len(imgs) == B.order
           and pg.maps_cayley_edges(pg.cayley_columns(A), imgs, B.parent))
    return m if iso else None


@memo("pushes_to_factor")
def _pushes_to_factor(E: PreFusionSystem, K: Subgroup) -> bool:
    """Is the push of all of E through the projection of E/K equal to E/K?
    E/K is the push of E's isos that fix K, so the two are equal exactly when
    the pushes of the others, all made before any is compared, lie in E/K."""
    factor, rest = factor_system(E, K), _pushes(E, K, False)
    return all(imgs in factor.images(q, r) for q, r, imgs in rest)


def verify_second_iso(F: FusionSystem, Q: Subgroup, E: FusionSystem) -> bool:
    """EQ/Q (image of E in the bar system) is isomorphic to E/(R n Q), R the
    carrier of E, along theta: proj(x) -> rproj(x), x in R, where proj and
    rproj project onto F/Q and E/(R n Q).  As theta o proj = rproj on R, theta
    moves EQ/Q onto the push of E through rproj; so the check is that this
    push (memoized on E) is E/(R n Q) and that theta is an isomorphism onto its
    carrier.  On R the fibres of proj and rproj are both the cosets of R n Q,
    so the push raises InvariantViolation exactly when one through proj would."""
    if not is_saturated(F):
        raise NotSaturated("the second isomorphism theorem assumes saturation")
    if not is_strongly_closed(F, Q):
        raise NotStronglyClosed("Q must be strongly closed")
    R = E.carrier
    parts = _quotient_parts(F, Q)
    image = _image_subgroup(parts, R)
    cap = pg.meet(R, Q)
    right, rproj = factor_parts(E, cap)
    return (_pushes_to_factor(E, cap)  # first, so an iso that induces no map raises
            and _canonical_iso(image, right.carrier, R.members, parts.proj, rproj) is not None)


def verify_third_iso(F: FusionSystem, Q: Subgroup, R: Subgroup) -> bool:
    """(F/Q)/(R/Q) is isomorphic to F/R along the canonical map theta.  Once
    theta is checked to be an isomorphism onto F/R's carrier, the check is that
    the push of (F/Q)/(R/Q)'s isos through theta is F/R's isos."""
    if not is_saturated(F):
        raise NotSaturated("the third isomorphism theorem assumes saturation")
    if not (is_strongly_closed(F, Q) and is_strongly_closed(F, R)):
        raise NotStronglyClosed("Q and R must be strongly closed")
    if not Q <= R:
        raise NotNormalInP("Q must be contained in R")
    fq, proj1 = factor_parts(F, Q)
    f2, proj2 = factor_parts(fq, _image_subgroup(_quotient_parts(F, Q), R))
    fr, proj3 = factor_parts(F, R)
    members = F.carrier.members
    theta = _canonical_iso(f2.carrier, fr.carrier, members,
                           {x: proj2[proj1[x]] for x in members}, proj3)
    return theta is not None and carries(f2, theta, fr)


def local_determination_holds(F: FusionSystem, Q: Subgroup) -> bool:
    """Optional conjecture check: F/Q agrees with N_F(Q)/Q entrywise."""
    from .subsystems import normalizer_system
    if not is_strongly_closed(F, Q):
        raise NotStronglyClosed("Q must be strongly closed")
    nf = normalizer_system(F, Q)
    left = factor_system(F, Q)
    right = factor_system(nf, Q)
    return same_system(left, right)
