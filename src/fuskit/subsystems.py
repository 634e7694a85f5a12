"""Subsystems of a fusion system and the predicates relating them.

A subsystem shares the ambient group of its parent system and lives on a
subgroup of the parent's carrier, so morphism containment is a literal
subset check on the stores of isos.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from . import closure as cl
from . import permgroup as pg
from .errors import CarrierNotStronglyClosed, NotNormal
from .fusion import (
    FusionSystem,
    PreFusionSystem,
    _conjugation_table,
    aut_p,
    aut_realization,
    carries,
    check_in_carrier,
    extensions_on,
    is_saturated,
    is_strongly_closed,
    stored_in,
)
from .permgroup import GroupHom, Subgroup, memo


def is_subsystem_of(E: PreFusionSystem, F: PreFusionSystem) -> bool:
    """Every iso of E is an iso of F with domain and image inside E's carrier."""
    return E.parent == F.parent and E.carrier <= F.carrier and stored_in(E, F)


@memo("inner_system")
def inner_system(Q: Subgroup, p: int) -> FusionSystem:
    """The fusion system of Q on itself: conjugation maps by elements of Q."""
    return FusionSystem(Q, p, triples=_conjugation_table(Q, Q.members), provenance="inner")


def k_normalizer_system(F: FusionSystem, Q: Subgroup, K: Iterable[GroupHom]) -> FusionSystem:
    """The K-normalizer subsystem of Q in F, for K a subgroup of Aut_F(Q).

    Carrier: the elements of N_P(Q) that conjugate Q by a member of K.
    Morphisms: those extending over Q to a morphism restricting into K.
    K = Aut_F(Q) yields the normalizer system, K = {id} the centralizer.
    """
    return _k_normalizer(F, Q, aut_realization(F, Q).subgroup_for(K))  # validates K


@memo("k_normalizer")
def _k_normalizer(F: FusionSystem, Q: Subgroup, K: Subgroup) -> FusionSystem:
    """N_F^K(Q) for K a subgroup of the realization of Aut_F(Q), which F's
    memo holds: so K's mask keys the entry.  F must be a fusion system.

    N_F^K(Q) is closed under composition, restriction and inverses, and holds
    the conjugations by its carrier N_P^K(Q).  When that is P and F is
    saturated, Aut_F(S) for S fully normalized centric radical generate F
    (Alperin's theorem; Aschbacher, Kessar and Oliver, Thm I.3.5): N_F^K(Q)
    is F when it holds them all, and not F when one lies outside it.  Only
    the full K can pass, as Aut_F(Q) lies in F.  Otherwise the isos are
    scanned, for a proper K those of E = N_F(Q): a morphism of N_F^K(Q)
    extends over Q inside E, so N_F^K(Q) = N_E^K(Q)."""
    real = aut_realization(F, Q)
    k_images = {real.images[i] for i in K.members} | {Q.members}  # with the identity
    n_mask = sum(xs for c, xs in aut_p(F, Q).items() if c in k_images)  # disjoint fibres
    whole = K.order == real.group.order
    E = F if whole else normalizer_system(F, Q)
    on_q = extensions_on(E, Q)
    inside = lambda r, imgs: any(x in k_images for x in on_q(r, imgs))  # extends into K
    if whole and n_mask == F.carrier.mask and is_saturated(F) and all(
            inside(S.mask, a) for S in cl.fnrc_subgroups(F) for a in F.images(S.mask, S.mask)):
        pg.WORK["knorm_generators"] += 1
        return FusionSystem(F.carrier, F.p, triples=F.triples())
    pg.WORK["knorm_scan"] += 1
    kept = ((r, s, imgs) for r, s, imgs in E.triples() if not (r | s) & ~n_mask and inside(r, imgs))
    return FusionSystem(Subgroup(F.parent, n_mask), F.p, triples=kept)


def normalizer_system(F: FusionSystem, Q: Subgroup) -> FusionSystem:
    return _k_normalizer(F, Q, aut_realization(F, Q).group.full_subgroup())


def centralizer_system(F: FusionSystem, Q: Subgroup) -> FusionSystem:
    return _k_normalizer(F, Q, aut_realization(F, Q).group.trivial_subgroup())


def _require_strongly_closed(F: FusionSystem, Q: Subgroup):
    check_in_carrier(F, Q)
    if not is_strongly_closed(F, Q):
        raise CarrierNotStronglyClosed("the subsystem carrier is not strongly closed")


def is_invariant(F: FusionSystem, E: PreFusionSystem) -> bool:
    """Stability of E under F-conjugation: every F-iso psi out of a subgroup
    S of E's carrier sends the isos of E inside S into E.  F must be a fusion
    system: psi phi psi^-1, for phi: A -> B, reads psi only on A v B, and F
    holds the restriction to A v B of every psi out of S >= A v B, so each
    phi is pushed through the isos of F out of A v B alone."""
    _require_strongly_closed(F, E.carrier)
    return _is_invariant(F, E)


@memo("invariant")
def _is_invariant(F: FusionSystem, E: PreFusionSystem) -> bool:
    for a, row in E.store.items():
        A = Subgroup(F.parent, a)
        for b, images in row.items():
            S = pg.join(A, Subgroup(F.parent, b))
            for psi in chain(*F.store.get(S.mask, {}).values()):
                if psi != S.members:  # the identity sends phi to itself
                    m = dict(zip(S.members, psi))
                    if not all(imgs in E.images(q, r) for q, r, imgs in
                               (pg.pushed_images(A.members, phi, m) for phi in images)):
                        return False
    return True


def is_frattini(F: FusionSystem, E: PreFusionSystem) -> bool:
    """Every F-morphism out of a subgroup of the carrier factors as an
    F-automorphism of the carrier followed by a morphism of E."""
    Q = E.carrier
    _require_strongly_closed(F, Q)
    auts = [dict(zip(Q.members, a)) for a in sorted(F.images(Q.mask, Q.mask))]
    for R in pg.subgroups_of(Q):
        for r, images in F.store.get(R.mask, {}).items():
            for phi in images:
                # beta = alpha^-1 phi : alpha(R) -> phi(R) sends alpha(x) to phi(x)
                if not any(tuple(y for _, y in sorted(zip(map(am.__getitem__, R.members), phi)))
                           in E.images(pg.mask_image(am, R.mask), r)
                           for am in auts):
                    return False
    return True


def aut_f_acts_on(F: PreFusionSystem, E: PreFusionSystem) -> bool:
    """Whether each alpha in Aut_F(Q), Q the carrier of E, sends the isos of E
    into those of E: being injective on isos, the push is then onto them."""
    check_in_carrier(F, E.carrier)
    return _aut_f_acts_on(F, E)


@memo("aut_f_acts")
def _aut_f_acts_on(F: PreFusionSystem, E: PreFusionSystem) -> bool:
    Q = E.carrier
    return all(carries(E, dict(zip(Q.members, a)), E) for a in F.images(Q.mask, Q.mask))


def is_normal_subsystem(F: FusionSystem, E: FusionSystem) -> bool:
    """F-invariant and saturated."""
    return is_invariant(F, E) and is_saturated(E)


def is_characteristic(F: FusionSystem, E: FusionSystem) -> bool:
    """Stability of E under every automorphism of the carrier preserving F."""
    if not is_normal_subsystem(F, E):
        raise NotNormal("E is not a normal subsystem of F")
    P = F.carrier
    # a moved carrier fails too: a saturated E stores its carrier's identity
    return all(carries(E, dict(zip(P.members, a)), E) for a in _aut_stabilizer(F))


@memo("aut_stabilizer")
def _aut_stabilizer(F: PreFusionSystem) -> list[tuple[int, ...]]:
    """The automorphisms of F's carrier that carry F onto F, as image tuples."""
    P = F.carrier
    return [a for a in pg.aut_images(P) if carries(F, dict(zip(P.members, a)), F)]
