"""Subsystems of a fusion system and the predicates relating them.

A subsystem shares the ambient group of its parent system and lives on a
subgroup of the parent's carrier, so morphism containment is a literal
subset check on the iso tables.
"""

from __future__ import annotations

from typing import Iterable

from . import permgroup as pg
from .errors import CarrierNotStronglyClosed, NotNormal
from .fusion import (
    FusionSystem,
    PreFusionSystem,
    _conjugation_table,
    aut_realization,
    extensions,
    images_by_key,
    is_saturated,
    is_strongly_closed,
    same_system,
    transport,
)
from .permgroup import GroupHom, Subgroup, cached, memo


def is_subsystem_of(E: PreFusionSystem, F: PreFusionSystem) -> bool:
    """Every iso of E is an iso of F with domain and image inside E's carrier."""
    if E.parent != F.parent or not E.carrier <= F.carrier:
        return False
    return all(homs <= F.table.get(key, frozenset()) for key, homs in E.table.items())


@memo("inner_system")
def inner_system(Q: Subgroup, p: int) -> FusionSystem:
    """The fusion system of Q on itself: conjugation maps by elements of Q."""
    return FusionSystem(Q, p, _conjugation_table(Q, Q.members), provenance="inner")


def k_normalizer_system(F: FusionSystem, Q: Subgroup, K: Iterable[GroupHom]) -> FusionSystem:
    """The K-normalizer subsystem of Q in F, for K a subgroup of Aut_F(Q).

    Carrier: the elements of N_P(Q) that conjugate Q by a member of K.
    Morphisms: those extending over Q to a morphism restricting into K.
    K = Aut_F(Q) yields the normalizer system, K = {id} the centralizer.
    """
    real = aut_realization(F, Q)
    K = list(K)
    real.subgroup_for(K)  # validates membership and closure under products
    key = (Q.mask, tuple(sorted(h.images for h in K)))  # K's homs are all on Q
    return cached(F, "k_normalizer", key, _k_normalizer_system, F, Q, K)


def _k_normalizer_system(F: FusionSystem, Q: Subgroup, K: list[GroupHom]) -> FusionSystem:
    qmem = Q.members
    k_images = {h.images for h in K}
    k_images.add(qmem)  # the identity
    G = F.parent
    n_mask = pg.mask_of(g for g in F.normalizer_in_carrier(Q).members
                        if tuple(map(G.conj_map(g).__getitem__, qmem)) in k_images)

    table = {}
    for (r, s), homs in F.table.items():
        if r.mask & ~n_mask or s.mask & ~n_mask:
            continue
        qr = pg.join(Q, r)
        kept = {phi for phi in homs
                if any(tuple(map(psi.mapping.__getitem__, qmem)) in k_images
                       for psi in extensions(F, phi, qr))}
        if kept:
            table[(r, s)] = kept
    return FusionSystem(Subgroup(G, n_mask), F.p, table, provenance="derived")


def normalizer_system(F: FusionSystem, Q: Subgroup) -> FusionSystem:
    return k_normalizer_system(F, Q, F.aut(Q))


def centralizer_system(F: FusionSystem, Q: Subgroup) -> FusionSystem:
    return k_normalizer_system(F, Q, [GroupHom.identity(Q)])


def _require_strongly_closed(F: FusionSystem, Q: Subgroup):
    if not is_strongly_closed(F, Q):
        raise CarrierNotStronglyClosed("the subsystem carrier is not strongly closed")


def is_invariant(F: FusionSystem, E: PreFusionSystem) -> bool:
    """Stability of E under F-conjugation, checked over all morphism pairs.

    Cached in E's memo, keyed by the id of F's memo: the entry also holds F's
    memo, so the id cannot pass to another object while the entry lives.  The
    table sits with E, which is mostly the shorter-lived of the two."""
    f_memo = F._caches
    return cached(E, "invariant", id(f_memo), lambda: (f_memo, _is_invariant(F, E)))[1]


def _in_push(index: dict, phi: GroupHom, m) -> bool:
    """Whether the push of phi through the element map m has its images
    filed under its masks in the ``images_by_key`` index."""
    dom, img, imgs = pg.pushed_images(phi.domain.members, phi.images, m)
    return imgs in index.get((dom, img), ())


def _is_invariant(F: FusionSystem, E: PreFusionSystem) -> bool:
    Q = E.carrier
    _require_strongly_closed(F, Q)
    e_images = images_by_key(E)
    for S in pg.subgroups_of(Q):
        for psi in F.isos_from(S):
            pm = psi.mapping
            for R in pg.subgroups_of(S):
                for phi in E.isos_from(R):
                    if not (phi.image_mask & ~S.mask or _in_push(e_images, phi, pm)):
                        return False
    return True


def is_frattini(F: FusionSystem, E: PreFusionSystem) -> bool:
    """Every F-morphism out of a subgroup of the carrier factors as an
    F-automorphism of the carrier followed by a morphism of E."""
    Q = E.carrier
    _require_strongly_closed(F, Q)
    e_images = images_by_key(E)
    auts = [a.mapping for a in sorted(F.aut(Q), key=pg.hom_key)]
    for R in pg.subgroups_of(Q):
        for phi in F.isos_from(R):
            # beta = alpha^-1 phi : alpha(R) -> phi(R) sends alpha(x) to phi(x)
            if not any(tuple(y for _, y in sorted(zip(map(am.__getitem__, R.members), phi.images)))
                       in e_images.get((pg.mask_image(am, R.mask), phi.image_mask), ())
                       for am in auts):
                return False
    return True


def aut_f_acts_on(E: PreFusionSystem, alphas: Iterable[GroupHom]) -> bool:
    """Each alpha must send every morphism of E to a morphism of E."""
    e_images = images_by_key(E)
    return all(_in_push(e_images, phi, alpha.mapping)
               for alpha in alphas for homs in E.table.values() for phi in homs)


def is_normal_subsystem(F: FusionSystem, E: FusionSystem) -> bool:
    """F-invariant and saturated."""
    return is_invariant(F, E) and is_saturated(E)


def is_characteristic(F: FusionSystem, E: FusionSystem) -> bool:
    """Stability of E under every automorphism of the carrier preserving F."""
    if not is_normal_subsystem(F, E):
        raise NotNormal("E is not a normal subsystem of F")
    P = F.carrier
    for alpha in pg.automorphisms(P):
        if not same_system(transport(F, alpha), F):
            continue
        if pg.mask_image(alpha.mapping, E.carrier.mask) != E.carrier.mask:
            return False
        if not same_system(transport(E, alpha.restriction(E.carrier)), E):
            return False
    return True
