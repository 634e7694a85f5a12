"""Classification of subgroups inside a fusion system.

Covers fully normalized / centric / radical / weakly and strongly closed
flags, normality of a subgroup in the system, the core O_p, the centre, the
closed central series used by the normality criteria, and the generation
machinery behind the fusion theorem (conjugation-family generators and
decomposition of isomorphisms through them).
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

from . import permgroup as pg
from . import subsystems as subsys
from .errors import (
    DecompositionNotFound,
    InvariantViolation,
    MorphismNotInSystem,
    NotSaturated,
    NotStronglyClosed,
)
from .fusion import (
    FusionSystem,
    aut_realization,
    check_in_carrier,
    extensions_on,
    is_fully_normalized,
    is_saturated,
    is_strongly_closed,
    is_weakly_closed,
    same_system,
)
from .permgroup import GroupHom, Subgroup, memo


@dataclass(frozen=True)
class SubgroupClassification:
    subgroup: Subgroup
    fully_normalized: bool
    centric: bool
    radical: bool
    weakly_closed: bool
    strongly_closed: bool
    normal_in_F: bool


def is_centric(F: FusionSystem, Q: Subgroup) -> bool:
    """Every F-conjugate of Q contains its carrier-centralizer."""
    return all(F.centralizer_in_carrier(R) <= R for R in F.iso_class(Q))


def is_radical(F: FusionSystem, Q: Subgroup) -> bool:
    """O_p(Aut_F(Q)) equals the inner automorphisms of Q."""
    real = aut_realization(F, Q)
    return pg.core_p(real.group, F.p).mask == real.inn.mask


def classify(F: FusionSystem, Q: Subgroup) -> SubgroupClassification:
    check_in_carrier(F, Q)
    return SubgroupClassification(
        subgroup=Q,
        fully_normalized=is_fully_normalized(F, Q),
        centric=is_centric(F, Q),
        radical=is_radical(F, Q),
        weakly_closed=is_weakly_closed(F, Q),
        strongly_closed=is_strongly_closed(F, Q),
        normal_in_F=is_normal_subgroup(F, Q),
    )


@memo("fnrc")
def fnrc_subgroups(F: FusionSystem) -> list[Subgroup]:
    """The fully normalized, centric, radical subgroups (canonical order)."""
    return [S for S in F.subgroups()
            if is_fully_normalized(F, S) and is_centric(F, S) and is_radical(F, S)]


def is_normal_subgroup(F: FusionSystem, Q: Subgroup) -> bool:
    """Whether the whole system normalizes Q.

    On a saturated system this uses the containment criterion (strongly
    closed, and inside every fully normalized centric radical subgroup); on a
    non-saturated system the criterion is not available, so we fall back to
    the definitional check and warn.  A caller that wants no fallback checks
    is_saturated first.
    """
    check_in_carrier(F, Q)
    if not is_saturated(F):
        warnings.warn("system is not saturated; using the definitional normality check",
                      stacklevel=2)
        return definitional_normal(F, Q)
    return _normal_by_criterion(F, Q)


@memo("normal_subgroup")
def _normal_by_criterion(F: FusionSystem, Q: Subgroup) -> bool:
    return is_strongly_closed(F, Q) and all(Q <= T for T in fnrc_subgroups(F))


def definitional_normal(F: FusionSystem, Q: Subgroup) -> bool:
    """Direct check that F equals its normalizer system at Q: the carrier
    normalizes Q and every iso extends over Q to one fixing Q setwise."""
    if F.normalizer_in_carrier(Q).mask != F.carrier.mask:
        return False
    on_q = extensions_on(F, Q)
    return all(any(pg.mask_of(x) == Q.mask for x in on_q(r, imgs)) for r, _, imgs in F.triples())


@memo("o_p")
def o_p(F: FusionSystem) -> Subgroup:
    """The largest subgroup normal in F.

    Computed as the join of the strongly closed subgroups inside the
    intersection of all fully normalized centric radical subgroups; products
    of strongly closed subgroups are strongly closed, so the join stays
    strongly closed and the criterion makes it the maximum.
    """
    if not is_saturated(F):
        raise NotSaturated("O_p is defined for saturated systems")
    meet_mask = F.carrier.mask
    for T in fnrc_subgroups(F):
        meet_mask &= T.mask
    return _closed_join(F, F.subgroups(), meet_mask, is_strongly_closed)


@memo("z_f")
def center_of_fusion(F: FusionSystem) -> Subgroup:
    """The largest central subgroup Z with C_F(Z) = F."""
    if not is_saturated(F):
        raise NotSaturated("the centre is defined for saturated systems")
    zp = pg.center(F.carrier)
    return _closed_join(F, pg.subgroups_of(zp), zp.mask, _centralizes_system)


def _closed_join(F: FusionSystem, subs: list[Subgroup], mask: int, closed) -> Subgroup:
    """The join of the S in subs inside the subgroup mask with closed(F, S);
    the property is one that joins keep, so the join is the largest such S."""
    top = F.parent.trivial_subgroup()
    for S in subs:
        if S.mask & ~mask == 0 and closed(F, S):
            top = pg.join(top, S)
    if top.mask & ~mask or not closed(F, top):
        raise InvariantViolation("the join of the closed subgroups is not closed")
    return top


def _centralizes_system(F: FusionSystem, Z: Subgroup) -> bool:
    return same_system(subsys.centralizer_system(F, Z), F)


def strongly_closed_central_series(F: FusionSystem, Q: Subgroup, mode: str = "strong"):
    """Greedy central series for Q whose terms are strongly (or weakly) closed.

    Each step takes the largest closed subgroup of Q inside the preimage of
    the centre of Q over the previous term; any valid series term embeds in
    the greedy one, so the greedy ascent reaches Q exactly when some such
    series exists.  Returns the series (starting at the trivial subgroup) or
    None.
    """
    if mode not in ("strong", "weak"):
        raise ValueError("mode must be 'strong' or 'weak'")
    check_in_carrier(F, Q)
    if not is_saturated(F):
        raise NotSaturated("closed central series require a saturated system")
    closed = is_strongly_closed if mode == "strong" else is_weakly_closed
    if mode == "weak" and not is_strongly_closed(F, Q):
        raise NotStronglyClosed("weak mode requires Q itself strongly closed")
    series = [F.parent.trivial_subgroup()]
    while series[-1].mask != Q.mask:
        prev = series[-1].mask
        step = _closed_join(F, pg.subgroups_of(Q), pg.central_preimage(Q, prev), closed)
        if step.mask == prev:
            return None
        series.append(step)
    return series


# -- conjugation-family generation -------------------------------------------

def alperin_generators(F: FusionSystem) -> list[tuple[Subgroup, frozenset[GroupHom]]]:
    """The fully normalized centric radical subgroups with their Aut_F sets.

    Restrictions of these automorphisms generate the whole system; the
    verification suite asserts that exactly.
    """
    if not is_saturated(F):
        raise NotSaturated("the fusion theorem requires a saturated system")
    return [(S, F.aut(S)) for S in fnrc_subgroups(F)]


def alperin_decompose(F: FusionSystem, phi: GroupHom) -> list[tuple[Subgroup, GroupHom]]:
    """Write phi as a composite of restricted automorphisms of fully
    normalized centric radical subgroups (breadth-first, shortest word)."""
    if not is_saturated(F):
        raise NotSaturated("the fusion theorem requires a saturated system")
    if not F.contains_iso(phi):
        raise MorphismNotInSystem("phi is not an isomorphism of the system")
    # every word is defined on phi's domain, so its images key it; the
    # generators are the automorphisms of the conjugation family, as maps
    target = phi.images
    start = phi.domain.members
    if start == target:
        return []
    gens = [(S, a, dict(zip(S.members, a)).__getitem__)
            for S in fnrc_subgroups(F) for a in sorted(F.images(S.mask, S.mask))]
    seen = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        cur_img = pg.mask_of(cur)
        for S, a, get in gens:
            if cur_img & ~S.mask:
                continue
            nxt = tuple(map(get, cur))
            if nxt in seen:
                continue
            seen[nxt] = (cur, S, a)
            if nxt == target:
                steps = []
                while seen[nxt] is not None:
                    nxt, s_i, a_i = seen[nxt]
                    steps.append((s_i, F.hom(s_i.mask, s_i.mask, a_i)))
                steps.reverse()
                return steps
            queue.append(nxt)
    raise DecompositionNotFound("no decomposition found; the system is not saturated "
                                "or its table is not closed")
