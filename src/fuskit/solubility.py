"""p-solubility of fusion systems: the iterated core tower, p-length,
constrainedness, model-group verification, the Qd(p) groups, and the
Thompson-factorization predicate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import permgroup as pg
from .closure import o_p
from .errors import InvariantViolation, NotSaturated, OrderCapExceeded, SylowMismatch
from .fusion import FusionSystem, carries, fusion_from_group, generated_on, is_saturated, same_system
from .permgroup import Group, Subgroup, memo
from .quotients import _preimage_subgroup, _quotient_parts, factor_system
from .subsystems import centralizer_system, normalizer_system


@dataclass
class SolubilityReport:
    tower: list[Subgroup]           # preimages of the iterated cores, from 1
    p_soluble: bool
    p_length: Optional[int]
    constrained: bool


def o_p_tower(F: FusionSystem) -> SolubilityReport:
    """Iterate T_{i+1} = preimage of O_p(F/T_i) until it stabilizes.

    The system is p-soluble exactly when the tower reaches the carrier, and
    the tower length is then the p-length.  The projection P -> P/1 is a
    group isomorphism that carries F onto F/1, so the preimage of O_p(F/1)
    is O_p(F): the tower starts T_1 = O_p(F), with no quotient built.  When
    O_p(F) = 1 the tower is [1], which reaches a trivial carrier (p-length 0).
    """
    if not is_saturated(F):
        raise NotSaturated("the core tower requires a saturated system")
    tower = [F.parent.trivial_subgroup()]
    pre = o_p(F)
    while pre.mask != tower[-1].mask:
        tower.append(pre)
        if pre.mask != F.carrier.mask:
            pre = _preimage_subgroup(F, _quotient_parts(F, pre), o_p(factor_system(F, pre)))
    soluble = tower[-1].mask == F.carrier.mask
    return SolubilityReport(
        tower=tower,
        p_soluble=soluble,
        p_length=len(tower) - 1 if soluble else None,
        constrained=is_constrained(F),
    )


def is_constrained(F: FusionSystem) -> bool:
    """C_P(O_p(F)) <= O_p(F); equivalent to having a normal centric subgroup."""
    if not is_saturated(F):
        raise NotSaturated("constrainedness is defined for saturated systems")
    core = o_p(F)
    return F.centralizer_in_carrier(core) <= core


def is_model(G: Group, F: FusionSystem) -> bool:
    """Whether G realizes F: trivial p'-core, self-centralizing p-core, and
    conjugation fusion on a Sylow subgroup equal to F under some
    identification of the Sylow subgroup with the carrier."""
    p = F.p
    P = pg.sylow(G, p)
    first = pg.isomorphisms_between(P, F.carrier)
    if not first:
        raise SylowMismatch("no isomorphism between the Sylow subgroup and the carrier")
    if pg.core_pprime(G, p).order != 1:
        return False
    core = pg.core_p(G, p)
    if not pg.centralizer(G.full_subgroup(), core) <= core:
        return False
    FG = fusion_from_group(G, p)
    theta0 = first[0].mapping
    if carries(FG, theta0, F):
        return True
    # theta = alpha then theta0, for alpha in Aut(P) other than the identity
    return any(carries(FG, dict(zip(P.members, map(theta0.__getitem__, a))), F)
               for a in pg.aut_images(P) if a != P.members)


def qd_group(p: int) -> Group:
    """The affine group (C_p x C_p) : SL_2(p) acting on p^2 points."""
    pg._check_prime(p)
    if p > 5:
        raise OrderCapExceeded("qd_group is limited to p <= 5")
    n = p * p

    def idx(a, b):
        return a * p + b

    t1 = [idx((a + 1) % p, b) for a in range(p) for b in range(p)]
    t2 = [idx(a, (b + 1) % p) for a in range(p) for b in range(p)]
    # row-vector action (a,b) -> (a,b) M for the elementary matrices
    m1 = [idx(a, (a + b) % p) for a in range(p) for b in range(p)]
    m2 = [idx((a + b) % p, b) for a in range(p) for b in range(p)]
    return pg.group_from_generators(n, [t1, t2, m1, m2], f"Qd({p})")


def is_qdp_free_group(G: Group, p: int) -> bool:
    """No subquotient of G is isomorphic to Qd(p)."""
    pg._check_prime(p)
    if G.order > pg.order_cap():
        raise OrderCapExceeded(f"group of order {G.order} exceeds cap")
    m = p ** 3 * (p * p - 1)
    if G.order % m:
        return True
    target = qd_group(p).full_subgroup()
    if m == G.order:
        return not pg.isomorphisms_between(G.full_subgroup(), target)
    # a section H/N = Qd(p) takes H and the kernel N from the lattice of G
    lattice = pg.subgroups(G)
    for H in sorted((H for H in lattice if H.order % m == 0), key=lambda s: -s.order):
        for N in lattice:
            if N.order * m != H.order or not N <= H or not pg.is_normal_in(N, H):
                continue
            quotient, _ = pg.quotient_group(H, N)
            if pg.isomorphisms_between(quotient.full_subgroup(), target):
                return False
    return True


def thompson_factorization_holds(F: FusionSystem) -> bool:
    """Whether the normalizer of the Thompson subgroup and the centralizer of
    the socle of the centre together generate the whole system."""
    if not is_saturated(F):
        raise NotSaturated("Thompson factorization is about saturated systems")
    return same_system(generated_on(F.carrier, F.p, triples=thompson_base(F)), F)


def thompson_base(F: FusionSystem) -> list[tuple[int, int, tuple[int, ...]]]:
    """The isos of N_F(J(P)) and C_F(Omega_1(Z(P))) together, as (domain
    mask, image mask, images) triples."""
    P = F.carrier
    nj = normalizer_system(F, pg.thompson_subgroup(P))
    comega = centralizer_system(F, pg.omega1(pg.center(P), F.p))
    if nj.carrier != P or comega.carrier != P:
        raise InvariantViolation("a normalizer or centralizer system is not on the carrier")
    return [*nj.triples(), *comega.triples()]


@memo("p_soluble")
def group_is_p_soluble(G: Group, p: int) -> bool:
    """Alternating p'-core / p-core tower on the group side."""
    pg._check_prime(p)
    while G.order > 1:
        n = pg.core_pprime(G, p)
        if n.order == 1:
            n = pg.core_p(G, p)
        if n.order == 1:
            return False
        G, _ = pg.quotient_group(G, n)
    return True
