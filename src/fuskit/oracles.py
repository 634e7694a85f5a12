"""Brute-force reference implementations used as test oracles.

These deliberately take the definitional route (quantify over everything)
rather than the criteria used by the main code paths, so each value can be
checked by two genuinely different computations.
"""

from __future__ import annotations

from itertools import combinations, product
from math import prod

from . import permgroup as pg
from .closure import definitional_normal, is_centric
from .errors import InvariantViolation
from .fusion import FusionSystem
from .permgroup import Group, GroupHom, Subgroup, hom_key


def oracle_o_p(F: FusionSystem) -> Subgroup:
    """Join of all subgroups that pass the definitional normality check."""
    best = F.parent.trivial_subgroup()
    for Q in F.subgroups():
        if definitional_normal(F, Q):
            best = pg.join(best, Q)
    if not definitional_normal(F, best):
        raise InvariantViolation("the join of the normal subgroups is not normal")
    return best


def oracle_saturated(F: FusionSystem) -> bool:
    """Saturation in the Roberts-Shpectorov form (Aschbacher, Kessar and
    Oliver, Part I, I.2.5): every F-class of subgroups of the carrier S has a
    member Q that is

    - fully automized: Aut_S(Q) lies in Aut_F(Q) with the order of its Sylow
      p-subgroups, and
    - receptive: every iso phi: R -> Q of F extends to an iso of F out of
      N_phi = {g in N_S(R) : phi c_g phi^-1 in Aut_S(Q)}.

    Everything is read off the iso table in loops of its own, with c_g the map
    x -> g x g^-1 through G.mul: no fusion.n_phi, extension scan or memo."""
    G = F.parent
    S = F.carrier
    out_of: dict[int, list[GroupHom]] = {}  # domain mask -> the isos out of it
    onto: dict[int, list[GroupHom]] = {}    # image mask -> the isos onto it
    for homs in F.table.values():
        for h in homs:
            out_of.setdefault(h.domain.mask, []).append(h)
            onto.setdefault(h.image_mask, []).append(h)

    def conj(g: int, Q: Subgroup) -> dict[int, int]:
        gi = G.inv(g)
        return {x: G.mul(G.mul(g, x), gi) for x in Q.members}

    def aut_s(Q: Subgroup) -> set[tuple[int, ...]]:
        cs = (conj(g, Q) for g in S.members)
        return {tuple(c.values()) for c in cs if pg.mask_of(c.values()) == Q.mask}

    def fully_automized(Q: Subgroup) -> bool:
        auts = {tuple(h.mapping[x] for x in Q.members)
                for h in out_of.get(Q.mask, ()) if h.image_mask == Q.mask}
        inner = aut_s(Q)
        p_prime = len(auts)
        while p_prime and p_prime % F.p == 0:
            p_prime //= F.p
        return inner <= auts and len(inner) * p_prime == len(auts)

    def receptive(Q: Subgroup) -> bool:
        inner = aut_s(Q)
        for phi in onto.get(Q.mask, ()):
            R = phi.domain
            fm = phi.mapping
            back = {y: x for x, y in phi.pairs}
            n_mask = 0
            for g in S.members:
                cg = conj(g, R)
                if (pg.mask_of(cg.values()) == R.mask
                        and tuple(fm[cg[back[y]]] for y in Q.members) in inner):
                    n_mask |= 1 << g
            if n_mask != R.mask and not any(all(psi.mapping[x] == fm[x] for x in R.members)
                                            for psi in out_of.get(n_mask, ())):
                return False
        return True

    seen: set[int] = set()
    for Q in pg.subgroups_of(S):
        if Q.mask in seen:
            continue
        cls = {Q.mask} | {h.image_mask for h in out_of.get(Q.mask, ())}
        seen |= cls
        if not any(fully_automized(R) and receptive(R)
                   for R in (Subgroup(G, m) for m in sorted(cls))):
            return False
    return True


def oracle_constrained(F: FusionSystem) -> bool:
    """Directly: does some definitionally-normal subgroup contain its centralizer
    in every conjugate (i.e. is centric)?"""
    return any(definitional_normal(F, Q) and is_centric(F, Q) for Q in F.subgroups())


def oracle_tower(F: FusionSystem) -> tuple[list[Subgroup], bool, int | None]:
    """The core tower built on the definitional core at every level, over
    quotients built by _oracle_quotient rather than the quotients module."""
    tower = [F.parent.trivial_subgroup()]
    while tower[-1].mask != F.carrier.mask:
        cur = tower[-1]
        quot, proj = _oracle_quotient(F, cur)
        core = oracle_o_p(quot)
        pre = Subgroup(F.parent, pg.mask_of(x for x in F.carrier.members if proj[x] in core))
        if pre.mask == cur.mask:
            break
        tower.append(pre)
    soluble = tower[-1].mask == F.carrier.mask
    return tower, soluble, (len(tower) - 1 if soluble else None)


def _oracle_quotient(F: FusionSystem, T: Subgroup) -> tuple[FusionSystem, dict[int, int]]:
    """F/T for T normal in the carrier P, plus the projection of P's members.

    The right cosets Tx, found through G.mul and numbered by their least
    member, are the points; x in P acts by Tr -> Trx.  An iso of F between
    overgroups of T that maps T onto itself induces Tx -> T phi(x)."""
    G = F.parent
    coset: dict[int, int] = {}
    reps: list[int] = []
    for x in F.carrier.members:
        if x not in coset:
            for t in T.members:
                coset[G.mul(t, x)] = len(reps)
            reps.append(x)
    action = {x: tuple(coset[G.mul(r, x)] for r in reps) for x in F.carrier.members}
    Q = pg.group_from_generators(len(reps), list(action.values()), f"oracle {G.name}/{T.order}")
    proj = {x: Q.index_of(pg.Perm(img)) for x, img in action.items()}
    table: dict = {}
    for (r, s), homs in F.table.items():
        if T.mask & ~r.mask or T.mask & ~s.mask:
            continue
        for phi in homs:
            m = phi.mapping
            if any(not (T.mask >> m[t]) & 1 for t in T.members):
                continue
            pairs = {proj[x]: proj[m[x]] for x in r.members}
            key = (Subgroup(Q, pg.mask_of(pairs)), Subgroup(Q, pg.mask_of(pairs.values())))
            table.setdefault(key, set()).add(GroupHom.from_map(key[0], key[1], pairs))
    return FusionSystem(Q.full_subgroup(), F.p, table, provenance="oracle-quotient"), proj


def brute_subgroups(S: Subgroup) -> list[int]:
    """The masks of the subgroups of S, ordered by (order, mask): the closures
    of k-element subsets of S's members, k grown until no new mask appears."""
    found = {1}
    k = 0
    while k < S.order:
        k += 1
        before = len(found)
        for combo in combinations(S.members, k):
            found.add(pg._closure_from_gens(S.parent, combo))
        if len(found) == before and k > 1:
            break
    return sorted(found, key=lambda m: (m.bit_count(), m))


def brute_normal_subgroups(G: Group) -> list[Subgroup]:
    """Normal subgroups in (order, bitmask) order, as the unions of conjugacy
    classes that contain 1, have an order dividing |G| and are closed under
    products.  The classes come from conjugating by every element with G.mul."""
    unions = [(1, 1)]  # (mask, order), from the class {1}
    seen = 1
    for x in range(1, G.order):
        if (seen >> x) & 1:
            continue
        cls = pg.mask_of(G.mul(G.mul(G.inv(g), x), g) for g in range(G.order))
        seen |= cls
        n = cls.bit_count()
        unions += [(m | cls, k + n) for m, k in unions if k + n <= G.order]
    found = []
    for mask, k in unions:
        mem = list(pg._bits(mask))
        if G.order % k == 0 and all((mask >> G.mul(a, b)) & 1 for a in mem for b in mem):
            found.append(Subgroup(G, mask))
    return sorted(found, key=pg.subgroup_key)


def brute_automorphisms(Q: Subgroup) -> list[GroupHom]:
    """Aut(Q) in hom_key order, by trying every tuple of generator images:
    each tuple is extended over words in the generators and kept when the
    result is a bijection of Q with f(xy) = f(x)f(y) for all pairs x, y."""
    G = Q.parent
    gens = Q.generating_ids()
    mem = Q.members
    found = []
    for images in product(mem, repeat=len(gens)):
        f = {0: 0}
        words = [0]
        for w in words:  # words grows while we walk it
            for g, t in zip(gens, images):
                wg = G.mul(w, g)
                if wg not in f:
                    f[wg] = G.mul(f[w], t)
                    words.append(wg)
        if (len(set(f.values())) == len(mem)
                and all(f[G.mul(x, y)] == G.mul(f[x], f[y]) for x in mem for y in mem)):
            found.append(GroupHom.from_map(Q, Q, f))
    return sorted(found, key=hom_key)


def brute_generated_on(carrier: Subgroup, seeds, base=None) -> dict:
    """The iso table of the fusion system generated on the carrier, by the
    definition: the conjugation maps by every element of the carrier, the
    seeds (as isos onto their images) and the base maps, closed under inverse,
    restriction to every subgroup and composition until nothing new appears."""
    homs = {pg.conjugation_hom(x, Q, Q.conjugate(x))
            for x in carrier.members for Q in pg.subgroups_of(carrier)}
    homs |= {s.restriction(s.domain) for s in seeds}
    homs |= {h for hs in (base or {}).values() for h in hs}
    while True:
        by_domain: dict[int, list[GroupHom]] = {}
        for h in homs:
            by_domain.setdefault(h.domain.mask, []).append(h)
        new = {h.inverse() for h in homs}
        new |= {h.restriction(Q) for h in homs for Q in pg.subgroups_of(h.domain)}
        new |= {h.then(g) for h in homs for g in by_domain.get(h.image_mask, ())}
        if new <= homs:
            break
        homs |= new
    table: dict = {}
    for h in homs:
        table.setdefault((h.domain, h.image()), set()).add(h)
    return {key: frozenset(v) for key, v in table.items()}


def gaussian_subspace_total(n: int, q: int) -> int:
    """Total number of subspaces of F_q^n (sum of Gaussian binomials)."""
    def gauss(n, k):
        num = prod(q ** n - q ** i for i in range(k))
        den = prod(q ** k - q ** i for i in range(k))
        return num // den
    return sum(gauss(n, k) for k in range(n + 1))


def conjugation_map_count(G: Group, Q: Subgroup, R: Subgroup) -> int:
    """|{induced maps Q -> R from conjugation by elements of G}| by brute force."""
    seen = set()
    for g in range(G.order):
        imgs = pg.conj_images(G, g, Q.members)
        if all((R.mask >> y) & 1 for y in imgs):
            seen.add(imgs)
    return len(seen)
