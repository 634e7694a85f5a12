import hashlib
import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from fuskit import fusion as fz
from fuskit import permgroup as pg
from fuskit import solubility as sol
from fuskit.errors import (
    ConjugateEscapes,
    DoesNotGenerate,
    ImageEscapesCodomain,
    InvariantViolation,
    NotAHomomorphism,
    NotAPermutation,
    NotASubgroup,
    NotInjective,
    NotNormal,
    OrderCapExceeded,
    ProductNotASubgroup,
)
from fuskit.oracles import (
    brute_automorphisms,
    brute_normal_subgroups,
    brute_subgroups,
    gaussian_subspace_total,
)


def sympy_order(G):
    """Independent group-order oracle (Schreier-Sims via sympy)."""
    return PermutationGroup([Permutation(list(g.images)) for g in G.generators]).order()


# -- construction -------------------------------------------------------------

def test_d8_from_generators(groups):
    d8 = groups["d8"]
    assert d8.order == 8 == sympy_order(d8)


def test_trivial_group():
    t = pg.group_from_generators(1, [], "1")
    assert t.order == 1 and t.elements[0].is_identity()


def test_s4_from_generators(groups):
    s4 = groups["s4"]
    assert s4.order == 24 == sympy_order(s4)


def test_duplicate_image_rejected():
    with pytest.raises(NotAPermutation):
        pg.group_from_generators(3, [[0, 0, 1]], "bad")


def test_order_cap(monkeypatch):
    monkeypatch.setenv("FUSKIT_ORDER_CAP", "100")
    with pytest.raises(OrderCapExceeded):
        pg.group_from_generators(6, [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]], "A6")


def test_equal_identities_share_their_tables(groups):
    s4 = groups["s4"]
    s4.mul(0, 0)
    again = pg.group_from_generators(s4.degree, s4.generators, s4.name)
    assert again is s4
    assert pg.sylow(again, 2) is pg.sylow(s4, 2)


def test_every_constructor_returns_the_live_group(groups):
    import copy
    import pickle
    G = groups["s4"]
    assert pg.Group(G.degree, G.name, G.generators, G.elements) is G
    assert pg.Group._from_elements(G.degree, reversed(G.elements), G.name, G.generators) is G
    key = (G.degree, G.name, tuple(g.images for g in G.generators),
           tuple(p.images for p in G.elements))
    assert pg._GROUPS[key] is G
    assert copy.copy(G) is G and pickle.loads(pickle.dumps(G)) is G
    renamed = pg.Group(G.degree, "S4-renamed", G.generators, G.elements)
    assert renamed is not G and renamed == G and hash(renamed) == hash(G)
    assert renamed._caches is not G._caches


def test_registry_lets_groups_go():
    import gc
    G = pg.group_from_generators(3, [[1, 2, 0]], "C3-transient")
    key = (3, "C3-transient", ((1, 2, 0),), tuple(p.images for p in G.elements))
    assert key in pg._GROUPS
    del G
    gc.collect()
    assert key not in pg._GROUPS


def test_elements_not_closed_raise_invariant_violation():
    # {1, (0 1 2)} holds neither the square nor the inverse of (0 1 2)
    G = pg.Group._from_elements(3, [pg.Perm((0, 1, 2)), pg.Perm((1, 2, 0))], "not-closed")
    with pytest.raises(InvariantViolation):
        G.rows()
    with pytest.raises(InvariantViolation):
        G.inv(1)
    # above the table limit a product is composed when it is asked for
    s7 = pg.group_from_generators(7, [[1, 2, 3, 4, 5, 6, 0], [1, 0, 2, 3, 4, 5, 6]], "S7")
    gone = s7.elements[5]
    H = pg.Group._from_elements(7, [p for p in s7.elements if p != gone], "S7-minus-one")
    assert H.order > pg._TABLE_LIMIT
    with pytest.raises(InvariantViolation):
        H.mul(1, H.index_of(H.elements[1].inverse() * gone))


def test_identity_first_and_inverse_law(groups):
    for G in groups.values():
        assert G.elements[0].is_identity()
        for x in range(G.order):
            assert G.mul(x, G.inv(x)) == 0


# -- subgroup enumeration ------------------------------------------------------

def test_subgroup_counts(groups):
    assert len(pg.subgroups(groups["d8"])) == 10 == len(brute_subgroups(groups["d8"].full_subgroup()))
    assert len(pg.subgroups(groups["c3"])) == 2
    assert len(pg.subgroups(groups["c2"])) == 2
    assert len(pg.subgroups(groups["e16"])) == 67 == gaussian_subspace_total(4, 2)


def _fresh(G, tag):
    # its own name makes it a new identity: interning would hand back the
    # warm group, with the lattices other tests left on it
    fresh = pg.Group(G.degree, f"{G.name}-{tag}", G.generators, G.elements)
    assert fresh._caches is not G._caches
    return fresh


def _counting_joins(monkeypatch):
    calls = [0]
    join = pg._joined_lattice

    def counting(S):
        calls[0] += 1
        return join(S)

    monkeypatch.setattr(pg, "_joined_lattice", counting)
    return calls


def test_subgroups_match_the_brute_oracle(groups, monkeypatch):
    # proper subgroups too: their lattice closes orbits under S, not under
    # G.  Fresh groups hold no lattice, so every one is joined
    carriers = [_fresh(G, "brute").full_subgroup() for G in groups.values() if G.order <= 24]
    carriers += [pg.sylow(_fresh(groups["a6"], "brute"), 2),
                 pg.sylow(_fresh(groups["qd3"], "brute"), 3)]
    joins = _counting_joins(monkeypatch)
    for S in carriers:
        assert [H.mask for H in pg.subgroups_of(S)] == brute_subgroups(S)
    assert joins[0] == len(carriers)


def test_held_lattice_filters_to_the_brute_oracle(groups, monkeypatch):
    # with the lattice of T held, the lattice of every S <= T is read off it
    tops = [_fresh(groups["s4"], "held").full_subgroup(),
            _fresh(groups["d8xc2"], "held").full_subgroup(),
            pg.sylow(_fresh(groups["qd3"], "held"), 3)]
    joins = _counting_joins(monkeypatch)
    for T in tops:
        for S in pg.subgroups_of(T):
            assert [H.mask for H in pg.subgroups_of(S)] == brute_subgroups(S)
    assert joins[0] == len(tops)


@pytest.mark.parametrize("name, count, most", [("a6", 501, 750), ("qd3", 182, 500)])
def test_lattice_join_work_bound(groups, name, count, most):
    # counts work, not time: joining every subgroup made 30,147 and 7,158
    # joins, one join per right coset 1,082 and 600, and one per double coset
    # for joins that are the whole group 684 and 459
    fresh = _fresh(groups[name], "joins")
    before = pg.WORK["lattice_join"]
    assert len(pg.subgroups(fresh)) == count
    assert 0 < pg.WORK["lattice_join"] - before <= most


def _right_coset_lattice(S):
    """The lattice of S by the cyclic-extension loop that covers only the
    right coset Hx after each join <H, x>: the reference for
    ``_joined_lattice``, which also covers double cosets."""
    G, rows = S.parent, S.parent.rows()
    reps = sorted({pg._closure_from_gens(G, [x]): x for x in reversed(S.members)}.items())
    gens_s = S.generating_ids()
    conj = [dict(zip(S.members, pg.conj_images(G, g, S.members)))
            for g in gens_s if any(rows[g][h] != rows[h][g] for h in gens_s)]
    known, layer = {1}, [(1, ())]
    while layer:
        nxt = []
        for mask, gens in layer:
            covered, h_rows = mask, [rows[h] for h in pg._bits(mask)]
            index = S.order // len(h_rows)
            most = index // next((q for q in range(2, index + 1) if index % q == 0), 1)
            for _, x in reps:
                if (covered >> x) & 1:
                    continue
                hx = 0
                for h_row in h_rows:
                    hx |= 1 << h_row[x]
                j, coset_reps = mask | hx, [x]
                for r in coset_reps:  # Dimino's step, as far as most cosets
                    if len(coset_reps) >= most:
                        break
                    for g in gens + (x,):
                        y = rows[r][g]
                        if not (j >> y) & 1:
                            coset_reps.append(y)
                            for h_row in h_rows:
                                j |= 1 << h_row[y]
                if j.bit_count() > most * len(h_rows):
                    j = S.mask
                covered |= hx
                if j not in known:
                    known.add(j)
                    orbit = [j]
                    for k in orbit:
                        for cm in conj:
                            c = pg.mask_image(cm, k)
                            if c not in known:
                                known.add(c)
                                orbit.append(c)
                    nxt.append((j, gens + (x,)))
        layer = nxt
    return sorted(known, key=lambda m: (m.bit_count(), m))


def _relabelled(G, seed):
    """G on its points renamed by a seeded permutation."""
    pts = list(range(G.degree))
    random.Random(seed).shuffle(pts)
    gens = []
    for g in G.generators:
        img = [0] * G.degree
        for i, y in enumerate(g.images):
            img[pts[i]] = pts[y]
        gens.append(img)
    return pg.group_from_generators(G.degree, gens, f"{G.name}-relabelled-{seed}")


def test_double_coset_lattice_agrees_with_right_coset_joins(groups):
    # covering the double coset HxH after a join that is all of S skips only
    # joins <H, h*x*h'> = <H, x>, so the lattice is the same list of masks
    wide = [_fresh(G, "agree") for G in (
        _c2_wr_c2_wr_c2(), _from_cycles(9, [[0, 1, 2]], [[0, 3, 6], [1, 4, 7], [2, 5, 8]]),
        _from_cycles(9, [[0, 1, 2]], [[0, 1]], [[0, 3, 6], [1, 4, 7], [2, 5, 8]]))]
    assert [G.order for G in wide] == [128, 81, 648]
    cases = [_fresh(G, "agree") for G in groups.values()]
    cases += [_relabelled(G, seed) for G in groups.values() for seed in (30, 31)]
    for G in cases + wide:
        assert "subgroups_of" not in G._caches  # so the lattice is joined
        S = G.full_subgroup()
        assert [H.mask for H in pg.subgroups_of(S)] == _right_coset_lattice(S), G.name
    assert [len(pg.subgroups(G)) for G in wide] == [576, 50, 1_208]


def _from_cycles(degree, *gens):
    return pg.group_from_generators(
        degree, [Permutation(cycles, size=degree).array_form for cycles in gens])


def _c2_wr_c2_wr_c2(name="G"):
    return pg.group_from_generators(8, [Permutation(c, size=8).array_form for c in (
        [[0, 1]], [[0, 2], [1, 3]], [[0, 4], [1, 5], [2, 6], [3, 7]])], name)


def _affine(p, name, *maps):
    """The group of the maps (x, y) -> maps(x, y) mod p on the points
    x*p + y of F_p^2."""
    pts = [(x, y) for x in range(p) for y in range(p)]
    return pg.group_from_generators(
        p * p, [[u % p * p + v % p for u, v in (f(x, y) for x, y in pts)] for f in maps], name)


def _heisenberg(p):
    """p^{1+2}_+ as the maps (x, y) -> (x + a, y + b*x + c) of F_p^2."""
    return _affine(p, f"{p}^(1+2)", lambda x, y: (x + 1, y), lambda x, y: (x, y + x),
                   lambda x, y: (x, y + 1))


def _agl23():
    """AGL(2,3): the translations and GL(2,3) on F_3^2."""
    return _affine(3, "AGL(2,3)", lambda x, y: (x + 1, y), lambda x, y: (y, -x),
                   lambda x, y: (x, x + y), lambda x, y: (2 * x, y))


def _sympy_order(Q, homs):
    """The order of the group the homs generate, acting on the members of Q
    (Schreier-Sims via sympy); one generator is added at a time, and only when
    it is not in the group so far, since sympy slows down on hundreds."""
    pos = {x: i for i, x in enumerate(Q.members)}
    gen = PermutationGroup([Permutation(Q.order - 1)])
    for h in homs:
        perm = Permutation([pos[y] for y in h.images])
        if not gen.contains(perm):
            gen = PermutationGroup(gen.generators + [perm])
    return gen.order()


def test_wide_carrier_lattices():
    s3_wr_c3 = _from_cycles(9, [[0, 1, 2]], [[0, 1]], [[0, 3, 6], [1, 4, 7], [2, 5, 8]])
    c2_wr_c2_wr_c2 = _c2_wr_c2_wr_c2()
    assert (s3_wr_c3.order, c2_wr_c2_wr_c2.order) == (648, 128)
    assert len(pg.subgroups(s3_wr_c3)) == 1_208
    assert len(pg.subgroups(c2_wr_c2_wr_c2)) == 576
    assert sol.is_qdp_free_group(s3_wr_c3, 3)


def test_lattice_above_the_table_limit_conjugates_members_only():
    # without a table a conj_map over all of S7 costs 5,040 products per
    # generator, though the orbit step reads only the images of S4's members
    s7 = _from_cycles(7, [[0, 1, 2, 3, 4, 5, 6]], [[0, 1]])
    assert s7.order == 5_040 > pg._TABLE_LIMIT
    s4 = s7.subgroup_of(s7.index_of(pg.Perm(Permutation(c, size=7).array_form))
                        for c in ([[0, 1, 2, 3]], [[0, 1]]))
    assert s4.order == 24
    conj_maps = set(s7._conj)
    masks = [H.mask for H in pg.subgroups_of(s4)]
    assert len(masks) == 30 and masks == brute_subgroups(s4)
    assert set(s7._conj) == conj_maps


def test_subgroup_invariants(groups):
    G = groups["s4"]
    subs = pg.subgroups(G)
    for S in subs:
        assert 0 in S
        assert G.order % S.order == 0  # Lagrange
        for a in S.members:
            assert G.inv(a) in S
            for b in S.members:
                assert G.mul(a, b) in S
    # deterministic order
    assert [pg.subgroup_key(s) for s in subs] == sorted(pg.subgroup_key(s) for s in subs)


def test_subgroups_cap(groups, monkeypatch):
    monkeypatch.setenv("FUSKIT_ORDER_CAP", "100")
    with pytest.raises(OrderCapExceeded):
        pg.subgroups(groups["a6"])


def test_normal_subgroups(groups):
    s4 = groups["s4"]
    got = {N.mask for N in pg.normal_subgroups(s4)}
    expect = {S.mask for S in pg.subgroups(s4)
              if pg.is_normal_in(S, s4.full_subgroup())}
    assert got == expect
    assert sorted(N.order for N in pg.normal_subgroups(s4)) == [1, 4, 12, 24]


def test_normal_subgroups_match_class_union_oracle(groups):
    for name, G in groups.items():
        got = [N.mask for N in pg.normal_subgroups(G)]
        assert got == [N.mask for N in brute_normal_subgroups(G)], name


def test_normal_structure_work_bound(groups, monkeypatch):
    # counts work, not time: the normal-closure joins made 814 and 849 closures
    a6 = groups["a6"]
    # its own name makes it a new identity: interning would hand back the warm A6
    fresh = pg.Group(a6.degree, "A6-cold", a6.generators, a6.elements)
    assert fresh._caches is not a6._caches
    pg.subgroups(fresh)
    calls = 0
    closure = pg._closure_from_gens

    def counting_closure(G, gens):
        nonlocal calls
        calls += 1
        return closure(G, gens)

    monkeypatch.setattr(pg, "_closure_from_gens", counting_closure)
    assert len(pg.normal_subgroups(fresh)) == 2
    assert calls <= 50
    calls = 0
    assert not sol.is_qdp_free_group(fresh, 2)
    assert calls <= 50
    assert not hasattr(pg, "normal_closure")


# -- standard subgroups -----------------------------------------------------------

def test_center_of_d8(groups):
    d8 = groups["d8"]
    z = pg.center(d8.full_subgroup())
    # oracle: elements commuting with everything
    expect = [x for x in range(8)
              if all(d8.mul(x, y) == d8.mul(y, x) for y in range(8))]
    assert list(z.members) == expect
    assert z.order == 2


def test_thompson_subgroup_of_d8(groups):
    d8 = groups["d8"]
    # oracle: abelian subgroups of maximal order, joined
    abelian = [S for S in pg.subgroups(d8) if S.is_abelian()]
    top = max(s.order for s in abelian)
    assert top == 4
    j = pg.thompson_subgroup(d8.full_subgroup())
    assert j.order == 8  # the two Klein fours generate everything


def test_core_p_of_s4(groups):
    s4 = groups["s4"]
    v4 = pg.core_p(s4, 2)
    # oracle: the largest normal 2-subgroup found by scanning the lattice
    best = max((S for S in pg.subgroups(s4)
                if pg._is_p_power(S.order, 2) and pg.is_normal_in(S, s4.full_subgroup())),
               key=lambda s: s.order)
    assert v4 == best and v4.order == 4


def test_core_pprime(groups):
    s4 = groups["s4"]
    assert pg.core_pprime(s4, 2).order == 1
    assert pg.core_pprime(s4, 3).order == 4  # V4 is the largest normal 3'-subgroup
    a4 = groups["a4"]
    assert pg.core_pprime(a4, 3).order == 4


def test_omega1_of_c4():
    c4 = pg.group_from_generators(4, [[1, 2, 3, 0]], "C4")
    om = pg.omega1(c4.full_subgroup(), 2)
    assert om.order == 2


def test_sylow(groups):
    s4 = groups["s4"]
    assert pg.sylow(s4, 2).order == 8
    assert pg.sylow(s4, 3).order == 3
    assert pg.sylow(groups["a6"], 2).order == 8


# the masks of the greedy scan that closed every trial <S, x> to completion
SYLOW_MASKS = {
    "a4@2": 0x909, "a4@3": 0x7, "a6@2": 0x909000000000000909,
    "a6@3": 0x7000000000007000000000000000007, "a6@5": 0x1200100010001,
    "c2@2": 0x3, "c3@3": 0x7, "c4xc2@2": 0xff, "d8@2": 0xff, "d8xc2@2": 0xffff,
    "e16@2": 0xffff, "q8@2": 0xff, "qd2@2": 0xc300c3, "qd2@3": 0x19,
    "qd3@2": 0x50a849,
    "qd3@3": 0x1c0000e000001c0000000e00007000000e00000007000038000007,
    "s3@2": 0x3, "s3@3": 0x19, "s4@2": 0xc300c3, "s4@3": 0x19,
    "sl23@2": 0x50a849, "sl23@3": 0x7,
}


def test_sylow_masks_are_stamped(groups):
    got = {f"{name}@{p}": pg.sylow(G, p).mask
           for name, G in groups.items() for p in (2, 3, 5, 7) if G.order % p == 0}
    assert got == SYLOW_MASKS


def test_sylow_work_bound(groups, monkeypatch):
    # counts work, not time: closing every trial <S, x> to completion, and
    # scanning again after S was whole, took 259 closures of 77,822 elements
    # in all on A6 at p = 2, and 1,459 of 2,413,694 on A7 (15.7 s).  Now the
    # scan ends when S has |G|_p elements (15 closures), and a trial past
    # |G|_p elements is given up (122 elements, against 734 when the 15 are
    # closed to completion)
    a6 = groups["a6"]
    fresh = pg.Group(a6.degree, "A6-sylow-cold", a6.generators, a6.elements)
    closure = pg._closure_within
    work = [0, 0]

    def counting_closure(G, gens, most):
        mask = closure(G, gens, most)
        work[0] += 1
        work[1] += mask.bit_count()
        return mask

    monkeypatch.setattr(pg, "_closure_within", counting_closure)
    assert pg.sylow(fresh, 2).mask == SYLOW_MASKS["a6@2"]
    assert work[0] <= 40 and work[1] <= 300
    a7 = _from_cycles(7, [[0, 1, 2, 3, 4, 5, 6]], [[0, 1, 2]])
    assert a7.order == 2_520 > pg._TABLE_LIMIT
    work[:] = [0, 0]
    # A7's first 360 elements fix point 0: they are A6's, in the same order,
    # and the full scan found its Sylow subgroup among them as well
    assert pg.sylow(a7, 2).mask == SYLOW_MASKS["a6@2"]
    assert work[0] <= 40 and work[1] <= 300


def _breadth_first_closure(G, gens, most):
    """The walk the closure kernel replaced: breadth first from the identity,
    each element times every generator, stopping after the first layer that
    takes it past most elements."""
    mask, size, frontier = 1, 1, [0]
    while frontier and size <= most:
        nxt = []
        for w in frontier:
            for g in gens:
                prod = G.mul(w, g)
                if not (mask >> prod) & 1:
                    mask |= 1 << prod
                    nxt.append(prod)
        frontier = nxt
        size += len(nxt)
    return mask


def test_closure_agrees_with_breadth_first_walk(groups):
    # seeded generator lists, drawn from the whole group and from subgroups
    # so that many generate proper subgroups and repeat members; A7 has no
    # table.  Under a cut-off the kernel is exact up to most elements, and
    # stops past most elements otherwise, inside the subgroup
    a7 = _from_cycles(7, [[0, 1, 2, 3, 4, 5, 6]], [[0, 1, 2]])
    assert a7.order > pg._TABLE_LIMIT
    cases = [(G, [range(G.order)] + [S.members for S in pg.subgroups(G)])
             for G in groups.values()]
    cases.append((a7, [range(a7.order), pg.sylow(a7, 2).members, pg.sylow(a7, 3).members,
                       pg.sylow(a7, 7).members]))
    rng = random.Random(27)
    for G, pools in cases:
        for _ in range(12 if G is a7 else 40):
            pool = rng.choice(pools)
            gens = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
            exact = _breadth_first_closure(G, gens, G.order)
            assert pg._closure_within(G, gens, G.order) == exact, (G.name, gens)
            for most in {1, 2, 3, 8, exact.bit_count() - 1, exact.bit_count(), G.order}:
                got = pg._closure_within(G, gens, most)
                if exact.bit_count() <= most:
                    assert got == exact, (G.name, gens, most)
                else:
                    assert got.bit_count() > most and not got & ~exact, (G.name, gens, most)


def test_closure_coset_steps_double(groups):
    # counts work, not time: a coset step is taken only for a generator
    # outside the subgroup H grown so far, and each step at least doubles
    # |H|, so all 360 members of A6 as generators take at most
    # ceil(log2(360)) = 9 steps (4 are taken; the breadth-first walk made
    # 360 products per element)
    a6 = groups["a6"]
    before = Counter(pg.WORK)
    assert a6.subgroup_of(range(a6.order)).order == 360
    work = pg.WORK - before
    assert work["closure"] == 1
    assert 0 < work["coset_step"] <= math.ceil(math.log2(360))


def test_set_product_agrees_with_the_product_set(groups):
    # AB is a subgroup exactly when |<A, B>| * |A n B| = |A| * |B|; the
    # oracle multiplies out every a*b
    for name in ("s4", "d8xc2"):
        G = groups[name]
        subs = pg.subgroups(G)
        for A in subs:
            for B in subs:
                prod = pg.mask_of(G.mul(a, b) for a in A.members for b in B.members)
                members = [x for x in range(G.order) if (prod >> x) & 1]
                if _breadth_first_closure(G, members, G.order) == prod:
                    assert pg.set_product(A, B).mask == prod, (name, A.mask, B.mask)
                else:
                    with pytest.raises(ProductNotASubgroup):
                        pg.set_product(A, B)


def test_join_meet_set_product(groups):
    s4 = groups["s4"]
    subs = pg.subgroups(s4)
    a = next(S for S in subs if S.order == 2)
    full = s4.full_subgroup()
    assert pg.join(a, full) == full
    assert pg.meet(a, full) == a
    # product of two transposition subgroups generating S3 is not a subgroup
    two = [S for S in subs if S.order == 2 and not pg.is_normal_in(S, full)]
    got_error = False
    for A, B in combinations(two, 2):
        if pg.join(A, B).order == 6:
            with pytest.raises(ProductNotASubgroup):
                pg.set_product(A, B)
            got_error = True
            break
    assert got_error


def test_standard_constructions(groups):
    s4 = groups["s4"]
    d8 = groups["d8"]
    s4_full = s4.full_subgroup()
    d8_full = d8.full_subgroup()
    v4 = pg.core_p(s4, 2)
    assert v4.order == 4 and pg.is_normal_in(v4, s4_full)
    assert pg.centralizer(s4_full, v4) == v4
    assert pg.normalizer(s4_full, v4) == s4_full
    assert pg.commutator_subgroup(v4, v4).order == 1
    assert pg.core_pprime(s4, 3) == v4
    assert pg.sylow(s4, 3).order == 3
    assert pg.center(d8_full).order == 2
    assert pg.thompson_subgroup(d8_full).order == 8
    assert pg.omega1(d8_full, 2).order == 8
    z = pg.center(d8_full)
    assert pg.join(z, z) == z
    assert pg.set_product(z, z) == z
    with pytest.raises(pg.NotASubgroup):
        pg.centralizer(s4_full, pg.center(d8_full))


def test_centralizer_matches_the_conjugation_maps(groups):
    # C_S(Q) tests commuting with Q's generating ids on the table rows; the
    # definition it replaced kept the g in S whose conjugation map fixes every
    # member of Q.  Every (S, Q) pair of each corpus group, and S = G for A6,
    # whose 501 subgroups make 251,001 pairs
    for name, G in groups.items():
        subs = pg.subgroups(G)
        for Q in subs:
            fixing = pg.mask_of(g for g in range(G.order)
                                if all(G.conj_map(g)[x] == x for x in Q.members))
            for S in (subs if name != "a6" else [G.full_subgroup()]):
                assert pg.centralizer(S, Q).mask == S.mask & fixing, (name, S.mask, Q.mask)
            if Q.mask == G.full_subgroup().mask:
                assert pg.center(Q).mask == fixing, name


def test_normalizer_and_normality_match_the_conjugation_maps(groups):
    # N_S(Q) conjugates Q's generating ids on the table rows, and "Q is
    # normal in S" conjugates Q by S's generating ids; the definition is the
    # g whose conjugation map sends every member of Q into Q.  Every (S, Q)
    # pair of each corpus group, and S = G for A6
    for name, G in groups.items():
        subs = pg.subgroups(G)
        for Q in subs:
            keeping = pg.mask_of(g for g in range(G.order)
                                 if all((Q.mask >> G.conj_map(g)[x]) & 1 for x in Q.members))
            for S in (subs if name != "a6" else [G.full_subgroup()]):
                assert pg.normalizer(S, Q).mask == S.mask & keeping, (name, S.mask, Q.mask)
                assert pg.is_normal_in(Q, S) == (S.mask & ~keeping == 0), (name, S.mask, Q.mask)


# -- upper central series ------------------------------------------------------------

def test_upper_central_series(groups):
    d8 = groups["d8"]
    series = pg.upper_central_series(d8.full_subgroup())
    assert [s.order for s in series] == [1, 2, 8]
    e16 = groups["e16"]
    assert [s.order for s in pg.upper_central_series(e16.full_subgroup())] == [1, 16]
    v4 = pg.core_p(groups["s4"], 2)
    assert [s.order for s in pg.upper_central_series(v4)] == [1, 4]


# -- quotients -------------------------------------------------------------------------

def test_quotient_d8_by_center(groups):
    d8 = groups["d8"]
    z = pg.center(d8.full_subgroup())
    q, proj = pg.quotient_group(d8, z)
    assert q.order == 4
    assert all(q.element_order(i) <= 2 for i in range(q.order))  # Klein four
    # projection is a surjective hom with kernel exactly Z
    assert set(proj) == set(range(q.order))
    assert [x for x in range(8) if proj[x] == 0] == list(z.members)
    for a in range(8):
        for b in range(8):
            assert proj[d8.mul(a, b)] == q.mul(proj[a], proj[b])


def test_quotient_by_whole_group(groups):
    s4 = groups["s4"]
    q, _ = pg.quotient_group(s4, s4.full_subgroup())
    assert q.order == 1


def test_quotient_d8xc2_by_z(groups):
    G = groups["d8xc2"]
    z = G.index_of(G.generators[2])
    q, _ = pg.quotient_group(G, G.subgroup_of([z]))
    assert q.order == 8
    assert pg.isomorphism_search(q, groups["d8"]) is not None


def test_quotient_requires_normal(groups):
    s4 = groups["s4"]
    t = next(S for S in pg.subgroups(s4)
             if S.order == 2 and not pg.is_normal_in(S, s4.full_subgroup()))
    with pytest.raises(NotNormal):
        pg.quotient_group(s4, t)


def test_quotient_order_product(groups):
    for name in ("d8", "s4", "q8", "d8xc2"):
        G = groups[name]
        for N in pg.subgroups(G):
            if pg.is_normal_in(N, G.full_subgroup()):
                q, _ = pg.quotient_group(G, N)
                assert q.order * N.order == G.order


def _composed_table(H):
    """H's table from products of its permutations, made without a Group,
    which would be interned and hand back the very table under test."""
    idx = {p.images: i for i, p in enumerate(H.elements)}
    return tuple(tuple(idx[tuple(b.images[i] for i in a.images)] for b in H.elements)
                 for a in H.elements)


def test_quotient_of_a_subgroup(groups):
    # S/N is read off the rows of S's parent, with no group made for S
    for name in ("s4", "qd3", "d8xc2"):
        G = groups[name]
        for S in pg.subgroups(G)[1::7]:
            pos = {x: i for i, x in enumerate(S.members)}
            for N in pg.subgroups_of(S):
                if not pg.is_normal_in(N, S):
                    continue
                Q, proj = pg.quotient_group(S, N)
                assert Q.name == f"{G.name}|{S.order}/{N.order}"
                assert Q.order * N.order == S.order
                assert Q._mul == _composed_table(Q), (name, S.mask, N.mask)
                # the projection, aligned with S.members, is a surjective hom
                # with kernel exactly N
                assert len(proj) == S.order and set(proj) == set(range(Q.order))
                assert [x for x, q in zip(S.members, proj) if q == 0] == list(N.members)
                for a in S.members:
                    for b in S.members:
                        assert proj[pos[G.mul(a, b)]] == Q.mul(proj[pos[a]], proj[pos[b]])
                assert Q.generators == tuple(Q.elements[proj[pos[g]]] for g in S.generating_ids())
    trivial = groups["s4"].trivial_subgroup()
    Q, proj = pg.quotient_group(trivial, trivial)
    assert (Q.name, Q.order, proj) == ("S4|1/1", 1, (0,))
    assert Q.generators == (pg.Perm.identity(1),)


def test_quotient_of_a_subgroup_rejects_bad_kernels(groups):
    s4 = groups["s4"]
    P = pg.sylow(s4, 2)
    outside = next(N for N in pg.subgroups(s4) if N.order == 2 and not N <= P)
    with pytest.raises(NotASubgroup):
        pg.quotient_group(P, outside)
    with pytest.raises(NotASubgroup):
        pg.quotient_group(P, groups["d8"].trivial_subgroup())
    not_normal = next(N for N in pg.subgroups_of(P) if N.order == 2 and not pg.is_normal_in(N, P))
    with pytest.raises(NotNormal):
        pg.quotient_group(P, not_normal)


# -- homomorphisms ------------------------------------------------------------------------

def test_hom_build_identity(groups):
    d8 = groups["d8"]
    full = d8.full_subgroup()
    gens = [d8.index_of(g) for g in d8.generators]
    h = pg.hom_build(full, full, [(g, g) for g in gens])
    assert h.is_identity_map()


def test_hom_build_e16_seed(groups):
    e16 = groups["e16"]
    a, b, c, _ = (e16.index_of(g) for g in e16.generators)
    ab = e16.mul(a, b)
    h = pg.hom_build(e16.subgroup_of([ab]), e16.subgroup_of([c]), [(ab, c)])
    assert h.image().order == 2 and h(ab) == c


def test_hom_build_collapse_not_injective():
    c4 = pg.group_from_generators(4, [[1, 2, 3, 0]], "C4")
    c2 = pg.group_from_generators(2, [[1, 0]], "C2")
    x = c4.index_of(c4.generators[0])
    y = c2.index_of(c2.generators[0])
    with pytest.raises(NotInjective):
        pg.hom_build(c4.full_subgroup(), c2.full_subgroup(), [(x, y)])


def test_hom_build_rejects_non_hom(groups):
    c4 = pg.group_from_generators(4, [[1, 2, 3, 0]], "C4")
    c3 = groups["c3"]
    with pytest.raises(NotAHomomorphism):
        pg.hom_build(c4.full_subgroup(), c3.full_subgroup(),
                     [(c4.index_of(c4.generators[0]), c3.index_of(c3.generators[0]))])


def test_hom_build_does_not_generate(groups):
    d8 = groups["d8"]
    z = pg.center(d8.full_subgroup())
    zgen = [m for m in z.members if m][0]
    with pytest.raises(DoesNotGenerate):
        pg.hom_build(d8.full_subgroup(), d8.full_subgroup(), [(zgen, zgen)])


def test_hom_build_neither_generates_nor_extends(groups):
    # a 4-cycle sent to a 3-cycle: <r> is not S4, and r^4 = 1 has image t^4 = t
    s4 = groups["s4"]
    r = s4.index_of(pg.Perm((1, 2, 3, 0)))
    t = s4.index_of(pg.Perm((1, 2, 0, 3)))
    with pytest.raises(NotAHomomorphism):
        pg.hom_build(s4.full_subgroup(), s4.full_subgroup(), [(r, t)])


def test_hom_build_escapes_codomain(groups):
    d8 = groups["d8"]
    z = pg.center(d8.full_subgroup())
    r = d8.index_of(d8.generators[0])
    with pytest.raises(ImageEscapesCodomain):
        pg.hom_build(d8.subgroup_of([r]), z, [(r, r)])


def test_hom_equality_ignores_codomain_subgroup(groups):
    d8 = groups["d8"]
    z = pg.center(d8.full_subgroup())
    inc_small = pg.GroupHom.inclusion(z, z)
    inc_big = pg.GroupHom.inclusion(z, d8.full_subgroup())
    assert inc_small == inc_big and hash(inc_small) == hash(inc_big)
    # but a different codomain parent breaks equality
    s4 = groups["s4"]
    z4 = next(S for S in pg.subgroups(s4)
              if S.order == 2 and pg.is_normal_in(S, pg.sylow(s4, 2)))
    assert pg.GroupHom.identity(z) != pg.GroupHom.identity(z4)


def test_from_map_needs_a_total_map(groups):
    d8 = groups["d8"]
    z = pg.center(d8.full_subgroup())
    x = z.members[1]
    with pytest.raises(NotAHomomorphism, match="not total"):
        pg.GroupHom.from_map(z, z, {0: 0})  # misses x
    outside = next(y for y in range(d8.order) if y not in z)
    with pytest.raises(NotAHomomorphism, match="not total"):
        pg.GroupHom.from_map(z, z, {0: 0, x: x, outside: outside})
    with pytest.raises(NotAHomomorphism, match="not total"):
        pg.GroupHom.from_map(z, z, [(0, 0), (outside, x)])


def test_a_hom_is_its_image_tuple(groups):
    s4 = groups["s4"]
    for h in pg.automorphisms(pg.core_p(s4, 2)):
        Q = h.domain
        by_map = pg.GroupHom.from_map(Q, h.codomain, reversed(h.pairs))
        by_images = pg.GroupHom(Q, h.codomain, h.images)
        assert by_map == by_images == h and hash(by_map) == hash(by_images) == hash(h)
        assert by_map.images == tuple(h.mapping[x] for x in Q.members)
        assert h.pairs == tuple(sorted(h.mapping.items()))


def test_conjugation_hom(groups):
    s4 = groups["s4"]
    full = s4.full_subgroup()
    # identity conjugation is an inclusion
    z = pg.center(groups["d8"].full_subgroup())
    h = pg.conjugation_hom(0, full, full)
    assert h.is_identity_map()
    # (0 2)^(0 1 2 3) = (1 3)
    g = s4.index_of(pg.Perm((1, 2, 3, 0)))
    t02 = s4.index_of(pg.Perm((2, 1, 0, 3)))
    t13 = s4.index_of(pg.Perm((0, 3, 2, 1)))
    q = s4.subgroup_of([t02])
    r = s4.subgroup_of([t13])
    h = pg.conjugation_hom(g, q, r)
    assert h(t02) == t13
    # escape
    g01 = s4.index_of(pg.Perm((1, 0, 2, 3)))
    with pytest.raises(ConjugateEscapes):
        pg.conjugation_hom(g01, q, q)
    # inverse composition is the identity
    back = pg.conjugation_hom(s4.inv(g), r, q)
    assert h.then(back).is_identity_map()


# -- isomorphism search ----------------------------------------------------------------------

def test_isomorphism_search(groups, monkeypatch):
    assert pg.isomorphism_search(groups["qd2"], groups["s4"]) is not None
    assert pg.isomorphism_search(groups["d8"], groups["q8"]) is None
    auto = pg.isomorphism_search(groups["s4"], groups["s4"])
    assert auto is not None and auto.is_identity_map()
    monkeypatch.setattr(pg, "DEFAULT_ISO_CAP", 100)  # the guard reads it when called
    with pytest.raises(OrderCapExceeded):
        pg.isomorphism_search(groups["a6"], groups["a6"])


def test_isomorphism_is_multiplicative(groups):
    theta = pg.isomorphism_search(groups["qd2"], groups["s4"])
    G, H = groups["qd2"], groups["s4"]
    m = theta.mapping
    for a in range(G.order):
        for b in range(G.order):
            assert m[G.mul(a, b)] == H.mul(m[a], m[b])


def test_automorphisms_match_brute_force(groups):
    for name, G in groups.items():
        if name == "e16":  # 20,160 automorphisms; pinned by the Sylow digests below
            continue
        for Q in pg.subgroups(G):
            if Q.order <= 16:
                assert ([a.pairs for a in pg.automorphisms(Q)]
                        == [a.pairs for a in brute_automorphisms(Q)]), (name, Q.mask)


# sha256 of repr([a.pairs for a in automorphisms(sylow(G, p))]), stamped from
# the closure-based search that the Cayley-edge search replaced
SYLOW_AUT_DIGESTS = {
    ("a4", 2): "8cb45d7536fcd3cb0342a18c078c397c0af964d2e62e21682099ba416507615c",
    ("a4", 3): "899bc17a98a3ba6862f666e4035aed43ca4ef63ee7f67b1d432db5c0b4904039",
    ("a6", 2): "b5a0446d3a57dabce3b67596318d1ac2b3a5645f327f4b11c5738dc447673a72",
    ("c2", 2): "1cfa10e55370445f90dcc93c9acae5e8341842d46ae32aeb104ec8cdbca1a2bc",
    ("c3", 3): "899bc17a98a3ba6862f666e4035aed43ca4ef63ee7f67b1d432db5c0b4904039",
    ("c4xc2", 2): "a4cf797ed7a8f8393a6f4135eb4e310ba2c59342fe755838d84877cb112d8428",
    ("d8", 2): "f28b2f09d739d268fa98634b795a764f30ca74367591b97f228a040e8acd4dc5",
    ("d8xc2", 2): "4dfd67e03c1ba0bcff969cb7bce67e25aef69200d158444b59e3c36e28930d18",
    ("e16", 2): "1e11daddce1ca1dcff84ded7bd2488a725a4d20f272793384ae40700c9f202ad",
    ("q8", 2): "86f35f83ef1556404898c504c359880c97454b463b6b58a9377e6eccfecd2c96",
    ("qd2", 2): "4feed6e5d9fae95142c6032783ccb502e5d48b8881f18137b56ec94121697d81",
    ("qd3", 3): "f3a2311a2b4dee0ca58e5a4b3625dcf082fb29f793a90789bf4ee88b3d058010",
    ("s3", 2): "1cfa10e55370445f90dcc93c9acae5e8341842d46ae32aeb104ec8cdbca1a2bc",
    ("s3", 3): "4aef7dc57d9c99d0617886e93f30a334970f087b012eaf22881d5998bd82735f",
    ("s4", 2): "4feed6e5d9fae95142c6032783ccb502e5d48b8881f18137b56ec94121697d81",
    ("s4", 3): "4aef7dc57d9c99d0617886e93f30a334970f087b012eaf22881d5998bd82735f",
    ("sl23", 2): "0a427225281ceb3a400728af46089ff57d76094df455fd9156ff0ec6d651a0ae",
    ("sl23", 3): "899bc17a98a3ba6862f666e4035aed43ca4ef63ee7f67b1d432db5c0b4904039",
}


def test_sylow_automorphism_digests(corpus_entries, groups):
    got = {}
    for name, entry in corpus_entries.items():
        for p in entry.primes:
            auts = pg.automorphisms(pg.sylow(groups[name], p))
            got[(name, p)] = hashlib.sha256(repr([a.pairs for a in auts]).encode()).hexdigest()
    assert got == SYLOW_AUT_DIGESTS


# sha256 over the first isomorphism Q -> R (or none) for every ordered pair of
# equal-order proper subgroups, and over aut_images(Q) for every proper Q, of
# the carriers of the benchmark's fusion-generate workload, built as its spec
# drawing builds them; stamped before the search state was kept per subgroup
SEARCH_PAIRS = 2361
SEARCH_DIGEST = "7443ba4481f2437dc7818f89a1f3e4f4fafeec2885d53ba61f6df8372148710b"


def test_search_results_the_spec_drawing_reads(groups):
    # the benchmark draws its seed isos from these results, so a change of
    # search order changes which specs it runs
    carriers = [groups[name] for name in ("c4xc2", "d8", "d8xc2", "e16", "q8")]
    for name, p in (("qd3", 3), ("s4", 2), ("sl23", 2)):
        G = groups[name]
        carriers.append(pg.group_from_generators(
            G.degree, [G.elements[x] for x in pg.sylow(G, p).generating_ids()], f"{name}-sylow{p}"))
    digest, pairs = hashlib.sha256(), 0
    for C in carriers:
        proper = [S for S in pg.subgroups(C) if 1 < S.order < C.order]
        for Q in proper:
            for R in proper:
                if R.order == Q.order:
                    pairs += 1
                    iso = pg.isomorphisms_between(Q, R)
                    digest.update(repr((Q.mask, R.mask, iso[0].images if iso else None)).encode())
        for Q in proper:
            digest.update(repr((Q.mask, pg.aut_images(Q))).encode())
    assert (pairs, digest.hexdigest()) == (SEARCH_PAIRS, SEARCH_DIGEST)


def test_search_state_is_kept_per_subgroup(groups, monkeypatch):
    # Cayley levels are built once per (subgroup, generator sequence): the
    # automorphism chain of C2 wr C2 wr C2 runs along 3 generators, its
    # isomorphism searches along its 7 generating ids
    Q = _c2_wr_c2_wr_c2("C2wrC2wrC2-levels").full_subgroup()
    chain, ids = pg._chain_gens(Q), Q.generating_ids()
    assert len(chain) == 3 and len(ids) == 7
    built = Counter()
    levels = pg._cayley_levels

    def counting(G, gens):
        built[gens] += 1
        return levels(G, gens)

    monkeypatch.setattr(pg, "_cayley_levels", counting)
    assert pg.isomorphisms_between(Q, Q)[0].is_identity_map()
    assert len(pg.automorphisms(Q)) == 512
    assert pg.isomorphisms_between(Q, Q)[0].is_identity_map()
    assert built == {ids: 1, chain: 1}
    # the candidates are the codomain's members of each order
    s4 = groups["s4"]
    fours = [S for S in pg.subgroups(s4) if S.order == 4 and S.element_orders() == {1: 1, 2: 3}]
    for A, B in combinations(fours, 2):
        assert pg.mask_of(pg.isomorphisms_between(A, B)[0].images) == B.mask
        assert B.order_classes() == {1: (0,), 2: B.members[1:]}


def _cold(G, name):
    """A twin of G with empty tables: its own name makes it a new identity,
    where interning would hand back the group whose automorphisms an earlier
    test listed, and every count would be 0."""
    cold = pg.Group(G.degree, name, G.generators, G.elements)
    assert cold._caches is not G._caches
    return cold


def test_automorphism_search_work_bound(groups, monkeypatch):
    # counts work, not time.  Level extensions count the search: along the 4
    # generating ids of E16 a generating set of Aut(E16) took 180 and the list
    # of all 20,160 took 22,905, one backtrack per automorphism; the list is
    # now products of the chain's transversals, so it searches no more than
    # the generating set does.  Group.mul counts the products that are not
    # read off table rows, the Cayley levels' (the closure-based extension
    # made 10,055,760 calls, and the backtrack on the bound mul 848,074)
    work = Counter()
    mul, extend = pg.Group.mul, pg._extend_level

    def counting_mul(self, a, b):
        work["mul"] += 1
        return mul(self, a, b)

    def counting_extend(*args, **kwargs):
        work["extend"] += 1
        return extend(*args, **kwargs)

    monkeypatch.setattr(pg.Group, "mul", counting_mul)
    monkeypatch.setattr(pg, "_extend_level", counting_extend)
    full = pg.sylow(_cold(groups["e16"], "E16-cold"), 2)
    work.clear()
    assert len(pg.automorphism_generators(full)) <= 60
    assert 0 < work["extend"] <= 200 and 0 < work["mul"] <= 10_000
    full = pg.sylow(_cold(groups["e16"], "E16-cold-list"), 2)
    work.clear()
    assert len(pg.automorphisms(full)) == 20160
    assert 0 < work["extend"] <= 200 and 0 < work["mul"] <= 2_000_000
    # its 7 generating ids took 273,472 level extensions; the chain's own
    # generating sequence has 3
    wide = _c2_wr_c2_wr_c2("C2wrC2wrC2-cold").full_subgroup()
    work.clear()
    pg.automorphism_generators(wide)
    assert 0 < work["extend"] <= 1_000
    assert not hasattr(pg, "_extend_hom")


def _wide_carriers():
    """(Q, |Aut(Q)|) for four carriers wider than the corpus's; the Sylow
    3-subgroup of A7 (C3 x C3) is searched without a table."""
    agl = _agl23()
    a7 = _from_cycles(7, [[0, 1, 2, 3, 4, 5, 6]], [[0, 1, 2]])
    assert agl.order == 432 and a7.order > pg._TABLE_LIMIT
    return [(_from_cycles(9, [[0, 1, 2]], [[0, 3, 6], [1, 4, 7], [2, 5, 8]]).full_subgroup(), 324),
            (_c2_wr_c2_wr_c2().full_subgroup(), 512),
            (pg.sylow(agl, 3), 432),  # 3^(1+2)_+: 3^2 * |GL(2,3)|
            (pg.sylow(a7, 3), 48)]  # GL(2,3)


def test_automorphisms_of_wide_carriers():
    # the list from the chain is distinct and sorted, each element is a hom,
    # and it has as many elements as the group its generators generate
    for Q, n in _wide_carriers():
        auts = pg.automorphisms(Q)
        images = [a.images for a in auts]
        assert len(set(images)) == len(images) == n
        assert sorted(auts, key=pg.hom_key) == auts
        for a in auts:
            fz.validate_hom(a)
            assert a.image_mask == Q.mask
        assert _sympy_order(Q, pg.automorphism_generators(Q)) == n


def _aut_images_by_dict_composition(Q):
    """The listing that the itemgetter one replaced: A_i as the products
    "a then t" for a in A_{i+1} and t in T_i or the identity, each composed
    by one dict lookup per member."""
    auts = [Q.members]
    for _, T in reversed(pg._aut_chain(Q)):
        maps = [dict(zip(Q.members, t)).__getitem__ for t in T]
        auts += [tuple(map(m, a)) for m in maps for a in auts]
    auts.sort()
    return auts


def test_aut_images_agree_with_dict_composition(corpus_entries, groups):
    carriers = [pg.sylow(groups[name], p) for name, entry in corpus_entries.items()
                for p in entry.primes]
    carriers += [Q for Q, _ in _wide_carriers()]
    for Q in carriers:
        assert pg.aut_images(Q) == _aut_images_by_dict_composition(Q), (Q.parent.name, Q.mask)


def test_automorphism_generators_of_7_1_2(monkeypatch):
    # Aut(7^(1+2)_+) has order 7^2 * |GL(2,7)| = 98,784; its list would take
    # hundreds of MB, so only the generators are built.  The chain search
    # along generating ids took 338 s
    P = _heisenberg(7).full_subgroup()
    assert P.order == 343
    calls = [0]
    extend = pg._extend_level

    def counting_extend(*args, **kwargs):
        calls[0] += 1
        return extend(*args, **kwargs)

    monkeypatch.setattr(pg, "_extend_level", counting_extend)
    gens = pg.automorphism_generators(P)
    assert 0 < calls[0] <= 10_000
    # a transversal element is kept only when it reaches a new image of its
    # generator: 8 of the chain's 628
    assert len(gens) <= 16
    for a in gens:
        fz.validate_hom(a)
    assert _sympy_order(P, gens) == 98_784


def test_automorphism_generators_generate_aut(groups):
    # <gens> = Aut(Q) exactly when every generator is an automorphism and
    # <gens>, acting on the members of Q, has order |Aut(Q)| (Schreier-Sims
    # via sympy).  The brute oracle tries |Q|^k generator images, so Aut(Q)
    # is the full search's list above order 16 and on e16, where the brute
    # oracle on the whole group would take 16^4 candidates of 16 elements
    for name, G in groups.items():
        for Q in pg.subgroups(G):
            gens = pg.automorphism_generators(Q)
            small = Q.order <= 16 and name != "e16"
            aut = {a.pairs for a in (brute_automorphisms(Q) if small else pg.automorphisms(Q))}
            assert all(a.pairs in aut for a in gens), (name, Q.mask)
            pos = {x: i for i, x in enumerate(Q.members)}
            perms = [Permutation([pos[a(x)] for x in Q.members]) for a in gens]
            order = PermutationGroup(perms).order() if perms else 1
            assert order == len(aut), (name, Q.mask)


def test_characteristic_subgroups_match_the_filter_over_all_of_aut(groups):
    for name, G in groups.items():
        for Q in pg.subgroups(G):
            auts = pg.automorphisms(Q)
            expected = [S for S in pg.subgroups_of(Q)
                        if all(pg.mask_image(a.mapping, S.mask) == S.mask for a in auts)]
            assert pg.characteristic_subgroups(Q) == expected, (name, Q.mask)


def test_tables_read_through_parent_match_composition(groups):
    # quotient_group takes the quotient's table from the parent's rows (its
    # quotients of subgroups: test_quotient_of_a_subgroup)
    for name in ("s4", "qd3"):
        G = groups[name]
        for N in pg.normal_subgroups(G):
            Q, _ = pg.quotient_group(G, N)
            assert Q._mul == _composed_table(Q)


def _assert_tables_match_perm_products(G, step=1):
    """Every step-th row of the table and conjugation map, and every element
    order, against products and inverses of the permutations themselves."""
    els = G.elements
    G.mul(0, 0)
    assert G._mul is not None
    for a in range(0, G.order, step):
        assert G._mul[a] == tuple(G.index_of(els[a] * y) for y in els), (G.name, a)
    for a, x in enumerate(els):
        assert G.element_order(a) == math.lcm(*map(len, x.cycles())), (G.name, a)
    for g in range(0, G.order, step):
        y, y_inv = els[g], els[g].inverse()
        assert G.conj_map(g) == tuple(G.index_of(y_inv * x * y) for x in els), (G.name, g)


def test_tables_and_conjugation_match_perm_products(groups):
    # the table composes whole rows, the conjugation maps and element orders
    # are read off it; the reference multiplies the permutations themselves
    for G in groups.values():
        _assert_tables_match_perm_products(G, 1 if G.order <= 100 else 5)
    s3_wr_c3 = _from_cycles(9, [[0, 1, 2]], [[0, 1]], [[0, 3, 6], [1, 4, 7], [2, 5, 8]])
    c2_wr_c2_wr_c2 = _from_cycles(8, [[0, 1]], [[0, 2], [1, 3]], [[0, 4], [1, 5], [2, 6], [3, 7]])
    s6 = _from_cycles(6, [[0, 1, 2, 3, 4, 5]], [[0, 1]])
    s4_x_s4 = _from_cycles(8, [[0, 1, 2, 3]], [[0, 1]], [[4, 5, 6, 7]], [[4, 5]])
    assert (s6.order, s4_x_s4.order) == (720, 576)
    for G in (s3_wr_c3, c2_wr_c2_wr_c2, s6, s4_x_s4):
        _assert_tables_match_perm_products(G, 11)
    # a group that lists all its elements as generators, and a degree-1 group
    F = fz.fusion_from_group(groups["a6"], 2)
    aut = max((fz.aut_realization(F, Q).group for Q in F.subgroups()), key=len)
    assert aut.order == 6 and len(aut.generators) == 5
    _assert_tables_match_perm_products(aut)
    trivial = pg.group_from_generators(1, [[0]], "degree-1")
    _assert_tables_match_perm_products(trivial)
    assert trivial._mul == ((0,),)


def test_conj_map_reads_the_row_of_the_inverse(groups):
    # conj_map(g) maps row(g^-1) through the column of g; conj_images reads
    # each id's conjugate through row(g^-1) and then that column.  S7 has
    # no table, so its rows compose each product when read
    for G in groups.values():
        for g in range(G.order):
            assert G.conj_map(g) == pg.conj_images(G, g, range(G.order)), (G.name, g)
    s7 = _from_cycles(7, [[0, 1, 2, 3, 4, 5, 6]], [[0, 1]])
    assert s7.order > pg._TABLE_LIMIT
    for g in (1, 2, 4_999):
        assert s7.conj_map(g) == pg.conj_images(s7, g, range(s7.order))


def test_thompson_subgroup_characteristic(groups):
    for name in ("d8", "q8", "c4xc2", "d8xc2", "e16"):
        G = groups[name]
        full = G.full_subgroup()
        j = pg.thompson_subgroup(full)
        for alpha in pg.automorphisms(full):
            assert pg.mask_image(alpha.mapping, j.mask) == j.mask


def test_induced_hom(groups):
    s4 = groups["s4"]
    v4 = pg.core_p(s4, 2)
    swap = next(a for a in pg.automorphisms(v4) if not a.is_identity_map())
    assert pg.induced_hom(swap, {x: x for x in v4.members}, s4) == swap
    # an element map that identifies x with the identity but not h(x) with it
    x = next(x for x, y in swap.pairs if x != y)
    collapse = {z: 0 if z == x else z for z in v4.members}
    with pytest.raises(InvariantViolation):
        pg.induced_hom(swap, collapse, s4)


def test_is_prime_matches_sympy():
    # 561 is a Carmichael number, 3,215,031,751 the least strong pseudoprime
    # to the bases 2, 3, 5, 7 and 3,825,123,056,546,413,051 one to the primes
    # up to 23; trial division up to the root of 2^61 - 1 did not end
    from sympy import isprime
    for n in (*range(2000), 561, 3_215_031_751, 3_825_123_056_546_413_051, 2**61 - 1,
              (2**31 - 1) ** 2, pg.PRIME_LIMIT - 1):
        assert pg.is_prime(n) == isprime(n), n
    with pytest.raises(OrderCapExceeded):
        pg.is_prime(pg.PRIME_LIMIT)


# -- property-based checks ---------------------------------------------------------------------

perm_images = st.permutations(range(5)).map(tuple)


@settings(max_examples=60, deadline=None)
@given(perm_images, perm_images, perm_images)
def test_perm_composition_associative(a, b, c):
    pa, pb, pc = pg.Perm(a), pg.Perm(b), pg.Perm(c)
    assert ((pa * pb) * pc).images == (pa * (pb * pc)).images


@settings(max_examples=60, deadline=None)
@given(perm_images)
def test_perm_inverse(a):
    p = pg.Perm(a)
    assert (p * p.inverse()).is_identity()


@settings(max_examples=25, deadline=None)
@given(st.lists(perm_images, min_size=1, max_size=2))
def test_generated_groups_satisfy_lagrange(gens):
    G = pg.group_from_generators(5, gens, "H")
    for S in pg.subgroups(G):
        assert G.order % S.order == 0
