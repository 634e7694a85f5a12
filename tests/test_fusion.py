from collections import Counter

import pytest

from fuskit import fusion as fz
from fuskit import permgroup as pg
from fuskit import subsystems as ss
from fuskit.errors import (
    DifferentCarrier,
    MorphismNotInSystem,
    NotAnIsomorphism,
    NotASubgroupOfAut,
    OrderCapExceeded,
)
from fuskit.oracles import conjugation_map_count


def klein_fours(F):
    return [S for S in F.subgroups()
            if S.order == 4 and all(F.parent.element_order(x) <= 2 for x in S.members)]


# -- fusion_from_group ---------------------------------------------------------

def test_s4_aut_of_v4(s4_system, v4, groups):
    # oracle: count distinct conjugation-induced maps V4 -> V4 over S4
    assert len(s4_system.aut(v4)) == conjugation_map_count(groups["s4"], v4, v4) == 6


def test_s4_hom_count_into_v4(s4_system, v4):
    dts = [S for S in s4_system.subgroups() if S.order == 2 and S <= v4]
    homs = fz.hom_set(s4_system, dts[0], v4)
    assert len(homs) == 3
    images = {h.image_mask for h in homs}
    assert len(images) == 3  # one iso onto each order-2 subgroup of V4


def test_p_group_fusion_is_inner(d8_system, groups):
    d8 = groups["d8"]
    assert fz.same_system(d8_system, ss.inner_system(d8.full_subgroup(), 2))


def test_from_group_cap(groups, monkeypatch):
    monkeypatch.setenv("FUSKIT_ORDER_CAP", "100")
    with pytest.raises(OrderCapExceeded):
        fz.fusion_from_group(groups["a6"], 2)


def test_from_group_trivial_sylow(groups):
    F = fz.fusion_from_group(groups["s3"], 5)
    assert F.carrier.order == 1 and fz.is_saturated(F)


# -- fusion_generated ------------------------------------------------------------

def test_e16_generated_iso_classes(e16_seeded, groups):
    e16 = groups["e16"]
    a, b, c, d = (e16.index_of(g) for g in e16.generators)
    ab, ac = e16.mul(a, b), e16.mul(a, c)
    fused = {}
    for S in e16_seeded.subgroups():
        if S.order == 2:
            fused[S.members[1]] = {T.members[1] for T in e16_seeded.iso_class(S)}
    assert fused[ab] == {ab, c}
    assert fused[ac] == {ac, d}
    singles = [k for k, v in fused.items() if v == {k}]
    assert len(singles) == 11


def test_empty_seed_is_inner(groups):
    e16 = groups["e16"]
    assert fz.same_system(fz.fusion_generated(e16, 2),
                          fz.fusion_from_group(e16, 2))


def test_closure_of_closed_system(s4_system):
    regen = fz.generated_on(s4_system.carrier, 2, s4_system.all_isos())
    assert fz.same_system(regen, s4_system)


# -- intersection -------------------------------------------------------------------

def test_intersect_idempotent(s4_system):
    assert fz.same_system(fz.fusion_intersect(s4_system, s4_system), s4_system)


def test_intersect_with_inner(s4_system):
    inner = ss.inner_system(s4_system.carrier, 2)
    assert fz.same_system(fz.fusion_intersect(s4_system, inner), inner)


def test_intersect_different_carrier(s4_system, v4):
    with pytest.raises(DifferentCarrier):
        fz.fusion_intersect(s4_system, ss.inner_system(v4, 2))


def test_d8xc2_intersection(groups):
    G = groups["d8xc2"]
    x, y, z = (G.index_of(g) for g in G.generators)
    Q = G.subgroup_of([x, y])
    R = G.subgroup_of([G.mul(x, z), y])
    S = pg.meet(Q, R)
    assert S.order == 4 and pg.is_normal_in(S, G.full_subgroup())
    E = fz.fusion_intersect(fz.restricted_to(ss.inner_system(Q, 2), S),
                            fz.restricted_to(ss.inner_system(R, 2), S))
    auts = E.aut(S)
    assert len(auts) == 2
    x2 = G.mul(x, x)
    swap = pg.GroupHom.from_map(S, S, [(0, 0), (x2, x2), (y, G.mul(x2, y)), (G.mul(x2, y), y)])
    assert swap in auts
    assert not fz.is_saturated(E)
    # intersections of closed tables stay closed
    from fuskit.quotients import prefusion_is_fusion
    ok, _ = prefusion_is_fusion(E)
    assert ok


# -- hom sets ---------------------------------------------------------------------------

def test_hom_set_abelian(groups):
    e16 = groups["e16"]
    F = fz.fusion_from_group(e16, 2)
    subs = F.subgroups()
    small = next(S for S in subs if S.order == 2)
    big = next(S for S in subs if S.order == 4 and small <= S)
    other = next(S for S in subs if S.order == 4 and not small <= S)
    assert [h.is_identity_map() for h in fz.hom_set(F, small, big)] == [True]
    assert fz.hom_set(F, small, other) == []


# -- N_phi ------------------------------------------------------------------------------

def test_n_phi_identity_is_normalizer(s4_system, v4):
    ident = pg.GroupHom.identity(v4)
    assert fz.n_phi(s4_system, ident) == s4_system.normalizer_in_carrier(v4)


def test_n_phi_between_reflections(s4_system):
    F = s4_system
    P = F.carrier
    refl = [S for S in F.subgroups()
            if S.order == 2 and F.centralizer_in_carrier(S).order == 4]
    pair = [(q, r) for q in refl for r in refl if q != r and F.isos(q, r)]
    q, r = pair[0]
    phi = sorted(F.isos(q, r), key=pg.hom_key)[0]
    n = fz.n_phi(F, phi)
    # Aut of an order-2 group is trivial, so N_phi is the whole normalizer
    assert n == F.normalizer_in_carrier(q)
    assert n.order == 4


def test_n_phi_contains_centralized_product(s4_system):
    for phi in s4_system.all_isos():
        q = phi.domain
        lower = pg.set_product(q, s4_system.centralizer_in_carrier(q))
        n = fz.n_phi(s4_system, phi)
        assert lower <= n and n <= s4_system.normalizer_in_carrier(q)


def test_n_phi_requires_membership(s4_system):
    # the central involution of D8 and a reflection are not S4-conjugate, so
    # the unique isomorphism between those subgroups is not in the system
    F = s4_system
    central = next(S for S in F.subgroups()
                   if S.order == 2 and F.centralizer_in_carrier(S).order == 8)
    refl = next(S for S in F.subgroups()
                if S.order == 2 and F.centralizer_in_carrier(S).order == 4)
    cand = pg.hom_build(central, refl, [(central.members[1], refl.members[1])])
    assert not F.isos(central, refl)
    with pytest.raises(MorphismNotInSystem):
        fz.n_phi(F, cand)


# -- fully normalized / saturation ----------------------------------------------------------

def test_fully_normalized(s4_system, v4):
    assert fz.is_fully_normalized(s4_system, s4_system.carrier)
    assert fz.is_fully_normalized(s4_system, v4)
    for S in s4_system.subgroups():
        if S.order == 2:
            assert fz.is_fully_normalized(s4_system, S) == all(
                s4_system.normalizer_in_carrier(R).order
                <= s4_system.normalizer_in_carrier(S).order
                for R in s4_system.iso_class(S))


def test_saturation(s4_system, d8_system, e16_seeded):
    assert fz.is_saturated(s4_system)
    assert fz.is_saturated(d8_system)
    assert not fz.is_saturated(e16_seeded)


# -- transport and equality ---------------------------------------------------------------

def test_transport_identity(s4_system):
    ident = pg.GroupHom.identity(s4_system.carrier)
    assert fz.same_system(fz.transport(s4_system, ident), s4_system)


def test_transport_roundtrip(s4_system, groups):
    # move along an isomorphism onto the abstract D8 and back
    d8 = groups["d8"]
    theta = pg.isomorphisms_between(s4_system.carrier, d8.full_subgroup())[0]
    moved = fz.transport(s4_system, theta)
    assert moved.carrier == d8.full_subgroup()
    back = fz.transport(moved, theta.inverse())
    assert fz.same_system(back, s4_system)
    assert fz.is_saturated(moved)


def test_transport_along_inner_automorphism(s4_system):
    P = s4_system.carrier
    g = P.members[1]
    alpha = pg.conjugation_hom(g, P, P)
    assert fz.same_system(fz.transport(s4_system, alpha), s4_system)


def test_transport_preserves_saturation_status(e16_seeded):
    ident = pg.GroupHom.identity(e16_seeded.carrier)
    assert not fz.is_saturated(fz.transport(e16_seeded, ident))


def test_transport_rejects_partial_map(s4_system, v4):
    with pytest.raises(NotAnIsomorphism):
        fz.transport(s4_system, pg.GroupHom.identity(v4))


def test_same_system(s4_system, d8_system):
    assert fz.same_system(s4_system, s4_system)
    inner = ss.inner_system(s4_system.carrier, 2)
    assert not fz.same_system(s4_system, inner)  # Aut(V4): order 6 vs 2
    assert not fz.same_system(s4_system, d8_system)  # different carriers


# -- property-based: generated systems are always closed --------------------------

from hypothesis import assume, given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_generated_systems_pass_axiom_checker(groups, data):
    from fuskit.errors import FuskitError
    from fuskit.quotients import prefusion_is_fusion
    G = groups[data.draw(st.sampled_from(["d8", "q8", "c4xc2", "e16"]))]
    a = data.draw(st.integers(0, G.order - 1))
    b = data.draw(st.integers(0, G.order - 1))
    assume(G.element_order(a) == G.element_order(b) > 1)
    try:
        seed = pg.hom_build(G.subgroup_of([a]), G.subgroup_of([b]), [(a, b)])
    except FuskitError:
        assume(False)
    F = fz.fusion_generated(G, 2, [seed])
    ok, witness = prefusion_is_fusion(F)
    assert ok, witness


# -- generated_on against the definitional closure ---------------------------------

from fuskit import closure as cl
from fuskit import quotients as qt
from fuskit.oracles import brute_generated_on
from fuskit.serialization import _seed_from_dict
from fuskit.solubility import thompson_base


def _alperin_base(F):
    base = {}
    for S, auts in cl.alperin_generators(F):
        base.setdefault((S, S), set()).update(auts)
    return base


def test_generated_on_matches_brute_closure_on_corpus(corpus_entries, groups, e16_seeded):
    e16 = groups["e16"]
    seeds = [_seed_from_dict(e16, s)
             for s in corpus_entries["e16"].generated_systems[0]["seed_morphisms"]]
    assert e16_seeded.table == brute_generated_on(e16.full_subgroup(), seeds)
    for name, p in (("a6", 2), ("qd3", 3)):
        F = fz.fusion_from_group(groups[name], p)
        thompson = fz.PreFusionSystem(F.carrier, p, triples=thompson_base(F))
        for base in (_alperin_base(F), thompson.table):
            triples = fz.PreFusionSystem(F.carrier, p, base).triples()
            assert (fz.generated_on(F.carrier, p, triples=triples).table
                    == brute_generated_on(F.carrier, [], base)), name
    Q = cl.o_p(F)
    assert 1 < Q.order < F.carrier.order
    bar = qt.bar_system(F, Q)
    assert (qt.generated_bar(F, Q).table
            == brute_generated_on(bar.carrier, [], {k: set(v) for k, v in bar.table.items()}))


def _draw_seeds(groups, data):
    """One or two seed isos between equal-order proper subgroups of a drawn
    Q8, C4xC2 or D8xC2; the systems they generate are mostly unsaturated."""
    G = groups[data.draw(st.sampled_from(["q8", "c4xc2", "d8xc2"]))]
    proper = [S for S in pg.subgroups(G) if 1 < S.order < G.order]
    seeds = []
    for _ in range(data.draw(st.integers(1, 2))):
        Q = data.draw(st.sampled_from(proper))
        R = data.draw(st.sampled_from([R for R in proper if R.order == Q.order]))
        first = pg.isomorphisms_between(Q, R)
        assume(first)
        # Iso(Q, R) is Aut(Q) followed by any one iso
        seeds.append(data.draw(st.sampled_from([a.then(first[0]) for a in pg.automorphisms(Q)])))
    return G, seeds


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_generated_on_matches_brute_closure_on_drawn_seeds(groups, data):
    G, seeds = _draw_seeds(groups, data)
    F = fz.fusion_generated(G, 2, seeds)
    assert F.table == brute_generated_on(G.full_subgroup(), seeds)


def _counting(monkeypatch, owner, name):
    """Count the calls of owner.name for the rest of the test."""
    calls = [0]
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_generated_on_work_bound(corpus_entries, groups, monkeypatch):
    # the word search runs on image tuples, and the words it finds are the
    # new system's store: it builds no GroupHom (one per iso found when the
    # system stored homs, and about four per iso when it built one per
    # composite)
    G = groups["d8xc2"]
    x, y, z = (G.index_of(g) for g in G.generators)
    x2, xy = G.mul(x, x), G.mul(x, y)
    E1, E2 = G.subgroup_of([x2, y, z]), G.subgroup_of([x2, xy, z])
    e16 = groups["e16"]
    specs = [(G, [pg.hom_build(E1, E2, [(x2, z), (y, xy), (z, x2)]),
                  pg.hom_build(E1, E1, [(x2, y), (y, x2), (z, z)])]),
             (e16, [_seed_from_dict(e16, s)
                    for s in corpus_entries["e16"].generated_systems[0]["seed_morphisms"]])]
    calls = _counting(monkeypatch, pg.GroupHom, "__init__")
    for H, seeds in specs:
        before = calls[0]
        F = fz.fusion_generated(H, 2, seeds)
        assert F.iso_count() >= 70
        assert calls[0] == before


# -- saturation by a second route ----------------------------------------------------

from fuskit.corpus import corpus_systems
from fuskit.oracles import oracle_saturated


def test_saturation_oracle_agrees_on_corpus(corpus_entries):
    records = corpus_systems(list(corpus_entries.values()))
    verdicts = [oracle_saturated(rec.system) for rec in records]
    assert verdicts == [fz.is_saturated(rec.system) for rec in records]
    assert False in verdicts  # e16@p2:seeded


def test_hom_key_orders_homs_as_their_pairs(corpus_entries):
    # on one domain the image tuples sort as the (source, image) pairs do
    for rec in corpus_systems(list(corpus_entries.values())):
        homs = [h for hs in rec.system.table.values() for h in hs]
        by_pairs = sorted(homs, key=lambda h: (h.domain.order, h.domain.mask,
                                               h.image_mask, h.pairs))
        assert sorted(homs, key=pg.hom_key) == by_pairs, rec.key


def test_contains_iso_reads_the_images_index_as_the_table(corpus_entries, groups):
    # contains_iso looks images up under masks in images_by_key; it must
    # answer as the (Subgroup, Subgroup)-keyed table does on a stored iso, on
    # a copy with one image changed, and on a hom with the same masks whose
    # codomain's parent is another group
    def by_table(F, h):
        return h in F.table.get((h.domain, h.image()), ())

    answers = Counter()
    for rec in corpus_systems(list(corpus_entries.values())):
        F = rec.system
        other = next(G for G in groups.values() if G != F.parent)
        for homs in F.table.values():
            for h in homs:
                imgs = h.images
                swapped = imgs[:-2] + imgs[:-3:-1]  # the last two swapped: same masks
                outside = [x for x in F.carrier.members if x not in imgs][:1]
                moved = imgs[:-1] + tuple(outside or imgs[-1:])  # the last image off R
                for k in (h, pg.GroupHom(h.domain, h.codomain, swapped),
                          pg.GroupHom(h.domain, h.codomain, moved),
                          pg.GroupHom(h.domain, pg.Subgroup(other, h.image_mask), imgs)):
                    got = F.contains_iso(k)
                    assert got == by_table(F, k), (rec.key, h, k.images)
                    answers[got] += 1
                assert F.contains_iso(h)
    assert answers[True] > 0 and answers[False] > 0


def test_aut_realization_rejects_an_iso_with_an_automorphisms_images(s4_system):
    # an iso R -> Q, R != Q, whose image tuple is that of an automorphism of
    # Q: the images key Aut_F(Q), so id_of must check the domain too
    F = s4_system

    def images(h):
        return tuple(h.mapping[x] for x in h.domain.members)

    found = 0
    for (r, q), homs in F.table.items():
        if r == q:
            continue
        auts = set(map(images, F.aut(q)))
        for h in homs:
            if images(h) in auts:
                found += 1
                with pytest.raises(NotASubgroupOfAut):
                    fz.aut_realization(F, q).id_of(h)
    assert found > 0


def test_from_group_above_the_table_limit():
    # A7 has no multiplication table: conjugating all of it by every element
    # took 143 s, conjugating the carrier's 8 members takes a fraction of one
    a7 = pg.group_from_generators(7, [[1, 2, 3, 4, 5, 6, 0], [1, 2, 0, 3, 4, 5, 6]], "A7")
    assert a7.order == 2_520 > pg._TABLE_LIMIT
    F = fz.fusion_from_group(a7, 2)
    assert F.carrier.order == 8
    assert fz.is_saturated(F) and oracle_saturated(F)
    assert a7._conj.keys() <= set(F.carrier.members)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_saturation_oracle_agrees_on_drawn_seeds(groups, data):
    G, seeds = _draw_seeds(groups, data)
    F = fz.fusion_generated(G, 2, seeds)
    assert oracle_saturated(F) == fz.is_saturated(F)


# -- Aut_P(Q) by a second route ------------------------------------------------------

def _conj(G, g, xs):
    return tuple(G.conj_map(g)[x] for x in xs)


def _n_phi_per_element(F, q, r, imgs):
    """N_phi from its definition: the x in N_P(Q) with phi c_x = c_y phi on
    Q for some y in N_P(R), one conjugation tuple per element of each."""
    G = F.parent
    Q = pg.Subgroup(G, q)
    aut_p_r = {_conj(G, y, imgs) for y in F.normalizer_in_carrier(pg.Subgroup(G, r)).members}
    fm = dict(zip(Q.members, imgs))
    return pg.mask_of(x for x in F.normalizer_in_carrier(Q).members
                      if tuple(fm[c] for c in _conj(G, x, Q.members)) in aut_p_r)


def test_aut_p_fibres_agree_with_per_element_definitions(corpus_entries):
    # N_phi, Inn(Q) and N_K(Q) read off the fibres of aut_p must be what one
    # conjugation tuple per element gives; the fibres themselves must cover
    # N_P(Q), with C_P(Q) the identity's.  The saturated systems are chosen
    # by the oracle, which reads no N_phi of fusion.py
    checked = Counter()
    for rec in corpus_systems(list(corpus_entries.values())):
        F = rec.system
        if not oracle_saturated(F):
            continue
        G = F.parent
        for q, r, imgs in F.triples():
            assert fz._n_phi(F, q, r, imgs).mask == _n_phi_per_element(F, q, r, imgs), rec.key
            checked["n_phi"] += 1
        for Q in F.subgroups():
            fibres = fz.aut_p(F, Q)
            assert fibres[Q.members] == F.centralizer_in_carrier(Q).mask, rec.key
            assert sum(fibres.values()) == F.normalizer_in_carrier(Q).mask, rec.key
            real = fz.aut_realization(F, Q)
            inner = {_conj(G, g, Q.members) for g in Q.members}
            assert real.inn.mask == 1 | pg.mask_of(
                i for i, imgs in enumerate(real.images) if imgs in inner), rec.key
            for K in pg.normal_subgroups(real.group):
                k_images = {real.images[i] for i in K.members} | {Q.members}
                n_k = pg.mask_of(g for g in F.normalizer_in_carrier(Q).members
                                 if _conj(G, g, Q.members) in k_images)
                assert ss._k_normalizer(F, Q, K).carrier.mask == n_k, rec.key
                checked["k_normalizer"] += 1
    assert checked["n_phi"] > 400 and checked["k_normalizer"] > 200, checked


def _c2_wr_c2_wr_c2():
    return pg.group_from_generators(8, [[1, 0, 2, 3, 4, 5, 6, 7], [2, 3, 0, 1, 4, 5, 6, 7],
                                        [4, 5, 6, 7, 0, 1, 2, 3]], "C2wrC2wrC2")


def test_wide_carrier_saturates_with_one_aut_p_per_subgroup():
    # C2 wr C2 wr C2 has 576 subgroups and 9,416 isos: with Aut_P(Q) memoized
    # per subgroup, its 9,416 N_phi build at most one table per subgroup,
    # where each N_phi rebuilt Aut_P(Q) and Aut_P(R) before
    F = fz.fusion_from_group(_c2_wr_c2_wr_c2(), 2)
    assert F.carrier.order == 128 and len(F.subgroups()) == 576
    before = pg.BUILDS["aut_p"]
    assert fz.is_saturated(F)
    assert pg.BUILDS["aut_p"] - before <= 576


def test_saturation_oracle_agrees_on_s4_x_s4():
    s4xs4 = pg.group_from_generators(8, [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 0, 4, 5, 6, 7],
                                         [0, 1, 2, 3, 5, 4, 6, 7], [0, 1, 2, 3, 5, 6, 7, 4]],
                                     "S4xS4")
    F = fz.fusion_from_group(s4xs4, 2)
    assert F.carrier.order == 64
    assert fz.is_saturated(F) == oracle_saturated(F)


# -- the GroupHom view of a store ------------------------------------------------------

def _check_view(F):
    """F.table, the GroupHom view of F's store, gives F back: a system made
    from it is F's twin and serializes to F's bytes; its keys are in
    canonical order, and each hom is onto its key's image."""
    from fuskit.serialization import dump_system
    table = F.table
    back = type(F)(F.carrier, F.p, table, F.provenance)
    assert fz.same_system(back, F) and back._caches is F._caches
    assert dump_system(back) == dump_system(F)
    keys = list(table)
    assert keys == sorted(keys, key=lambda k: (pg.subgroup_key(k[0]), pg.subgroup_key(k[1])))
    for (Q, R), homs in table.items():
        for h in homs:
            assert h.domain == Q and h.codomain == R == h.image()
    assert sum(map(len, table.values())) == F.iso_count()


def test_table_view_gives_the_system_back_on_corpus(corpus_entries):
    for rec in corpus_systems(list(corpus_entries.values())):
        _check_view(rec.system)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_table_view_gives_the_system_back_on_drawn_seeds(groups, data):
    G, seeds = _draw_seeds(groups, data)
    _check_view(fz.fusion_generated(G, 2, seeds))


def test_roundtrip_builds_homs_for_its_seeds_only(corpus_entries, groups, monkeypatch):
    # a generated-mode spec, checked for saturation and round-tripped through
    # its document, builds one GroupHom per seed (hom_build) and none else;
    # the points of E16 are renamed (i -> n-1-i) so that no memo is warm
    from fuskit import serialization as ser
    e16 = groups["e16"]
    n = e16.degree

    def renamed(images):
        out = [0] * n
        for i, j in enumerate(images):
            out[n - 1 - i] = n - 1 - j
        return out

    seeds = corpus_entries["e16"].generated_systems[0]["seed_morphisms"]
    spec = {"group": {"name": "E16-renamed", "degree": n,
                      "generators": [renamed(g.images) for g in e16.generators]},
            "p": 2, "mode": "generated",
            "seed_morphisms": [{k: [renamed(x) for x in s[k]] for k in ("domain_gens", "images")}
                               for s in seeds]}
    calls = _counting(monkeypatch, pg.GroupHom, "__init__")
    F = ser.fusion_spec_from_dict(spec)
    assert not fz.is_saturated(F)
    assert fz.same_system(ser.system_from_dict(ser.system_to_dict(F)), F)
    assert F.iso_count() >= 70
    assert calls[0] == len(seeds)


def test_fusion_generate_work_bound():
    # one fusion-generate pass of the benchmark (see generate_work.py), in a
    # fresh interpreter: the timed operations build a GroupHom per seed
    # only (480; 40,259 when every system stored its isos as homs).  Most
    # lattices are read off a lattice their group holds: 377 of 1,777 are
    # joined, against all of them before (300 of 1,424 under gc.disable():
    # the collector decides when a group and its lattices die)
    import json
    import subprocess
    import sys
    from pathlib import Path
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("generate_work.py"))],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["ok"] and run["ops"] == 320
    assert run["GroupHom"] <= 5_000
    assert run["joined"] <= 500
    # the closure kernel (permgroup.WORK): 17,490 closures take 24,300 coset
    # steps, so most closures are the powers of one generator
    assert run["work"]["closure"] <= 18_000
    assert run["work"]["coset_step"] <= 25_000
    # the set-up searches for an isomorphism between every two equal-order
    # proper subgroups of each carrier and lists their automorphisms; Cayley
    # levels are kept per (subgroup, generator sequence), so it builds 157
    # (2,510 when every search built its own, and the automorphism chain one
    # per level).  The timed pass runs no search
    assert run["setup_cayley_levels"] <= 200
    assert run["cayley_levels"] == 0
    # the core tower of a saturated spec starts at O_p(F), which P -> P/1
    # carries onto O_p(F/1): the pass builds 68 factor systems and 73 O_p
    # (136 and 111 when the tower built F/1 and found its O_p again)
    assert run["builds"]["factor_system"] <= 70
    assert run["builds"]["o_p"] <= 80


# -- equal systems share one memo ---------------------------------------------------

def test_twin_reads_the_memo(e16_seeded):
    from fuskit.serialization import system_from_dict, system_to_dict
    assert not fz.is_saturated(e16_seeded)
    builds = pg.BUILDS["saturated"]
    doc = system_to_dict(e16_seeded)
    doc["ambient"]["name"] = "E16-twin"  # a distinct group, equal by content
    twin = system_from_dict(doc)
    assert twin is not e16_seeded and twin.parent is not e16_seeded.parent
    assert not fz.is_saturated(twin)
    assert pg.BUILDS["saturated"] == builds
    assert twin._caches is e16_seeded._caches


def test_checks_outside_the_key_run_on_a_memo_hit(s4_system, v4, groups):
    from fuskit.errors import NotASubgroup
    assert fz.aut_realization(s4_system, v4).group.order == 6
    with pytest.raises(NotASubgroup):  # the key holds v4's mask, not its group
        fz.aut_realization(s4_system, pg.Subgroup(groups["a6"], v4.mask))


def test_memo_is_keyed_by_kind_prime_and_carrier(s4_system, v4):
    table = s4_system.table
    assert fz.FusionSystem(s4_system.carrier, 2, table)._caches is s4_system._caches
    others = [fz.PreFusionSystem(s4_system.carrier, 2, table),
              fz.FusionSystem(s4_system.carrier, 3, table),
              fz.FusionSystem(v4, 2, table)]
    memos = [s4_system._caches] + [E._caches for E in others]
    assert len({id(m) for m in memos}) == 4


def test_a_rebuilt_system_reads_the_memo_of_its_content(groups):
    # the memo lives in the ambient group, not in the system: a system
    # rebuilt with equal content after the first one died reads it again
    import gc
    import weakref
    P = pg.sylow(groups["s4"], 2)
    F = fz.FusionSystem(P, 7, {})
    serial = F.memo_key
    F.normalizer_in_carrier(P)
    builds = pg.BUILDS["norm"]
    gone = weakref.ref(F)
    del F
    gc.collect()
    assert gone() is None
    again = fz.FusionSystem(P, 7, {})
    assert again.memo_key == serial
    again.normalizer_in_carrier(P)
    assert pg.BUILDS["norm"] == builds


def test_system_memos_keep_no_group_alive():
    # a memo's key holds the carrier's mask, not the carrier, so the memos
    # of a group's systems do not keep the group alive.  S4 on 5 points,
    # fixing the last, so that no other test's group shares its elements
    import gc
    import weakref
    G = pg.group_from_generators(5, [[1, 2, 3, 0, 4], [1, 0, 2, 3, 4]], "S4-on-5")
    P = pg.sylow(G, 2)
    E = ss.inner_system(P, 2)
    assert fz.is_saturated(E)
    gone = weakref.ref(G)
    del G, P, E
    gc.collect()
    assert gone() is None


def _verify_work(*args):
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(fz.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("verify_work.py")), *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def verify_run():
    """The work of one full verify (see verify_work.py), counted in a fresh
    interpreter, so the counts read the same whatever tests ran before; the
    work of one more under ``gc.disable()`` is ``run["gc_off"]``."""
    run = _verify_work()
    run["gc_off"] = _verify_work("--gc-off")
    return run["ok"], Counter(run["builds"]), Counter(run["calls"]), run


def test_verify_leaves_no_group_alive(verify_run):
    # every memo table hangs off a group, and nothing outside the report and
    # the records holds a group: dropping them frees every group
    run = verify_run[3]
    assert run["groups_left"] == 0
    assert run["gc_off"]["groups_left"] == 0


def test_verify_work_repeats_without_the_collector(verify_run):
    # a memo lives as long as its group's elements, not as long as the
    # collector leaves a system: the collector on or off, one verify makes
    # the same builds (18,178 in all) and the same work
    ok, builds, calls, run = verify_run
    assert builds == run["gc_off"]["builds"]
    assert run["work"] == run["gc_off"]["work"]


def test_verify_work_bound(verify_run):
    # one verify builds equal systems again and again through different
    # routes; sharing one memo per content saturates each table once (212
    # builds, 2,517 N_phi computed and 210 O_p builds, against 1,017, 20,832
    # and 1,006 with one memo per object; 224, 2,816 and 222 when the core
    # tower built F/1).  _n_phi counts every N_phi: the public n_phi's,
    # after its membership check, and is_saturated's, which skips that check
    # for the isos it reads off the table
    ok, builds, calls, run = verify_run
    assert ok
    assert builds["saturated"] <= 300
    assert calls["_n_phi"] <= 4000
    assert builds["o_p"] <= 300
    # interned groups share their lattices and Sylow subgroups: 62 and 1,031
    # builds, against 1,622 lattices with one memo per group object
    assert builds["sylow"] <= 100
    assert builds["subgroups_of"] <= 1_300
    # characteristic subgroups are tested against a generating set of Aut(Q),
    # read off its stabilizer chain: no verify suite lists all of Aut(Q)
    # (128 lists before), and the chains are built 128 times.  An
    # automorphism moves a system as a push of its isos (fusion.carries):
    # no system is transported (17 transports when is_model built one per
    # identification of the Sylow subgroup with the carrier)
    assert calls["automorphisms"] == 0
    assert calls["transport"] == 0
    assert builds["aut_chain"] <= 200
    # the Cayley levels of a subgroup's searches are built once per generator
    # sequence: 125 builds (229 when every search built its own, and the
    # automorphism chain one per level)
    assert calls["_cayley_levels"] <= 130
    # invariance pushes each iso of E through the isos of F out of the join
    # of its domain and image, with no system built per subgroup of E's
    # carrier: one verify builds 1,918 systems (3,807 when every subgroup S
    # got restricted_to(E, S), whose answers an invariant table, 419 builds,
    # kept per memo of F).  A bar system and the second isomorphism theorem
    # read the isos of F that fix Q off F/Q and push only the others: one
    # verify makes 34,031 pushes (39,021 when both pushed every iso of F
    # again, 53,108 before the invariant table, 58,253 before
    # restricted_to went)
    assert calls["PreFusionSystem"] <= 2_100
    assert calls["pushed_images"] <= 35_000
    # invariance is memoized on F by the memo serial of E, which stands for
    # E's content: 419 builds for 1,096 calls, which each decided their pair
    # before.  The action of Aut_F(Q) on E, and the Alperin test of a
    # K-normalizer, read only the generators of each Aut_F(S), and the
    # second isomorphism theorem pushes no whole system: one verify makes
    # 837 carries calls (1,700 when that theorem pushed all of E through
    # carries, 1,838 when the action pushed E through all of Aut_F(Q), with
    # a memo table of 133 builds for 409 calls)
    assert builds["invariant"] <= 450
    assert calls["carries"] <= 900
    # a lattice is read off the smallest lattice its group holds above it:
    # 198 of the 789 lattices are joined
    assert calls["_joined_lattice"] <= 250
    # an interned group builds its multiplication table once, and a group
    # made while a group with the same elements is live takes that group's
    # tables: 45 are composed, and 36 quotient tables are read off a
    # parent's table rows (48 when the last group made, not the oldest live
    # one, was filed under its elements; 438 when every named quotient read
    # its own, 642 when a subgroup was first copied into a group of its own)
    assert builds["mul_table"] <= 60
    assert builds["mul_table_read"] <= 100
    # the Cayley columns of a subgroup are built once: validate_hom rebuilt
    # them on every call (6,249 builds on 1,053 subgroups)
    assert builds["cayley_columns"] <= 1_200
    # Aut_P(Q) is built once per (system, Q) as conjugation image tuples
    # (fusion.aut_p): 1,314 builds serve the 2,517 N_phi, 271 K-normalizers
    # and 440 Aut_F(Q) realizations, which each built their own tuples before
    assert builds["aut_p"] <= 1_600
    # the closure kernel (permgroup.WORK) takes a coset step only for a
    # generator outside the subgroup grown so far: 7,493 closures take
    # 14,653 steps (11,573 and 28,256 when every K-normalizer was scanned,
    # with a join per domain of F's isos)
    assert run["work"]["closure"] <= 8_000
    assert run["work"]["coset_step"] <= 15_500
    # a K-normalizer that is all of F is recognised from the Alperin
    # generators of F: 130 of the 271 are, and the other 141 are scanned.
    # One verify makes 5,236 extension scans, against 5,748 when every
    # element of each Aut_F(S) was tested and 12,215 when every
    # K-normalizer scanned all of F's isos
    assert run["work"]["knorm_generators"] >= 120
    assert calls["extensions"] <= 6_500
    # no memo table that no workload reads again: 18,178 builds in all
    # (18,191 when system memos lived in a weak registry, which kept every
    # group alive, and the verify's saturated records had a table of their
    # own; 18,868 when the core tower built F/1), 18,622 before the
    # cayley_levels and order_classes tables, 18,753 with the aut_f_acts
    # table, 18,200 before the content-keyed invariant and aut_f_acts tables,
    # 18,620 with the id-keyed invariant table, 17,204 before the aut_p table
    # (19,102 with the centric, radical, qdp_free and aut_generators tables
    # and the verify's per-record lists)
    assert sum(builds.values()) <= 19_000


def test_verify_quotient_work_bound(verify_run):
    # each quotient check pushes an iso table through a projection once:
    # the second isomorphism theorem pushes E once through E -> E/(R n Q),
    # memoized per (E, R n Q) (863 pairs), instead of through F -> F/Q and
    # again along the canonical map (5,507 pushes), and only the isos that
    # E/(R n Q) does not already hold the push of; the functor condition
    # reads the memoized bar table; each bar table is closed once (39
    # closures for 292 checks).  A system stores image tuples under masks,
    # and every check and builder reads and files those: one verify builds
    # 794 GroupHoms, nearly all for the public API's answers (the all_isos
    # view and the alperin_decompose steps), against 2,290 when the checks
    # read Aut_F(Q) as homs and transported a system per automorphism,
    # 34,894 when each system stored its isos as homs too (96,493 when every
    # membership test built a hom to hash, 165,629 before one push per
    # check).  The
    # third theorem pushes (F/Q)/(R/Q) through the canonical map it has
    # checked on its Cayley edges, with no hom and no validate_hom for it
    # (723 calls when the map was built as a hom and validated).
    ok, builds, calls, run = verify_run
    assert ok
    assert calls["GroupHom"] <= 1_000
    assert calls["verify_second_iso.transport"] == 0
    assert calls["verify_third_iso.transport"] == 0
    assert calls["verify_second_iso.validate_hom"] == 0
    assert calls["verify_third_iso.validate_hom"] == 0
    assert builds["pushes_to_factor"] <= 900
    assert builds["is_fusion"] <= 60
    # the tables live on the memos of the systems the verify built
    assert {"pushes_to_factor", "is_fusion"} <= set(run["tables"])


def test_every_system_memo_table_is_audited(verify_run):
    # a table on a system memo must be a function of the system's content;
    # the PreFusionSystem docstring lists the tables audited for that
    import re
    doc = fz.PreFusionSystem.__doc__
    audited = set(re.findall(r"``(\w+)``", doc[doc.index("owns ("):doc.index(") holds")]))
    run = verify_run[3]
    assert run["memos"] > 100
    tables = set(run["tables"])
    assert tables <= audited, tables - audited
