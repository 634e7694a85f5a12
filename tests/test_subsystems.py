from itertools import chain

import pytest

from fuskit import closure as cl
from fuskit import fusion as fz
from fuskit import permgroup as pg
from fuskit import subsystems as ss
from fuskit import verify
from fuskit.corpus import builtin_group, corpus_systems
from fuskit.errors import (
    CarrierNotStronglyClosed,
    FuskitError,
    NotASubgroup,
    NotASubgroupOfAut,
    NotNormal,
)


def other_klein(F, v4):
    return next(S for S in F.subgroups()
                if S.order == 4 and S.mask != v4.mask
                and all(F.parent.element_order(x) <= 2 for x in S.members))


# -- inner systems ------------------------------------------------------------

def test_inner_abelian_is_inclusions_only(v4):
    E = ss.inner_system(v4, 2)
    assert all(h.is_identity_map() for homs in E.table.values() for h in homs)


def test_inner_d8_fuses_reflections(d8_system, groups):
    d8 = groups["d8"]
    E = ss.inner_system(d8.full_subgroup(), 2)
    refl = [S for S in E.subgroups()
            if S.order == 2 and E.centralizer_in_carrier(S).order == 4]
    assert len(refl) == 4
    fused = [(q, r) for q in refl for r in refl if q != r and E.isos(q, r)]
    assert fused  # theta along the rotation of order 4
    assert fz.same_system(E, d8_system)


def test_subsystem_containment(s4_system, v4):
    E = ss.inner_system(v4, 2)
    assert ss.is_subsystem_of(E, s4_system)
    assert not ss.is_subsystem_of(s4_system, E)


# -- K-normalizers -------------------------------------------------------------

def test_normalizer_of_carrier_is_inner(s4_system):
    P = s4_system.carrier
    assert fz.same_system(ss.normalizer_system(s4_system, P),
                          ss.inner_system(P, 2))


def test_centralizer_of_center_is_inner(s4_system):
    z = pg.center(s4_system.carrier)
    assert fz.same_system(ss.centralizer_system(s4_system, z),
                          ss.inner_system(s4_system.carrier, 2))


def test_normalizer_of_normal_subgroup_is_whole_system(s4_system, v4):
    assert fz.same_system(ss.normalizer_system(s4_system, v4), s4_system)


def test_k_must_be_subgroup_of_aut(s4_system, v4):
    auts = sorted(s4_system.aut(v4), key=pg.hom_key)
    nontrivial = [h for h in auts if not h.is_identity_map()]
    order3 = [h for h in nontrivial if not h.then(h).is_identity_map()]
    with pytest.raises(NotASubgroupOfAut):
        ss.k_normalizer_system(s4_system, v4, [order3[0]])  # not closed
    foreign = pg.GroupHom.identity(s4_system.carrier)
    with pytest.raises(NotASubgroupOfAut):
        ss.k_normalizer_system(s4_system, v4, [foreign])


def test_k_normalizer_carrier(s4_system, v4):
    # K = the inner automorphisms of V4 (trivial group): carrier = C_P(V4) = V4
    E = ss.centralizer_system(s4_system, v4)
    assert E.carrier == v4


def _k_normalizer_by_scan(F, Q, K):
    """N_F^K(Q) as it was built before the generator test: every stored iso
    of F inside N_P^K(Q) that extends over Q to an iso of F restricting into K."""
    real = fz.aut_realization(F, Q)
    k_images = {real.images[i] for i in K.members} | {Q.members}
    n_mask = sum(xs for c, xs in fz.aut_p(F, Q).items() if c in k_images)
    on_q = fz.extensions_on(F, Q)
    kept = ((r, s, imgs) for r, s, imgs in F.triples()
            if not (r | s) & ~n_mask and any(x in k_images for x in on_q(r, imgs)))
    return fz.FusionSystem(pg.Subgroup(F.parent, n_mask), F.p, triples=kept)


def _affine_3(name, *maps):
    """The group of the maps (x, y) -> maps(x, y) mod 3 on the points 3x + y."""
    pts = [(x, y) for x in range(3) for y in range(3)]
    return pg.group_from_generators(
        9, [[u % 3 * 3 + v % 3 for u, v in (f(x, y) for x, y in pts)] for f in maps], name)


def _k_normalizers_agree(F):
    """Compare every K-normalizer of F, each Q and K = 1, K normal in Aut_F(Q)
    and K = Aut_F(Q), with the scan; F's entries are built here.  Returns the
    number that the generator test decided."""
    F._caches.pop("k_normalizer", None)
    before = pg.WORK["knorm_generators"]
    for Q in F.subgroups():
        grp = fz.aut_realization(F, Q).group
        ks = {K.mask: K for K in [grp.trivial_subgroup(), grp.full_subgroup()]
              + pg.normal_subgroups(grp)}
        for K in ks.values():
            got = ss._k_normalizer(F, Q, K)
            assert fz.same_system(got, _k_normalizer_by_scan(F, Q, K)), (F, Q.order, K.order)
    return pg.WORK["knorm_generators"] - before


def test_k_normalizer_agrees_with_the_scan(corpus_entries, e16_seeded):
    # a K-normalizer that is all of F is recognised from the automorphisms
    # of F's fully normalized centric radical subgroups; every other one is
    # scanned, inside N_F(Q) for a proper K
    decided = 0
    for rec in corpus_systems(list(corpus_entries.values())):
        if fz.is_saturated(rec.system):
            decided += _k_normalizers_agree(rec.system)
    assert decided >= 100
    c3_wr_c3 = pg.group_from_generators(9, [[1, 2, 0, 3, 4, 5, 6, 7, 8],
                                            [3, 4, 5, 6, 7, 8, 0, 1, 2]], "C3wrC3")
    agl23 = _affine_3("AGL(2,3)", lambda x, y: (x + 1, y), lambda x, y: (y, -x),
                      lambda x, y: (x, x + y), lambda x, y: (2 * x, y))
    for G in (c3_wr_c3, agl23):
        F = fz.fusion_from_group(G, 3)
        assert fz.is_saturated(F)
        assert _k_normalizers_agree(F) > 0
    # the generators of an unsaturated system need not generate it
    assert not fz.is_saturated(e16_seeded)
    assert _k_normalizers_agree(e16_seeded) == 0


# -- invariance / Frattini --------------------------------------------------------

def test_inner_v4_invariant(s4_system, v4):
    assert ss.is_invariant(s4_system, ss.inner_system(v4, 2))


def test_whole_system_invariant_in_itself(s4_system):
    assert ss.is_invariant(s4_system, s4_system)


def test_invariance_needs_strongly_closed_carrier(s4_system, v4):
    t = other_klein(s4_system, v4)
    with pytest.raises(CarrierNotStronglyClosed):
        ss.is_invariant(s4_system, ss.inner_system(t, 2))


def test_frattini_inner_v4(s4_system, v4):
    assert ss.is_frattini(s4_system, ss.inner_system(v4, 2))


def test_frattini_whole_system(s4_system):
    assert ss.is_frattini(s4_system, s4_system)


def test_frattini_fails_for_inner_in_seeded(e16_seeded):
    P = e16_seeded.carrier
    inner = ss.inner_system(P, 2)
    # the seed morphisms cannot be factored as carrier-automorphism then inner,
    # even though conjugating inclusions stays inside the inner system; the
    # invariance/Frattini equivalence genuinely needs saturation
    assert not ss.is_frattini(e16_seeded, inner)
    assert ss.aut_f_acts_on(e16_seeded, inner)
    assert ss.is_invariant(e16_seeded, inner)


def test_aut_f_acts_on(s4_system, v4):
    inner = ss.inner_system(v4, 2)
    assert ss.aut_f_acts_on(s4_system, inner)
    assert ss.aut_f_acts_on(inner, inner)


def test_invariant_iff_acts_and_frattini(s4_system, a6_system):
    # the two-part characterization of invariance, over inner subsystems
    for F in (s4_system, a6_system):
        for Q in F.subgroups():
            if not fz.is_strongly_closed(F, Q):
                continue
            E = ss.inner_system(Q, 2)
            lhs = ss.is_invariant(F, E)
            rhs = ss.aut_f_acts_on(F, E) and ss.is_frattini(F, E)
            assert lhs == rhs


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FuskitError as exc:
        return type(exc)


def _invariant_by_subgroups(F, E):
    """is_invariant as it was written with a system per subgroup S of E's
    carrier: the isos of E inside S pushed through every F-iso out of S."""
    Q = E.carrier
    if not fz.is_strongly_closed(F, Q):
        raise CarrierNotStronglyClosed("the subsystem carrier is not strongly closed")
    for S in pg.subgroups_of(Q):
        inside = fz.restricted_to(E, S)
        for psi in chain(*F.store.get(S.mask, {}).values()):
            if not all(imgs in E.images(q, r)
                       for q, r, imgs in fz.pushed(inside, dict(zip(S.members, psi)))):
                return False
    return True


def _only_identity(F, Q):
    """The system on F's carrier holding only the identity of Q."""
    return fz.PreFusionSystem(F.carrier, F.p, triples=[(Q.mask, Q.mask, Q.members)])


def test_invariance_agrees_with_the_per_subgroup_route(corpus_entries):
    # every shipped system F: the inner system and F's restriction on each
    # strongly closed Q, and the verify's K-normalizers N_F^K(Q) in N_F(Q)
    # and in F, where their carriers need not be strongly closed.  The
    # system on the carrier holding only the identity of Q is invariant
    # exactly when Q is weakly closed, which F's automorphisms of Q alone
    # cannot tell
    pairs = []
    for rec in corpus_systems(list(corpus_entries.values())):
        F = rec.system
        for Q in F.subgroups():
            only_id = _only_identity(F, Q)
            assert ss.is_invariant(F, only_id) == fz.is_weakly_closed(F, Q)
            pairs.append((F, only_id))
            if fz.is_strongly_closed(F, Q):
                pairs += [(F, ss.inner_system(Q, F.p)), (F, fz.restricted_to(F, Q))]
        if fz.is_saturated(F):
            pairs += [pair for _, _, nq, nk in verify._knorm_instances(F)
                      for pair in ((nq, nk), (F, nk))]
    outcomes = []
    for F, E in pairs:
        got = _outcome(ss.is_invariant, F, E)
        assert got == _outcome(_invariant_by_subgroups, F, E), (F, E)
        outcomes.append(got)
    assert len(outcomes) == 1157
    assert outcomes.count(False) >= 5 and CarrierNotStronglyClosed in outcomes


def _acts_on_by_every_element(F, E):
    """aut_f_acts_on as it was written: E pushed through every element of
    Aut_F(Q), Q the carrier of E."""
    Q = E.carrier
    return all(fz.carries(E, dict(zip(Q.members, a)), E) for a in F.images(Q.mask, Q.mask))


def _alperin_test_by_every_element(F, Q, K):
    """The Alperin test of _k_normalizer over every element of each Aut_F(S),
    S fully normalized centric radical: N_F^K(Q) is F exactly when it passes."""
    real = cl.aut_realization(F, Q)
    k_images = {real.images[i] for i in K.members}
    on_q = fz.extensions_on(F, Q)
    return (K.order == real.group.order and F.normalizer_in_carrier(Q) == F.carrier
            and all(any(x in k_images for x in on_q(S.mask, a))
                    for S in cl.fnrc_subgroups(F) for a in F.images(S.mask, S.mask)))


def test_generators_of_aut_f_agree_with_every_element(corpus_entries):
    # every saturated shipped F: Aut_F(Q) acting on the inner system of each
    # strongly closed Q, and Aut_F(P) on the system on P holding only the
    # identity of Q, for every Q, which an automorphism moving Q does not
    # carry onto itself; and the K-normalizers that the Alperin test of
    # _k_normalizer, read on generators, decides to be F
    acts, only_id, decided = [], [], []
    for rec in corpus_systems(list(corpus_entries.values())):
        F = rec.system
        if not fz.is_saturated(F):
            continue
        for Q in F.subgroups():
            E = _only_identity(F, Q)
            only_id.append(ss.aut_f_acts_on(F, E))
            assert only_id[-1] == _acts_on_by_every_element(F, E), (F, Q)
            if fz.is_strongly_closed(F, Q):
                E = ss.inner_system(Q, F.p)
                acts.append(ss.aut_f_acts_on(F, E))
                assert acts[-1] == _acts_on_by_every_element(F, E), (F, Q)
        instances = verify._knorm_instances(F)
        F._caches.pop("k_normalizer")  # so each N_F(Q) is decided afresh
        for Q, K, _, nk in instances:
            expected = _alperin_test_by_every_element(F, Q, K)
            assert fz.same_system(nk, F) == expected, (F, Q, K)
            if K.order == cl.aut_realization(F, Q).group.order:  # no proper K can pass
                before = pg.WORK["knorm_generators"]
                ss.normalizer_system(F, Q)
                decided.append(pg.WORK["knorm_generators"] > before)
                assert decided[-1] == expected, (F, Q)
    assert (len(only_id), only_id.count(False)) == (200, 52)
    assert (len(acts), acts.count(False)) == (136, 0)
    assert (len(decided), decided.count(True)) == (189, 132)


def test_twin_reads_the_invariance_entry(s4_system, v4):
    # the entries are keyed by the second system's memo serial, which a twin
    # on a renamed ambient group shares
    from fuskit.serialization import system_from_dict, system_to_dict
    F, E = s4_system, ss.inner_system(v4, 2)
    assert ss.is_invariant(F, E)
    builds = pg.BUILDS["invariant"]
    doc = system_to_dict(E)
    doc["ambient"]["name"] = "S4-invariance-twin"
    twin = system_from_dict(doc)
    assert twin is not E and twin.parent is not E.parent
    assert twin.memo_key == E.memo_key
    assert ss.is_invariant(F, twin)
    assert pg.BUILDS["invariant"] == builds


def test_other_content_gets_its_own_invariance_entry(s4_system):
    # two systems on one carrier, of other contents: the identity of the
    # carrier, weakly closed, and of a subgroup of order 2 that F fuses
    F = s4_system
    P = F.carrier
    Q = next(S for S in F.subgroups() if S.order == 2 and not fz.is_weakly_closed(F, S))
    E_weak, E_fused = _only_identity(F, P), _only_identity(F, Q)
    assert E_weak.carrier == E_fused.carrier and E_weak.memo_key != E_fused.memo_key
    assert ss.is_invariant(F, E_weak)
    assert not ss.is_invariant(F, E_fused)
    assert F._caches["invariant"][(E_weak.memo_key,)] is True
    assert F._caches["invariant"][(E_fused.memo_key,)] is False


def test_invariance_entries_keep_no_system_alive(s4_system):
    import gc
    import weakref
    F = s4_system
    E = _only_identity(F, F.carrier)
    assert ss.is_invariant(F, E)
    key = (E.memo_key,)
    gone = weakref.ref(E)
    del E
    gc.collect()
    assert gone() is None
    assert F._caches["invariant"][key]


def test_predicates_reject_a_subsystem_outside_the_carrier(s4_system):
    # t is a transposition outside the Sylow 2-subgroup: <t> is not in the
    # carrier, so E is no subsystem of F and no predicate may answer
    F = s4_system
    G = F.parent
    t = next(x for x in range(G.order) if G.element_order(x) == 2 and x not in F.carrier)
    E = ss.inner_system(G.subgroup_of([t]), 2)
    assert not ss.is_subsystem_of(E, F)
    for pred in (ss.is_invariant, ss.is_frattini, ss.aut_f_acts_on, ss.is_normal_subsystem,
                 ss.is_characteristic):
        with pytest.raises(NotASubgroup):
            pred(F, E)
    for _ in range(2):  # a raise stores nothing, so a second call raises too
        with pytest.raises(NotASubgroup):
            fz.is_strongly_closed(F, E.carrier)


# -- normal / characteristic --------------------------------------------------------

def test_normal_subsystem(s4_system, v4):
    assert ss.is_normal_subsystem(s4_system, ss.inner_system(v4, 2))
    assert ss.is_normal_subsystem(s4_system, s4_system)


def test_intersection_counterexample_not_normal(groups):
    G = groups["d8xc2"]
    x, y, z = (G.index_of(g) for g in G.generators)
    Q = G.subgroup_of([x, y])
    R = G.subgroup_of([G.mul(x, z), y])
    S = pg.meet(Q, R)
    E = fz.fusion_intersect(fz.restricted_to(ss.inner_system(Q, 2), S),
                            fz.restricted_to(ss.inner_system(R, 2), S))
    F = fz.fusion_from_group(G, 2)
    assert ss.is_invariant(F, E)
    assert not ss.is_normal_subsystem(F, E)  # fails saturation only


def test_characteristic(s4_system, v4, d8_system):
    core_inner = ss.inner_system(cl.o_p(s4_system), 2)
    assert ss.is_characteristic(s4_system, core_inner)
    assert ss.is_characteristic(s4_system, s4_system)
    # in the inner system of D8 the two Klein fours are swapped by an
    # F-preserving automorphism of D8
    v4_in_d8 = next(S for S in d8_system.subgroups()
                    if S.order == 4
                    and all(d8_system.parent.element_order(m) <= 2 for m in S.members))
    assert not ss.is_characteristic(d8_system, ss.inner_system(v4_in_d8, 2))


def test_characteristic_requires_normal(s4_system, v4):
    t = other_klein(s4_system, v4)
    with pytest.raises((NotNormal, CarrierNotStronglyClosed)):
        ss.is_characteristic(s4_system, ss.inner_system(t, 2))


def _characteristic_by_transport(F, E):
    """is_characteristic as it was written with a transported system per
    automorphism of the carrier: the reference for the push test."""
    if not ss.is_normal_subsystem(F, E):
        raise NotNormal("E is not a normal subsystem of F")
    for alpha in pg.automorphisms(F.carrier):
        if not fz.same_system(fz.transport(F, alpha), F):
            continue
        if pg.mask_image(alpha.mapping, E.carrier.mask) != E.carrier.mask:
            return False
        if not fz.same_system(fz.transport(E, alpha.restriction(E.carrier)), E):
            return False
    return True


def test_characteristic_agrees_with_transport(monkeypatch):
    # every inner subsystem of ten systems, exceptions included: 111 pairs.
    # F's memo keeps the automorphisms of P that carry F onto F, so E is
    # pushed only through those: 1,361 calls of carries in all, 584 of them
    # to find the ten stabilizers, against 2,354 when every pair pushed F
    # through all of Aut(P) again
    systems = [("s4", 2), ("d8", 2), ("d8xc2", 2), ("q8", 2), ("c4xc2", 2), ("sl23", 2),
               ("a6", 2), ("a4", 2), ("qd3", 3), ("s3", 3)]
    calls = [0]
    carries = ss.carries

    def counting_carries(*args):
        calls[0] += 1
        return carries(*args)

    outcomes = []
    for name, p in systems:
        F = fz.fusion_from_group(builtin_group(name), p)
        for Q in F.subgroups():
            E = ss.inner_system(Q, p)
            monkeypatch.setattr(ss, "carries", counting_carries)
            got = _outcome(ss.is_characteristic, F, E)
            monkeypatch.setattr(ss, "carries", carries)
            assert got == _outcome(_characteristic_by_transport, F, E), (name, Q.order)
            outcomes.append(got)
    assert len(outcomes) == 111
    assert {True, False, NotNormal, CarrierNotStronglyClosed} <= set(outcomes)
    assert 0 < calls[0] <= 1_400
