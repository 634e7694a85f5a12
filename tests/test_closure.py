import warnings

import pytest

from fuskit import closure as cl
from fuskit import fusion as fz
from fuskit import permgroup as pg
from fuskit.errors import NotSaturated, NotStronglyClosed
from fuskit.oracles import oracle_constrained, oracle_o_p


def other_klein(F, v4):
    return next(S for S in F.subgroups()
                if S.order == 4 and S.mask != v4.mask
                and all(F.parent.element_order(x) <= 2 for x in S.members))


# -- classification -------------------------------------------------------------

def test_classify_v4(s4_system, v4):
    c = cl.classify(s4_system, v4)
    assert c.centric and c.radical and c.fully_normalized
    assert c.weakly_closed and c.strongly_closed and c.normal_in_F


def test_classify_other_klein(s4_system, v4):
    t = other_klein(s4_system, v4)
    c = cl.classify(s4_system, t)
    assert c.centric and not c.radical


def test_classify_carrier(s4_system):
    c = cl.classify(s4_system, s4_system.carrier)
    assert c.centric and c.fully_normalized and c.radical
    assert not c.normal_in_F  # V4 is a smaller centric radical


def test_classification_implications(s4_system, a6_system, e16_seeded):
    for F in (s4_system, a6_system):
        for Q in F.subgroups():
            c = cl.classify(F, Q)
            if c.strongly_closed:
                assert c.weakly_closed
            if c.normal_in_F:
                assert c.strongly_closed
    assert fz.is_strongly_closed(e16_seeded, e16_seeded.parent.subgroup_of(
        [e16_seeded.parent.index_of(e16_seeded.parent.generators[0])]))


def test_fnrc_of_s4(s4_system, v4):
    fnrc = cl.fnrc_subgroups(s4_system)
    assert [s.order for s in fnrc] == [4, 8]
    assert fnrc[0] == v4


# -- normality ---------------------------------------------------------------------

def test_normal_subgroup(s4_system, v4):
    assert cl.is_normal_subgroup(s4_system, v4)
    assert not cl.is_normal_subgroup(s4_system, s4_system.carrier)
    assert cl.is_normal_subgroup(s4_system, s4_system.parent.trivial_subgroup())


def test_normal_matches_definitional(s4_system, a6_system):
    for F in (s4_system, a6_system):
        for Q in F.subgroups():
            assert cl.is_normal_subgroup(F, Q) == cl.definitional_normal(F, Q)


def test_normal_on_unsaturated_warns(e16_seeded):
    A = e16_seeded.parent.subgroup_of(
        [e16_seeded.parent.index_of(e16_seeded.parent.generators[0])])
    assert not fz.is_saturated(e16_seeded)  # what a caller that wants no fallback checks
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = cl.is_normal_subgroup(e16_seeded, A)
    assert caught and not got  # A is strongly closed but morphisms do not extend over it


# -- the core and the centre ----------------------------------------------------------

def test_o_p(s4_system, v4, d8_system, a6_system):
    assert cl.o_p(s4_system) == v4 == oracle_o_p(s4_system)
    assert cl.o_p(d8_system) == d8_system.carrier
    assert cl.o_p(a6_system).order == 1 == oracle_o_p(a6_system).order


def test_o_p_requires_saturated(e16_seeded):
    with pytest.raises(NotSaturated):
        cl.o_p(e16_seeded)


def test_center_of_fusion(s4_system, d8_system, groups):
    assert cl.center_of_fusion(s4_system).order == 1
    zp = pg.center(d8_system.carrier)
    assert cl.center_of_fusion(d8_system) == zp
    c3 = fz.fusion_from_group(groups["c3"], 3)
    assert cl.center_of_fusion(c3) == c3.carrier


def test_center_inside_core(s4_system, d8_system, a6_system):
    for F in (s4_system, d8_system, a6_system):
        assert cl.center_of_fusion(F) <= cl.o_p(F)


# -- closed central series --------------------------------------------------------------

def test_series_v4(s4_system, v4):
    series = cl.strongly_closed_central_series(s4_system, v4, "strong")
    assert [s.order for s in series] == [1, 4]


def test_series_center_of_d8_fails(s4_system):
    z = pg.center(s4_system.carrier)
    assert cl.strongly_closed_central_series(s4_system, z, "strong") is None


def test_series_trivial(s4_system):
    series = cl.strongly_closed_central_series(
        s4_system, s4_system.parent.trivial_subgroup(), "strong")
    assert [s.order for s in series] == [1]


def test_series_weak_mode_requires_strongly_closed(s4_system):
    z = pg.center(s4_system.carrier)
    with pytest.raises(NotStronglyClosed):
        cl.strongly_closed_central_series(s4_system, z, "weak")
    v4 = cl.o_p(s4_system)
    series = cl.strongly_closed_central_series(s4_system, v4, "weak")
    assert series is not None and series[-1] == v4


# -- generation ----------------------------------------------------------------------------

def test_alperin_generators_s4(s4_system, v4):
    gens = cl.alperin_generators(s4_system)
    assert [(s.order, len(auts)) for s, auts in gens] == [(4, 6), (8, 4)]
    assert gens[0][0] == v4


def test_alperin_generators_inner(d8_system):
    gens = cl.alperin_generators(d8_system)
    assert gens[-1][0] == d8_system.carrier


def test_alperin_generators_a6(a6_system):
    assert [s.order for s, _ in cl.alperin_generators(a6_system)] == [4, 4, 8]


def test_alperin_decompose_identity(s4_system, v4):
    assert cl.alperin_decompose(s4_system, pg.GroupHom.identity(v4)) == []


def test_alperin_decompose_double_transpositions(s4_system, v4):
    dts = [S for S in s4_system.subgroups() if S.order == 2 and S <= v4]
    phi = sorted(s4_system.isos(dts[0], dts[1]), key=pg.hom_key)[0]
    steps = cl.alperin_decompose(s4_system, phi)
    assert len(steps) == 1 and steps[0][0] == v4


def test_alperin_decompose_reflections(s4_system):
    F = s4_system
    refl = [S for S in F.subgroups()
            if S.order == 2 and F.centralizer_in_carrier(S).order == 4]
    q, r = next((q, r) for q in refl for r in refl if q != r and F.isos(q, r))
    phi = sorted(F.isos(q, r), key=pg.hom_key)[0]
    steps = cl.alperin_decompose(F, phi)
    assert len(steps) == 1 and steps[0][0] == F.carrier


def test_alperin_decompose_all(a6_system):
    for phi in a6_system.all_isos():
        steps = cl.alperin_decompose(a6_system, phi)
        cur = pg.GroupHom.identity(phi.domain)
        for s_i, alpha in steps:
            assert cur.image_mask & ~s_i.mask == 0
            cur = cur.then(alpha.restriction(cur.image()))
        assert cur.pairs == phi.pairs


def test_constrained_oracle_agreement(s4_system, d8_system, a6_system):
    from fuskit import solubility as sol
    for F in (s4_system, d8_system, a6_system):
        assert sol.is_constrained(F) == oracle_constrained(F)


def test_subgroups_outside_carrier_rejected(s4_system, groups):
    from fuskit import subsystems as ss
    from fuskit.errors import NotASubgroup
    c3 = pg.sylow(groups["s4"], 3)      # not inside the Sylow 2-subgroup
    for call in (lambda: cl.classify(s4_system, c3),
                 lambda: cl.is_normal_subgroup(s4_system, c3),
                 lambda: cl.strongly_closed_central_series(s4_system, c3),
                 lambda: ss.k_normalizer_system(s4_system, c3, []),
                 lambda: fz.aut_realization(s4_system, c3)):
        with pytest.raises(NotASubgroup):
            call()
