import pytest

from fuskit import fusion as fz
from fuskit import permgroup as pg
from fuskit import quotients as qt
from fuskit import subsystems as ss
from fuskit.errors import (
    ImageNotAFusionSystem,
    InvariantViolation,
    NotNormalInP,
    NotSaturated,
    NotStronglyClosed,
)


@pytest.fixture(scope="module")
def e16_line(e16_seeded):
    G = e16_seeded.parent
    return G.subgroup_of([G.index_of(G.generators[0])])


# -- factor systems -------------------------------------------------------------

def test_factor_of_seeded_by_line_is_inner(e16_seeded, e16_line):
    fac = qt.factor_system(e16_seeded, e16_line)
    quot_group = fac.parent
    assert quot_group.order == 8
    assert fz.same_system(fac, fz.fusion_from_group(quot_group, 2))


def test_factor_by_trivial_is_isomorphic(s4_system):
    triv = s4_system.parent.trivial_subgroup()
    fac, proj = qt.factor_parts(s4_system, triv)
    assert fac.carrier.order == s4_system.carrier.order
    pairs = {m: proj[m] for m in s4_system.carrier.members}
    theta = pg.GroupHom.from_map(s4_system.carrier, fac.carrier, pairs)
    assert fz.same_system(fz.transport(s4_system, theta), fac)


def test_factor_by_v4(s4_system, v4):
    fac = qt.factor_system(s4_system, v4)
    assert fac.carrier.order == 2
    assert fz.same_system(fac, ss.inner_system(fac.carrier, 2))


def test_factor_requires_normal_kernel(s4_system):
    refl = next(S for S in s4_system.subgroups()
                if S.order == 2 and s4_system.centralizer_in_carrier(S).order == 4)
    with pytest.raises(NotNormalInP):
        qt.factor_system(s4_system, refl)


# -- bar systems -------------------------------------------------------------------

def test_bar_of_seeded_contains_steps_but_not_composite(e16_seeded, e16_line, groups):
    e16 = groups["e16"]
    bar = qt.bar_system(e16_seeded, e16_line)
    parts = qt._quotient_parts(e16_seeded, e16_line)
    _, b, c, d = (e16.index_of(g) for g in e16.generators)
    QG = parts.group
    Ab = QG.subgroup_of([parts.proj[b]])
    Ac = QG.subgroup_of([parts.proj[c]])
    Ad = QG.subgroup_of([parts.proj[d]])
    assert bar.isos(Ab, Ac) and bar.isos(Ac, Ad)
    assert not bar.isos(Ab, Ad)


def test_bar_by_trivial(s4_system):
    triv = s4_system.parent.trivial_subgroup()
    bar = qt.bar_system(s4_system, triv)
    assert bar.iso_count() == s4_system.iso_count()


def test_bar_equals_factor_for_saturated(s4_system, v4):
    bar = qt.bar_system(s4_system, v4)
    ok, _ = qt.prefusion_is_fusion(bar)
    assert ok
    assert fz.same_system(bar, qt.factor_system(s4_system, v4))


def test_bar_needs_strongly_closed(s4_system):
    z = pg.center(s4_system.carrier)
    with pytest.raises(NotStronglyClosed):
        qt.bar_system(s4_system, z)


# -- the axiom checker ----------------------------------------------------------------

def test_prefusion_checker_golden_witness(e16_seeded, e16_line, groups):
    e16 = groups["e16"]
    bar = qt.bar_system(e16_seeded, e16_line)
    ok, wit = qt.prefusion_is_fusion(bar)
    assert not ok and wit.kind == "missing-composite"
    parts = qt._quotient_parts(e16_seeded, e16_line)
    _, b, c, d = (e16.index_of(g) for g in e16.generators)
    QG = parts.group
    Ab = QG.subgroup_of([parts.proj[b]])
    Ac = QG.subgroup_of([parts.proj[c]])
    Ad = QG.subgroup_of([parts.proj[d]])
    first, second = wit.homs
    assert first.domain == Ab and first.image() == Ac
    assert second.domain == Ac and second.image() == Ad


def test_fusion_system_passes_checker(s4_system, a6_system):
    for F in (s4_system, a6_system):
        ok, wit = qt.prefusion_is_fusion(F)
        assert ok and wit is None


def test_generated_bar_always_closed(e16_seeded, e16_line):
    gen = qt.generated_bar(e16_seeded, e16_line)
    ok, _ = qt.prefusion_is_fusion(gen)
    assert ok


def test_generated_bar_strictly_between(e16_seeded, e16_line):
    bar = qt.bar_system(e16_seeded, e16_line)
    fac = qt.factor_system(e16_seeded, e16_line)
    gen = qt.generated_bar(e16_seeded, e16_line)
    assert gen.iso_count() > bar.iso_count() > fac.iso_count()
    # the closure adds the missing Ab -> Ad composite
    for key, homs in bar.table.items():
        assert homs <= gen.table.get(key, frozenset())


def test_generated_bar_by_trivial(s4_system):
    triv = s4_system.parent.trivial_subgroup()
    gen = qt.generated_bar(s4_system, triv)
    assert gen.iso_count() == s4_system.iso_count()


# -- quotient morphisms -------------------------------------------------------------------

def test_quotient_morphism_factor(s4_system, v4):
    # s4@2 is saturated, so the target is the factor system
    morph = qt.quotient_morphism(s4_system, v4)
    assert morph.target is qt.factor_system(s4_system, v4)
    assert morph.kernel == v4
    assert fz.is_strongly_closed(s4_system, morph.kernel)
    # the morphism action is the induced map
    for phi in s4_system.all_isos():
        bar = morph.apply(phi)
        assert bar in morph.target.table.get((bar.domain, bar.image()), frozenset())


def test_quotient_morphism_trivial_kernel(s4_system):
    morph = qt.quotient_morphism(s4_system, s4_system.parent.trivial_subgroup())
    assert morph.kernel.order == 1


def test_quotient_morphism_rejects_central_kernel(s4_system):
    z = pg.center(s4_system.carrier)
    with pytest.raises(NotStronglyClosed):
        qt.quotient_morphism(s4_system, z)


def test_quotient_morphism_factor_demands_closure(s4_system, v4, monkeypatch):
    # a saturated system's bar image must be the factor system: with one iso
    # dropped from it, the morphism is refused
    bar = qt.bar_system(s4_system, v4)
    key = max(bar.table, key=lambda k: k[0].order)
    dropped = fz.PreFusionSystem(bar.carrier, bar.p,
                                 {**bar.table, key: sorted(bar.table[key], key=pg.hom_key)[1:]})
    monkeypatch.setattr(qt, "bar_system", lambda F, Q: dropped)
    with pytest.raises(ImageNotAFusionSystem):
        qt.quotient_morphism(s4_system, v4)


def test_quotient_morphism_unsaturated_targets_generated_bar(e16_seeded, e16_line):
    # the seeded e16 system is not saturated, and its bar image is not
    # closed: the target is the closure of the bar image
    assert not fz.is_saturated(e16_seeded)
    morph = qt.quotient_morphism(e16_seeded, e16_line)
    assert morph.target is qt.generated_bar(e16_seeded, e16_line)
    assert morph.kernel == e16_line


def test_kernel_suite_fails_on_a_projection_that_moves_the_kernel(monkeypatch):
    # the kernel is computed from the projection.  The bar and target tables
    # are memoized first with the true projection, so only the kernel reads
    # one that sends an element of Q off the identity; the suite then fails
    # on every strongly closed Q with 1 < Q < P (for the others P/Q has no
    # element to move it to, or Q none to move)
    from fuskit.corpus import corpus_systems, load_corpus, shipped_corpus_dir
    from fuskit.verify import run_verification
    corpus = shipped_corpus_dir()
    records = corpus_systems(load_corpus(corpus))  # alive, so the memos stay
    proper = set()
    for r in records:
        for Q in r.system.subgroups():
            if fz.is_strongly_closed(r.system, Q):
                assert qt.quotient_morphism(r.system, Q).kernel == Q
                if 1 < Q.order < r.system.carrier.order:
                    proper.add(f"{r.key}/|Q|={Q.order}")
    real = qt._quotient_parts

    def moved(F, Q):
        parts = real(F, Q)
        if not 1 < Q.order < F.carrier.order:
            return parts
        outside = next(x for x in F.carrier.members if not (Q.mask >> x) & 1)
        return qt._QuotientParts(parts.group, {**parts.proj, Q.members[1]: parts.proj[outside]})

    monkeypatch.setattr(qt, "_quotient_parts", moved)
    outcome, = run_verification(corpus, theorem="morphism-kernels-strongly-closed").outcomes
    assert proper and {f["instance"] for f in outcome.failures} == proper


# -- closure transfer ------------------------------------------------------------------------

def test_closure_transfer_s4(s4_system, v4):
    rep = qt.closure_transfer(s4_system, v4)
    assert rep.ok
    assert [s.order for s in rep.strongly_closed_over] == [4, 8]
    assert [s.order for s in rep.strongly_closed_quotient] == [1, 2]


def test_closure_transfer_degenerate(s4_system):
    rep = qt.closure_transfer(s4_system, s4_system.carrier)
    assert rep.ok and len(rep.strongly_closed_quotient) == 1


def test_closure_transfer_unsaturated(e16_seeded, e16_line):
    with pytest.raises(NotSaturated):
        qt.closure_transfer(e16_seeded, e16_line)


# -- isomorphism theorems -----------------------------------------------------------------------

def test_second_iso_examples(s4_system, v4):
    E = ss.inner_system(s4_system.carrier, 2)
    assert qt.verify_second_iso(s4_system, v4, E)
    triv = s4_system.parent.trivial_subgroup()
    assert qt.verify_second_iso(s4_system, triv, E)
    assert qt.verify_second_iso(s4_system, v4, ss.inner_system(v4, 2))


def test_second_iso_rejects_a_system_that_induces_no_map(s4_system, v4):
    # E is generated on D8 by an outer automorphism swapping its two Klein
    # fours, so E moves V4 and its isos induce no map on D8/V4
    P = s4_system.carrier
    alpha = next(a for a in pg.automorphisms(P) if pg.mask_image(a.mapping, v4.mask) != v4.mask)
    E = fz.generated_on(P, 2, [alpha])
    with pytest.raises(InvariantViolation):
        qt.verify_second_iso(s4_system, v4, E)


@pytest.fixture(scope="module")
def shipped_records(corpus_entries):
    from fuskit.corpus import corpus_systems
    return corpus_systems(list(corpus_entries.values()))


def test_bar_system_is_the_push_of_all_of_f(shipped_records):
    # the oracle pushes every iso of F through the projection, as bar_system
    # did before it read the isos fixing Q off the factor system
    pairs = 0
    for rec in shipped_records:
        F = rec.system
        for Q in F.subgroups():
            if fz.is_strongly_closed(F, Q):
                parts = qt._quotient_parts(F, Q)
                pushed = fz.PreFusionSystem(parts.group.full_subgroup(), F.p,
                                            triples=fz.pushed(F, parts.proj))
                assert qt.bar_system(F, Q).store == pushed.store, (rec.key, Q.order)
                pairs += 1
    assert pairs == 167


def test_pushes_to_factor_agrees_with_carries(shipped_records):
    # against the push of all of E compared with E/K: on every (inner system,
    # R n Q) pair that the second-isomorphism suite builds, and on every
    # shipped system with each strongly closed K, where the unsaturated e16
    # seeded pushes isos outside E/K
    pairs = {}
    for rec in shipped_records:
        F = rec.system
        for Q in (Q for Q in F.subgroups() if fz.is_strongly_closed(F, Q)):
            pairs[F.memo_key, Q.mask] = F, Q
            if fz.is_saturated(F):
                for R in F.subgroups():
                    E, K = ss.inner_system(R, F.p), pg.meet(R, Q)
                    pairs[E.memo_key, K.mask] = E, K
    verdicts = []
    for E, K in pairs.values():
        whole = fz.carries(E, qt._quotient_parts(E, K).proj, qt.factor_system(E, K))
        assert qt._pushes_to_factor(E, K) == whole, (E.carrier.order, K.order)
        verdicts.append(whole)
    assert len(verdicts) == 911 and verdicts.count(False) == 25


def test_canonical_iso_rejects_what_is_not_an_isomorphism(s4_system, v4):
    P = s4_system.carrier
    same = {x: x for x in P.members}
    assert qt._canonical_iso(P, P, P.members, same, same) == same  # the element map
    # not well defined: every x goes to one point but to different images
    assert qt._canonical_iso(P, P, P.members, {x: 0 for x in P.members}, same) is None
    # not bijective: V4 into D8 is an injective hom but not onto, and the
    # trivial map on V4 is a hom onto V4's identity only
    assert qt._canonical_iso(v4, P, v4.members, same, same) is None
    assert qt._canonical_iso(v4, v4, v4.members, same, {x: 0 for x in v4.members}) is None
    # not multiplicative: a bijection of D8 fixing 1 that swaps the central
    # involution with an element of order 4
    G = P.parent
    z = next(x for x in pg.center(P).members if x)
    r = next(x for x in P.members if G.element_order(x) == 4)
    swap = {**same, z: r, r: z}
    assert qt._canonical_iso(P, P, P.members, same, swap) is None


def test_third_iso_examples(s4_system, v4):
    P = s4_system.carrier
    triv = s4_system.parent.trivial_subgroup()
    assert qt.verify_third_iso(s4_system, v4, P)
    assert qt.verify_third_iso(s4_system, v4, v4)
    assert qt.verify_third_iso(s4_system, triv, v4)


def test_local_determination(s4_system, v4, a6_system):
    assert qt.local_determination_holds(s4_system, v4)
    # A6: O_2 is trivial, the only strongly closed proper subgroup is 1
    triv = a6_system.parent.trivial_subgroup()
    assert qt.local_determination_holds(a6_system, triv)


def test_derived_constructions_stay_closed(s4_system, v4, groups):
    # the closure invariant holds for every constructor output, not just the
    # from-group tables
    candidates = [
        ss.normalizer_system(s4_system, v4),
        ss.centralizer_system(s4_system, pg.center(s4_system.carrier)),
        qt.factor_system(s4_system, v4),
        qt.generated_bar(s4_system, v4),
        fz.transport(s4_system,
                     pg.isomorphisms_between(s4_system.carrier,
                                             groups["d8"].full_subgroup())[0]),
        fz.restricted_to(s4_system, v4),
    ]
    for F in candidates:
        ok, wit = qt.prefusion_is_fusion(F)
        assert ok, wit


_TWIN_NAMES = """
import json, sys
from fuskit import fusion as fz, permgroup as pg, quotients as qt, solubility as sol
from fuskit.corpus import load_corpus, shipped_corpus_dir
from fuskit.serialization import system_to_dict
s4 = next(e for e in load_corpus(shipped_corpus_dir()) if e.name == "s4").load_group()
groups = {"qd2": sol.qd_group(2), "s4": s4}
names, alive = {}, []  # a live system keeps the shared memo alive
for key in sys.argv[1:]:
    F = fz.fusion_from_group(groups[key], 2)
    alive.append(F)
    V = pg.core_p(groups[key], 2)
    names[key] = [system_to_dict(build(F, V))["ambient"]["name"]
                  for build in (qt.factor_system, qt.bar_system, qt.generated_bar)]
print(json.dumps(names))
"""


@pytest.mark.parametrize("order", [("qd2", "s4"), ("s4", "qd2")])
def test_twin_systems_keep_their_own_quotient_names(order):
    # Qd(2) has S4's elements, so its system at 2 and S4's share one memo;
    # the quotients by V4 must still carry the name of the group that asks,
    # whichever asks first.  In a fresh interpreter, so no earlier test has
    # asked already
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(qt.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _TWIN_NAMES, *order],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"qd2": ["Qd(2)|8/4"] * 3, "s4": ["S4|8/4"] * 3}
