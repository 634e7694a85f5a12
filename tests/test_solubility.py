import pytest

from fuskit import closure as cl
from fuskit import fusion as fz
from fuskit import permgroup as pg
from fuskit import quotients as qt
from fuskit import solubility as sol
from fuskit.corpus import corpus_systems
from fuskit.errors import NotSaturated, OrderCapExceeded, SylowMismatch
from fuskit.oracles import brute_normal_subgroups, oracle_tower


# -- towers -----------------------------------------------------------------------

def test_tower_s4(s4_system, v4):
    rep = sol.o_p_tower(s4_system)
    assert [s.order for s in rep.tower] == [1, 4, 8]
    assert rep.tower[1] == v4
    assert rep.p_soluble and rep.p_length == 2 and rep.constrained
    oracle = oracle_tower(s4_system)
    assert [s.order for s in oracle[0]] == [1, 4, 8]


def test_oracle_tower_builds_its_own_quotients(s4_system, monkeypatch):
    from fuskit import quotients as qt

    def production(*args):
        raise AssertionError("the oracle must not build quotients through the checked path")

    for mod, name in ((qt, "_quotient_parts"), (qt, "factor_parts"), (qt, "factor_system"),
                      (pg, "quotient_group")):
        monkeypatch.setattr(mod, name, production)
    tower, soluble, length = oracle_tower(s4_system)
    assert [s.order for s in tower] == [1, 4, 8] and soluble and length == 2


def test_tower_inner(d8_system):
    rep = sol.o_p_tower(d8_system)
    assert [s.order for s in rep.tower] == [1, 8]
    assert rep.p_length == 1


def test_tower_a6(a6_system):
    rep = sol.o_p_tower(a6_system)
    assert [s.order for s in rep.tower] == [1]
    assert not rep.p_soluble and rep.p_length is None and not rep.constrained


def test_tower_requires_saturated(e16_seeded):
    with pytest.raises(NotSaturated):
        sol.o_p_tower(e16_seeded)


def test_tower_qd3(groups):
    F = fz.fusion_from_group(groups["qd3"], 3)
    rep = sol.o_p_tower(F)
    assert [s.order for s in rep.tower] == [1, 9, 27]
    assert rep.p_length == 2 and rep.constrained


def _tower_from_f_mod_1(F):
    """The core tower as o_p_tower built it before it started at O_p(F):
    every step, the first one included, builds F/T and finds O_p(F/T)."""
    tower = [F.parent.trivial_subgroup()]
    while tower[-1].mask != F.carrier.mask:
        cur = tower[-1]
        quot, _ = qt.factor_parts(F, cur)
        pre = qt._preimage_subgroup(F, qt._quotient_parts(F, cur), cl.o_p(quot))
        if pre.mask == cur.mask:
            break
        tower.append(pre)
    return tower


def _masks(tower):
    return [T.mask for T in tower]


@pytest.mark.parametrize("name, p, orders, soluble", [
    ("a6", 2, [1], False),          # O_p(F) = 1
    ("c3", 2, [1], True),           # a trivial carrier: p-length 0
    ("d8", 2, [1, 8], True),        # O_p(F) = P
    ("s4", 2, [1, 4, 8], True),     # two steps
    ("qd3", 3, [1, 9, 27], True),
])
def test_tower_first_step_edge_cases(groups, name, p, orders, soluble):
    # the tower starts at O_p(F); the oracle builds F/1 and finds its core
    F = fz.fusion_from_group(groups[name], p)
    rep = sol.o_p_tower(F)
    tower, oracle_soluble, length = oracle_tower(F)
    assert _masks(rep.tower) == _masks(tower)
    assert [T.order for T in rep.tower] == orders
    assert rep.p_soluble == oracle_soluble == soluble
    assert rep.p_length == length == (len(orders) - 1 if soluble else None)


def test_tower_agrees_with_the_loop_from_f_mod_1(corpus_entries):
    saturated = [r.system for r in corpus_systems(list(corpus_entries.values()))
                 if fz.is_saturated(r.system)]
    assert len(saturated) == 18
    for F in saturated:
        masks = _masks(sol.o_p_tower(F).tower)
        assert masks == _masks(_tower_from_f_mod_1(F)) == _masks(oracle_tower(F)[0])


def test_tower_agrees_on_generated_specs(monkeypatch):
    # the saturated specs of one fusion-generate pass (seed 41), drawn as
    # perfbench/workloads.py draws them
    import importlib
    import importlib.util
    import sys
    from pathlib import Path
    from types import SimpleNamespace
    from fuskit.serialization import fusion_spec_from_dict
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    fk = SimpleNamespace(**{m: importlib.import_module(f"fuskit.{m}") for m in workloads.MODULES})
    systems = [fusion_spec_from_dict(s) for s in workloads.FusionGenerate().setup(fk, 41)]
    saturated = [F for F in systems if fz.is_saturated(F)]
    assert len(saturated) == 68
    for F in saturated:
        assert _masks(sol.o_p_tower(F).tower) == _masks(_tower_from_f_mod_1(F))


# -- constrained -------------------------------------------------------------------

def test_constrained(s4_system, d8_system, a6_system):
    assert sol.is_constrained(s4_system)      # C_{D8}(V4) = V4
    assert sol.is_constrained(d8_system)      # P itself is normal and centric
    assert not sol.is_constrained(a6_system)  # trivial core


# -- models -------------------------------------------------------------------------

def test_is_model_s4(s4_system, groups):
    assert sol.is_model(groups["s4"], s4_system)


def test_is_model_rejects_pprime_core(s4_system, groups):
    s4 = groups["s4"]
    c3 = groups["c3"]
    gens = []
    for g in s4.generators:
        gens.append(list(g.images) + [4, 5, 6])
    for g in c3.generators:
        gens.append([0, 1, 2, 3] + [4 + x for x in g.images])
    s4xc3 = pg.group_from_generators(7, gens, "S4xC3")
    assert s4xc3.order == 72
    assert not sol.is_model(s4xc3, s4_system)


def test_is_model_p_group(d8_system, groups):
    assert sol.is_model(groups["d8"], d8_system)


def test_is_model_sylow_mismatch(s4_system, groups):
    with pytest.raises(SylowMismatch):
        sol.is_model(groups["q8"], s4_system)


def test_s3_models_s4_fusion_at_3(groups):
    F = fz.fusion_from_group(groups["s4"], 3)
    assert sol.is_model(groups["s3"], F)


def test_qd2_models_the_s4_system(s4_system, groups):
    # Qd(2) is abstractly S4, so it realizes the same fusion system even
    # though its Sylow subgroup lives on different points
    assert sol.is_model(groups["qd2"], s4_system)
    F2 = fz.fusion_from_group(groups["qd2"], 2)
    assert sol.is_model(groups["s4"], F2)


def test_a4_core_automorphisms(groups):
    F = fz.fusion_from_group(groups["a4"], 2)
    assert len(F.aut(cl.o_p(F))) == 3  # the cyclic top action on V4


# -- Qd groups -------------------------------------------------------------------------

def test_qd2_is_s4(groups):
    qd2 = sol.qd_group(2)
    assert qd2.order == 24
    assert pg.isomorphism_search(qd2, groups["s4"]) is not None


def test_qd3(groups):
    qd3 = sol.qd_group(3)
    assert qd3.order == 216
    orbit = {qd3.elements[g].images[0] for g in range(qd3.order)}
    assert orbit == set(range(9))  # transitive: translations are included


def test_qd_cap():
    with pytest.raises(OrderCapExceeded):
        sol.qd_group(7)


def test_qdp_free(groups):
    assert not sol.is_qdp_free_group(groups["s4"], 2)    # S4 is Qd(2)
    assert sol.is_qdp_free_group(groups["d8"], 2)        # too small
    assert sol.is_qdp_free_group(groups["sl23"], 2)      # order 24 but not S4
    assert not sol.is_qdp_free_group(groups["qd3"], 3)
    assert not sol.is_qdp_free_group(groups["a6"], 2)    # S4 sits inside A6


def test_qdp_free_cap_is_checked_on_a_memo_hit(groups, monkeypatch):
    G = groups["a6"]
    assert not sol.is_qdp_free_group(G, 2)
    monkeypatch.setenv("FUSKIT_ORDER_CAP", str(G.order - 1))
    with pytest.raises(OrderCapExceeded):  # the cap is not part of the key
        sol.is_qdp_free_group(G, 2)


def test_cores_and_qdp_freeness_across_corpus(corpus_entries, groups):
    not_free = {("a6", 2), ("qd2", 2), ("qd3", 3), ("s4", 2)}
    for name, entry in corpus_entries.items():
        G = groups[name]
        normal = brute_normal_subgroups(G)
        for p in (q for q in range(2, G.order + 1) if G.order % q == 0 and pg.is_prime(q)):
            largest = max((N for N in normal if N.order % p), key=lambda N: N.order)
            assert pg.core_pprime(G, p) == largest, (name, p)
        for p in entry.primes:
            assert sol.is_qdp_free_group(G, p) == ((name, p) not in not_free), (name, p)


# -- Thompson factorization -------------------------------------------------------------

def test_thompson_inner(d8_system):
    assert sol.thompson_factorization_holds(d8_system)


def test_thompson_fails_for_s4_at_2(s4_system):
    # J(D8) = D8 and the centre is fused away, so both factors collapse to the
    # inner system; consistent with the odd-prime hypothesis of the statement
    assert not sol.thompson_factorization_holds(s4_system)


def test_thompson_s3_at_3(groups):
    F = fz.fusion_from_group(groups["s3"], 3)
    assert sol.thompson_factorization_holds(F)


# -- group-side solubility -----------------------------------------------------------------

def test_group_p_soluble(groups):
    assert sol.group_is_p_soluble(groups["s4"], 2)
    assert sol.group_is_p_soluble(groups["s4"], 3)
    assert sol.group_is_p_soluble(groups["qd3"], 3)
    assert sol.group_is_p_soluble(groups["sl23"], 2)
    assert not sol.group_is_p_soluble(groups["a6"], 2)


def test_theorem_f_instances(s4_system, groups):
    # the fusion system of a p-soluble group has p-soluble core automorphisms
    core = cl.o_p(s4_system)
    real = fz.aut_realization(s4_system, core)
    assert real.group.order == 6
    assert sol.group_is_p_soluble(real.group, 2)
    F3 = fz.fusion_from_group(groups["qd3"], 3)
    real3 = fz.aut_realization(F3, cl.o_p(F3))
    assert real3.group.order == 24
    assert sol.group_is_p_soluble(real3.group, 3)


def _model_by_transport(G, F):
    """is_model as it was written with a transported system per
    identification of the Sylow subgroup with the carrier: the reference for
    the push test."""
    P = pg.sylow(G, F.p)
    theta0 = pg.isomorphisms_between(P, F.carrier)[0]
    if pg.core_pprime(G, F.p).order != 1:
        return False
    core = pg.core_p(G, F.p)
    if not pg.centralizer(G.full_subgroup(), core) <= core:
        return False
    FG = fz.fusion_from_group(G, F.p)
    return any(fz.same_system(fz.transport(FG, alpha.then(theta0)), F)
               for alpha in pg.automorphisms(P))


def test_is_model_agrees_with_transport(corpus_entries):
    # every corpus model against every conjugation system whose carrier is
    # isomorphic to its Sylow subgroup: the corpus pairs, and mismatched
    # ones such as d8 against s4@2 and s4 against d8@2
    systems = [(name, p, fz.fusion_from_group(entry.load_group(), p))
               for name, entry in sorted(corpus_entries.items()) for p in entry.primes]
    models = {(name, p): entry.load_model(p) for name, entry in sorted(corpus_entries.items())
              for p in entry.models}
    seen = {}
    for (model_of, p), M in models.items():
        for name, q, F in systems:
            if q != p or not pg.isomorphisms_between(pg.sylow(M, p), F.carrier):
                continue
            got = sol.is_model(M, F)
            assert got == _model_by_transport(M, F), (M.name, name, p)
            seen[(model_of, name, p)] = got
    assert all(seen[(name, name, p)] for name, p in models)  # each realizes its own system
    assert seen[("d8", "s4", 2)] is False and seen[("s4", "d8", 2)] is False
    assert len(seen) == 50 and sum(not v for v in seen.values()) == 21, seen
