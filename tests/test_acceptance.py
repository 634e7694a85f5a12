"""Acceptance criteria for the whole artifact.

One test per criterion; each prints a single pass/fail line (visible with
pytest -s) and enforces its wall-clock bound.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from fuskit import closure as cl
from fuskit import fusion as fz
from fuskit import permgroup as pg
from fuskit import quotients as qt
from fuskit import serialization as ser
from fuskit import solubility as sol
from fuskit import subsystems as ss
from fuskit.corpus import corpus_systems, load_corpus, shipped_corpus_dir
from fuskit.verify import report_emit, run_verification

CORPUS = shipped_corpus_dir()


@contextmanager
def criterion(number, bound_seconds, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    line = f"criterion {number} [{elapsed:.1f}s < {bound_seconds:.0f}s]: {label}"
    if elapsed >= bound_seconds:
        print(f"FAIL {line}")
        pytest.fail(f"criterion {number} exceeded its time bound ({elapsed:.1f}s)")
    print(f"PASS {line}")


def suite_ok(theorem):
    report = run_verification(CORPUS, theorem=theorem)
    outcome = report.outcomes[0]
    assert outcome.instances > 0
    assert outcome.ok, f"{theorem}: {outcome.failures[:3]}"
    return outcome


def test_criterion_1_order16_counterexample(e16_seeded, groups):
    with criterion(1, 5, "order-16 example: bar image fails composition with the "
                         "golden witness; factor system is inner"):
        G = groups["e16"]
        a, b, c, d = (G.index_of(g) for g in G.generators)
        A = G.subgroup_of([a])
        assert fz.is_strongly_closed(e16_seeded, A)
        bar = qt.bar_system(e16_seeded, A)
        ok, wit = qt.prefusion_is_fusion(bar)
        assert not ok and wit.kind == "missing-composite"
        parts = qt._quotient_parts(e16_seeded, A)
        QG = parts.group
        Ab = QG.subgroup_of([parts.proj[b]])
        Ac = QG.subgroup_of([parts.proj[c]])
        Ad = QG.subgroup_of([parts.proj[d]])
        first, second = wit.homs
        assert first.domain == Ab and first.image() == Ac
        assert second.domain == Ac and second.image() == Ad
        fac = qt.factor_system(e16_seeded, A)
        assert fz.same_system(fac, fz.fusion_from_group(QG, 2))


def test_criterion_2_intersection_counterexample(groups):
    with criterion(2, 5, "rank-16 example: intersection has Aut of order 2 with "
                         "the swap and is not saturated"):
        G = groups["d8xc2"]
        x, y, z = (G.index_of(g) for g in G.generators)
        Q = G.subgroup_of([x, y])
        R = G.subgroup_of([G.mul(x, z), y])
        S = pg.meet(Q, R)
        E = fz.fusion_intersect(fz.restricted_to(ss.inner_system(Q, 2), S),
                                fz.restricted_to(ss.inner_system(R, 2), S))
        auts = E.aut(S)
        assert len(auts) == 2
        x2 = G.mul(x, x)
        swap = pg.GroupHom.from_map(S, S, [(0, 0), (x2, x2), (y, G.mul(x2, y)), (G.mul(x2, y), y)])
        assert swap in auts
        assert not fz.is_saturated(E)


def test_criterion_3_five_way_equivalence():
    with criterion(3, 120, "five normality criteria agree over every subgroup of "
                           "every saturated corpus system"):
        records = corpus_systems(load_corpus(CORPUS))
        saturated = [r for r in records if fz.is_saturated(r.system)]
        assert len(saturated) >= 12
        suite_ok("normality-five-criteria")


def test_criterion_4_products_strongly_closed():
    with criterion(4, 60, "products of strongly closed subgroups are strongly closed"):
        suite_ok("product-strongly-closed")


def test_criterion_5_quotient_theorems():
    with criterion(5, 300, "quotient saturation, factor=bar, both isomorphism "
                           "theorems, closure transfer"):
        for theorem in ("quotient-saturated", "factor-equals-bar",
                        "second-isomorphism", "third-isomorphism",
                        "closure-transfer"):
            suite_ok(theorem)


def test_criterion_6_psoluble_constrained(s4_system, a6_system, v4):
    with criterion(6, 120, "p-soluble systems are constrained; exact towers for "
                           "the S4 and A6 systems"):
        suite_ok("psoluble-constrained")
        rep = sol.o_p_tower(s4_system)
        assert [s.order for s in rep.tower] == [1, 4, 8]
        assert rep.tower[1] == v4
        assert rep.p_length == 2 and rep.constrained
        rep6 = sol.o_p_tower(a6_system)
        assert not rep6.p_soluble and not rep6.constrained


def test_criterion_7_model_characterization():
    with criterion(7, 60, "shipped models verify and match the core-automorphism "
                          "solubility criterion"):
        outcome = suite_ok("psoluble-group-model")
        assert outcome.instances >= 20


def test_criterion_8_alperin(s4_system, v4):
    with criterion(8, 180, "conjugation families regenerate each system and every "
                           "iso decomposes"):
        suite_ok("alperin-generation")
        suite_ok("alperin-decomposition")
        gens = cl.alperin_generators(s4_system)
        assert [g[0].order for g in gens] == [4, 8]
        assert gens[0][0] == v4 and gens[1][0] == s4_system.carrier


def test_criterion_9_determinism(s4_system, e16_seeded):
    with criterion(9, 60, "serialization round-trips exactly; repeated verify "
                          "runs are byte-identical"):
        for F in (s4_system, e16_seeded):
            doc = ser.system_to_dict(F)
            assert fz.same_system(ser.system_from_dict(doc), F)
            assert ser.canonical_json(ser.system_to_dict(ser.system_from_dict(doc))) \
                == ser.canonical_json(doc)
        first = report_emit(run_verification(CORPUS), "json")
        second = report_emit(run_verification(CORPUS), "json")
        assert first == second


def test_criterion_10_full_verify_cli():
    with criterion(10, 600, "full corpus verification exits 0"):
        proc = subprocess.run(
            [sys.executable, "-m", "fuskit.cli", "verify", str(CORPUS)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc_lines = proc.stdout.strip().splitlines()
        assert doc_lines[-1].startswith("ok:")
        assert json.loads(report_emit(run_verification(CORPUS, theorem="expected-values"),
                                      "json").decode())["theorems"][0]["failures"] == []
