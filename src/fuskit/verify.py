"""The theorem-verification harness.

Each suite checks one statement exhaustively over every corpus system it
applies to.  A failing instance always carries a machine-replayable witness
(element-index payloads for the subgroups and morphisms involved).  Reports
are deterministic: timings are kept in memory but stay out of the emitted
bytes unless explicitly requested.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Callable, Iterator, Optional

from . import closure as cl
from . import permgroup as pg
from . import quotients as qt
from . import solubility as sol
from . import subsystems as ss
from .corpus import CorpusEntry, SystemRecord, corpus_systems, load_corpus
from .errors import FuskitError, ParseError
from .fusion import (
    FusionSystem,
    fusion_from_group,
    fusion_intersect,
    generated_on,
    is_fully_normalized,
    is_saturated,
    is_strongly_closed,
    is_weakly_closed,
    n_phi,
    restricted_to,
    same_system,
)
from .permgroup import GroupHom, Subgroup, cached, memo
from .serialization import canonical_json


# -- report types ---------------------------------------------------------------

@dataclass
class TheoremOutcome:
    theorem: str
    description: str
    instances: int
    passes: int
    failures: list[dict]
    elapsed_ms: float

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class VerificationReport:
    corpus: str
    outcomes: list[TheoremOutcome]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def to_dict(self, timings: bool = False) -> dict:
        theorems = []
        for o in sorted(self.outcomes, key=lambda o: o.theorem):
            item = {
                "id": o.theorem,
                "description": o.description,
                "instances": o.instances,
                "passes": o.passes,
                "failures": o.failures,
            }
            if timings:
                item["elapsed_ms"] = round(o.elapsed_ms, 1)
            theorems.append(item)
        return {"version": 1, "theorems": theorems}


def report_emit(report: VerificationReport, format: str = "text", timings: bool = False) -> bytes:
    """Serialize a report deterministically (json or one line per theorem)."""
    if format == "json":
        return canonical_json(report.to_dict(timings=timings)).encode()
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    lines = []
    for o in sorted(report.outcomes, key=lambda o: o.theorem):
        status = "ok  " if o.ok else "FAIL"
        suffix = f"  [{o.elapsed_ms:.0f} ms]" if timings else ""
        lines.append(f"{status} {o.theorem}: {o.passes}/{o.instances}{suffix}")
        for f in o.failures:
            lines.append(f"     failure: {canonical_json(f).strip()}")
    total = sum(o.instances for o in report.outcomes)
    fails = sum(len(o.failures) for o in report.outcomes)
    lines.append(f"{'ok' if report.ok else 'FAIL'}: {len(report.outcomes)} theorems, "
                 f"{total} instances, {fails} failures")
    return ("\n".join(lines) + "\n").encode()


# -- witness payloads --------------------------------------------------------------

def _sub_payload(S: Subgroup) -> dict:
    return {"order": S.order, "members": list(S.members)}


def _hom_payload(h: GroupHom) -> dict:
    return {"domain": list(h.domain.members), "map": [list(x) for x in h.pairs]}


# -- suite plumbing -----------------------------------------------------------------

@dataclass
class _Ctx:
    corpus_dir: Path
    entries: list[CorpusEntry]
    records: list[SystemRecord]
    _caches: dict = field(default_factory=dict)

    @property
    @memo("saturated_records")
    def saturated(self) -> list[SystemRecord]:
        return [r for r in self.records if is_saturated(r.system)]

    def named_ids(self, rec: SystemRecord, name: str, need: int = 1) -> list[int]:
        """The element ids of the generators ``named_subgroups[name]`` of the
        record's entry, which must list at least ``need`` of them."""
        gens = rec.entry.named_subgroups.get(name)
        if gens is None:
            raise ParseError(f"{rec.entry.path}: 'named_subgroups' has no {name!r}")
        if not isinstance(gens, list) or len(gens) < need:
            raise ParseError(f"{rec.entry.path}: named subgroup {name!r} needs a list "
                             f"of at least {need} generators")
        return [rec.group.index_of(pg.Perm.checked(g, rec.group.degree)) for g in gens]

    def named_subgroup(self, rec: SystemRecord, name: str) -> Subgroup:
        return rec.group.subgroup_of(self.named_ids(rec, name))

    def named_element(self, rec: SystemRecord, name: str, i: int = 0) -> int:
        """The i-th generator of the named subgroup."""
        return self.named_ids(rec, name, i + 1)[i]

    def knorm_instances(self, rec: SystemRecord):
        """(Q, K-homs, N_F(Q), N_F^K(Q)) for fully normalized Q and K normal
        in Aut_F(Q); shared between several suites."""
        return cached(self, "knorm", rec.key, _knorm_instances, rec.system)

    def model(self, rec: SystemRecord):
        return cached(self, "models", (rec.entry.name, rec.p), rec.entry.load_model, rec.p)


def _knorm_instances(F: FusionSystem) -> list:
    got = []
    for Q in F.subgroups():
        if not is_fully_normalized(F, Q):
            continue
        real = cl.aut_realization(F, Q)
        nq = ss.normalizer_system(F, Q)
        for K in pg.normal_subgroups(real.group):
            homs = real.homs_for(K)
            nk = ss.k_normalizer_system(F, Q, homs)
            got.append((Q, homs, nq, nk))
    return got


Check = Iterator[tuple[str, bool, Optional[dict]]]
_SUITES: dict[str, tuple[str, Callable[[_Ctx], Check]]] = {}


def _suite(theorem: str, description: str):
    def deco(fn):
        _SUITES[theorem] = (description, fn)
        return fn
    return deco


# -- the suites ----------------------------------------------------------------------

@_suite("group-fusion-saturated",
        "conjugation fusion systems of finite groups are saturated")
def _s_saturated(ctx: _Ctx) -> Check:
    for rec in ctx.records:
        if rec.label != "conj":
            continue
        yield rec.key, is_saturated(rec.system), None


@_suite("iso-tables-closed",
        "every constructed iso table satisfies the fusion-system axioms")
def _s_closed(ctx: _Ctx) -> Check:
    for rec in ctx.records:
        ok, wit = qt.prefusion_is_fusion(rec.system)
        detail = None if ok else {"witness": wit.kind,
                                  "homs": [_hom_payload(h) for h in wit.homs]}
        yield rec.key, ok, detail


@_suite("example-sixteen-quotient",
        "order-16 worked example: strongly closed line, non-category bar image, "
        "inner factor system")
def _s_example16(ctx: _Ctx) -> Check:
    recs = [r for r in ctx.records if r.entry.name == "e16" and r.label == "seeded"]
    for rec in recs:
        F = rec.system
        A = ctx.named_subgroup(rec, "A")
        yield f"{rec.key}/A-strongly-closed", is_strongly_closed(F, A), None

        bar = qt.bar_system(F, A)
        ok, wit = qt.prefusion_is_fusion(bar)
        yield f"{rec.key}/bar-not-category", (not ok and wit.kind == "missing-composite"), \
            None if not ok else {"reason": "bar image unexpectedly closed"}

        parts = qt._quotient_parts(F, A)
        QG = parts.group
        cosets = {n: QG.subgroup_of([parts.proj[ctx.named_element(rec, n)]])
                  for n in ("B", "C", "D")}
        wit_ok = (wit is not None and len(wit.homs) == 2
                  and wit.homs[0].domain == cosets["B"] and wit.homs[0].image() == cosets["C"]
                  and wit.homs[1].domain == cosets["C"] and wit.homs[1].image() == cosets["D"])
        yield f"{rec.key}/bar-witness-pair", wit_ok, \
            None if wit_ok else {"witness": [_hom_payload(h) for h in (wit.homs if wit else ())]}

        fac = qt.factor_system(F, A)
        inner_quot = fusion_from_group(QG, 2)
        yield f"{rec.key}/factor-is-inner", same_system(fac, inner_quot), None

        gen = qt.generated_bar(F, A)
        yield f"{rec.key}/generated-strictly-larger", \
            gen.iso_count() > bar.iso_count() and gen.iso_count() > fac.iso_count(), None

        exp = rec.entry.expected.get("p2:seeded", {})
        stamped = (exp.get("strongly_closed_A", {}).get("value") is True
                   and exp.get("bar_over_A_is_fusion", {}).get("value") is False
                   and exp.get("factor_by_A_is_inner_quotient", {}).get("value") is True)
        yield f"{rec.key}/reference-values-stamped", stamped, None


@_suite("example-intersection-unsaturated",
        "rank-16 worked example: the intersection of two inner systems has an "
        "outer automorphism and is not saturated")
def _s_example_intersection(ctx: _Ctx) -> Check:
    recs = [r for r in ctx.records if r.entry.name == "d8xc2" and r.label == "conj"]
    for rec in recs:
        G = rec.group
        Q = ctx.named_subgroup(rec, "Q")
        R = ctx.named_subgroup(rec, "R")
        S = pg.meet(Q, R)
        E = fusion_intersect(restricted_to(ss.inner_system(Q, 2), S),
                             restricted_to(ss.inner_system(R, 2), S))
        auts = E.aut(S)
        yield f"{rec.key}/aut-order-two", len(auts) == 2, \
            None if len(auts) == 2 else {"aut_order": len(auts)}

        x = ctx.named_element(rec, "Q")          # generator x of the dihedral factor
        y = ctx.named_element(rec, "Q", 1)
        x2 = G.mul(x, x)
        x2y = G.mul(x2, y)
        swap = GroupHom(S, S, [(0, 0), (x2, x2), (y, x2y), (x2y, y)])
        yield f"{rec.key}/swap-present", swap in auts, None

        yield f"{rec.key}/not-saturated", not is_saturated(E), None
        ok_stamp = (rec.entry.expected.get("p2", {})
                    .get("intersection_aut_order", {}).get("value") == 2)
        yield f"{rec.key}/reference-values-stamped", ok_stamp, None


@_suite("normality-five-criteria",
        "the five equivalent characterizations of a normal subgroup agree")
def _s_five_way(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        for Q in F.subgroups():
            sc = is_strongly_closed(F, Q)
            c1 = same_system(ss.normalizer_system(F, Q), F)
            c2 = sc and ss.is_normal_subsystem(F, ss.inner_system(Q, F.p))
            c3 = cl.is_normal_subgroup(F, Q)
            c4 = cl.strongly_closed_central_series(F, Q, "strong") is not None
            c5 = sc and cl.strongly_closed_central_series(F, Q, "weak") is not None
            ok = c1 == c2 == c3 == c4 == c5
            yield (f"{rec.key}/|Q|={Q.order}", ok,
                   None if ok else {"subgroup": _sub_payload(Q),
                                    "criteria": [c1, c2, c3, c4, c5]})


@_suite("product-strongly-closed",
        "the product of two strongly closed subgroups is strongly closed")
def _s_product(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        closed = [Q for Q in F.subgroups() if is_strongly_closed(F, Q)]
        for A, B in combinations_with_replacement(closed, 2):
            try:
                ok = is_strongly_closed(F, pg.set_product(A, B))
            except FuskitError:
                ok = False
            yield (f"{rec.key}/{A.order}x{B.order}", ok,
                   None if ok else {"A": _sub_payload(A), "B": _sub_payload(B)})


@_suite("quotient-saturated",
        "quotients by weakly closed subgroups of saturated systems are saturated")
def _s_quotient_saturated(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        for Q in F.subgroups():
            if not is_weakly_closed(F, Q):
                continue
            ok = is_saturated(qt.factor_system(F, Q))
            yield f"{rec.key}/|Q|={Q.order}", ok, None if ok else {"Q": _sub_payload(Q)}


@_suite("factor-equals-bar",
        "for saturated systems the factor system equals the full induced image")
def _s_factor_equals_bar(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        for Q in F.subgroups():
            if not is_strongly_closed(F, Q):
                continue
            bar = qt.bar_system(F, Q)
            closed, wit = qt.prefusion_is_fusion(bar)
            ok = closed and same_system(bar, qt.factor_system(F, Q))
            yield (f"{rec.key}/|Q|={Q.order}", ok,
                   None if ok else {"Q": _sub_payload(Q),
                                    "bar_closed": closed,
                                    "witness": wit.kind if wit else None})


@_suite("second-isomorphism",
        "the image of a subsystem in the quotient matches the subsystem quotient")
def _s_second_iso(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        closed = [Q for Q in F.subgroups() if is_strongly_closed(F, Q)]
        for Q in closed:
            for R in F.subgroups():
                E = ss.inner_system(R, F.p)
                ok = qt.verify_second_iso(F, Q, E)
                yield (f"{rec.key}/|Q|={Q.order}/|R|={R.order}", ok,
                       None if ok else {"Q": _sub_payload(Q), "R": _sub_payload(R)})


@_suite("third-isomorphism",
        "iterated quotients by nested strongly closed subgroups collapse")
def _s_third_iso(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        closed = [Q for Q in F.subgroups() if is_strongly_closed(F, Q)]
        for Q in closed:
            for R in closed:
                if not Q <= R:
                    continue
                ok = qt.verify_third_iso(F, Q, R)
                yield (f"{rec.key}/|Q|={Q.order}/|R|={R.order}", ok,
                       None if ok else {"Q": _sub_payload(Q), "R": _sub_payload(R)})


@_suite("closure-transfer",
        "projection to the quotient matches weak/strong closure on both sides")
def _s_closure_transfer(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        for Q in F.subgroups():
            if not is_strongly_closed(F, Q):
                continue
            rep = qt.closure_transfer(F, Q)
            yield (f"{rec.key}/|Q|={Q.order}", rep.ok,
                   None if rep.ok else {"Q": _sub_payload(Q)})


@_suite("normal-control",
        "the join of the conjugates of a subgroup normal in a normal subsystem "
        "is normal in the whole system")
def _s_normal_control(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        for Q in F.subgroups():
            if not cl.is_normal_subgroup(F, Q):
                continue
            E = ss.inner_system(Q, F.p)
            for R in pg.subgroups_of(Q):
                if not cl.is_normal_subgroup(E, R):
                    continue
                S = F.parent.subgroup_of(x for c in F.iso_class(R) for x in c.members)
                ok = cl.is_normal_subgroup(F, S)
                yield (f"{rec.key}/|Q|={Q.order}/|R|={R.order}", ok,
                       None if ok else {"Q": _sub_payload(Q), "R": _sub_payload(R),
                                        "join": _sub_payload(S)})


@_suite("char-normal-descends",
        "a subsystem of a normal subsystem stabilized by the big automorphism "
        "group is itself normal")
def _s_char_normal(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        for Qp in F.subgroups():
            if not cl.is_normal_subgroup(F, Qp):
                continue
            Eprime = ss.inner_system(Qp, F.p)
            for R in pg.characteristic_subgroups(Qp):
                E = ss.inner_system(R, F.p)
                if not ss.is_normal_subsystem(Eprime, E):
                    continue
                if not ss.aut_f_acts_on(E, F.aut(Qp)):
                    continue
                ok = ss.is_normal_subsystem(F, E)
                yield (f"{rec.key}/|Q'|={Qp.order}/|R|={R.order}", ok,
                       None if ok else {"Qprime": _sub_payload(Qp), "R": _sub_payload(R)})


@_suite("invariant-iff-frattini",
        "a subsystem on a strongly closed subgroup is invariant exactly when "
        "the carrier automorphisms act on it and it has the Frattini property")
def _s_invariant_iff_frattini(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        for Q in F.subgroups():
            if not is_strongly_closed(F, Q):
                continue
            E = ss.inner_system(Q, F.p)
            lhs = ss.is_invariant(F, E)
            rhs = ss.aut_f_acts_on(E, F.aut(Q)) and ss.is_frattini(F, E)
            ok = lhs == rhs
            yield (f"{rec.key}/|Q|={Q.order}", ok,
                   None if ok else {"Q": _sub_payload(Q),
                                    "invariant": lhs, "acts_and_frattini": rhs})


@_suite("knormalizer-normal-in-normalizer",
        "K-normalizers for normal K are normal subsystems of the normalizer")
def _s_knorm_normal(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        for Q, homs, nq, nk in ctx.knorm_instances(rec):
            try:
                ok = ss.is_normal_subsystem(nq, nk)
            except FuskitError:
                ok = False
            yield (f"{rec.key}/|Q|={Q.order}/|K|={len(homs)}", ok,
                   None if ok else {"Q": _sub_payload(Q), "K_order": len(homs)})


@_suite("knormalizer-saturated",
        "K-normalizers at fully normalized subgroups for normal K are saturated")
def _s_knorm_saturated(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        for Q, homs, _, nk in ctx.knorm_instances(rec):
            ok = is_saturated(nk)
            yield (f"{rec.key}/|Q|={Q.order}/|K|={len(homs)}", ok,
                   None if ok else {"Q": _sub_payload(Q), "K_order": len(homs)})


@_suite("central-kernel-normality",
        "normality of a subgroup is equivalent to normality of its image over "
        "a strongly closed central kernel")
def _s_centrelift(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        Z_F = cl.center_of_fusion(F)
        for Z in pg.subgroups_of(Z_F):
            if not is_strongly_closed(F, Z):
                continue
            quot, _ = qt.factor_parts(F, Z)
            parts = qt._quotient_parts(F, Z)
            for Q in F.subgroups():
                if not Z <= Q:
                    continue
                left = cl.is_normal_subgroup(F, Q)
                right = cl.is_normal_subgroup(quot, qt._image_subgroup(parts, Q))
                ok = left == right
                yield (f"{rec.key}/|Z|={Z.order}/|Q|={Q.order}", ok,
                       None if ok else {"Z": _sub_payload(Z), "Q": _sub_payload(Q),
                                        "normal": left, "image_normal": right})


@_suite("core-of-normal-subsystem",
        "the core of a normal subsystem is the intersection of the big core "
        "with the carrier")
def _s_normalop(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        core = cl.o_p(F)
        for Q in F.subgroups():
            if not cl.is_normal_subgroup(F, Q):
                continue
            E = ss.inner_system(Q, F.p)
            ok = pg.meet(core, Q) == cl.o_p(E)
            yield (f"{rec.key}/inner/|Q|={Q.order}", ok,
                   None if ok else {"Q": _sub_payload(Q)})
        for Q, homs, nq, nk in ctx.knorm_instances(rec):
            if not (is_saturated(nq) and is_saturated(nk)):
                continue
            ok = pg.meet(cl.o_p(nq), nk.carrier) == cl.o_p(nk)
            yield (f"{rec.key}/knorm/|Q|={Q.order}/|K|={len(homs)}", ok,
                   None if ok else {"Q": _sub_payload(Q), "K_order": len(homs)})


@_suite("subnormal-core-containment",
        "cores of (sub)normal subsystems land inside the big core")
def _s_subnormal_core(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        core = cl.o_p(F)
        for Q in F.subgroups():
            if not cl.is_normal_subgroup(F, Q):
                continue
            E = ss.inner_system(Q, F.p)
            ok = cl.o_p(E) <= core
            yield (f"{rec.key}/|Q|={Q.order}", ok,
                   None if ok else {"Q": _sub_payload(Q)})
            # one level further down: normal subgroups of the subsystem
            for R in pg.subgroups_of(Q):
                if cl.is_normal_subgroup(E, R):
                    ok2 = cl.o_p(ss.inner_system(R, F.p)) <= core
                    yield (f"{rec.key}/|Q|={Q.order}/|R|={R.order}", ok2,
                           None if ok2 else {"Q": _sub_payload(Q), "R": _sub_payload(R)})


@_suite("core-over-centre",
        "the centre sits in the core and the core projects onto the core of "
        "the central quotient")
def _s_opequalz(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        Z = cl.center_of_fusion(F)
        core = cl.o_p(F)
        ok1 = Z <= core
        quot, _ = qt.factor_parts(F, Z)
        parts = qt._quotient_parts(F, Z)
        pre = qt._preimage_subgroup(F, parts, cl.o_p(quot))
        ok2 = pre == core
        yield (rec.key, ok1 and ok2,
               None if ok1 and ok2 else {"Z": _sub_payload(Z), "core": _sub_payload(core),
                                         "preimage": _sub_payload(pre)})


@_suite("weakly-closed-central",
        "weakly closed central subgroups of strongly closed subgroups are "
        "strongly closed")
def _s_weak_central(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        for Q in F.subgroups():
            if not is_strongly_closed(F, Q):
                continue
            for Z in pg.subgroups_of(pg.center(Q)):
                if not is_weakly_closed(F, Z):
                    continue
                ok = is_strongly_closed(F, Z)
                yield (f"{rec.key}/|Q|={Q.order}/|Z|={Z.order}", ok,
                       None if ok else {"Q": _sub_payload(Q), "Z": _sub_payload(Z)})


@_suite("inner-normal-characteristic",
        "characteristic subgroups of a subgroup with normal inner system are "
        "strongly closed")
def _s_fqq(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        for Q in F.subgroups():
            if not cl.is_normal_subgroup(F, Q):
                continue
            for R in pg.characteristic_subgroups(Q):
                ok = is_strongly_closed(F, R)
                yield (f"{rec.key}/|Q|={Q.order}/|R|={R.order}", ok,
                       None if ok else {"Q": _sub_payload(Q), "R": _sub_payload(R)})


@_suite("psoluble-constrained",
        "p-soluble systems are constrained")
def _s_psoluble_constrained(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        rep = sol.o_p_tower(F)
        if not rep.p_soluble:
            yield f"{rec.key}/not-soluble", True, None
            continue
        core = cl.o_p(F)
        ok = rep.constrained and F.centralizer_in_carrier(core) <= core
        yield (rec.key, ok,
               None if ok else {"tower": [s.order for s in rep.tower]})


@_suite("psoluble-group-model",
        "a constrained system comes from a p-soluble group exactly when the "
        "automorphisms of its core form a p-soluble group")
def _s_model(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        if rec.label != "conj":
            continue
        model = ctx.model(rec)
        if model is None:
            continue
        if not sol.is_constrained(F):
            continue
        try:
            ok_model = sol.is_model(model, F)
        except FuskitError:
            ok_model = False
        yield f"{rec.key}/model", ok_model, None if ok_model else {"model": model.name}
        real = cl.aut_realization(F, cl.o_p(F))
        crit = sol.group_is_p_soluble(real.group, rec.p)
        via_group = sol.group_is_p_soluble(model, rec.p)
        ok = crit == via_group
        yield (f"{rec.key}/criterion", ok,
               None if ok else {"aut_core_p_soluble": crit, "model_p_soluble": via_group})


@_suite("psoluble-subsystems-quotients",
        "quotients and saturated K-normalizer subsystems of p-soluble systems "
        "are p-soluble")
def _s_psoluble_closure(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        if not sol.o_p_tower(F).p_soluble:
            continue
        for Q in F.subgroups():
            if not is_strongly_closed(F, Q):
                continue
            quot = qt.factor_system(F, Q)
            ok = is_saturated(quot) and sol.o_p_tower(quot).p_soluble
            yield (f"{rec.key}/quotient/|Q|={Q.order}", ok,
                   None if ok else {"Q": _sub_payload(Q)})
        for Q, homs, _, nk in ctx.knorm_instances(rec):
            if not is_saturated(nk):
                continue
            ok = sol.o_p_tower(nk).p_soluble
            yield (f"{rec.key}/subsystem/|Q|={Q.order}/|K|={len(homs)}", ok,
                   None if ok else {"Q": _sub_payload(Q), "K_order": len(homs)})


@_suite("psoluble-extension",
        "a system over a p-soluble core with p-soluble quotient is p-soluble")
def _s_psoluble_extension(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        core = cl.o_p(F)
        inner_ok = sol.o_p_tower(ss.inner_system(core, F.p)).p_soluble if core.order > 1 else True
        quot = qt.factor_system(F, core)
        quot_ok = is_saturated(quot) and sol.o_p_tower(quot).p_soluble
        if not (inner_ok and quot_ok):
            yield f"{rec.key}/hypothesis-empty", True, None
            continue
        ok = sol.o_p_tower(F).p_soluble
        yield rec.key, ok, None if ok else {"core": _sub_payload(core)}


@_suite("group-centralizer-in-core",
        "p-soluble groups with trivial p'-core have self-centralizing p-core")
def _s_group_centralizer(ctx: _Ctx) -> Check:
    seen = set()
    for rec in ctx.records:
        key = (rec.entry.group_path, rec.p)
        if key in seen:
            continue
        seen.add(key)
        G = rec.group
        if not sol.group_is_p_soluble(G, rec.p):
            continue
        if pg.core_pprime(G, rec.p).order != 1:
            continue
        core = pg.core_p(G, rec.p)
        ok = pg.centralizer(G.full_subgroup(), core) <= core
        yield (f"{rec.entry.name}@p{rec.p}", ok,
               None if ok else {"core": _sub_payload(core)})


@_suite("qdpfree-soluble-cores",
        "fusion systems of Qd(p)-free p-soluble groups have nontrivial cores "
        "at every tower step")
def _s_qdpfree(ctx: _Ctx) -> Check:
    for rec in ctx.records:
        if rec.label != "conj":
            continue
        if not sol.group_is_p_soluble(rec.group, rec.p):
            continue
        if not sol.is_qdp_free_group(rec.group, rec.p):
            continue
        rep = sol.o_p_tower(rec.system)
        ok = rep.p_soluble and (rec.system.carrier.order == 1 or rep.tower[1].order > 1)
        yield (rec.key, ok,
               None if ok else {"tower": [s.order for s in rep.tower]})


@_suite("alperin-generation",
        "the fully normalized centric radical subgroups regenerate the system")
def _s_alperin_gen(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        base: dict = {}
        for S, auts in cl.alperin_generators(F):
            base.setdefault((S, S), set()).update(auts)
        regen = generated_on(F.carrier, F.p, [], base=base)
        ok = same_system(regen, F)
        yield (rec.key, ok,
               None if ok else {"generators": [s.order for s, _ in cl.alperin_generators(F)]})


@_suite("alperin-decomposition",
        "every isomorphism decomposes through restricted automorphisms of the "
        "conjugation family")
def _s_alperin_dec(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        for phi in F.all_isos():
            try:
                steps = cl.alperin_decompose(F, phi)
                cur = GroupHom.identity(phi.domain)
                for S, alpha in steps:
                    if cur.image_mask & ~S.mask:
                        raise FuskitError("intermediate image escapes its family subgroup")
                    cur = cur.then(alpha.restriction(cur.image()))
                ok = cur.pairs == phi.pairs
            except FuskitError:
                ok = False
            yield (f"{rec.key}/|Q|={phi.domain.order}", ok,
                   None if ok else {"phi": _hom_payload(phi)})


@_suite("morphism-kernels-strongly-closed",
        "kernels of quotient morphisms are strongly closed")
def _s_kernels(ctx: _Ctx) -> Check:
    for rec in ctx.records:
        F = rec.system
        for Q in F.subgroups():
            if not is_strongly_closed(F, Q):
                continue
            target = "factor" if is_saturated(F) else "generated-bar"
            try:
                morph = qt.quotient_morphism(F, Q, target=target)
                ok = morph.kernel == Q and is_strongly_closed(F, morph.kernel)
            except FuskitError:
                ok = False
            yield (f"{rec.key}/|Q|={Q.order}", ok,
                   None if ok else {"Q": _sub_payload(Q)})


@_suite("nphi-bounds",
        "extension domains sit between the centralized product and the "
        "normalizer")
def _s_nphi(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        for phi in F.all_isos():
            Q = phi.domain
            n_sub = n_phi(F, phi)
            lower = pg.set_product(Q, F.centralizer_in_carrier(Q))
            ok = lower <= n_sub and n_sub <= F.normalizer_in_carrier(Q)
            yield (f"{rec.key}/|Q|={Q.order}", ok,
                   None if ok else {"phi": _hom_payload(phi), "n_phi": _sub_payload(n_sub)})


@_suite("expected-values",
        "stamped oracle values in the corpus match recomputation by the "
        "production code paths")
def _s_expected(ctx: _Ctx) -> Check:
    by_key: dict[tuple, SystemRecord] = {}
    for rec in ctx.records:
        block = f"p{rec.p}" if rec.label == "conj" else f"p{rec.p}:{rec.label}"
        by_key[(rec.entry.name, block)] = rec
    for entry in ctx.entries:
        group = None
        for name, exp in sorted(entry.expected.items()):
            if isinstance(exp, dict) and "value" in exp:
                if exp.get("provenance") == "paper":
                    continue
                if group is None:
                    group = entry.load_group()
                if name == "order":
                    got = group.order
                elif name == "subgroup_count":
                    got = len(pg.subgroups(group))
                else:
                    continue
                ok = got == exp["value"]
                yield (f"{entry.name}/{name}", ok,
                       None if ok else {"expected": exp["value"], "got": got})
                continue
            rec = by_key.get((entry.name, name))
            if rec is None:
                yield f"{entry.name}/{name}", False, {"reason": "no such system"}
                continue
            F = rec.system
            for field_name, leaf in sorted(exp.items()):
                if leaf.get("provenance") == "paper":
                    continue
                if field_name == "sylow_order":
                    got = F.carrier.order
                elif field_name == "saturated":
                    got = is_saturated(F)
                elif field_name == "op_order":
                    got = cl.o_p(F).order
                elif field_name == "tower_orders":
                    got = [s.order for s in sol.o_p_tower(F).tower]
                elif field_name == "p_soluble":
                    got = sol.o_p_tower(F).p_soluble
                elif field_name == "p_length":
                    got = sol.o_p_tower(F).p_length
                elif field_name == "constrained":
                    got = sol.is_constrained(F)
                else:
                    yield f"{entry.name}/{name}/{field_name}", False, {"reason": "unknown field"}
                    continue
                ok = got == leaf["value"]
                yield (f"{entry.name}/{name}/{field_name}", ok,
                       None if ok else {"expected": leaf["value"], "got": got})


# -- driver ---------------------------------------------------------------------------

def run_verification(corpus_dir, theorem: Optional[str] = None,
                     cap: Optional[int] = None) -> VerificationReport:
    """Run the registered theorem suites over a corpus directory."""
    corpus_dir = Path(corpus_dir)
    entries = load_corpus(corpus_dir)
    records = corpus_systems(entries, cap=cap)
    ctx = _Ctx(corpus_dir, entries, records)
    outcomes = []
    for name in sorted(_SUITES):
        if theorem is not None and name != theorem:
            continue
        description, fn = _SUITES[name]
        start = time.perf_counter()
        instances = passes = 0
        failures = []
        for instance_id, ok, detail in fn(ctx):
            instances += 1
            if ok:
                passes += 1
            else:
                failures.append({
                    "instance": instance_id,
                    "detail": detail or {},
                    "replay": f"fuskit verify {corpus_dir} --theorem {name}",
                })
        outcomes.append(TheoremOutcome(
            theorem=name, description=description, instances=instances,
            passes=passes, failures=failures,
            elapsed_ms=(time.perf_counter() - start) * 1000.0))
    if theorem is not None and not outcomes:
        raise ValueError(f"unknown theorem id {theorem!r}; known: {', '.join(sorted(_SUITES))}")
    return VerificationReport(str(corpus_dir), outcomes)


def theorem_ids() -> list[str]:
    return sorted(_SUITES)
