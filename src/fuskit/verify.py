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
from .permgroup import GroupHom, Subgroup, memo
from .serialization import canonical_json, payload


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

    def over(self, where: Callable[[FusionSystem, Subgroup], bool]):
        """(rec, F, Q) for each saturated record and each subgroup Q of its
        carrier with where(F, Q), in record order and then lattice order."""
        for rec in self.saturated:
            F = rec.system
            for Q in F.subgroups():
                if where(F, Q):
                    yield rec, F, Q

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


def _strongly_closed(F: FusionSystem) -> list[Subgroup]:
    """The strongly closed subgroups of F's carrier, in lattice order."""
    return [Q for Q in F.subgroups() if is_strongly_closed(F, Q)]


@memo("knorm")
def _knorm_instances(F: FusionSystem) -> list:
    """(Q, K, N_F(Q), N_F^K(Q)) for fully normalized Q and K normal in
    Aut_F(Q); shared between several suites."""
    return [(Q, K, ss.normalizer_system(F, Q), ss._k_normalizer(F, Q, K))
            for Q in F.subgroups() if is_fully_normalized(F, Q)
            for K in pg.normal_subgroups(cl.aut_realization(F, Q).group)]


def _holds(check: Callable[[], bool]) -> bool:
    """check(), with an error it raises counted as a failed instance."""
    try:
        return check()
    except FuskitError:
        return False


# A suite yields (instance id, ok, detail) per instance.  The detail is a dict
# of raw values (subgroups, homs, lists of them, plain JSON values);
# run_verification renders it with serialization.payload, and only for a
# failed instance.
Check = Iterator[tuple[str, bool, dict]]
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
        if rec.label == "conj":
            yield rec.key, is_saturated(rec.system), {}


@_suite("iso-tables-closed",
        "every constructed iso table satisfies the fusion-system axioms")
def _s_closed(ctx: _Ctx) -> Check:
    for rec in ctx.records:
        ok, wit = qt.prefusion_is_fusion(rec.system)
        yield rec.key, ok, {} if ok else {"witness": wit.kind, "homs": wit.homs}


@_suite("example-sixteen-quotient",
        "order-16 worked example: strongly closed line, non-category bar image, "
        "inner factor system")
def _s_example16(ctx: _Ctx) -> Check:
    recs = [r for r in ctx.records if r.entry.name == "e16" and r.label == "seeded"]
    for rec in recs:
        F = rec.system
        A = ctx.named_subgroup(rec, "A")
        yield f"{rec.key}/A-strongly-closed", is_strongly_closed(F, A), {}

        bar = qt.bar_system(F, A)
        ok, wit = qt.prefusion_is_fusion(bar)
        yield f"{rec.key}/bar-not-category", (not ok and wit.kind == "missing-composite"), \
            {"reason": "bar image unexpectedly closed"} if ok else {}

        parts = qt._quotient_parts(F, A)
        QG = parts.group
        cosets = {n: QG.subgroup_of([parts.proj[ctx.named_element(rec, n)]])
                  for n in ("B", "C", "D")}
        wit_ok = (wit is not None and len(wit.homs) == 2
                  and wit.homs[0].domain == cosets["B"] and wit.homs[0].image() == cosets["C"]
                  and wit.homs[1].domain == cosets["C"] and wit.homs[1].image() == cosets["D"])
        yield f"{rec.key}/bar-witness-pair", wit_ok, {"witness": wit.homs if wit else ()}

        fac = qt.factor_system(F, A)
        inner_quot = fusion_from_group(QG, 2)
        yield f"{rec.key}/factor-is-inner", same_system(fac, inner_quot), {}

        gen = qt.generated_bar(F, A)
        yield f"{rec.key}/generated-strictly-larger", \
            gen.iso_count() > bar.iso_count() and gen.iso_count() > fac.iso_count(), {}

        exp = rec.entry.expected.get("p2:seeded", {})
        stamped = (exp.get("strongly_closed_A", {}).get("value") is True
                   and exp.get("bar_over_A_is_fusion", {}).get("value") is False
                   and exp.get("factor_by_A_is_inner_quotient", {}).get("value") is True)
        yield f"{rec.key}/reference-values-stamped", stamped, {}


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
        auts = E.images(S.mask, S.mask)
        yield f"{rec.key}/aut-order-two", len(auts) == 2, {"aut_order": len(auts)}

        x = ctx.named_element(rec, "Q")          # generator x of the dihedral factor
        y = ctx.named_element(rec, "Q", 1)
        x2 = G.mul(x, x)
        x2y = G.mul(x2, y)
        swap = {0: 0, x2: x2, y: x2y, x2y: y}
        yield f"{rec.key}/swap-present", tuple(map(swap.get, S.members)) in auts, {}

        yield f"{rec.key}/not-saturated", not is_saturated(E), {}
        ok_stamp = (rec.entry.expected.get("p2", {})
                    .get("intersection_aut_order", {}).get("value") == 2)
        yield f"{rec.key}/reference-values-stamped", ok_stamp, {}


@_suite("normality-five-criteria",
        "the five equivalent characterizations of a normal subgroup agree")
def _s_five_way(ctx: _Ctx) -> Check:
    for rec, F, Q in ctx.over(lambda F, Q: True):
        sc = is_strongly_closed(F, Q)
        c1 = same_system(ss.normalizer_system(F, Q), F)
        c2 = sc and ss.is_normal_subsystem(F, ss.inner_system(Q, F.p))
        c3 = cl.is_normal_subgroup(F, Q)
        c4 = cl.strongly_closed_central_series(F, Q, "strong") is not None
        c5 = sc and cl.strongly_closed_central_series(F, Q, "weak") is not None
        yield (f"{rec.key}/|Q|={Q.order}", c1 == c2 == c3 == c4 == c5,
               {"subgroup": Q, "criteria": [c1, c2, c3, c4, c5]})


@_suite("product-strongly-closed",
        "the product of two strongly closed subgroups is strongly closed")
def _s_product(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        for A, B in combinations_with_replacement(_strongly_closed(F), 2):
            yield (f"{rec.key}/{A.order}x{B.order}",
                   _holds(lambda: is_strongly_closed(F, pg.set_product(A, B))), {"A": A, "B": B})


@_suite("quotient-saturated",
        "quotients by weakly closed subgroups of saturated systems are saturated")
def _s_quotient_saturated(ctx: _Ctx) -> Check:
    for rec, F, Q in ctx.over(is_weakly_closed):
        yield f"{rec.key}/|Q|={Q.order}", is_saturated(qt.factor_system(F, Q)), {"Q": Q}


@_suite("factor-equals-bar",
        "for saturated systems the factor system equals the full induced image")
def _s_factor_equals_bar(ctx: _Ctx) -> Check:
    for rec, F, Q in ctx.over(is_strongly_closed):
        bar = qt.bar_system(F, Q)
        closed, wit = qt.prefusion_is_fusion(bar)
        yield (f"{rec.key}/|Q|={Q.order}", closed and same_system(bar, qt.factor_system(F, Q)),
               {"Q": Q, "bar_closed": closed, "witness": wit.kind if wit else None})


@_suite("second-isomorphism",
        "the image of a subsystem in the quotient matches the subsystem quotient")
def _s_second_iso(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        for Q in _strongly_closed(F):
            for R in F.subgroups():
                yield (f"{rec.key}/|Q|={Q.order}/|R|={R.order}",
                       qt.verify_second_iso(F, Q, ss.inner_system(R, F.p)), {"Q": Q, "R": R})


@_suite("third-isomorphism",
        "iterated quotients by nested strongly closed subgroups collapse")
def _s_third_iso(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        closed = _strongly_closed(F)
        for Q in closed:
            for R in closed:
                if Q <= R:
                    yield (f"{rec.key}/|Q|={Q.order}/|R|={R.order}",
                           qt.verify_third_iso(F, Q, R), {"Q": Q, "R": R})


@_suite("closure-transfer",
        "projection to the quotient matches weak/strong closure on both sides")
def _s_closure_transfer(ctx: _Ctx) -> Check:
    for rec, F, Q in ctx.over(is_strongly_closed):
        yield f"{rec.key}/|Q|={Q.order}", qt.closure_transfer(F, Q).ok, {"Q": Q}


@_suite("normal-control",
        "the join of the conjugates of a subgroup normal in a normal subsystem "
        "is normal in the whole system")
def _s_normal_control(ctx: _Ctx) -> Check:
    for rec, F, Q in ctx.over(cl.is_normal_subgroup):
        E = ss.inner_system(Q, F.p)
        for R in pg.subgroups_of(Q):
            if cl.is_normal_subgroup(E, R):
                S = F.parent.subgroup_of(x for c in F.iso_class(R) for x in c.members)
                yield (f"{rec.key}/|Q|={Q.order}/|R|={R.order}", cl.is_normal_subgroup(F, S),
                       {"Q": Q, "R": R, "join": S})


@_suite("char-normal-descends",
        "a subsystem of a normal subsystem stabilized by the big automorphism "
        "group is itself normal")
def _s_char_normal(ctx: _Ctx) -> Check:
    for rec, F, Qp in ctx.over(cl.is_normal_subgroup):
        Eprime = ss.inner_system(Qp, F.p)
        for R in pg.characteristic_subgroups(Qp):
            E = ss.inner_system(R, F.p)
            if ss.is_normal_subsystem(Eprime, E) and ss.aut_f_acts_on(F, E):
                yield (f"{rec.key}/|Q'|={Qp.order}/|R|={R.order}",
                       ss.is_normal_subsystem(F, E), {"Qprime": Qp, "R": R})


@_suite("invariant-iff-frattini",
        "a subsystem on a strongly closed subgroup is invariant exactly when "
        "the carrier automorphisms act on it and it has the Frattini property")
def _s_invariant_iff_frattini(ctx: _Ctx) -> Check:
    for rec, F, Q in ctx.over(is_strongly_closed):
        E = ss.inner_system(Q, F.p)
        lhs = ss.is_invariant(F, E)
        rhs = ss.aut_f_acts_on(F, E) and ss.is_frattini(F, E)
        yield (f"{rec.key}/|Q|={Q.order}", lhs == rhs,
               {"Q": Q, "invariant": lhs, "acts_and_frattini": rhs})


@_suite("knormalizer-normal-in-normalizer",
        "K-normalizers for normal K are normal subsystems of the normalizer")
def _s_knorm_normal(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        for Q, K, nq, nk in _knorm_instances(rec.system):
            yield (f"{rec.key}/|Q|={Q.order}/|K|={K.order}",
                   _holds(lambda: ss.is_normal_subsystem(nq, nk)), {"Q": Q, "K_order": K.order})


@_suite("knormalizer-saturated",
        "K-normalizers at fully normalized subgroups for normal K are saturated")
def _s_knorm_saturated(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        for Q, K, _, nk in _knorm_instances(rec.system):
            yield (f"{rec.key}/|Q|={Q.order}/|K|={K.order}", is_saturated(nk),
                   {"Q": Q, "K_order": K.order})


@_suite("central-kernel-normality",
        "normality of a subgroup is equivalent to normality of its image over "
        "a strongly closed central kernel")
def _s_centrelift(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        for Z in pg.subgroups_of(cl.center_of_fusion(F)):
            if not is_strongly_closed(F, Z):
                continue
            quot = qt.factor_system(F, Z)
            parts = qt._quotient_parts(F, Z)
            for Q in F.subgroups():
                if Z <= Q:
                    left = cl.is_normal_subgroup(F, Q)
                    right = cl.is_normal_subgroup(quot, qt._image_subgroup(parts, Q))
                    yield (f"{rec.key}/|Z|={Z.order}/|Q|={Q.order}", left == right,
                           {"Z": Z, "Q": Q, "normal": left, "image_normal": right})


@_suite("core-of-normal-subsystem",
        "the core of a normal subsystem is the intersection of the big core "
        "with the carrier")
def _s_normalop(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        for Q in F.subgroups():
            if cl.is_normal_subgroup(F, Q):
                yield (f"{rec.key}/inner/|Q|={Q.order}",
                       pg.meet(cl.o_p(F), Q) == cl.o_p(ss.inner_system(Q, F.p)), {"Q": Q})
        for Q, K, nq, nk in _knorm_instances(rec.system):
            if is_saturated(nq) and is_saturated(nk):
                yield (f"{rec.key}/knorm/|Q|={Q.order}/|K|={K.order}",
                       pg.meet(cl.o_p(nq), nk.carrier) == cl.o_p(nk),
                       {"Q": Q, "K_order": K.order})


@_suite("subnormal-core-containment",
        "cores of (sub)normal subsystems land inside the big core")
def _s_subnormal_core(ctx: _Ctx) -> Check:
    for rec, F, Q in ctx.over(cl.is_normal_subgroup):
        core = cl.o_p(F)
        E = ss.inner_system(Q, F.p)
        yield f"{rec.key}/|Q|={Q.order}", cl.o_p(E) <= core, {"Q": Q}
        # one level further down: normal subgroups of the subsystem
        for R in pg.subgroups_of(Q):
            if cl.is_normal_subgroup(E, R):
                yield (f"{rec.key}/|Q|={Q.order}/|R|={R.order}",
                       cl.o_p(ss.inner_system(R, F.p)) <= core, {"Q": Q, "R": R})


@_suite("core-over-centre",
        "the centre sits in the core and the core projects onto the core of "
        "the central quotient")
def _s_opequalz(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        Z = cl.center_of_fusion(F)
        core = cl.o_p(F)
        pre = qt._preimage_subgroup(F, qt._quotient_parts(F, Z),
                                    cl.o_p(qt.factor_system(F, Z)))
        yield rec.key, Z <= core and pre == core, {"Z": Z, "core": core, "preimage": pre}


@_suite("weakly-closed-central",
        "weakly closed central subgroups of strongly closed subgroups are "
        "strongly closed")
def _s_weak_central(ctx: _Ctx) -> Check:
    for rec, F, Q in ctx.over(is_strongly_closed):
        for Z in pg.subgroups_of(pg.center(Q)):
            if is_weakly_closed(F, Z):
                yield (f"{rec.key}/|Q|={Q.order}/|Z|={Z.order}", is_strongly_closed(F, Z),
                       {"Q": Q, "Z": Z})


@_suite("inner-normal-characteristic",
        "characteristic subgroups of a subgroup with normal inner system are "
        "strongly closed")
def _s_fqq(ctx: _Ctx) -> Check:
    for rec, F, Q in ctx.over(cl.is_normal_subgroup):
        for R in pg.characteristic_subgroups(Q):
            yield (f"{rec.key}/|Q|={Q.order}/|R|={R.order}", is_strongly_closed(F, R),
                   {"Q": Q, "R": R})


@_suite("psoluble-constrained",
        "p-soluble systems are constrained")
def _s_psoluble_constrained(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        rep = sol.o_p_tower(F)
        if not rep.p_soluble:
            yield f"{rec.key}/not-soluble", True, {}
            continue
        core = cl.o_p(F)
        yield (rec.key, rep.constrained and F.centralizer_in_carrier(core) <= core,
               {"tower": [s.order for s in rep.tower]})


@_suite("psoluble-group-model",
        "a constrained system comes from a p-soluble group exactly when the "
        "automorphisms of its core form a p-soluble group")
def _s_model(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        model = rec.entry.load_model(rec.p) if rec.label == "conj" else None
        if model is None or not sol.is_constrained(F):
            continue
        yield f"{rec.key}/model", _holds(lambda: sol.is_model(model, F)), {"model": model.name}
        real = cl.aut_realization(F, cl.o_p(F))
        crit = sol.group_is_p_soluble(real.group, rec.p)
        via_group = sol.group_is_p_soluble(model, rec.p)
        yield (f"{rec.key}/criterion", crit == via_group,
               {"aut_core_p_soluble": crit, "model_p_soluble": via_group})


@_suite("psoluble-subsystems-quotients",
        "quotients and saturated K-normalizer subsystems of p-soluble systems "
        "are p-soluble")
def _s_psoluble_closure(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        if not sol.o_p_tower(F).p_soluble:
            continue
        for Q in _strongly_closed(F):
            quot = qt.factor_system(F, Q)
            yield (f"{rec.key}/quotient/|Q|={Q.order}",
                   is_saturated(quot) and sol.o_p_tower(quot).p_soluble, {"Q": Q})
        for Q, K, _, nk in _knorm_instances(rec.system):
            if is_saturated(nk):
                yield (f"{rec.key}/subsystem/|Q|={Q.order}/|K|={K.order}",
                       sol.o_p_tower(nk).p_soluble, {"Q": Q, "K_order": K.order})


@_suite("psoluble-extension",
        "a system over a p-soluble core with p-soluble quotient is p-soluble")
def _s_psoluble_extension(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        core = cl.o_p(F)
        inner_ok = core.order == 1 or sol.o_p_tower(ss.inner_system(core, F.p)).p_soluble
        quot = qt.factor_system(F, core)
        if inner_ok and is_saturated(quot) and sol.o_p_tower(quot).p_soluble:
            yield rec.key, sol.o_p_tower(F).p_soluble, {"core": core}
        else:
            yield f"{rec.key}/hypothesis-empty", True, {}


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
        if not sol.group_is_p_soluble(G, rec.p) or pg.core_pprime(G, rec.p).order != 1:
            continue
        core = pg.core_p(G, rec.p)
        yield (f"{rec.entry.name}@p{rec.p}", pg.centralizer(G.full_subgroup(), core) <= core,
               {"core": core})


@_suite("qdpfree-soluble-cores",
        "fusion systems of Qd(p)-free p-soluble groups have nontrivial cores "
        "at every tower step")
def _s_qdpfree(ctx: _Ctx) -> Check:
    for rec in ctx.records:
        if (rec.label != "conj" or not sol.group_is_p_soluble(rec.group, rec.p)
                or not sol.is_qdp_free_group(rec.group, rec.p)):
            continue
        rep = sol.o_p_tower(rec.system)
        yield (rec.key,
               rep.p_soluble and (rec.system.carrier.order == 1 or rep.tower[1].order > 1),
               {"tower": [s.order for s in rep.tower]})


@_suite("alperin-generation",
        "the fully normalized centric radical subgroups regenerate the system")
def _s_alperin_gen(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        fnrc = cl.fnrc_subgroups(F)
        regen = generated_on(F.carrier, F.p, triples=(
            (S.mask, S.mask, a) for S in fnrc for a in F.images(S.mask, S.mask)))
        yield rec.key, same_system(regen, F), {"generators": [S.order for S in fnrc]}


def _recomposes(F: FusionSystem, phi: GroupHom) -> bool:
    """Do the steps of phi's Alperin decomposition compose back to phi, each
    intermediate image inside the subgroup of its step?"""
    cur = phi.domain.members  # the images of the composite so far
    for S, alpha in cl.alperin_decompose(F, phi):
        if pg.mask_of(cur) & ~S.mask:
            return False
        cur = tuple(map(alpha.mapping.__getitem__, cur))
    return cur == phi.images


@_suite("alperin-decomposition",
        "every isomorphism decomposes through restricted automorphisms of the "
        "conjugation family")
def _s_alperin_dec(ctx: _Ctx) -> Check:
    for rec in ctx.saturated:
        F = rec.system
        for phi in F.all_isos():
            yield (f"{rec.key}/|Q|={phi.domain.order}", _holds(lambda: _recomposes(F, phi)),
                   {"phi": phi})


def _kernel_ok(F: FusionSystem, Q: Subgroup) -> bool:
    """Is the kernel of the quotient morphism F -> F/Q, as computed, Q and
    strongly closed?"""
    kernel = qt.quotient_morphism(F, Q).kernel
    return kernel == Q and is_strongly_closed(F, kernel)


@_suite("morphism-kernels-strongly-closed",
        "kernels of quotient morphisms are strongly closed")
def _s_kernels(ctx: _Ctx) -> Check:
    for rec in ctx.records:
        for Q in _strongly_closed(rec.system):
            yield f"{rec.key}/|Q|={Q.order}", _holds(lambda: _kernel_ok(rec.system, Q)), {"Q": Q}


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
            yield (f"{rec.key}/|Q|={Q.order}", lower <= n_sub <= F.normalizer_in_carrier(Q),
                   {"phi": phi, "n_phi": n_sub})


# Recomputations of the stamped values: of an entry's group, by top-level
# block name, and of a system, by field name inside its block.
_GROUP_VALUES = {
    "order": lambda G: G.order,
    "subgroup_count": lambda G: len(pg.subgroups(G)),
}
_SYSTEM_VALUES = {
    "sylow_order": lambda F: F.carrier.order,
    "saturated": lambda F: is_saturated(F),
    "op_order": lambda F: cl.o_p(F).order,
    "tower_orders": lambda F: [s.order for s in sol.o_p_tower(F).tower],
    "p_soluble": lambda F: sol.o_p_tower(F).p_soluble,
    "p_length": lambda F: sol.o_p_tower(F).p_length,
    "constrained": lambda F: sol.is_constrained(F),
}


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
                recompute = _GROUP_VALUES.get(name)
                if recompute is None:
                    yield f"{entry.name}/{name}", False, {"reason": "unknown value"}
                    continue
                if group is None:
                    group = entry.load_group()
                got = recompute(group)
                yield (f"{entry.name}/{name}", got == exp["value"],
                       {"expected": exp["value"], "got": got})
                continue
            rec = by_key.get((entry.name, name))
            if rec is None:
                yield f"{entry.name}/{name}", False, {"reason": "no such system"}
                continue
            for field_name, leaf in sorted(exp.items()):
                if leaf.get("provenance") == "paper":
                    continue
                recompute = _SYSTEM_VALUES.get(field_name)
                if recompute is None:
                    yield f"{entry.name}/{name}/{field_name}", False, {"reason": "unknown field"}
                    continue
                got = recompute(rec.system)
                yield (f"{entry.name}/{name}/{field_name}", got == leaf["value"],
                       {"expected": leaf["value"], "got": got})


# -- driver ---------------------------------------------------------------------------

def run_verification(corpus_dir, theorem: Optional[str] = None) -> VerificationReport:
    """Run the registered theorem suites over a corpus directory."""
    corpus_dir = Path(corpus_dir)
    entries = load_corpus(corpus_dir)
    records = corpus_systems(entries)
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
                    "detail": payload(detail),
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
