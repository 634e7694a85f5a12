"""The benchmark's workloads: inputs made from a seed, a timed pass over a
fixed work list, and the correctness check of every output.

Every pass starts from a fresh import of fuskit (see ``fresh_import``), so no
module-level or per-object cache survives from one pass into the next.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import sys
import time
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "verify_golden.txt"

MODULES = ("permgroup", "fusion", "closure", "subsystems", "quotients", "solubility",
           "serialization", "corpus", "verify")


def missing_sources() -> list[str]:
    """Files the benchmark needs from the checkout that are not there."""
    need = [SRC / "fuskit" / "__init__.py", GOLDEN]
    return [str(p.relative_to(ROOT)) for p in need if not p.is_file()]


def fresh_import() -> types.SimpleNamespace:
    """Import fuskit from the checkout's sources, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "fuskit" or n.startswith("fuskit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("fuskit")
    if Path(pkg.__file__).resolve().parent != (SRC / "fuskit").resolve():
        raise RuntimeError(f"imported fuskit from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: sys.modules[f"fuskit.{m}"] for m in MODULES})


# -- passes and operations ------------------------------------------------------

@dataclass
class Op:
    """One timed operation; ``check`` runs untimed on the result and returns
    (ok, a deterministic summary that goes into the digest)."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]


@dataclass
class PassResult:
    wall_s: float
    op_ms: list[float]
    attempted: int
    failed: int
    digest: str
    suite_s: dict[str, float] = field(default_factory=dict)


def run_ops(ops: list[Op], clock: Callable[[], float]) -> PassResult:
    """Time each op on ``clock``; a raise or a failed check counts the op as failed."""
    digest = hashlib.sha256()
    times: list[float] = []
    failed = 0
    for op in ops:
        t0 = clock()
        try:
            out = op.run()
        except Exception:
            t1 = clock()
            ok, summary = False, "raised"
            traceback.print_exc(file=sys.stderr)
        else:
            t1 = clock()
            try:
                ok, summary = op.check(out)
            except Exception:
                ok, summary = False, "check raised"
                traceback.print_exc(file=sys.stderr)
        times.append((t1 - t0) * 1000.0)
        if not ok:
            failed += 1
            print(f"FAILED {op.label}: {summary}", file=sys.stderr)
        digest.update(f"{op.label}: {summary}\n".encode())
    return PassResult(sum(times) / 1000.0, times, len(ops), failed, digest.hexdigest())


def _conjugator(sig: list[int]) -> Callable[[list[int]], list[int]]:
    """The map g -> sig g sig^-1 on permutations in image notation, which
    renames every point i to sig[i]."""
    inv = [0] * len(sig)
    for i, s in enumerate(sig):
        inv[s] = i
    return lambda g: [sig[g[inv[i]]] for i in range(len(sig))]


def _shuffled(n: int, rng: random.Random) -> list[int]:
    sig = list(range(n))
    rng.shuffle(sig)
    return sig


def _corpus_entries(fk, names) -> dict:
    """The named corpus entries, in the order given; all must exist."""
    found = {e.name: e for e in fk.corpus.load_corpus(fk.corpus.shipped_corpus_dir())}
    missing = [n for n in names if n not in found]
    if missing:
        raise LookupError(f"corpus lacks {', '.join(missing)}")
    return {n: found[n] for n in names}


class Workload:
    name = ""
    why = ""

    def setup(self, fk, seed: int, small: bool = False):
        """Inputs for one pass; ``small`` selects the self-test slice."""
        raise NotImplementedError

    def run_pass(self, fk, inputs, clock: Callable[[], float] = time.perf_counter) -> PassResult:
        """One pass over the work list, its times read from ``clock``."""
        raise NotImplementedError


# -- verify-shipped -------------------------------------------------------------------

class VerifyShipped(Workload):
    name = "verify-shipped"
    why = ("the north-star path: one full fuskit verify over the shipped corpus, "
           "read-mostly queries on 19 fixed systems through shared caches")

    SMALL_SUITES = ("core-over-centre", "iso-tables-closed")

    def setup(self, fk, seed, small=False):
        corpus_dir = fk.corpus.shipped_corpus_dir()
        fk.corpus.load_corpus(corpus_dir)  # fail in set-up, not mid-pass, on a bad corpus
        golden = GOLDEN.read_bytes()
        return {"corpus_dir": corpus_dir, "golden": golden,
                "suites": self.SMALL_SUITES if small else None}

    def run_pass(self, fk, inputs, clock=time.perf_counter):
        # the suites' own timer, so that their times are on the pass's clock
        fk.verify.time = types.SimpleNamespace(perf_counter=clock)
        golden = inputs["golden"]
        golden_lines = golden.decode().splitlines()[:-1]
        suites = inputs["suites"]
        if suites is None:
            t0 = clock()
            report = fk.verify.run_verification(inputs["corpus_dir"])
            text = fk.verify.report_emit(report)
            wall = clock() - t0
            outcomes = report.outcomes
            whole_ok = text == golden
        else:
            t0 = clock()
            outcomes = [o for s in suites
                        for o in fk.verify.run_verification(inputs["corpus_dir"], theorem=s).outcomes]
            wall = clock() - t0
            whole_ok = True
        expected = {line.split(":")[0].split()[-1]: line for line in golden_lines}
        digest = hashlib.sha256()
        failed = 0
        for o in outcomes:
            line = f"{'ok  ' if o.ok else 'FAIL'} {o.theorem}: {o.passes}/{o.instances}"
            digest.update(f"{line}\n".encode())
            if not o.ok or expected.get(o.theorem) != line:
                failed += 1
                print(f"FAILED {o.theorem}: got {line!r}, golden {expected.get(o.theorem)!r}",
                      file=sys.stderr)
        attempted = len(outcomes)
        if suites is None and not whole_ok:
            print("FAILED verify report differs from the golden file", file=sys.stderr)
            attempted = max(attempted, len(expected))
            failed = max(failed, 1, attempted - len(outcomes))
        return PassResult(wall, [o.elapsed_ms for o in outcomes], attempted, failed,
                          digest.hexdigest(), {o.theorem: o.elapsed_ms / 1000.0 for o in outcomes})


# -- group-lattice --------------------------------------------------------------------

# The work list, fixed so that it stays the same when the corpus grows, with
# known invariants that do not depend on how points are labelled:
# (number of subgroups, number of normal subgroups,
#  {p: (|Aut(Sylow p)|, Qd(p)-free, p-soluble)})
GROUP_FACTS = {
    "a4": (10, 3, {2: (6, True, True), 3: (2, True, True)}),
    "a6": (501, 2, {2: (8, False, False)}),
    "c2": (2, 2, {2: (1, True, True)}),
    "c3": (2, 2, {3: (2, True, True)}),
    "c4xc2": (8, 8, {2: (8, True, True)}),
    "d8": (10, 6, {2: (8, True, True)}),
    "d8xc2": (35, 19, {2: (64, True, True)}),
    "e16": (67, 67, {2: (20160, True, True)}),
    "q8": (6, 6, {2: (24, True, True)}),
    "qd2": (30, 4, {2: (8, False, True)}),
    "qd3": (182, 5, {3: (432, False, True)}),
    "s3": (6, 3, {2: (1, True, True), 3: (2, True, True)}),
    "s4": (30, 4, {2: (8, False, True), 3: (2, True, True)}),
    "sl23": (15, 4, {2: (24, True, True), 3: (2, True, True)}),
}


def _expect(want) -> Callable[[object], tuple[bool, str]]:
    return lambda got: (got == want, repr(got))


class GroupLattice(Workload):
    name = "group-lattice"
    why = ("every corpus group with seed-relabelled points: subgroup lattices, normal "
           "subgroups, Sylow automorphisms, Qd(p)-freeness, p-solubility; no fusion layer")

    SMALL_GROUPS = ("d8", "q8", "s3")

    def setup(self, fk, seed, small=False):
        rng = random.Random(seed)
        out = []
        for entry in _corpus_entries(fk, self.SMALL_GROUPS if small else GROUP_FACTS).values():
            d = fk.serialization.load_json(entry.group_path)
            gens = list(map(_conjugator(_shuffled(d["degree"], rng)), d["generators"]))
            out.append((entry, fk.permgroup.group_from_generators(d["degree"], gens, d["name"])))
        return out

    def run_pass(self, fk, groups, clock=time.perf_counter):
        pg, sol = fk.permgroup, fk.solubility
        ops = []
        for entry, G in groups:
            n_sub, n_normal, per_prime = GROUP_FACTS[entry.name]
            stamp = entry.expected.get("subgroup_count", {}).get("value", n_sub)
            ops.append(Op(f"{entry.name} subgroups", lambda G=G: len(pg.subgroups(G)),
                          lambda got, want=n_sub, stamp=stamp: (got == want == stamp, repr(got))))
            ops.append(Op(f"{entry.name} normal_subgroups",
                          lambda G=G: len(pg.normal_subgroups(G)), _expect(n_normal)))
            for p, (n_aut, qdp_free, p_soluble) in per_prime.items():
                ops.append(Op(f"{entry.name} p={p} automorphisms(sylow)",
                              lambda G=G, p=p: len(pg.automorphisms(pg.sylow(G, p))),
                              _expect(n_aut)))
                ops.append(Op(f"{entry.name} p={p} is_qdp_free_group",
                              lambda G=G, p=p: sol.is_qdp_free_group(G, p), _expect(qdp_free)))
                ops.append(Op(f"{entry.name} p={p} group_is_p_soluble",
                              lambda G=G, p=p: sol.group_is_p_soluble(G, p), _expect(p_soluble)))
        return run_ops(ops, clock)


# -- fusion-generate ------------------------------------------------------------------

# (corpus group, p): the p-groups that carry specs as they are, and the groups
# whose Sylow p-subgroup does; c2 and c3 have no proper nontrivial subgroup
P_GROUP_CARRIERS = (("c4xc2", 2), ("d8", 2), ("d8xc2", 2), ("e16", 2), ("q8", 2))
SYLOW_CARRIERS = (("qd3", 3), ("s4", 2), ("sl23", 2))
N_SPECS = 320        # 20 per carrier and seed count
N_SPECS_SMALL = 16
# Fixes which subgroups and isos the specs use.  Costs are heavy-tailed (two
# seeds on abelian maximal subgroups of D8xC2 can give a 1834-iso table that
# takes seconds), so drawing them anew per run seed would make the work of a
# pass vary by a factor of two; the run seed relabels points instead.
SPEC_SHAPE_SEED = 0


class FusionGenerate(Workload):
    name = "fusion-generate"
    why = ("320 generated-mode build specs on corpus p-groups and Sylows, points relabelled "
           "by the seed: cold fixpoints writing new iso tables, mostly unsaturated, then roundtrip")

    def setup(self, fk, seed, small=False):
        pg = fk.permgroup
        entries = _corpus_entries(fk, [n for n, _ in P_GROUP_CARRIERS + SYLOW_CARRIERS])
        carriers = []   # (inline group document, p, carrier group)
        for name, p in P_GROUP_CARRIERS:
            doc = fk.serialization.load_json(entries[name].group_path)
            carriers.append((doc, p, fk.serialization.group_from_dict(doc)))
        for name, p in SYLOW_CARRIERS:
            G = entries[name].load_group()
            S = pg.sylow(G, p)
            doc = {"name": f"{name}-sylow{p}", "degree": G.degree,
                   "generators": [list(G.elements[i].images) for i in S.generating_ids()]}
            carriers.append((doc, p, fk.serialization.group_from_dict(doc)))
        specs = _draw_specs(pg, carriers, random.Random(SPEC_SHAPE_SEED),
                            N_SPECS_SMALL if small else N_SPECS)
        rng = random.Random(seed)
        specs = [_relabel_spec(spec, rng) for spec in specs]
        rng.shuffle(specs)
        return specs

    def run_pass(self, fk, specs, clock=time.perf_counter):
        ser, fz, cl = fk.serialization, fk.fusion, fk.closure
        sol, qt = fk.solubility, fk.quotients

        def build(spec):
            F = ser.fusion_spec_from_dict(spec)
            saturated = fz.is_saturated(F)
            tower = op_order = None
            if saturated:
                tower = [S.order for S in sol.o_p_tower(F).tower]
                O = cl.o_p(F)
                op_order = O.order
                if O.order > 1:
                    qt.factor_system(F, O)
            back = ser.system_from_dict(ser.system_to_dict(F))
            return F, saturated, tower, op_order, fz.same_system(F, back)

        def check(out):
            F, saturated, tower, op_order, roundtrip = out
            inverses = all(h.inverse() in F.table.get((r, q), ())
                           for (q, r), homs in F.table.items() for h in homs)
            table = hashlib.sha256(ser.dump_system(F).encode()).hexdigest()[:16]
            isos = sum(len(h) for h in F.table.values())
            return (roundtrip and inverses,
                    f"saturated={saturated} tower={tower} op={op_order} isos={isos} table={table}")

        ops = [Op(f"spec {i}", lambda spec=spec: build(spec), check) for i, spec in enumerate(specs)]
        return run_ops(ops, clock)


def _draw_specs(pg, carriers, rng: random.Random, n: int) -> list[dict]:
    """n generated-mode specs, each with 1 or 2 seed isos between proper
    subgroups of equal order of a carrier.

    Every carrier gets the same number of specs with one seed and with two;
    the subgroups and the isos are drawn from rng.
    """
    pools = []
    for ref, p, G in carriers:
        proper = [S for S in pg.subgroups(G) if 1 < S.order < G.order]
        partners = {Q.mask: [(R, iso[0]) for R in proper if R.order == Q.order
                             for iso in [pg.isomorphisms_between(Q, R)] if iso]
                    for Q in proper}
        auts = {Q.mask: pg.automorphisms(Q) for Q in proper}
        pools.append((ref, p, G, proper, partners, auts))
    per_cell = max(1, n // (2 * len(pools)))
    plan = [(pool, k) for pool in pools for k in (1, 2) for _ in range(per_cell)]
    rng.shuffle(plan)
    specs = []
    for (ref, p, G, proper, partners, auts), k in plan:
        seeds = []
        for _ in range(k):
            Q = rng.choice(proper)
            R, iso = rng.choice(partners[Q.mask])
            phi = rng.choice(auts[Q.mask]).then(iso)
            gens = Q.generating_ids()
            seeds.append({"domain_gens": [list(G.elements[x].images) for x in gens],
                          "images": [list(G.elements[phi(x)].images) for x in gens]})
        specs.append({"group": ref, "p": p, "mode": "generated", "seed_morphisms": seeds})
    return specs


def _relabel_spec(spec: dict, rng: random.Random) -> dict:
    """The same spec with the points of its inline group renamed at random."""
    conj = _conjugator(_shuffled(spec["group"]["degree"], rng))
    group = dict(spec["group"], generators=list(map(conj, spec["group"]["generators"])))
    seeds = [{"domain_gens": list(map(conj, s["domain_gens"])),
              "images": list(map(conj, s["images"]))} for s in spec["seed_morphisms"]]
    return dict(spec, group=group, seed_morphisms=seeds)


WORKLOADS = {w.name: w for w in (VerifyShipped(), GroupLattice(), FusionGenerate())}
