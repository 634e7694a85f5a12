"""Run one full verify over the shipped corpus and print its work as JSON.

    python tests/verify_work.py [--gc-off]

Run it in a fresh interpreter, so that every memo starts empty and the counts
do not depend on what ran before; ``--gc-off`` runs the verify under
``gc.disable()``.  It prints the report's status, the builds
per memo table, counted calls (n_phi, _n_phi: N_phi computed with or
without the membership check, extensions: scans for the stored isos that
extend a map, carries: pushes of a whole system through an element map,
automorphisms, GroupHom builds, systems built
(PreFusionSystem), pushed_images, lattices built by joins
(_joined_lattice; the other subgroups_of builds filter a lattice the group
holds), Cayley levels built for isomorphism and automorphism searches
(_cayley_levels), transport and validate_hom, also counted
apart while an isomorphism-theorem verifier runs, as
``verify_third_iso.transport`` and so on), the work of the closure kernel
(closures computed and their coset steps, ``permgroup.WORK``, with the
joins <H, x> that ``_joined_lattice`` ran and the K-normalizers decided on
Alperin generators and those scanned), the number of system memos on the
live groups and their tables, and the groups still live once the report and
the records are dropped and the collector has run.
"""

import gc
import json
import sys
from collections import Counter

from fuskit import fusion as fz
from fuskit import permgroup as pg
from fuskit import quotients as qt
from fuskit import verify
from fuskit.corpus import shipped_corpus_dir

calls: Counter = Counter()
inside: list[str] = []  # the isomorphism-theorem verifiers running


def counted(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        if inside:
            calls[f"{inside[-1]}.{name}"] += 1
        return fn(*args, **kwargs)
    return wrapper


def scoped(name, fn):
    def wrapper(*args):
        inside.append(name)
        try:
            return fn(*args)
        finally:
            inside.pop()
    return wrapper


def replace(orig, new):
    """Put new in place of orig in every fuskit module that holds it."""
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "fuskit":
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)


def main() -> None:
    if "--gc-off" in sys.argv[1:]:
        gc.disable()
    for fn in (fz.n_phi, fz._n_phi, pg.automorphisms, fz.transport, fz.validate_hom,
               pg.pushed_images, pg._joined_lattice, pg._cayley_levels, fz.extensions,
               fz.carries):
        replace(fn, counted(fn.__name__, fn))
    for fn in (qt.verify_second_iso, qt.verify_third_iso):
        replace(fn, scoped(fn.__name__, fn))
    pg.GroupHom.__init__ = counted("GroupHom", pg.GroupHom.__init__)
    fz.PreFusionSystem.__init__ = counted("PreFusionSystem", fz.PreFusionSystem.__init__)
    records = []  # kept alive, so the corpus groups and their memos stay
    real = verify.corpus_systems

    def capture(*args, **kwargs):
        records.extend(real(*args, **kwargs))
        return records

    verify.corpus_systems = capture
    before, work = Counter(pg.BUILDS), Counter(pg.WORK)
    report = verify.run_verification(shipped_corpus_dir())
    out = {"ok": report.ok, "builds": pg.BUILDS - before, "calls": calls, "work": pg.WORK - work}
    gc.collect()
    # renamed twins share one _systems dict: count each once
    systems = {id(G._systems): G._systems for G in list(pg._GROUPS.values())}
    memos = [memo for table in systems.values() for memo in table.values()]
    out["memos"] = len(memos)
    out["tables"] = sorted({name for memo in memos for name in memo})
    del report, systems, memos
    records.clear()
    gc.collect()
    out["groups_left"] = len(pg._GROUPS)
    json.dump(out, sys.stdout, sort_keys=True)


if __name__ == "__main__":
    main()
