"""Run one full verify over the shipped corpus and print its work as JSON.

    python tests/verify_work.py

Run it in a fresh interpreter, so that every memo starts empty and the counts
do not depend on what ran before.  It prints the report's status, the builds
per memo table, counted calls (n_phi, _n_phi: N_phi computed with or
without the membership check, extensions: scans for the stored isos that
extend a map, automorphisms, GroupHom builds, systems built
(PreFusionSystem), pushed_images, lattices built by joins
(_joined_lattice; the other subgroups_of builds filter a lattice the group
holds), transport and validate_hom, also counted
apart while an isomorphism-theorem verifier runs, as
``verify_third_iso.transport`` and so on), the work of the closure kernel
(closures computed and their coset steps, ``permgroup.WORK``, with the
K-normalizers decided on Alperin generators and those scanned) and the tables
on the live system memos.
"""

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
    for fn in (fz.n_phi, fz._n_phi, pg.automorphisms, fz.transport, fz.validate_hom,
               pg.pushed_images, pg._joined_lattice, fz.extensions):
        replace(fn, counted(fn.__name__, fn))
    for fn in (qt.verify_second_iso, qt.verify_third_iso):
        replace(fn, scoped(fn.__name__, fn))
    pg.GroupHom.__init__ = counted("GroupHom", pg.GroupHom.__init__)
    fz.PreFusionSystem.__init__ = counted("PreFusionSystem", fz.PreFusionSystem.__init__)
    records = []  # kept alive, so the memos of the systems stay registered
    real = verify.corpus_systems

    def capture(*args, **kwargs):
        records.extend(real(*args, **kwargs))
        return records

    verify.corpus_systems = capture
    before, work = Counter(pg.BUILDS), Counter(pg.WORK)
    report = verify.run_verification(shipped_corpus_dir())
    json.dump({"ok": report.ok,
               "builds": pg.BUILDS - before,
               "calls": calls,
               "work": pg.WORK - work,
               "memos": len(fz._MEMOS),
               "tables": sorted({name for memo in fz._MEMOS.values() for name in memo})},
              sys.stdout, sort_keys=True)


if __name__ == "__main__":
    main()
