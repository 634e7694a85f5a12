"""Run one fusion-generate pass of the benchmark and print its work as JSON.

    python tests/generate_work.py [SEED]

The pass is the benchmark's own (``perfbench/workloads.py``, seed 41 unless
given) on a fresh import of fuskit.  GroupHom builds are counted apart while
an operation is timed, that is between the two clock readings that bracket
it, and while its output is checked untimed.  It prints whether every
operation passed, the two GroupHom counts, the subgroup lattices built by
joins (``joined``; the other ``subgroups_of`` builds filter a lattice the
group holds), the work of the closure kernel and of the lattice joins
(closures computed, their coset steps and the joins <H, x> that
``_joined_lattice`` ran, ``permgroup.WORK``) and the builds per memo table
over the pass.  The benchmark's set-up, which draws the specs with an
isomorphism search between every two proper subgroups of equal order of a
carrier and lists the automorphisms of each, runs with the builds of Cayley
levels (``permgroup._cayley_levels``) counted: ``setup_cayley_levels``, and
``cayley_levels`` for the pass.
"""

import json
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 41
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    fk = workloads.fresh_import()
    work = workloads.FusionGenerate()
    levels = fk.permgroup._cayley_levels
    built = Counter()

    def counted_levels(*args):
        built["levels"] += 1
        return levels(*args)

    fk.permgroup._cayley_levels = counted_levels
    specs = work.setup(fk, seed)
    in_setup = built["levels"]

    builds = Counter()
    timed = [False]  # the clock is read once as an operation starts and once as it ends
    init = fk.permgroup.GroupHom.__init__

    def counted(self, *args):
        builds["timed" if timed[0] else "untimed"] += 1
        init(self, *args)

    def clock() -> float:
        timed[0] = not timed[0]
        return time.perf_counter()

    fk.permgroup.GroupHom.__init__ = counted
    join = fk.permgroup._joined_lattice

    def joined(S):
        builds["joined"] += 1
        return join(S)

    fk.permgroup._joined_lattice = joined
    before, kernel = Counter(fk.permgroup.BUILDS), Counter(fk.permgroup.WORK)
    result = work.run_pass(fk, specs, clock)
    json.dump({"ok": result.failed == 0, "ops": result.attempted,
               "GroupHom": builds["timed"], "GroupHom_untimed": builds["untimed"],
               "joined": builds["joined"],
               "setup_cayley_levels": in_setup, "cayley_levels": built["levels"] - in_setup,
               "work": fk.permgroup.WORK - kernel,
               "builds": fk.permgroup.BUILDS - before}, sys.stdout, sort_keys=True)


if __name__ == "__main__":
    main()
