"""Run one verify suite alone in this fresh process and print its time.

Usage: python3 perfbench/cold_suite.py SUITE_ID

Prints one JSON object: the suite id, its elapsed seconds as measured by
fuskit's own per-suite timer (corpus loading excluded), and whether it passed.
"""

import json
import sys

from workloads import fresh_import


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    fk = fresh_import()
    report = fk.verify.run_verification(fk.corpus.shipped_corpus_dir(), theorem=argv[0])
    (outcome,) = report.outcomes
    print(json.dumps({"suite": outcome.theorem, "cold_s": outcome.elapsed_ms / 1000.0,
                      "ok": outcome.ok, "instances": outcome.instances}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
