"""Mutants against the verify: a standing check that the theorem suites catch
plausible faults in the program.

Each row patches one place of a copy of ``src/fuskit`` and runs ``fuskit
verify shipped`` on that copy in a fresh process.  A row is (name, file under
``src/fuskit``, old text, new text, the suites that must fail); the old text
must occur once in the file.  The run must exit 1 with a FAIL line for every
suite the row names: a fault inside a suite is a failed instance of that
suite, never the exit code 2 of malformed input.  A mutant that no suite
catches keeps its row with no suites, and its run must then exit 0, so that a
suite which starts to catch it shows.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fuskit"

MUTANTS = [
    # Aut_F(Q) read on its first generator only (83 failures)
    ("aut-f-first-generator", "fusion.py",
     "for i in self.group.full_subgroup().generating_ids()]",
     "for i in self.group.full_subgroup().generating_ids()[:1]]",
     {"alperin-generation", "core-of-normal-subsystem", "core-over-centre",
      "knormalizer-normal-in-normalizer", "normality-five-criteria"}),
    # every subsystem F-invariant (8 failures)
    ("invariant-always-true", "subsystems.py",
     "def _is_invariant(F: FusionSystem, E: PreFusionSystem) -> bool:\n",
     "def _is_invariant(F: FusionSystem, E: PreFusionSystem) -> bool:\n    return True\n",
     {"invariant-iff-frattini", "normality-five-criteria"}),
    # the last fully normalized centric radical subgroup dropped (194 failures)
    ("fnrc-without-last", "closure.py",
     "if is_fully_normalized(F, S) and is_centric(F, S) and is_radical(F, S)]",
     "if is_fully_normalized(F, S) and is_centric(F, S) and is_radical(F, S)][:-1]",
     {"alperin-decomposition", "alperin-generation", "central-kernel-normality",
      "core-over-centre", "knormalizer-normal-in-normalizer", "normality-five-criteria"}),
    # the Alperin test of a K-normalizer accepts any extension over S v Q,
    # not only one whose Q-part lies in K; two suites fail on the
    # InvariantViolation it raises (17 failures)
    ("knorm-alperin-any-extension", "subsystems.py",
     "inside(S.mask, a) for S in cl.fnrc_subgroups(F)",
     "any(on_q(S.mask, a)) for S in cl.fnrc_subgroups(F)",
     {"central-kernel-normality", "core-of-normal-subsystem", "core-over-centre",
      "knormalizer-normal-in-normalizer", "normality-five-criteria"}),
    # every system saturated (428 failures)
    ("saturated-always-true", "fusion.py",
     "    P = F.carrier\n    n, m = len(F.images(P.mask, P.mask)), len(aut_p(F, P))\n",
     "    return True\n    P = F.carrier\n    n, m = len(F.images(P.mask, P.mask)), len(aut_p(F, P))\n",
     {"alperin-decomposition", "alperin-generation", "central-kernel-normality",
      "closure-transfer", "example-intersection-unsaturated", "expected-values",
      "factor-equals-bar", "invariant-iff-frattini", "morphism-kernels-strongly-closed",
      "normal-control", "normality-five-criteria", "product-strongly-closed",
      "weakly-closed-central"}),
    # the core tower started at the centre of F, not at O_p(F) (36 failures)
    ("tower-from-centre", "solubility.py",
     "    pre = o_p(F)\n",
     "    from .closure import center_of_fusion\n    pre = center_of_fusion(F)\n",
     {"expected-values", "psoluble-extension", "psoluble-subsystems-quotients",
      "qdpfree-soluble-cores"}),
    # the isos that do not fix Q never pushed: the bar system is F/Q, and
    # the second isomorphism theorem compares nothing (3 failures)
    ("no-pushes-of-the-rest", "quotients.py",
     "== Q.mask) == fixing]\n",
     "== Q.mask) == fixing] if fixing else []\n",
     {"example-sixteen-quotient"}),
    # systems of one carrier share a memo whatever their isos: the content
    # key without its store (555 failures)
    ("memo-key-without-store", "fusion.py",
     "tuple((q, tuple(row.items())) for q, row in self.store.items()))",
     "())",
     {"alperin-decomposition", "alperin-generation", "central-kernel-normality",
      "closure-transfer", "core-of-normal-subsystem", "example-intersection-unsaturated",
      "expected-values", "factor-equals-bar", "invariant-iff-frattini",
      "knormalizer-normal-in-normalizer", "morphism-kernels-strongly-closed",
      "normality-five-criteria"}),
    # Aut(Q) listed with a read at the positions of t, not of t^-1: a wrong
    # list, with duplicates, for 83 subgroups of the corpus Sylow subgroups,
    # which no suite catches
    ("aut-images-t-not-inverse", "permgroup.py",
     "itemgetter(*sorted(range(len(t)), key=t.__getitem__))",
     "itemgetter(*map(sorted(t).index, t))",
     set()),
    # the push of all of E through E -> E/K taken to be E/K: every pair the
    # second isomorphism theorem builds passes, and the bar system is
    # compared with F/Q only where the two are equal, so no suite catches it
    ("pushes-to-factor-always-true", "quotients.py",
     "    return all(imgs in factor.images(q, r) for q, r, imgs in rest)\n",
     "    return True\n",
     set()),
]


@pytest.mark.parametrize("name, file, old, new, suites", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_fails_its_suites(tmp_path, name, file, old, new, suites):
    shutil.copytree(SRC, tmp_path / "fuskit")
    path = tmp_path / "fuskit" / file
    text = path.read_text()
    assert text.count(old) == 1, f"{name}: the old text is not in {file} once"
    path.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "fuskit.cli", "verify", "shipped"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    failed = {line[5:].split(":")[0] for line in proc.stdout.splitlines()
              if line.startswith("FAIL ")}
    assert proc.returncode == (1 if suites else 0), proc.stdout[-2000:] + proc.stderr
    assert suites <= failed, (name, sorted(suites - failed))
