"""Stamp oracle-computed expected values into corpus entry files.

Usage: python -m fuskit.bootstrap [CORPUS_DIR]

Every stamped leaf is {"value": ..., "provenance": "derived-oracle"}; leaves
with any other provenance (hand-entered reference facts) are left untouched.
Values come from the brute-force oracle implementations, so the verification
harness later compares two independent computation routes.
"""

from __future__ import annotations

import sys
from pathlib import Path

from . import oracles
from .corpus import corpus_systems, load_corpus, shipped_corpus_dir
from .serialization import canonical_json, load_json

SUBGROUP_COUNT_LIMIT = 100


def _put(block: dict, key: str, value):
    """Stamp block[key], unless it holds a hand-entered reference fact."""
    old = block.get(key)
    if isinstance(old, dict) and old.get("provenance") not in (None, "derived-oracle"):
        return
    block[key] = {"value": value, "provenance": "derived-oracle"}


def stamp_entry(entry, records) -> dict:
    doc = load_json(entry.path)
    expected = dict(doc.get("expected", {}))
    group = entry.load_group()
    _put(expected, "order", group.order)
    if group.order <= SUBGROUP_COUNT_LIMIT:
        _put(expected, "subgroup_count", len(oracles.brute_subgroups(group.full_subgroup())))
    for rec in records:
        if rec.entry.name != entry.name:
            continue
        block_key = f"p{rec.p}" if rec.label == "conj" else f"p{rec.p}:{rec.label}"
        block = dict(expected.get(block_key, {}))
        F = rec.system
        _put(block, "sylow_order", F.carrier.order)
        saturated = oracles.oracle_saturated(F)
        _put(block, "saturated", saturated)
        if saturated:
            _put(block, "op_order", oracles.oracle_o_p(F).order)
            tower, soluble, length = oracles.oracle_tower(F)
            _put(block, "tower_orders", [s.order for s in tower])
            _put(block, "p_soluble", soluble)
            _put(block, "p_length", length)
            _put(block, "constrained", oracles.oracle_constrained(F))
        expected[block_key] = block
    doc["expected"] = expected
    return doc


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    corpus_dir = Path(argv[0]) if argv else shipped_corpus_dir()
    entries = load_corpus(corpus_dir)
    records = corpus_systems(entries)
    for entry in entries:
        doc = stamp_entry(entry, records)
        entry.path.write_text(canonical_json(doc))
        print(f"stamped {entry.path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
