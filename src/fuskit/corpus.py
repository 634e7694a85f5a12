"""The example corpus: entry schema, loader, and the shipped data set."""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .errors import OrderCapExceeded, ParseError
from .fusion import FusionSystem, fusion_from_group, fusion_generated
from .permgroup import Group, is_prime
from .serialization import _seed_from_dict, load_group, load_json


@dataclass
class CorpusEntry:
    """One corpus item: a group, the primes to test, and shipped extras.

    Every expected value carries a provenance marker ('derived-oracle' or
    'paper') stamped by the bootstrap tool.
    """

    name: str
    path: Path
    group_path: Path
    primes: list[int]
    models: dict[int, Path] = field(default_factory=dict)
    generated_systems: list[dict] = field(default_factory=list)
    named_subgroups: dict[str, list[list[int]]] = field(default_factory=dict)
    expected: dict = field(default_factory=dict)

    def load_group(self) -> Group:
        return load_group(self.group_path)

    def load_model(self, p: int) -> Optional[Group]:
        path = self.models.get(p)
        return load_group(path) if path else None


def shipped_corpus_dir() -> Path:
    """Location of the corpus distributed with the package."""
    return Path(str(resources.files("fuskit") / "data" / "corpus"))


def builtin_group(name: str) -> Group:
    """Resolve a bare group name against the shipped corpus."""
    path = shipped_corpus_dir() / "groups" / f"{name}.json"
    if not path.exists():
        raise ParseError(f"no built-in group named {name!r}")
    return load_group(path)


def _is_prime(p) -> bool:
    return type(p) is int and is_prime(p)


def _is_prime_key(k: str) -> bool:
    return k.isascii() and k.isdigit() and is_prime(int(k))


def entry_from_dict(d: dict, path: Path) -> CorpusEntry:
    def need(ok: bool, what: str):
        if not ok:
            raise ParseError(f"{path}: {what}")

    need(isinstance(d, dict) and "name" in d and isinstance(d.get("group"), str),
         "corpus entry needs 'name' and a 'group' path")
    primes = d.get("primes", [])
    need(isinstance(primes, list) and all(_is_prime(p) for p in primes),
         "'primes' must be a list of primes")
    models = d.get("models", {})
    need(isinstance(models, dict)
         and all(_is_prime_key(p) and isinstance(rel, str) for p, rel in models.items()),
         "'models' must map primes to group files")
    generated = d.get("generated_systems", [])
    need(isinstance(generated, list)
         and all(isinstance(g, dict) and _is_prime(g.get("p"))
                 and isinstance(g.get("seed_morphisms", []), list) for g in generated),
         "every generated system must be an object with a prime 'p'"
         " and, if given, a list 'seed_morphisms'")
    need(isinstance(d.get("named_subgroups", {}), dict), "'named_subgroups' must be an object")
    expected = d.get("expected", {})
    need(isinstance(expected, dict) and all(isinstance(v, dict) for v in expected.values()),
         "'expected' must map names to objects")
    for name, block in expected.items():
        if "value" not in block:
            need(all(isinstance(leaf, dict) and "value" in leaf for leaf in block.values()),
                 f"every value in expected block {name!r} must be an object with a 'value'")
    base = path.parent
    return CorpusEntry(
        name=str(d["name"]),
        path=path,
        group_path=base / d["group"],
        primes=list(primes),
        models={int(p): base / rel for p, rel in models.items()},
        generated_systems=list(generated),
        named_subgroups=dict(d.get("named_subgroups", {})),
        expected=dict(expected),
    )


def load_corpus(corpus_dir) -> list[CorpusEntry]:
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise ParseError(f"{corpus_dir} is not a directory")
    entries = []
    for path in sorted(corpus_dir.glob("*.json")):
        try:
            entries.append(entry_from_dict(load_json(path), path))
        except (ValueError, OrderCapExceeded) as exc:
            # a prime key longer than int() reads, or a prime too large to decide
            raise ParseError(f"{path}: {exc}") from exc
    entries.sort(key=lambda e: e.name)
    return entries


@dataclass
class SystemRecord:
    """A materialized fusion system from a corpus entry."""

    entry: CorpusEntry
    p: int
    label: str          # 'conj' for conjugation fusion, else the generated label
    group: Group        # ambient group
    system: FusionSystem

    @property
    def key(self) -> str:
        suffix = "" if self.label == "conj" else f":{self.label}"
        return f"{self.entry.name}@p{self.p}{suffix}"


def corpus_systems(entries: list[CorpusEntry]) -> list[SystemRecord]:
    """Build every system an entry asks for, deterministically ordered."""
    records = []
    groups: dict[Path, Group] = {}
    for entry in entries:
        if entry.group_path not in groups:
            groups[entry.group_path] = entry.load_group()
        G = groups[entry.group_path]
        for p in entry.primes:
            records.append(SystemRecord(entry, p, "conj", G, fusion_from_group(G, p)))
        for gen in entry.generated_systems:
            p = gen["p"]
            seeds = [_seed_from_dict(G, s) for s in gen.get("seed_morphisms", [])]
            label = str(gen.get("label", "generated"))
            records.append(SystemRecord(entry, p, label, G, fusion_generated(G, p, seeds)))
    records.sort(key=lambda r: r.key)
    return records
