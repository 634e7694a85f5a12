import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from fuskit import cli
from fuskit import fusion as fz
from fuskit import permgroup as pg
from fuskit import serialization as ser
from fuskit.corpus import builtin_group, load_corpus, shipped_corpus_dir
from fuskit.errors import OrderCapExceeded, ParseError, ValidationError

CORPUS = shipped_corpus_dir()


# -- round trips ------------------------------------------------------------------

def test_group_round_trip(groups):
    for name, G in groups.items():
        doc = ser.group_to_dict(G)
        again = ser.group_from_dict(doc)
        assert again == G
        assert ser.canonical_json(ser.group_to_dict(again)) == ser.canonical_json(doc)


def test_system_round_trip(s4_system, e16_seeded):
    for F in (s4_system, e16_seeded):
        doc = ser.system_to_dict(F)
        again = ser.system_from_dict(doc)
        assert fz.same_system(again, F)
        assert ser.dump_system(again) == ser.canonical_json(doc)


def test_group_round_trip_is_interned(groups):
    for G in groups.values():
        again = ser.group_from_dict(ser.group_to_dict(G))
        assert again is G


def test_live_group_is_not_enumerated_again(monkeypatch):
    # the elements follow from the degree and the generators, so a document
    # whose group is live is looked up, not enumerated with Perm products
    doc = {"name": "D8-again", "degree": 4, "generators": [[1, 2, 3, 0], [3, 2, 1, 0]]}
    G = ser.group_from_dict(doc)
    calls = [0]
    real = pg.Perm.__mul__

    def counted(self, other):
        calls[0] += 1
        return real(self, other)

    monkeypatch.setattr(pg.Perm, "__mul__", counted)
    assert ser.group_from_dict(json.loads(json.dumps(doc))) is G
    assert calls[0] == 0
    monkeypatch.setenv("FUSKIT_ORDER_CAP", str(G.order - 1))
    with pytest.raises(OrderCapExceeded):
        ser.group_from_dict(doc)
    monkeypatch.delenv("FUSKIT_ORDER_CAP")
    renamed = ser.group_from_dict(dict(doc, name="D8-renamed"))
    assert renamed == G and renamed is not G and renamed.name == "D8-renamed"


def test_system_round_trip_reuses_the_group_memos():
    # the roundtrip's ambient group is interned with the original, so its
    # lattice is not built again
    from collections import Counter
    G = pg.group_from_generators(4, [[1, 2, 3, 0], [3, 2, 1, 0]], "D8-roundtrip")
    F = fz.fusion_generated(G, 2)
    before = Counter(pg.BUILDS)
    back = ser.system_from_dict(ser.system_to_dict(F))
    assert back.parent is G
    assert back.subgroups() == F.subgroups()
    assert (pg.BUILDS - before)["subgroups_of"] == 0


def test_renamed_twin_keeps_its_name(groups):
    s4 = groups["s4"]
    ser.system_to_dict(fz.fusion_from_group(s4, 2))  # warm s4's memos first
    twin = pg.Group(s4.degree, "S4-twin", s4.generators, s4.elements)
    assert twin == s4 and twin._caches is not s4._caches
    assert ser.system_to_dict(fz.fusion_from_group(twin, 2))["ambient"]["name"] == "S4-twin"
    assert pg.sylow(twin, 2).parent.name == "S4-twin"


def test_bar_system_round_trip(e16_seeded):
    from fuskit import quotients as qt
    G = e16_seeded.parent
    line = G.subgroup_of([G.index_of(G.generators[0])])
    bar = qt.bar_system(e16_seeded, line)
    again = ser.system_from_dict(ser.system_to_dict(bar))
    assert type(again).kind == "prefusion" or again.kind == "prefusion"
    assert fz.same_system(again, bar)


def test_fusion_spec_round_trip(tmp_path, groups):
    spec = {"group": "e16", "p": 2, "mode": "generated",
            "seed_morphisms": json.loads(
                (CORPUS / "e16.json").read_text())["generated_systems"][0]["seed_morphisms"]}
    path = tmp_path / "spec.json"
    path.write_text(ser.canonical_json(spec))
    F = ser.load_fusion_spec(path, resolver=builtin_group)
    assert not fz.is_saturated(F)
    assert F.iso_count() == 71


def test_fusion_spec_ambient_key(tmp_path):
    # 'ambient' names the big group; the carrier is its Sylow subgroup
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"group": "d8", "ambient": "s4", "p": 2, "mode": "from-group"}))
    F = ser.load_fusion_spec(spec, resolver=builtin_group)
    assert F.parent.order == 24 and F.carrier.order == 8


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        ser.load_group(bad)
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"name": "x", "degree": 3, "generators": [[0, 0, 1]]}))
    with pytest.raises(ParseError):   # ValidationError is a ParseError
        ser.load_group(dup)
    with pytest.raises(ValidationError):
        ser.load_group(dup)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"degree": 3}))
    with pytest.raises(ParseError):
        ser.load_group(missing)


def test_corpus_loads():
    entries = load_corpus(CORPUS)
    names = [e.name for e in entries]
    for required in ("c2", "c3", "d8", "q8", "c4xc2", "e16", "d8xc2",
                     "s4", "a4", "sl23", "a6", "qd2", "qd3", "s3"):
        assert required in names
    for e in entries:
        for key, val in e.expected.items():
            block = val if isinstance(val, dict) and "value" not in val else {key: val}
            for leaf in block.values():
                assert leaf.get("provenance") in ("derived-oracle", "paper")


# -- order cap -----------------------------------------------------------------------

def test_env_order_cap(monkeypatch):
    monkeypatch.setenv("FUSKIT_ORDER_CAP", "100")
    doc = json.loads((CORPUS / "groups" / "a6.json").read_text())
    with pytest.raises(OrderCapExceeded):
        ser.group_from_dict(doc)
    monkeypatch.delenv("FUSKIT_ORDER_CAP")
    assert ser.group_from_dict(doc).order == 360


# -- CLI ------------------------------------------------------------------------------

def run_cli(*argv):
    return cli.main(list(argv))


_GROUP_INFO = {  # the whole report, byte for byte
    "d8": {"abelian": False, "center_order": 2, "degree": 4,
           "element_orders": {"1": 1, "2": 5, "4": 2}, "name": "D8", "order": 8,
           "subgroup_count": 10},
    "c4xc2": {"abelian": True, "center_order": 8, "degree": 6,
              "element_orders": {"1": 1, "2": 3, "4": 4}, "name": "C4xC2", "order": 8,
              "subgroup_count": 8},
}


def test_cli_group_info(capsys):
    for name, info in _GROUP_INFO.items():
        assert run_cli("group", "info", str(CORPUS / "groups" / f"{name}.json")) == 0
        assert capsys.readouterr().out == json.dumps(info, sort_keys=True, indent=2) + "\n"


def test_cli_build_and_check(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"group": "s4", "p": 2, "mode": "from-group"}))
    out_path = tmp_path / "sys.json"
    assert run_cli("fusion", "build", str(spec), "-o", str(out_path)) == 0
    capsys.readouterr()
    assert run_cli("fusion", "check", str(out_path), "--saturated", "--op",
                   "--psoluble", "--constrained", "--thompson") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["saturated"] is True
    assert out["op"]["order"] == 4
    assert out["psoluble"]["tower_orders"] == [1, 4, 8]
    assert out["constrained"] is True
    assert out["thompson_factorization"] is False


def test_cli_check_normal_flag(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"group": "s4", "p": 2, "mode": "from-group"}))
    f = fz.fusion_from_group(builtin_group("s4"), 2)
    v4 = pg.core_p(f.parent, 2)
    gens = [list(f.parent.elements[m].images) for m in v4.members if m]
    assert run_cli("fusion", "check", str(spec), "--normal", json.dumps(gens)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["normal"] is True


def test_cli_check_closure(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"group": "d8", "p": 2, "mode": "from-group"}))
    assert run_cli("fusion", "check", str(spec), "--closure") == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["closure"]) == 10


def test_cli_quotient_modes(tmp_path, capsys):
    e16_entry = json.loads((CORPUS / "e16.json").read_text())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "group": "e16", "p": 2, "mode": "generated",
        "seed_morphisms": e16_entry["generated_systems"][0]["seed_morphisms"]}))
    a_gens = json.dumps(e16_entry["named_subgroups"]["A"])
    assert run_cli("quotient", str(spec), "--by", a_gens, "--mode", "bar") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["closure"] == {"is_fusion": False, "witness": {
        "kind": "missing-composite",
        "homs": [{"domain": [0, 1], "map": [[0, 0], [1, 2]]},
                 {"domain": [0, 2], "map": [[0, 0], [2, 4]]}]}}
    assert run_cli("quotient", str(spec), "--by", a_gens, "--mode", "generated-bar") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["closure"]["is_fusion"] is True
    assert run_cli("quotient", str(spec), "--by", a_gens, "--mode", "factor") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["closure"]["is_fusion"] is True


# sha256 of the whole `fuskit quotient` output: e16 with its first corpus
# seeds by A (the carrier is the whole group, so the quotient is named
# E16|16/2) and s4@2 by V4 (the carrier is a Sylow subgroup: S4|8/4)
_QUOTIENT_DIGESTS = {
    ("e16", "factor"): "9f231f0e1d9b6616330735060f284d7a687627de1ee6e97c26e0c2c4e3547a44",
    ("e16", "bar"): "05d1a30360d145c06ad5e1c8efb85a1e441c30d7a92509cd9d4da714e23dacec",
    ("e16", "generated-bar"): "ad5a7bbe51e897229706bbc21b5d49c45292ffeb1b4eceb45c9c7fdbbd3b6e26",
    ("s4", "factor"): "67e07d29b17c7a08b89e63d806bd1cef4c2cc80461cc927d0a980c7dd926170d",
    ("s4", "bar"): "07841e86ad9cfd468c8ceafcc9315a99805ae756d4d8bb146352b773791e02d2",
    ("s4", "generated-bar"): "cd049d484670e2d699ec70d55398b5e1f9863cedd3cfe205ba63f29114ff22d4",
}


@pytest.mark.parametrize("system, mode", sorted(_QUOTIENT_DIGESTS))
def test_cli_quotient_output_is_pinned(tmp_path, system, mode):
    # in a fresh interpreter, as the command runs; the name of a twin's
    # quotient is tested by test_twin_systems_keep_their_own_quotient_names
    if system == "e16":
        e16_entry = json.loads((CORPUS / "e16.json").read_text())
        doc = {"group": "e16", "p": 2, "mode": "generated",
               "seed_morphisms": e16_entry["generated_systems"][0]["seed_morphisms"]}
        by = e16_entry["named_subgroups"]["A"]
    else:
        doc = {"group": "s4", "p": 2, "mode": "from-group"}
        by = [[1, 0, 3, 2], [2, 3, 0, 1]]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "fuskit.cli", "quotient", str(spec),
                           "--by", json.dumps(by), "--mode", mode],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == _QUOTIENT_DIGESTS[system, mode]


def test_cli_quotient_output_feeds_back_into_check(tmp_path, capsys):
    e16_entry = json.loads((CORPUS / "e16.json").read_text())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "group": "e16", "p": 2, "mode": "generated",
        "seed_morphisms": e16_entry["generated_systems"][0]["seed_morphisms"]}))
    a_gens = json.dumps(e16_entry["named_subgroups"]["A"])
    out_path = tmp_path / "bar.json"
    assert run_cli("quotient", str(spec), "--by", a_gens, "--mode", "bar",
                   "-o", str(out_path)) == 0
    capsys.readouterr()
    assert run_cli("fusion", "check", str(out_path)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "prefusion" and out["is_fusion"] is False
    assert out["witness"] == "missing-composite"


def test_cli_quotient_usage_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"group": "s4", "p": 2, "mode": "from-group"}))
    # the centre of D8 is not strongly closed: usage error, exit 2
    z_gens = json.dumps([[2, 3, 0, 1]])
    assert run_cli("quotient", str(spec), "--by", z_gens, "--mode", "bar") == 2


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_cli("group", "info", str(bad)) == 2


def _system_doc(group_name, prime, **changes):
    doc = ser.system_to_dict(fz.fusion_from_group(builtin_group(group_name), prime))
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not None}


def _s4_doc_without_isos_on_the_carrier():
    # a "fusion" document that does not store the identity of its carrier
    doc = _system_doc("s4", 2)
    return dict(doc, isos=[iso for iso in doc["isos"] if len(iso["domain"]) != 8])


def _d8_doc_without_an_automorphism():
    # a "fusion" document whose Aut_F(P) lacks one non-identity automorphism:
    # the rest are not closed under composition
    doc = _system_doc("d8", 2)
    auts = [iso for iso in doc["isos"] if len(iso["domain"]) == 8]
    return dict(doc, isos=[iso for iso in doc["isos"] if iso is not auts[1]])


@pytest.mark.parametrize("argv, doc", [
    (("fusion", "check"), _system_doc("s4", 2, ambient=None)),
    (("fusion", "check"), _system_doc("s4", 2, p=4)),
    (("fusion", "check"), {"group": "s4", "p": 4, "mode": "from-group"}),
    (("group", "info"), {"name": "x", "degree": 3, "generators": [[1, "a", 0]]}),
    (("group", "info"), {"name": "b", "degree": 2, "generators": [[True, False]]}),
    (("group", "info"), {"name": "b", "degree": True, "generators": [[0]]}),
    (("fusion", "check", "--normal", "5"), {"group": "s4", "p": 2, "mode": "from-group"}),
    (("fusion", "check"), _system_doc("c3", 3, carrier=[0, 1])),
    (("fusion", "check"), _system_doc("c3", 3, isos=[
        {"domain": [0, 1], "codomain": [0, 1], "map": [[0, 0], [1, 1]]}])),
    (("fusion", "check"), _system_doc("s4", 2, carrier=list(pg.core_p(builtin_group("s4"), 2).members))),
    (("fusion", "check"), {"group": "e16", "p": 2, "mode": "generated", "seed_morphisms": 5}),
    (("fusion", "check"), {"group": "e16", "p": 2, "mode": "generated", "seed_morphisms": None}),
    (("fusion", "check"), '{"group": "s4", "mode": "from-group", "p": 1' + "0" * 4999 + "}"),
    (("fusion", "check"), {"group": "s4", "p": pg.PRIME_LIMIT, "mode": "from-group"}),
    (("fusion", "check", "--normal", "[1" + "0" * 4999 + "]"),
     {"group": "s4", "p": 2, "mode": "from-group"}),
    (("fusion", "check", "--closure"), _s4_doc_without_isos_on_the_carrier()),
    (("fusion", "check"), _system_doc("s4", 2, p=3)),
    (("fusion", "check"), _system_doc("s4", 2, carrier=list(range(24)))),
    (("fusion", "check", "--closure"), _d8_doc_without_an_automorphism()),
], ids=["system-without-ambient", "system-p-not-prime", "spec-p-not-prime",
        "string-in-generator", "bool-in-generator", "bool-degree",
        "subgroup-spec-not-a-list", "carrier-not-subgroup", "domain-not-subgroup",
        "iso-outside-carrier", "seed-morphisms-not-a-list", "seed-morphisms-null",
        "spec-p-of-5000-digits", "spec-p-past-the-prime-limit", "subgroup-spec-of-5000-digits",
        "carrier-identity-missing", "carrier-not-a-3-group", "carrier-not-a-2-group",
        "aut-not-closed"])
def test_cli_malformed_input_exit_code(tmp_path, capsys, argv, doc):
    # a doc given as text is written as it is: json.dumps cannot write an
    # int of 5,000 digits, and json.loads cannot read one
    path = tmp_path / "in.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert run_cli(*argv[:2], str(path), *argv[2:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_order_cap_not_an_integer_exit_code(monkeypatch, capsys):
    monkeypatch.setenv("FUSKIT_ORDER_CAP", "abc")
    assert run_cli("group", "info", str(CORPUS / "groups" / "d8.json")) == 2
    err = capsys.readouterr().err
    assert err == "error: FUSKIT_ORDER_CAP is not an integer: 'abc'\n"


def test_cli_failed_command_prints_no_warning(tmp_path):
    # --closure classifies from the trivial subgroup up: is_normal_subgroup
    # warns that the system is not saturated before the carrier's missing
    # identity raises.  Warnings wait for the command, so the error line is
    # all of stderr; in a subprocess, where no test harness captures them
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_s4_doc_without_isos_on_the_carrier()))
    argv = [sys.executable, "-m", "fuskit.cli", "fusion", "check", str(path)]
    proc = subprocess.run([*argv, "--closure"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: MorphismNotInSystem") and proc.stderr.count("\n") == 1
    # a command that succeeds still shows its warnings
    proc = subprocess.run([*argv, "--normal", "[[0, 1, 2, 3]]"], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0 and "UserWarning: system is not saturated" in proc.stderr


def test_huge_degree_is_refused_before_it_is_allocated(tmp_path):
    # the identity permutation of 10^8 points would take several GB: the
    # degree is checked against the order cap first, so under a 1 GiB
    # address-space limit the CLI exits 2 with one line, not a MemoryError
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"name": "X", "degree": 100_000_000, "generators": []}))
    proc = subprocess.run([sys.executable, "-m", "fuskit.cli", "group", "info", str(path)],
                          capture_output=True, text=True, timeout=10, preexec_fn=limit)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_stored_iso_outside_the_carrier_is_rejected():
    # cut the s4@2 carrier to V4: the stored isos on the order-8 Sylow leave it
    v4 = pg.core_p(builtin_group("s4"), 2)
    doc = _system_doc("s4", 2, carrier=list(v4.members))
    with pytest.raises(ValidationError, match="carrier"):
        ser.system_from_dict(doc)


def _d8_doc_with(bad_iso):
    """The d8@2 system document, read back from JSON so that no two lists are
    one object, with the stored iso bad_iso(d) = (domain, codomain, map)
    appended.  d holds r of order 4, r2 = r^2, r3 = r^3, and the member lists
    c4 of <r>, v4 of a Klein subgroup and P of the whole carrier."""
    F = fz.fusion_from_group(builtin_group("d8"), 2)
    G = F.parent
    fours = [S for S in pg.subgroups_of(F.carrier) if S.order == 4]
    r = next(x for S in fours for x in S.members if G.element_order(x) == 4)
    r2 = G.mul(r, r)
    d = SimpleNamespace(r=r, r2=r2, r3=G.mul(r2, r), P=list(F.carrier.members),
                        c4=list(next(S for S in fours if r in S).members),
                        v4=list(next(S for S in fours if r not in S).members))
    doc = json.loads(json.dumps(ser.system_to_dict(F)))
    doc["isos"].append(dict(zip(("domain", "codomain", "map"), bad_iso(d))))
    return doc


def _bool_for_one(ids):
    # True == 1 and hash(True) == hash(1), so a parsed list with 1 is found for it
    assert 1 in ids
    return [True if x == 1 else x for x in ids]


_BAD_STORED_ISOS = {  # case: (what the error says, the stored iso)
    "not-multiplicative": ("not multiplicative", lambda d: (
        d.c4, d.c4, [[0, 0], [d.r, d.r2], [d.r2, d.r], [d.r3, d.r3]])),
    "not-injective": ("not injective", lambda d: (
        d.c4, d.c4, [[0, 0], [d.r, d.r], [d.r2, d.r], [d.r3, d.r3]])),
    "not-total": ("not total", lambda d: (d.c4, d.c4, [[0, 0], [d.r, d.r], [d.r2, d.r2]])),
    "moves-identity": ("identity", lambda d: (
        d.c4, d.c4, [[0, d.r2], [d.r, d.r3], [d.r2, 0], [d.r3, d.r]])),
    "image-not-codomain": ("not onto", lambda d: (d.c4, d.v4, [[x, x] for x in d.c4])),
    "domain-not-subgroup": ("not a subgroup", lambda d: ([0, d.r], [0, d.r], [[0, 0], [d.r, d.r]])),
    "pair-of-three": ("pairs", lambda d: (d.c4, d.c4, [[x, x, x] for x in d.c4])),
    "bool-in-domain": ("True", lambda d: (_bool_for_one(d.P), d.P, [[x, x] for x in d.P])),
    "bool-in-map": ("True", lambda d: (d.P, d.P, [[x, x] for x in _bool_for_one(d.P)])),
}


@pytest.mark.parametrize("case", sorted(_BAD_STORED_ISOS))
def test_malformed_stored_iso_is_rejected(tmp_path, capsys, case):
    says, bad_iso = _BAD_STORED_ISOS[case]
    doc = _d8_doc_with(bad_iso)
    good = dict(doc, isos=doc["isos"][:-1])
    assert ser.system_from_dict(good).iso_count() == len(good["isos"])
    with pytest.raises(ParseError, match=says):  # ValidationError is a ParseError
        ser.system_from_dict(doc)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    assert run_cli("fusion", "check", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_system_from_dict_parses_each_member_list_once(e16_seeded, monkeypatch):
    # one parse per distinct domain or codomain list, and no GroupHom: the
    # isos are filed as image tuples (one GroupHom per stored iso when the
    # system stored homs); parsing both lists of every iso made 2 * 71 + 1
    # parses here
    doc = json.loads(json.dumps(ser.system_to_dict(e16_seeded)))
    calls = {"_member_mask": 0, "GroupHom": 0}
    member_mask, hom_init = ser._member_mask, pg.GroupHom.__init__

    def counted_mask(*args):
        calls["_member_mask"] += 1
        return member_mask(*args)

    def counted_init(*args):
        calls["GroupHom"] += 1
        hom_init(*args)

    monkeypatch.setattr(ser, "_member_mask", counted_mask)
    monkeypatch.setattr(pg.GroupHom, "__init__", counted_init)
    back = ser.system_from_dict(doc)
    assert calls["GroupHom"] == 0
    assert fz.same_system(back, e16_seeded)
    subgroups = {*back.store, *(r for row in back.store.values() for r in row)}
    assert 2 * back.iso_count() > len(subgroups) + 1
    assert calls["_member_mask"] <= len(subgroups) + 1  # + 1: the carrier


@pytest.mark.parametrize("field, value", [
    ("primes", ["x"]), ("primes", [4]), ("primes", [True]), ("primes", 3),
    ("models", {"x": "groups/c3.json"}),
    ("generated_systems", [5]), ("generated_systems", [{"label": "g"}]),
    ("expected", {"p3": 5}), ("expected", {"p3": {"saturated": True}}),
    ("expected", {"order": 5}),
    ("group", 5), ("models", {"3": 5}), ("named_subgroups", 5),
    ("generated_systems", [{"p": 3, "seed_morphisms": 5}]),
    ("models", {"1" + "0" * 4999: "groups/c3.json"}), ("primes", [pg.PRIME_LIMIT]),
], ids=["primes-string", "primes-composite", "primes-bool", "primes-not-a-list",
        "model-key-not-prime", "generated-not-an-object", "generated-without-p",
        "expected-block-not-an-object", "expected-leaf-not-an-object", "expected-order-not-an-object",
        "group-not-a-path", "model-not-a-path", "named-subgroups-not-an-object",
        "seeds-not-a-list", "model-key-of-5000-digits", "primes-past-the-prime-limit"])
def test_verify_malformed_corpus_entry_exit_code(tmp_path, capsys, field, value):
    import shutil
    corpus = tmp_path / "corpus"
    (corpus / "groups").mkdir(parents=True)
    shutil.copy(CORPUS / "groups" / "c3.json", corpus / "groups")
    doc = json.loads((CORPUS / "c3.json").read_text())
    doc[field] = value
    (corpus / "c3.json").write_text(json.dumps(doc))
    assert run_cli("verify", str(corpus)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "c3.json" in err


@pytest.mark.parametrize("entry, theorem, named", [
    ("e16", "example-sixteen-quotient", None),
    ("e16", "example-sixteen-quotient", {"A": [[1, 0, 2, 3, 4, 5, 6, 7]]}),
    ("d8xc2", "example-intersection-unsaturated", {"R": [[1, 2, 3, 0, 5, 4]]}),
    ("d8xc2", "example-intersection-unsaturated",
     {"Q": [[1, 2, 3, 0, 4, 5]], "R": [[1, 2, 3, 0, 5, 4]]}),
], ids=["e16-without-names", "e16-without-B", "d8xc2-without-Q", "d8xc2-Q-too-short"])
def test_verify_missing_named_subgroup_exit_code(tmp_path, capsys, entry, theorem, named):
    import shutil
    corpus = tmp_path / "corpus"
    (corpus / "groups").mkdir(parents=True)
    shutil.copy(CORPUS / "groups" / f"{entry}.json", corpus / "groups")
    doc = json.loads((CORPUS / f"{entry}.json").read_text())
    doc.pop("named_subgroups")
    if named is not None:
        doc["named_subgroups"] = named
    (corpus / f"{entry}.json").write_text(json.dumps(doc))
    assert run_cli("verify", str(corpus), "--theorem", theorem) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"{entry}.json" in err


def test_large_primes_finish(tmp_path):
    # 2^61 - 1 is prime; trial division up to its root did not end.  In a
    # subprocess with a timeout, so that a hang fails the test
    p = 2**61 - 1
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"group": "s4", "p": p, "mode": "from-group"}))
    corpus = tmp_path / "corpus"
    (corpus / "groups").mkdir(parents=True)
    (corpus / "groups" / "c3.json").write_text((CORPUS / "groups" / "c3.json").read_text())
    doc = json.loads((CORPUS / "c3.json").read_text())
    doc["primes"].append(p)
    (corpus / "c3.json").write_text(json.dumps(doc))
    out = []
    for argv in (["fusion", "check", str(spec)], ["verify", str(corpus)]):
        proc = subprocess.run([sys.executable, "-m", "fuskit.cli", *argv],
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert json.loads(out[0])["p"] == p
    assert out[1].endswith(" 0 failures\n")


def test_cli_check_without_automorphisms_of_the_carrier(tmp_path):
    # no iso at all, not even the identity of P: the Sylow axiom fails
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(_system_doc("c3", 3, isos=[])))
    for extra in ([], ["--saturated"]):
        proc = subprocess.run([sys.executable, "-m", "fuskit.cli", "fusion", "check", str(path), *extra],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["saturated"] is False


def test_cli_verify_single_theorem(capsys):
    assert run_cli("verify", "shipped", "--theorem", "core-over-centre") == 0
    out = capsys.readouterr().out
    assert "core-over-centre" in out and out.startswith("ok")


def test_full_text_report_matches_golden_file(capsys):
    from pathlib import Path
    golden = Path(__file__).parent / "data" / "verify_golden.txt"
    assert run_cli("verify", str(CORPUS)) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_verify_fault_in_a_suite_fails_that_suite(capsys, monkeypatch):
    # a fault raised inside a suite is one failed instance after its last
    # yielded one, with the exception in its detail; the other suites run,
    # and the exit code is 1 (2 means malformed input)
    from fuskit import verify
    from fuskit.errors import InvariantViolation
    name = "core-over-centre"
    description, _ = verify._SUITES[name]

    def faulty(ctx):
        yield "s4@p2", True, {}
        raise InvariantViolation("the join of the closed subgroups is not closed")

    monkeypatch.setitem(verify._SUITES, name, (description, faulty))
    assert run_cli("verify", str(CORPUS)) == 1
    failure = {"detail": {"error": "InvariantViolation",
                          "message": "the join of the closed subgroups is not closed"},
               "instance": "raised after s4@p2",
               "replay": f"fuskit verify {CORPUS} --theorem {name}"}
    golden = (Path(__file__).parent / "data" / "verify_golden.txt").read_text().splitlines()
    want = []
    for line in golden[:-1]:
        if line.startswith(f"ok   {name}: "):
            want += [f"FAIL {name}: 1/2", f"     failure: {ser.canonical_json(failure).strip()}"]
        else:
            want.append(line)
    want.append("FAIL: 33 theorems, 15981 instances, 1 failures")  # 15,997 - 18 + 2
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def test_cli_verify_deterministic(capsys):
    assert run_cli("verify", str(CORPUS), "--theorem",
                   "example-sixteen-quotient", "--format", "json") == 0
    first = capsys.readouterr().out
    assert run_cli("verify", str(CORPUS), "--theorem",
                   "example-sixteen-quotient", "--format", "json") == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["version"] == 1 and doc["theorems"][0]["failures"] == []


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fuskit.cli", "verify", str(CORPUS),
         "--theorem", "group-fusion-saturated"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "group-fusion-saturated: 18/18" in proc.stdout


def test_report_emit_empty():
    from fuskit.verify import VerificationReport, report_emit
    assert report_emit(VerificationReport("x", []), "json") == \
        b'{\n  "theorems": [],\n  "version": 1\n}\n'


def test_bootstrap_is_idempotent(tmp_path):
    import shutil
    from fuskit import bootstrap
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    before = {p.name: p.read_bytes() for p in sorted(corpus.glob("*.json"))}
    assert bootstrap.main([str(corpus)]) == 0
    after = {p.name: p.read_bytes() for p in sorted(corpus.glob("*.json"))}
    assert before == after


def test_verify_failure_carries_witness(tmp_path, capsys):
    # corrupt one stamped expected value: the failure must be reported with a
    # replayable witness and exit code 1
    import shutil
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    doc = json.loads((corpus / "d8.json").read_text())
    doc["expected"]["order"]["value"] = 9
    (corpus / "d8.json").write_text(json.dumps(doc))
    assert run_cli("verify", str(corpus), "--theorem", "expected-values",
                   "--format", "json") == 1
    out = json.loads(capsys.readouterr().out)
    failures = out["theorems"][0]["failures"]
    assert failures and failures[0]["instance"] == "d8/order"
    assert failures[0]["detail"] == {"expected": 9, "got": 8}
    assert "replay" in failures[0]


def test_verify_misspelled_value_block_fails(tmp_path, capsys):
    # a top-level value block nothing recomputes is a failure, not a skip
    import shutil
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    doc = json.loads((corpus / "d8.json").read_text())
    doc["expected"]["ordr"] = {"provenance": "derived-oracle", "value": 8}
    (corpus / "d8.json").write_text(json.dumps(doc))
    assert run_cli("verify", str(corpus), "--theorem", "expected-values",
                   "--format", "json") == 1
    failures = json.loads(capsys.readouterr().out)["theorems"][0]["failures"]
    assert [(f["instance"], f["detail"]) for f in failures] == [
        ("d8/ordr", {"reason": "unknown value"})]


def _raise(error):
    def fail(*args):
        raise error("forced failure")
    return fail


def _forced_failure(theorem):
    """(owner module, attribute, replacement) that makes every instance of
    the theorem fail, each through a different kind of failure detail."""
    from fuskit import closure as cl
    from fuskit import quotients as qt
    from fuskit.errors import DecompositionNotFound, ProductNotASubgroup

    def witness(pre):
        return False, qt.PrefusionWitness("missing-composite", tuple(pre.all_isos()[-2:]))
    return {
        "third-isomorphism": (qt, "verify_third_iso", lambda F, Q, R: False),
        "alperin-decomposition": (cl, "alperin_decompose", _raise(DecompositionNotFound)),
        "iso-tables-closed": (qt, "prefusion_is_fusion", witness),
        "product-strongly-closed": (pg, "set_product", _raise(ProductNotASubgroup)),
    }[theorem]


def forced_failures(theorem, corpus):
    """The failure entries of `fuskit verify CORPUS --theorem THEOREM --format
    json` under the forced failure, with the corpus path in the replay line
    replaced by CORPUS."""
    import io
    out = io.BytesIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(*_forced_failure(theorem))
        mp.setattr(sys, "stdout", SimpleNamespace(buffer=out))
        assert cli.main(["verify", str(corpus), "--theorem", theorem,
                         "--format", "json"]) == 1
    doc = json.loads(out.getvalue())
    failures = doc["theorems"][0]["failures"]
    for f in failures:
        f["replay"] = f["replay"].replace(str(corpus), "CORPUS")
    return failures


def small_corpus(root):
    """The shipped corpus cut down to its s3 and s4 entries (five systems)."""
    import shutil
    corpus = root / "corpus"
    shutil.copytree(CORPUS, corpus)
    for path in corpus.glob("*.json"):
        if path.stem not in ("s3", "s4"):
            path.unlink()
    return corpus


@pytest.mark.parametrize("theorem", ["third-isomorphism", "alperin-decomposition",
                                     "iso-tables-closed", "product-strongly-closed"])
def test_forced_failures_are_reported_in_full(theorem, tmp_path):
    # every instance fails; each entry names its instance, carries the raw
    # witness (subgroups, homs, witness kind) as element-index payloads and
    # replays its suite; an error raised by the check counts as a failure
    golden = json.loads((Path(__file__).parent / "data" / "verify_failures.json").read_text())
    assert forced_failures(theorem, small_corpus(tmp_path)) == golden[theorem]
