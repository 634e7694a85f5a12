"""Command-line interface.

Subcommands: `group info`, `fusion build`, `fusion check`, `quotient`,
`verify`.  Exit codes: 0 success, 1 verification failure, 2 usage or parse
error.  The group-order cap is set only by the environment variable
FUSKIT_ORDER_CAP (default 20000); no option or API argument overrides it.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from . import closure as cl
from . import permgroup as pg
from . import quotients as qt
from . import solubility as sol
from .corpus import builtin_group, shipped_corpus_dir
from .errors import FuskitError, NotSaturated, ParseError
from .fusion import FusionSystem, is_saturated
from .serialization import (
    canonical_json,
    dump_system,
    load_group,
    load_system_or_spec,
    payload,
    system_to_dict,
)
from .verify import report_emit, run_verification, theorem_ids


def _subgroup_from_arg(F, text: str):
    try:
        gens = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer longer than Python reads
        raise ParseError(f"subgroup spec is not valid JSON: {exc}") from exc
    if not isinstance(gens, list):
        raise ParseError("subgroup spec must be a JSON list of generator images")
    G = F.parent
    ids = [G.index_of(pg.Perm.checked(g, G.degree)) for g in gens]
    return G.subgroup_of(ids)


def _cmd_group_info(args) -> int:
    G = load_group(args.file)
    full = G.full_subgroup()
    center_order = pg.center(full).order
    info = {
        "name": G.name,
        "degree": G.degree,
        "order": G.order,
        "abelian": center_order == G.order,
        "center_order": center_order,
        "element_orders": {str(k): v for k, v in sorted(full.element_orders().items())},
        "subgroup_count": len(pg.subgroups(G)),
    }
    print(canonical_json(info), end="")
    return 0


def _load_system(path):
    return load_system_or_spec(path, resolver=builtin_group)


def _cmd_fusion_build(args) -> int:
    F = _load_system(args.spec)
    Path(args.output).write_text(dump_system(F))
    return 0


def _cmd_fusion_check(args) -> int:
    F = _load_system(args.system)
    out = {
        "p": F.p,
        "carrier_order": F.carrier.order,
        "iso_count": F.iso_count(),
        "provenance": F.provenance,
    }
    if not isinstance(F, FusionSystem):
        closed, witness = qt.prefusion_is_fusion(F)
        out["kind"] = "prefusion"
        out["is_fusion"] = closed
        if not closed:
            out["witness"] = witness.kind
            print(canonical_json(out), end="")
            return 0
    wants_any = any((args.saturated, args.closure, args.normal, args.op,
                     args.constrained, args.psoluble, args.thompson))
    if args.saturated or not wants_any:
        out["saturated"] = is_saturated(F)
    if args.closure:
        rows = []
        for Q in F.subgroups():
            c = cl.classify(F, Q)
            rows.append({
                "members": list(Q.members),
                "order": Q.order,
                "fully_normalized": c.fully_normalized,
                "centric": c.centric,
                "radical": c.radical,
                "weakly_closed": c.weakly_closed,
                "strongly_closed": c.strongly_closed,
                "normal": c.normal_in_F,
            })
        out["closure"] = rows
    if args.normal:
        Q = _subgroup_from_arg(F, args.normal)
        out["normal"] = cl.is_normal_subgroup(F, Q)
    try:
        if args.op:
            out["op"] = payload(cl.o_p(F))
        if args.constrained:
            out["constrained"] = sol.is_constrained(F)
        if args.psoluble:
            rep = sol.o_p_tower(F)
            out["psoluble"] = {
                "tower_orders": [s.order for s in rep.tower],
                "p_soluble": rep.p_soluble,
                "p_length": rep.p_length,
                "constrained": rep.constrained,
            }
        if args.thompson:
            out["thompson_factorization"] = sol.thompson_factorization_holds(F)
    except NotSaturated as exc:
        out["error"] = f"not saturated: {exc}"
    print(canonical_json(out), end="")
    return 1 if "error" in out else 0


def _cmd_quotient(args) -> int:
    F = _load_system(args.system)
    if not isinstance(F, FusionSystem):
        raise ParseError("quotients need a closed fusion system as input")
    Q = _subgroup_from_arg(F, args.by)
    build = {"factor": qt.factor_system, "bar": qt.bar_system, "generated-bar": qt.generated_bar}
    sub = build[args.mode](F, Q)
    closed, witness = qt.prefusion_is_fusion(sub)
    out = {
        "mode": args.mode,
        "closure": {
            "is_fusion": closed,
            "witness": None if closed else {"kind": witness.kind, "homs": payload(witness.homs)},
        },
        "system": system_to_dict(sub),
    }
    if args.check_local:
        out["local_determination"] = qt.local_determination_holds(F, Q)
    text = canonical_json(out)
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    return 0


def _cmd_verify(args) -> int:
    corpus = args.corpus if args.corpus != "shipped" else shipped_corpus_dir()
    report = run_verification(corpus, theorem=args.theorem)
    sys.stdout.buffer.write(report_emit(report, args.format, timings=args.timings))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuskit",
        description="Exact computation with fusion systems on small finite p-groups.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_group = subs.add_parser("group", help="group file utilities")
    group_subs = p_group.add_subparsers(dest="group_command", required=True)
    p_info = group_subs.add_parser("info", help="summarize a group file")
    p_info.add_argument("file")
    p_info.set_defaults(func=_cmd_group_info)

    p_fusion = subs.add_parser("fusion", help="build and analyze fusion systems")
    fusion_subs = p_fusion.add_subparsers(dest="fusion_command", required=True)
    p_build = fusion_subs.add_parser("build", help="build a system from a spec file")
    p_build.add_argument("spec")
    p_build.add_argument("-o", "--output", required=True)
    p_build.set_defaults(func=_cmd_fusion_build)
    p_check = fusion_subs.add_parser("check", help="report properties of a system")
    p_check.add_argument("system")
    p_check.add_argument("--saturated", action="store_true")
    p_check.add_argument("--closure", action="store_true",
                         help="classify every subgroup of the carrier")
    p_check.add_argument("--normal", metavar="GENS",
                         help="JSON list of generator images for a subgroup")
    p_check.add_argument("--op", action="store_true", help="compute the core O_p")
    p_check.add_argument("--constrained", action="store_true")
    p_check.add_argument("--psoluble", action="store_true")
    p_check.add_argument("--thompson", action="store_true")
    p_check.set_defaults(func=_cmd_fusion_check)

    p_quot = subs.add_parser("quotient", help="factor / induced quotient systems")
    p_quot.add_argument("system")
    p_quot.add_argument("--by", required=True, metavar="GENS",
                        help="JSON list of generator images for the kernel")
    p_quot.add_argument("--mode", choices=("factor", "bar", "generated-bar"),
                        default="factor")
    p_quot.add_argument("--check-local", action="store_true",
                        help="also test whether the factor system is locally determined")
    p_quot.add_argument("-o", "--output")
    p_quot.set_defaults(func=_cmd_quotient)

    p_verify = subs.add_parser("verify", help="run the theorem suites over a corpus")
    p_verify.add_argument("corpus", help="corpus directory, or 'shipped'")
    p_verify.add_argument("--theorem", choices=theorem_ids(), metavar="ID",
                          help="run a single suite")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--timings", action="store_true",
                          help="include wall-clock timings (non-deterministic output)")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:  # shown only if the command succeeds
        try:
            code = args.func(args)
        except (ParseError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except FuskitError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
