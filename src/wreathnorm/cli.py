"""Command-line interface: one JSON document (or CSV table) per invocation.

Outputs are byte-stable for a fixed seed and configuration: every report
embeds the effective config and a content hash of the group spec, keys are
sorted, and wall-clock timings go to stderr only.  Exit status is 0 exactly
when the command's checks pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import acceptance
from . import commutators as cm
from . import gznorm as gz
from . import norms as nm
from . import oracle as oc
from . import props as pr
from . import weightfn as wf
from .groups import canonical_group_json, parse_group_spec, perm_lists
from .lamp import LampElem

STATE_CAP_ENV = "WREATHNORM_STATE_CAP"
GEN_CAP_ENV = "WREATHNORM_GEN_CAP"


def _caps() -> tuple[int, int]:
    state = int(os.environ.get(STATE_CAP_ENV, oc.DEFAULT_STATE_CAP))
    gen = int(os.environ.get(GEN_CAP_ENV, oc.DEFAULT_GEN_CAP))
    return state, gen


def _group_hash(spec: str) -> str:
    return hashlib.sha256(canonical_group_json(spec).encode()).hexdigest()[:16]


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"
    if out and out != "-":
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _envelope(args, result, group_spec: str | None) -> dict:
    config = {
        "command": args.command_path,
        "seed": args.seed,
        "state_cap": _caps()[0],
        "gen_cap": _caps()[1],
    }
    doc = {"config": config, "result": result}
    if group_spec is not None:
        doc["group_hash"] = _group_hash(group_spec)
    return doc


def _parse_qs(text: str) -> list[Fraction]:
    return [nm.parse_fraction(part.strip()) for part in text.split(",") if part.strip()]


def _element(args, base) -> LampElem:
    doc = json.loads(args.element)
    elem = LampElem.from_json(base, doc)
    if getattr(args, "truncated", None) is not None:
        elem = LampElem.make(base, dict(elem.support), elem.shift, args.truncated)
    return elem


def cmd_props_check(args) -> int:
    base = parse_group_spec(args.group)
    reports = pr.check_all(base)
    result = {name: report.to_json() for name, report in reports.items()}
    _emit(_envelope(args, result, args.group), args.out)
    return 0 if all(r.holds for r in reports.values()) else 1


def cmd_norm_eval(args) -> int:
    base = parse_group_spec(args.group)
    elem = _element(args, base)
    if elem.window is None:
        value = gz.norm_gz(elem)
        mode = "infinite"
    else:
        value = gz.norm_truncated(elem, mode=args.mode)
        mode = f"truncated({elem.window})/{args.mode}"
    result = {"norm": value, "mode": mode, "element": elem.to_json()}
    _emit(_envelope(args, result, args.group), args.out)
    return 0


def cmd_norm_table(args) -> int:
    base = parse_group_spec(args.group)
    perms = base.generators
    if args.gens:
        perms = [tuple(g) for g in perm_lists(json.loads(args.gens), "--gens")]
    for g in perms:
        if g not in base.index:
            raise ValueError(f"generator {list(g)} is not an element of the group")
    gens = [base.index[g] for g in perms]
    closure = nm.conjugacy_closure(base, gens)
    table = nm.word_norm_bfs(base, closure)
    if args.format == "csv":
        lines = ["element,value"] + [
            f"{i},{v}" for i, v in enumerate(table.values)
        ]
        text = "\n".join(lines) + "\n"
        if args.out and args.out != "-":
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    report = nm.validate_norm(table)
    result = {
        "table": table.to_json(),
        "notes": list(table.notes),
        "validation": report.to_json(),
        "invariance": nm.validate_invariance(table).to_json(),
    }
    _emit(_envelope(args, result, args.group), args.out)
    return 0 if report.ok else 1


def cmd_oracle_bfs(args) -> int:
    base = parse_group_spec(args.group)
    state_cap, gen_cap = _caps()
    result = oc.bfs_norms(base, args.window, state_cap=state_cap, gen_cap=gen_cap)
    if args.out:
        oc.write_norms_binary(args.out, result)
    _emit(_envelope(args, result.summary(), args.group), args.summary)
    for level in result.levels:
        print(json.dumps(dataclasses.asdict(level), sort_keys=True), file=sys.stderr)
    print(f"bfs wall time: {result.elapsed:.2f}s", file=sys.stderr)
    return 0


def cmd_decompose(args) -> int:
    base = parse_group_spec(args.group)
    elem = _element(args, base)
    kind = args.kind
    residual = None
    if kind in ("2", "-2"):
        witness = cm.build_2_commutator(elem, 1 if kind == "2" else -1)
        verified = cm.verify_witness(elem, witness)
    elif kind in ("pm", "pm-+", "pm+-"):
        order = "+-" if kind == "pm+-" else "-+"
        witness = cm.build_pm_commutator(elem, order)
        verified = cm.verify_witness(elem, witness)
    else:  # "pm1+" or "pm1-", the last of the parser's choices
        sign = 1 if kind == "pm1+" else -1
        witness, residual = cm.build_pm1_decomposition(elem, sign)
        verified = cm.evaluate_witness(witness).mul(residual) == elem
    result = {
        "witness": witness.to_json(),
        "verified": verified,
    }
    if residual is not None:
        result["residual"] = residual.to_json()
    _emit(_envelope(args, result, args.group), args.out)
    return 0 if verified else 1


def cmd_almost_hom_verify(args) -> int:
    base = parse_group_spec(args.group)
    docs = json.loads(args.k)
    if not isinstance(docs, list):
        raise ValueError("--k must be a JSON list of element documents")
    k_set = [LampElem.from_json(base, doc) for doc in docs]
    if any(e.window is not None for e in k_set):
        raise ValueError("K must consist of infinite-mode elements")
    q_set = _parse_qs(args.q)
    big_n = gz.max_extent(k_set)
    report = gz.verify_KQ_almost_hom(
        lambda g: gz.phi(g, big_n),
        k_set,
        q_set,
        gz.norm_gz,
        lambda image: gz.norm_truncated(image, mode="theory"),
    )
    result = {"big_n": big_n, "window": 2 * big_n + 3, "report": report.to_json()}
    _emit(_envelope(args, result, args.group), args.out)
    return 0 if report.ok else 1


def cmd_axioms_validate(args) -> int:
    base = parse_group_spec(args.group)
    if args.table.strip().startswith("["):
        doc = json.loads(args.table)
    else:
        with open(args.table) as fh:
            doc = json.load(fh)
    table = nm.NormTable.from_json(base, doc)
    f = wf.from_norm(table, _parse_qs(args.thresholds))
    report = wf.check_axioms(f, args.theory)
    _emit(_envelope(args, report.to_json(), args.group), args.out)
    return 0 if report.ok else 1


def cmd_selftest(args) -> int:
    echo = lambda line: print(line, file=sys.stderr)
    if args.scale == "quick":
        results = acceptance.run_quick(echo=echo)
    else:
        results = acceptance.run_full(echo=echo, seed=args.seed)
    result = {"scale": args.scale, "criteria": [r.to_json() for r in results]}
    doc = _envelope(args, result, None)
    # timings vary run to run; keep the stdout document stable
    for row in doc["result"]["criteria"]:
        row.pop("elapsed_s", None)
    _emit(doc, args.out)
    return 0 if all(r.ok for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, which ``main`` reports; subparsers inherit it."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wreathnorm",
        description="Invariant word norms on finite groups and shift extensions",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized runs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report_out(sp):
        sp.add_argument(
            "--out", default=None, help="write the report here instead of stdout"
        )

    props = sub.add_parser("props", help="base-group statement checks")
    props_sub = props.add_subparsers(dest="subcommand", required=True)
    p = props_sub.add_parser("check", help="evaluate S1-S4 with witnesses")
    p.add_argument("--group", default="A5")
    add_report_out(p)
    p.set_defaults(func=cmd_props_check, command_path="props check")

    norm = sub.add_parser("norm", help="norm evaluation and tables")
    norm_sub = norm.add_subparsers(dest="subcommand", required=True)
    p = norm_sub.add_parser("eval", help="closed-form norm of one element")
    p.add_argument("--element", required=True, help="element JSON")
    p.add_argument("--group", default="A5")
    p.add_argument("--truncated", type=int, default=None, help="reinterpret in this window")
    p.add_argument("--mode", default="oracle", choices=["oracle", "theory"])
    add_report_out(p)
    p.set_defaults(func=cmd_norm_eval, command_path="norm eval")
    p = norm_sub.add_parser("table", help="word-norm table over a conjugacy closure")
    p.add_argument("--group", required=True)
    p.add_argument("--gens", default=None, help="JSON list of permutation image lists")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    add_report_out(p)
    p.set_defaults(func=cmd_norm_table, command_path="norm table")

    oracle = sub.add_parser("oracle", help="brute-force ground truth")
    oracle_sub = oracle.add_subparsers(dest="subcommand", required=True)
    p = oracle_sub.add_parser("bfs", help="full BFS over a truncation")
    p.add_argument("--group", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--out", default=None, help="binary distance file")
    p.add_argument("--summary", default=None, help="summary JSON path (default stdout)")
    p.set_defaults(func=cmd_oracle_bfs, command_path="oracle bfs")

    p = sub.add_parser("decompose", help="build a verified commutator witness")
    p.add_argument("--element", required=True)
    p.add_argument("--group", default="A5")
    p.add_argument("--truncated", type=int, default=None)
    p.add_argument(
        "--kind", required=True, choices=["2", "-2", "pm", "pm-+", "pm+-", "pm1+", "pm1-"]
    )
    add_report_out(p)
    p.set_defaults(func=cmd_decompose, command_path="decompose")

    ah = sub.add_parser("almost-hom", help="metric almost-homomorphism checks")
    ah_sub = ah.add_subparsers(dest="subcommand", required=True)
    p = ah_sub.add_parser("verify", help="verify the truncation map on a finite set")
    p.add_argument("--k", required=True, help="JSON list of element docs")
    p.add_argument("--q", required=True, help="comma-separated thresholds incl. 0")
    p.add_argument("--group", default="A5")
    add_report_out(p)
    p.set_defaults(func=cmd_almost_hom_verify, command_path="almost-hom verify")

    ax = sub.add_parser("axioms", help="first-order schema checks")
    ax_sub = ax.add_subparsers(dest="subcommand", required=True)
    p = ax_sub.add_parser("validate", help="check T_W / T_IPMG / T_IMG on a table")
    p.add_argument("--group", required=True)
    p.add_argument("--table", required=True, help="norm table JSON (file or inline)")
    p.add_argument("--thresholds", required=True)
    p.add_argument("--theory", default="T_IPMG", choices=list(wf.THEORIES))
    add_report_out(p)
    p.set_defaults(func=cmd_axioms_validate, command_path="axioms validate")

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--scale", default="quick", choices=["quick", "full"])
    add_report_out(p)
    p.set_defaults(func=cmd_selftest, command_path="selftest")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (
        ValueError,
        OSError,
        pr.SolverError,
        oc.CapExceededError,
    ) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
