"""Command-line interface.

Subcommands: order, solvable, spectrum, classes, criterion,
witness verify/search, ppd, zsigmondy-scan, alt-pair, phi, verify-table.

Exit codes: 0 all checks pass, 1 a verification failed (counterexample or
mismatch found), 2 usage or data error.  Output is deterministic: identical
across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import numbertheory as nt
from .catalog import catalog_group, load_group_file
from .criterion import check_criterion, search_witness_pairs, verify_witness_pair
from .engine import EnumerationCapExceeded, GroupHandle
from .structure import conjugacy_classes, is_solvable, order_spectrum
from .tables import (
    FAIL,
    load_shipped_table,
    parse_expected_table,
    verify_expected_table,
)

OK, FAILED, USAGE = 0, 1, 2


class _Output:
    """Uniform text/tsv/json rendering: collect rows, emit once."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.rows: list = []
        self.payload: dict = {}

    def row(self, *cells) -> None:
        self.rows.append([str(c) for c in cells])

    def emit(self, text_lines: list) -> None:
        if self.fmt == "json":
            print(json.dumps(self.payload, sort_keys=True))
        elif self.fmt == "tsv":
            for cells in self.rows:
                print("\t".join(cells))
        else:
            for line in text_lines:
                print(line)


def _add_group_args(parser: argparse.ArgumentParser) -> None:
    sel = parser.add_mutually_exclusive_group(required=True)
    sel.add_argument("--group", help="catalog name, e.g. A5, S6, D10, C12, "
                                     "F20, psl2:7, M11")
    sel.add_argument("--file", help="path to a group-definition file")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "tsv", "json"),
                        default="text")


def _resolve(args) -> GroupHandle:
    if args.group:
        return catalog_group(args.group)
    return load_group_file(args.file)


def _cmd_order(args) -> int:
    group = _resolve(args)
    out = _Output(args.format)
    out.payload = {"label": group.label, "degree": group.degree,
                   "order": group.order()}
    out.row(group.order())
    out.emit([f"{group.label or 'group'}: order {group.order()}"])
    return OK


def _cmd_solvable(args) -> int:
    group = _resolve(args)
    result = is_solvable(group)
    out = _Output(args.format)
    out.payload = {"label": group.label, "solvable": result.solvable,
                   "derived_series_orders": list(result.series_orders)}
    out.row("solvable" if result.solvable else "nonsolvable",
            ",".join(map(str, result.series_orders)))
    verdict = "solvable" if result.solvable else "nonsolvable"
    out.emit([f"{group.label or 'group'}: {verdict}",
              "derived series orders: "
              + " -> ".join(map(str, result.series_orders))])
    return OK


def _cmd_spectrum(args) -> int:
    group = _resolve(args)
    spec = order_spectrum(group)
    out = _Output(args.format)
    out.payload = {"label": group.label, "group_order": spec.group_order,
                   "element_orders": list(spec.orders)}
    out.row(*spec.orders)
    out.emit([f"{group.label or 'group'}: order {spec.group_order}, "
              f"element orders {{{', '.join(map(str, spec.orders))}}}"])
    return OK


def _cmd_classes(args) -> int:
    group = _resolve(args)
    classes = conjugacy_classes(group)
    out = _Output(args.format)
    out.payload = {
        "label": group.label,
        "classes": [{"index": i, "element_order": c.order_of_elements,
                     "size": c.size, "representative": str(c.representative)}
                    for i, c in enumerate(classes)]}
    lines = [f"{group.label or 'group'}: {len(classes)} conjugacy classes"]
    for i, c in enumerate(classes):
        out.row(i, c.order_of_elements, c.size, c.representative)
        lines.append(f"  #{i}: element order {c.order_of_elements}, "
                     f"size {c.size}, rep {c.representative}")
    out.emit(lines)
    return OK


def _cmd_criterion(args) -> int:
    group = _resolve(args)
    report = check_criterion(group)
    out = _Output(args.format)
    out.payload = {
        "label": group.label,
        "holds": report.holds,
        "class_pairs_checked": report.pairs_checked,
        "subgroups_examined": report.subgroups_examined,
    }
    lines = [f"{group.label or 'group'}: criterion "
             f"{'holds' if report.holds else 'fails'} "
             f"({report.pairs_checked} class pairs checked)"]
    if report.holds:
        out.row("holds", report.pairs_checked)
    else:
        c, d = report.counterexample
        out.payload["counterexample"] = {
            "class_c": {"index": c.index, "element_order": c.order_of_elements,
                        "size": c.size},
            "class_d": {"index": d.index, "element_order": d.order_of_elements,
                        "size": d.size},
            "rechecked_exhaustively": report.counterexample_rechecked,
        }
        out.row("fails", report.pairs_checked, c.index, d.index)
        lines.append(f"  counterexample: {c} x {d}")
        lines.append("  every pair from these classes generates a "
                     "nonsolvable subgroup (exhaustively rechecked)")
    out.emit(lines)
    return OK if report.holds else FAILED


def _cmd_witness_verify(args) -> int:
    group = _resolve(args)
    report = verify_witness_pair(group, args.a, args.b)
    out = _Output(args.format)
    outcome_list = sorted(
        (order, solvable, count)
        for (order, solvable), count in report.outcome_orders.items())
    out.payload = {
        "label": group.label, "a": report.a, "b": report.b,
        "verified": report.verified, "pairs_checked": report.pairs_checked,
        "outcomes": [{"order": o, "solvable": s, "count": c}
                     for o, s, c in outcome_list]}
    lines = [f"{group.label or 'group'}: witness pair "
             f"({args.a}, {args.b}) "
             f"{'verified' if report.verified else 'REFUTED'} "
             f"({report.pairs_checked} pairs checked)"]
    for o, s, c in outcome_list:
        out.row(o, "solvable" if s else "nonsolvable", c)
        lines.append(f"  subgroup order {o} "
                     f"({'solvable' if s else 'nonsolvable'}): {c} pairs")
    if report.counterexample is not None:
        x, y = report.counterexample
        out.payload["counterexample"] = {"x": str(x), "y": str(y)}
        lines.append(f"  counterexample: x = {x}, y = {y}")
    out.emit(lines)
    return OK if report.verified else FAILED


def _cmd_witness_search(args) -> int:
    group = _resolve(args)
    pairs = search_witness_pairs(group, restrict_to_primes=args.primes)
    out = _Output(args.format)
    out.payload = {"label": group.label, "primes_only": args.primes,
                   "witness_pairs": [list(p) for p in pairs]}
    for a, b in pairs:
        out.row(a, b)
    kind = "prime witness pairs" if args.primes else "witness pairs"
    if pairs:
        body = ", ".join(f"({a}, {b})" for a, b in pairs)
        out.emit([f"{group.label or 'group'}: {kind}: {body}"])
    else:
        out.emit([f"{group.label or 'group'}: no {kind}"])
    return OK


def _divisor_set_output(ds, fmt: str) -> None:
    out = _Output(fmt)
    out.payload = {"flavor": ds.flavor, "q": ds.q.q, "e": ds.e,
                   "primes": list(ds.primes), "square_entry": ds.square_entry}
    out.row(*ds.values()) if not ds.is_empty() else out.row("empty")
    out.emit([f"{ds.flavor}({ds.q}, {ds.e}) = {ds}"])


def _cmd_ppd(args) -> int:
    if args.large:
        ds = nt.lbpd(args.q, args.e) if args.basic else nt.lpd(args.q, args.e)
    else:
        ds = nt.bppd(args.q, args.e) if args.basic else nt.ppd(args.q, args.e)
    _divisor_set_output(ds, args.format)
    return OK


def _cmd_zsigmondy_scan(args) -> int:
    out = _Output(args.format)
    mismatches = []
    lines = []
    cells = []
    for pp in nt.prime_powers_upto(args.qmax):
        for e in range(2, args.emax + 1):
            if pp.q ** e >= nt.VALUE_LIMIT:
                break  # q^e only grows with e
            closed = nt.zsigmondy_empty(pp, e)
            computed = nt.bppd(pp, e).is_empty()
            if closed != computed:
                mismatches.append((pp.q, e, closed, computed))
            if closed or computed:
                cells.append((pp.q, e, closed, computed))
    for q, e, closed, computed in cells:
        out.row(q, e, closed, computed)
        lines.append(f"  bppd({q}, {e}) empty: closed-form {closed}, "
                     f"computed {computed}")
    header = (f"zsigmondy scan q <= {args.qmax}, e <= {args.emax}: "
              f"{'OK' if not mismatches else 'MISMATCH'}")
    out.payload = {"qmax": args.qmax, "emax": args.emax,
                   "mismatches": [list(m[:2]) for m in mismatches],
                   "empty_cells": [[q, e] for q, e, _, _ in cells]}
    out.emit([header] + lines)
    return OK if not mismatches else FAILED


def _cmd_alt_pair(args) -> int:
    p, q = nt.alternating_pair(args.m)
    out = _Output(args.format)
    out.payload = {"m": args.m, "p": p, "q": q}
    out.row(p, q)
    out.emit([f"alternating group on {args.m} points: witness primes "
              f"({p}, {q})"])
    return OK


def _cmd_phi(args) -> int:
    value = nt.cyclotomic_value(args.k, args.q)
    out = _Output(args.format)
    out.payload = {"k": args.k, "q": args.q, "value": value}
    out.row(value)
    out.emit([f"Phi_{args.k}({args.q}) = {value}"])
    return OK


def _cmd_verify_table(args) -> int:
    if args.table is None:
        rows = load_shipped_table()
    else:
        with open(args.table, encoding="utf-8") as fh:
            rows = parse_expected_table(fh.read())
    results = verify_expected_table(rows)
    out = _Output(args.format)
    out.payload = {"rows": []}
    lines = []
    for res in results:
        reason = res.reason
        out.row(res.row.group_label, res.row.a, res.row.b, res.status, reason)
        out.payload["rows"].append({
            "group": res.row.group_label, "a": res.row.a, "b": res.row.b,
            "status": res.status, "reason": reason})
        suffix = f" ({reason})" if reason else ""
        lines.append(f"{res.status:7s} {res.row.group_label} "
                     f"({res.row.a}, {res.row.b}){suffix}")
    failed = any(res.status == FAIL for res in results)
    out.emit(lines)
    return FAILED if failed else OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvcrit",
        description="Solvability criteria and nonsolvable witness pairs "
                    "for finite permutation groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def group_cmd(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_group_args(p)
        _add_common(p)
        p.set_defaults(func=func)
        return p

    group_cmd("order", _cmd_order, "group order")
    group_cmd("solvable", _cmd_solvable, "solvability via the derived series")
    group_cmd("spectrum", _cmd_spectrum, "element-order spectrum oe(G)")
    group_cmd("classes", _cmd_classes, "conjugacy classes")
    group_cmd("criterion", _cmd_criterion,
              "per-class-pair solvable-witness check")

    witness = sub.add_parser("witness", help="nonsolvable witness pairs")
    wsub = witness.add_subparsers(dest="witness_command", required=True)
    wverify = wsub.add_parser("verify", help="check one (a, b) order pair")
    wverify.add_argument("a", type=int)
    wverify.add_argument("b", type=int)
    _add_group_args(wverify)
    _add_common(wverify)
    wverify.set_defaults(func=_cmd_witness_verify)
    wsearch = wsub.add_parser("search", help="search all verifying pairs")
    wsearch.add_argument("--primes", action="store_true",
                         help="distinct prime pairs only")
    _add_group_args(wsearch)
    _add_common(wsearch)
    wsearch.set_defaults(func=_cmd_witness_search)

    ppd_p = sub.add_parser("ppd", help="primitive prime divisors of q^e - 1")
    ppd_p.add_argument("q", type=int)
    ppd_p.add_argument("e", type=int)
    ppd_p.add_argument("--basic", action="store_true",
                       help="basic variant (divisors of p^(ke) - 1)")
    ppd_p.add_argument("--large", action="store_true",
                       help="large variant (primes above e+1, plus (e+1)^2)")
    _add_common(ppd_p)
    ppd_p.set_defaults(func=_cmd_ppd)

    zs = sub.add_parser("zsigmondy-scan",
                        help="cross-check the closed-form emptiness rule")
    zs.add_argument("qmax", type=int)
    zs.add_argument("emax", type=int)
    _add_common(zs)
    zs.set_defaults(func=_cmd_zsigmondy_scan)

    ap = sub.add_parser("alt-pair",
                        help="witness primes for the alternating group")
    ap.add_argument("m", type=int)
    _add_common(ap)
    ap.set_defaults(func=_cmd_alt_pair)

    phi = sub.add_parser("phi", help="cyclotomic polynomial value Phi_k(q)")
    phi.add_argument("k", type=int)
    phi.add_argument("q", type=int)
    _add_common(phi)
    phi.set_defaults(func=_cmd_phi)

    vt = sub.add_parser("verify-table",
                        help="check an expected-outcomes table")
    vt.add_argument("table", nargs="?", default=None,
                    help="table path (default: shipped sporadic table)")
    _add_common(vt)
    vt.set_defaults(func=_cmd_verify_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, EnumerationCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
