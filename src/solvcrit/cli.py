"""Command-line interface.

Subcommands: order, solvable, spectrum, classes, criterion,
witness verify/search, ppd, zsigmondy-scan, alt-pair, phi, verify-table.

Exit codes: 0 all checks pass, 1 a verification failed (counterexample or
mismatch found), 2 usage or data error.  Output is deterministic: identical
across runs.

Each ``_cmd_*`` returns ``(exit code, payload, rows, lines)``: the JSON
payload, the tsv rows and the text lines.  :func:`main` prints the one
that ``--format`` names.  The commands that act on a group also take its
handle, which :func:`_run` resolves and labels.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import numbertheory as nt
from .catalog import catalog_group, load_group_file
from .criterion import check_criterion, search_witness_pairs, verify_witness_pair
from .engine import EnumerationCapExceeded
from .structure import conjugacy_classes, is_solvable, order_spectrum
from .tables import (
    FAIL,
    load_shipped_table,
    parse_expected_table,
    verify_expected_table,
)

OK, FAILED, USAGE = 0, 1, 2


def _run(args):
    """The command's exit code, payload, rows and lines.

    A group command gets the handle that ``--group`` or ``--file`` names.
    Its payload carries the handle's label, and its first text line
    starts with that label, or with ``group`` when the handle has none.
    """
    if not args.takes_group:
        return args.func(args)
    if args.group is not None:
        group = catalog_group(args.group)
    else:
        group = load_group_file(args.file)
    code, payload, rows, lines = args.func(args, group)
    payload["label"] = group.label
    lines[0] = f"{group.label or 'group'}: {lines[0]}"
    return code, payload, rows, lines


def _cmd_order(args, group):
    order = group.order()
    return (OK, {"degree": group.degree, "order": order}, [[order]],
            [f"order {order}"])


def _cmd_solvable(args, group):
    result = is_solvable(group)
    verdict = "solvable" if result.solvable else "nonsolvable"
    orders = list(map(str, result.series_orders))
    return (OK,
            {"solvable": result.solvable,
             "derived_series_orders": list(result.series_orders)},
            [[verdict, ",".join(orders)]],
            [verdict, "derived series orders: " + " -> ".join(orders)])


def _cmd_spectrum(args, group):
    spec = order_spectrum(group)
    return (OK,
            {"group_order": spec.group_order,
             "element_orders": list(spec.orders)},
            [spec.orders],
            [f"order {spec.group_order}, "
             f"element orders {{{', '.join(map(str, spec.orders))}}}"])


def _cmd_classes(args, group):
    rows = [(i, c.order_of_elements, c.size, str(c.representative))
            for i, c in enumerate(conjugacy_classes(group))]
    payload = {"classes": [{"index": i, "element_order": o, "size": s,
                            "representative": r} for i, o, s, r in rows]}
    lines = [f"{len(rows)} conjugacy classes"]
    lines += [f"  #{i}: element order {o}, size {s}, rep {r}"
              for i, o, s, r in rows]
    return OK, payload, rows, lines


def _cmd_criterion(args, group):
    report = check_criterion(group)
    payload = {
        "holds": report.holds,
        "class_pairs_checked": report.pairs_checked,
        "subgroups_examined": report.subgroups_examined,
    }
    lines = [f"criterion {'holds' if report.holds else 'fails'} "
             f"({report.pairs_checked} class pairs checked)"]
    if report.holds:
        return OK, payload, [["holds", report.pairs_checked]], lines
    c, d = report.counterexample
    payload["counterexample"] = {
        "class_c": {"index": c.index, "element_order": c.order_of_elements,
                    "size": c.size},
        "class_d": {"index": d.index, "element_order": d.order_of_elements,
                    "size": d.size},
        "rechecked_exhaustively": report.counterexample_rechecked,
    }
    lines.append(f"  counterexample: {c} x {d}")
    lines.append("  every pair from these classes generates a "
                 "nonsolvable subgroup (exhaustively rechecked)")
    return (FAILED, payload,
            [["fails", report.pairs_checked, c.index, d.index]], lines)


def _cmd_witness_verify(args, group):
    report = verify_witness_pair(group, args.a, args.b)
    outcomes = sorted(
        (order, solvable, count)
        for (order, solvable), count in report.outcome_orders.items())
    payload = {
        "a": report.a, "b": report.b,
        "verified": report.verified, "pairs_checked": report.pairs_checked,
        "outcomes": [{"order": o, "solvable": s, "count": c}
                     for o, s, c in outcomes]}
    rows = [(o, "solvable" if s else "nonsolvable", c)
            for o, s, c in outcomes]
    lines = [f"witness pair ({args.a}, {args.b}) "
             f"{'verified' if report.verified else 'REFUTED'} "
             f"({report.pairs_checked} pairs checked)"]
    lines += [f"  subgroup order {o} ({kind}): {c} pairs"
              for o, kind, c in rows]
    if report.counterexample is not None:
        x, y = report.counterexample
        payload["counterexample"] = {"x": str(x), "y": str(y)}
        lines.append(f"  counterexample: x = {x}, y = {y}")
    return OK if report.verified else FAILED, payload, rows, lines


def _cmd_witness_search(args, group):
    pairs = search_witness_pairs(group, restrict_to_primes=args.primes)
    kind = "prime witness pairs" if args.primes else "witness pairs"
    if pairs:
        body = ", ".join(f"({a}, {b})" for a, b in pairs)
        line = f"{kind}: {body}"
    else:
        line = f"no {kind}"
    return (OK,
            {"primes_only": args.primes,
             "witness_pairs": [list(p) for p in pairs]},
            pairs, [line])


def _cmd_ppd(args):
    if args.large:
        ds = nt.lbpd(args.q, args.e) if args.basic else nt.lpd(args.q, args.e)
    else:
        ds = nt.bppd(args.q, args.e) if args.basic else nt.ppd(args.q, args.e)
    return (OK,
            {"flavor": ds.flavor, "q": ds.q.q, "e": ds.e,
             "primes": list(ds.primes), "square_entry": ds.square_entry},
            [ds.values() or ["empty"]], [f"{ds.flavor}({ds.q}, {ds.e}) = {ds}"])


def _cmd_zsigmondy_scan(args):
    mismatches = []
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
    lines = [f"zsigmondy scan q <= {args.qmax}, e <= {args.emax}: "
             f"{'OK' if not mismatches else 'MISMATCH'}"]
    lines += [f"  bppd({q}, {e}) empty: closed-form {closed}, "
              f"computed {computed}" for q, e, closed, computed in cells]
    payload = {"qmax": args.qmax, "emax": args.emax,
               "mismatches": [list(m[:2]) for m in mismatches],
               "empty_cells": [[q, e] for q, e, _, _ in cells]}
    return OK if not mismatches else FAILED, payload, cells, lines


def _cmd_alt_pair(args):
    p, q = nt.alternating_pair(args.m)
    return (OK, {"m": args.m, "p": p, "q": q}, [[p, q]],
            [f"alternating group on {args.m} points: witness primes "
             f"({p}, {q})"])


def _cmd_phi(args):
    value = nt.cyclotomic_value(args.k, args.q)
    return (OK, {"k": args.k, "q": args.q, "value": value}, [[value]],
            [f"Phi_{args.k}({args.q}) = {value}"])


def _cmd_verify_table(args):
    if args.table is None:
        table = load_shipped_table()
    else:
        with open(args.table, encoding="utf-8") as fh:
            table = parse_expected_table(fh.read())
    rows = [(res.row.group_label, res.row.a, res.row.b, res.status,
             res.reason) for res in verify_expected_table(table)]
    payload = {"rows": [{"group": g, "a": a, "b": b, "status": status,
                         "reason": reason}
                        for g, a, b, status, reason in rows]}
    lines = [f"{status:7s} {g} ({a}, {b})"
             + (f" ({reason})" if reason else "")
             for g, a, b, status, reason in rows]
    failed = any(row[3] == FAIL for row in rows)
    return FAILED if failed else OK, payload, rows, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvcrit",
        description="Solvability criteria and nonsolvable witness pairs "
                    "for finite permutation groups")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = []

    def command(subparsers, name, func, help_text, *ints, group=False):
        p = subparsers.add_parser(name, help=help_text)
        for dest in ints:
            p.add_argument(dest, type=int)
        p.set_defaults(func=func, takes_group=group)
        commands.append(p)
        return p

    command(sub, "order", _cmd_order, "group order", group=True)
    command(sub, "solvable", _cmd_solvable,
            "solvability via the derived series", group=True)
    command(sub, "spectrum", _cmd_spectrum, "element-order spectrum oe(G)",
            group=True)
    command(sub, "classes", _cmd_classes, "conjugacy classes", group=True)
    command(sub, "criterion", _cmd_criterion,
            "per-class-pair solvable-witness check", group=True)

    witness = sub.add_parser("witness", help="nonsolvable witness pairs")
    wsub = witness.add_subparsers(dest="witness_command", required=True)
    command(wsub, "verify", _cmd_witness_verify,
            "check one (a, b) order pair", "a", "b", group=True)
    command(wsub, "search", _cmd_witness_search, "search all verifying pairs",
            group=True).add_argument("--primes", action="store_true",
                                     help="distinct prime pairs only")

    ppd_p = command(sub, "ppd", _cmd_ppd,
                    "primitive prime divisors of q^e - 1", "q", "e")
    ppd_p.add_argument("--basic", action="store_true",
                       help="basic variant (divisors of p^(ke) - 1)")
    ppd_p.add_argument("--large", action="store_true",
                       help="large variant (primes above e+1, plus (e+1)^2)")
    command(sub, "zsigmondy-scan", _cmd_zsigmondy_scan,
            "cross-check the closed-form emptiness rule", "qmax", "emax")
    command(sub, "alt-pair", _cmd_alt_pair,
            "witness primes for the alternating group", "m")
    command(sub, "phi", _cmd_phi, "cyclotomic polynomial value Phi_k(q)",
            "k", "q")
    command(sub, "verify-table", _cmd_verify_table,
            "check an expected-outcomes table").add_argument(
        "table", nargs="?", default=None,
        help="table path (default: shipped sporadic table)")

    # after each command's own arguments, so --help lists them last
    for p in commands:
        if p.get_default("takes_group"):
            sel = p.add_mutually_exclusive_group(required=True)
            sel.add_argument("--group", help="catalog name, e.g. A5, S6, "
                                             "D10, C12, F20, psl2:7, M11")
            sel.add_argument("--file", help="path to a group-definition file")
        p.add_argument("--format", choices=("text", "tsv", "json"),
                       default="text")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, rows, lines = _run(args)
        if args.format == "json":
            lines = [json.dumps(payload, sort_keys=True)]
        elif args.format == "tsv":
            lines = ["\t".join(map(str, cells)) for cells in rows]
        for line in lines:
            print(line)
    except (ValueError, OSError, EnumerationCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
