"""Command line front end.

Five subcommands: ``boundary`` prints the boundary coefficients of a model,
``discrepancy`` the one-step discrepancies of every coordinate stratum,
``resolve`` runs the level-one fixup, ``certify`` the bounded-depth
terminality audit, and ``remark`` reproduces the built-in family whose
second cover degree stays undetermined.

Exit codes: 0 success / terminal-certified, 2 bad stratum or nonpositive
weighted discrepancy found, 3 verdict blocked by an undetermined degree or
by the probe budget, 1 usage or input errors.

``--out PATH`` additionally writes machine-readable JSON lines. The machine
output is canonical: keys sorted, no whitespace, rationals as [num, den]
pairs, LF line endings. Two runs on the same input produce identical bytes.
Each command writes ``--out`` one line at a time before printing anything,
and builds no machine output without ``--out``: a reader that closes stdout
early still gets the whole file, and the command exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from .discrepancy import (DiscrepancyReport, boundary_divisor,
                          stratum_discrepancies)
from .enumeration import DEFAULT_MAX_PROBES
from .model import IndeterminateDegreeError, Model
from .modelfile import ModelFormatError, load_model
from .resolution import (DEFAULT_DEPTH, DEFAULT_MAX_ROUNDS,
                         CompositionCheck, NonterminationError,
                         RemarkReport, ResolutionTree, TerminalityCertificate,
                         UnsupportedTorsionError, certify, level_one_fixup,
                         run_remark)

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_BAD_STRATUM = 2
_EXIT_INDETERMINATE = 3

_VERDICT_EXIT = {
    "terminal-certified": _EXIT_OK,
    "bad-stratum-found": _EXIT_BAD_STRATUM,
    "indeterminate": _EXIT_INDETERMINATE,
}

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _frac(value: Optional[Fraction]) -> Optional[List[int]]:
    if value is None:
        return None
    return [value.numerator, value.denominator]


def _report_json(report: DiscrepancyReport) -> Dict[str, Any]:
    return {
        "type": "report",
        "divisor": report.divisor_id,
        "level": report.level,
        "witness": [{"chart": step.chart_id, "center": list(step.center)}
                    for step in report.witness],
        "a": _frac(report.a),
        "monomial_order": report.degree.monomial_order,
        "candidates": list(report.degree.candidates),
        "determinate": report.degree.determinate,
        "entries": [
            {"e": entry.e, "b": _frac(entry.b), "weighted": _frac(entry.weighted)}
            for entry in report.entries
        ],
    }


def _certificate_json(cert: TerminalityCertificate) -> Dict[str, Any]:
    return {
        "type": "certificate",
        "verdict": cert.verdict,
        "level_checked": cert.level_checked,
        "min_weighted": _frac(cert.min_weighted),
        "min_witness": cert.min_witness,
        "level1_terminal": cert.level1_terminal,
        "complete": cert.complete,
        "fixup_rounds": cert.fixup_rounds,
        "bad_strata": [list(ids) for ids in cert.bad_strata],
        "indeterminate": list(cert.indeterminate_divisors),
        "side_conditions": {
            "level1_b_nonnegative": cert.side_conditions.level1_b_nonnegative,
            "exceptional_b_nonnegative":
                cert.side_conditions.exceptional_b_nonnegative,
            "one_step_a_nonnegative":
                cert.side_conditions.one_step_a_nonnegative,
            "failures": list(cert.side_conditions.failures),
        },
    }


def _tree_json(tree: ResolutionTree) -> Iterator[Dict[str, Any]]:
    yield {"type": "fixup", "root": tree.root, "rounds": tree.rounds}
    for edge in tree.edges:
        yield {
            "type": "edge",
            "parent": edge.parent,
            "child": edge.child,
            "center": list(edge.center),
            "exceptional": edge.exceptional,
            "kind": "fixup",
        }
    yield {"type": "leaves", "charts": list(tree.leaves)}


def _composition_json(check: CompositionCheck) -> Dict[str, Any]:
    def condition(cond) -> Dict[str, Any]:
        return {"name": cond.name, "value": _frac(cond.value), "ok": cond.ok}

    return {
        "type": "composition",
        "divisor": check.divisor_id,
        "lambda": _frac(check.lam),
        "premises": [condition(c) for c in check.premises],
        "side_conditions": [condition(c) for c in check.side_conditions],
        "candidates": [
            {"e": c.e, "b": _frac(c.b_on_base), "weighted": _frac(c.weighted),
             "ok": c.ok}
            for c in check.candidates
        ],
        "passed": check.passed,
    }


def _remark_json(report: RemarkReport) -> Iterator[Dict[str, Any]]:
    yield {
        "type": "remark",
        "boundary": [
            {"divisor": divisor, "coefficient": _frac(coeff)}
            for divisor, coeff in report.boundary
        ],
        "b_e": _frac(report.b_e),
        "a_f_on_x": _frac(report.a_f_on_x),
        "a_f_on_y": _frac(report.a_f_on_y),
        "monomial_order": report.monomial_e_f,
        "candidates": [
            {"e": c.e_f, "b_on_y": _frac(c.b_f_on_y),
             "b_on_x": _frac(c.b_f_on_x), "weighted": _frac(c.weighted),
             "additive": c.additivity_ok, "obstruction": c.obstruction}
            for c in report.candidates
        ],
        "verdict": report.verdict,
    }
    yield _report_json(report.first_report)
    yield _composition_json(report.composition)


def _write_machine(path: Optional[str], lines: Iterable[Dict[str, Any]]) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in lines:
            handle.write(_ENCODER.encode(line))
            handle.write("\n")


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    out = ["  ".join(h.ljust(widths[k]) for k, h in enumerate(headers))]
    for row in rows:
        out.append("  ".join(cell.ljust(widths[k]) for k, cell in enumerate(row)))
    return "\n".join(out)


def _load(args: argparse.Namespace) -> Model:
    result = load_model(args.model)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return result.model


def cmd_boundary(args: argparse.Namespace) -> int:
    model = _load(args)
    extra_degrees = {comp.origin_id: comp.degree for comp in model.extras}
    divisors = [
        (divisor_id, extra_degrees.get(divisor_id, 1),
         model.cover_on(slot).value, coeff)
        for slot, (divisor_id, coeff)
        in enumerate(boundary_divisor(model).coefficients)
    ]
    # every divisor of a loaded root chart is original
    _write_machine(args.out, (
        {"type": "boundary", "divisor": divisor_id, "kind": "original",
         "extra_degree": extra, "e": e, "coefficient": _frac(coeff)}
        for divisor_id, extra, e, coeff in divisors
    ))
    print(_table(("divisor", "kind", "extra", "e", "coefficient"), [
        (divisor_id, "original", str(extra), str(e), str(coeff))
        for divisor_id, extra, e, coeff in divisors
    ]))
    return _EXIT_OK


def cmd_discrepancy(args: argparse.Namespace) -> int:
    reports = stratum_discrepancies(_load(args))
    _write_machine(args.out, map(_report_json, reports))
    rows = []
    for report in reports:
        center = ",".join(report.witness[0].center)
        for entry in report.entries:
            rows.append((center, report.divisor_id, str(report.a),
                         str(entry.e), str(entry.b), str(entry.weighted)))
    print(_table(("center", "divisor", "a", "e", "b", "e*b"), rows))
    if any(r.determinate and r.worst_weighted() <= 0 for r in reports):
        return _EXIT_BAD_STRATUM
    if any(not r.determinate for r in reports):
        return _EXIT_INDETERMINATE
    return _EXIT_OK


def cmd_resolve(args: argparse.Namespace) -> int:
    model = _load(args)
    result = level_one_fixup(model, max_rounds=args.max_rounds)
    tree = result.tree
    _write_machine(args.out, _tree_json(tree))
    print(f"fixup rounds: {tree.rounds}")
    if tree.edges:
        rows = [
            (edge.parent, edge.child, ",".join(edge.center), edge.exceptional)
            for edge in tree.edges
        ]
        print(_table(("parent", "child", "center", "exceptional"), rows))
    print("leaves: " + " ".join(tree.leaves))
    return _EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    model = _load(args)
    cert = certify(model, depth=args.depth, fixup=not args.no_fixup,
                   max_rounds=args.max_rounds, max_probes=args.max_probes)
    _write_machine(args.out, chain(
        map(_certificate_json, [cert]),
        map(_report_json, cert.reports),
        () if cert.tree is None else _tree_json(cert.tree),
    ))
    print(f"verdict: {cert.verdict}")
    print(f"levels checked: {cert.level_checked}")
    if not cert.complete:
        print("incomplete: the probe budget ran out, so nothing is certified "
              "beyond the levels it reached")
    print(f"fixup rounds: {cert.fixup_rounds}")
    if cert.bad_strata:
        strata_text = " ".join(",".join(ids) for ids in cert.bad_strata)
        print(f"bad strata at base: {strata_text}")
    if cert.min_weighted is not None:
        print(f"min weighted discrepancy: {cert.min_weighted} "
              f"at {cert.min_witness}")
    print(f"level-1 terminal: {'yes' if cert.level1_terminal else 'no'}")
    if cert.indeterminate_divisors:
        print("indeterminate degrees on: "
              + " ".join(cert.indeterminate_divisors))
    if cert.side_conditions.failures:
        failures = cert.side_conditions.failures
        for failure in failures[:5]:
            print(f"side condition failed: {failure}")
        if len(failures) > 5:
            print(f"... and {len(failures) - 5} more side condition failures")
    rows = []
    for report in cert.reports:
        for entry in report.entries:
            rows.append((report.divisor_id, str(report.level), str(report.a),
                         str(entry.e), str(entry.b), str(entry.weighted)))
    print(_table(("divisor", "level", "a", "e", "b", "e*b"), rows))
    return _VERDICT_EXIT[cert.verdict]


def cmd_remark(args: argparse.Namespace) -> int:
    report = run_remark()
    _write_machine(args.out, _remark_json(report))
    print("boundary: " + "  ".join(
        f"{divisor}={coeff}" for divisor, coeff in report.boundary
    ))
    first = report.first_report
    print(f"first blow-up: {first.divisor_id} with e={first.entries[0].e}, "
          f"b={report.b_e}")
    print(f"second blow-up: monomial order {report.monomial_e_f}, "
          f"degree candidates {list(report.e_f.candidates)}")
    print(f"a on base: {report.a_f_on_x}; one-step a: {report.a_f_on_y}")
    rows = [
        (str(c.e_f), str(c.b_f_on_y), str(c.b_f_on_x), str(c.weighted),
         "yes" if c.additivity_ok else "no",
         c.obstruction or "-")
        for c in report.candidates
    ]
    print(_table(("e", "b on Y", "b on X", "e*b", "additive", "obstruction"),
                 rows))
    for condition in report.composition.side_conditions:
        if condition.ok is False:
            print(f"side condition failed: {condition.name} "
                  f"= {condition.value}")
    print(f"verdict: {report.verdict}")
    return _VERDICT_EXIT[report.verdict]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared afterwards.

    ``parse_args`` fills a fresh namespace on every call and the help width
    is read when help is printed, so repeated ``main`` calls in one process
    see the same parser without sharing state.
    """
    parser = argparse.ArgumentParser(
        prog="brauer-terminal",
        description="Terminality analysis of Brauer pairs on SNC charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, needs_model: bool = True) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name)
        if needs_model:
            cmd.add_argument("--model", required=True,
                             help="path to a model file")
        cmd.add_argument("--out", default=None,
                         help="write machine-readable JSON lines here")
        cmd.set_defaults(handler=handler)
        return cmd

    add("boundary", cmd_boundary)
    add("discrepancy", cmd_discrepancy)
    resolve = add("resolve", cmd_resolve)
    resolve.add_argument("--max-rounds", type=_positive_int,
                         default=DEFAULT_MAX_ROUNDS)
    cert = add("certify", cmd_certify)
    cert.add_argument("--depth", type=_positive_int, default=DEFAULT_DEPTH)
    cert.add_argument("--max-rounds", type=_positive_int,
                      default=DEFAULT_MAX_ROUNDS)
    cert.add_argument("--max-probes", type=_positive_int,
                      default=DEFAULT_MAX_PROBES,
                      help="blow-up budget of the enumeration")
    cert.add_argument("--no-fixup", action="store_true",
                      help="skip the level-one fixup before certification")
    add("remark", cmd_remark, needs_model=False)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_OK if exc.code == 0 else _EXIT_ERROR
    try:
        return args.handler(args)
    except IndeterminateDegreeError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return _EXIT_INDETERMINATE
    except (ModelFormatError, NonterminationError, UnsupportedTorsionError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
