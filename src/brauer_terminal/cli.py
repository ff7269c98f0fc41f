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
Every line is a dict through one ``json.JSONEncoder(sort_keys=True,
separators=(",", ":"))``, except the ``report`` lines, which can number
hundreds of thousands: one writer, ``_report_lines``, puts them together
from fragments shared between reports, and its text equals that encoder's
on the report's dict. Each command writes ``--out`` one line at a time
before printing anything, and builds no machine output without ``--out``:
a reader that closes stdout early still gets the whole file, and the
command exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from itertools import chain, starmap
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from .discrepancy import (DiscrepancyReport, WitnessStep, b_from_a,
                          boundary_divisor, stratum_discrepancies)
from .enumeration import DEFAULT_MAX_PROBES
from .model import IndeterminateDegreeError, Model
from .modelfile import ModelFormatError, load_model
from .resolution import (DEFAULT_DEPTH, DEFAULT_MAX_ROUNDS,
                         CompositionCheck, NonterminationError, ResolutionTree,
                         TerminalityCertificate, UnsupportedTorsionError,
                         certify, level_one_fixup, remark_model, run_remark)

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
_encode_string = json.encoder.encode_basestring_ascii
# table rows per write: no string of the whole table is held
_TABLE_CHUNK = 4096


def _frac(value: Optional[Fraction]) -> Optional[List[int]]:
    if value is None:
        return None
    return [value.numerator, value.denominator]


def _fraction_text(value: Fraction) -> str:
    return f"[{value.numerator},{value.denominator}]"


def _step_text(step: WitnessStep) -> str:
    center = ",".join(map(_encode_string, step.center))
    return f'{{"center":[{center}],"chart":{_encode_string(step.chart_id)}}}'


def _report_lines(reports: Iterable[DiscrepancyReport]) -> Iterator[str]:
    """The ``report`` line of each report, as ``_ENCODER`` writes its dict.

    A line is put together from fragments, each with its keys in sorted
    order, and every string is escaped to ASCII as the encoder does (a
    label may hold non-ASCII word characters). The texts of the witness
    steps that a report shares with the report before it are reused: walks
    hand reports over in witness order, and shared steps are one object.
    a, the candidates and ``determinate`` follow from the entries tuple,
    which reports share, so there is one text per (monomial order, entries
    tuple); the tuple is held, so its id stays valid. Nothing is kept per
    report or per degree object.
    """
    fragments: Dict[Tuple[int, int], Tuple[Any, str, str, str]] = {}
    witness: Tuple[WitnessStep, ...] = ()
    steps: List[str] = []
    for report in reports:
        entries, order = report.entries, report.degree.monomial_order
        held = fragments.get((order, id(entries)))
        if held is None:
            candidates = ",".join(str(entry.e) for entry in entries)
            rows = ",".join(
                f'{{"b":{_fraction_text(entry.b)},"e":{entry.e},'
                f'"weighted":{_fraction_text(entry.weighted)}}}'
                for entry in entries)
            held = fragments[order, id(entries)] = (
                entries,
                f'{{"a":{_fraction_text(report.a)},'
                f'"candidates":[{candidates}],'
                f'"determinate":{"true" if len(entries) == 1 else "false"},'
                f'"divisor":',
                f',"entries":[{rows}],"level":',
                f',"monomial_order":{order},"type":"report","witness":[')
        _, head, middle, tail = held
        route, shared = report.witness, 0
        for step, before in zip(route, witness):
            if step is not before:
                break
            shared += 1
        del steps[shared:]
        steps.extend(map(_step_text, route[shared:]))
        witness = route
        yield (f'{head}{_encode_string(report.divisor_id)}{middle}'
               f'{report.level}{tail}{",".join(steps)}]}}')


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

    final = check.reports[-1]
    return {
        "type": "composition",
        "divisor": final.divisor_id,
        "lambda": _frac(check.lam),
        "premises": [condition(c) for c in check.premises],
        "side_conditions": [condition(c) for c in check.side_conditions],
        "candidates": [
            {"e": c.e, "b": _frac(c.b), "weighted": _frac(c.weighted),
             "ok": c.b >= check.lam}
            for c in final.entries
        ],
        "passed": check.passed,
    }


def _remark_json(check: CompositionCheck,
                 boundary: Sequence[Tuple[str, Fraction]], rows: List[tuple],
                 verdict: str) -> Iterator[Union[str, Dict[str, Any]]]:
    first, final = check.reports[0], check.reports[-1]
    yield {
        "type": "remark",
        "boundary": [
            {"divisor": divisor, "coefficient": _frac(coeff)}
            for divisor, coeff in boundary
        ],
        "b_e": _frac(first.entries[0].b),
        "a_f_on_x": _frac(final.a),
        "a_f_on_y": _frac(check.side_conditions[-1].value),
        "monomial_order": final.degree.monomial_order,
        "candidates": [
            {"e": entry.e, "b_on_y": _frac(b_on_y), "b_on_x": _frac(entry.b),
             "weighted": _frac(entry.weighted), "additive": additive,
             "obstruction": obstruction}
            for entry, b_on_y, additive, obstruction in rows
        ],
        "verdict": verdict,
    }
    yield from _report_lines((first,))
    yield _composition_json(check)


def _write_machine(path: Optional[str],
                   lines: Iterable[Union[str, Dict[str, Any]]]) -> None:
    """Write each line to ``path``: a dict through ``_ENCODER``, a str (a
    ``report`` line) as it is."""
    if path is None:
        return
    encode = _ENCODER.encode
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        write = handle.write
        for line in lines:
            write(line if isinstance(line, str) else encode(line))
            write("\n")


def _print_table(headers: Sequence[str],
                 rows: Sequence[Sequence[str]]) -> None:
    """Print the rows under the headers, each cell padded to the width of
    its column's widest cell and the cells joined by two spaces."""
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    line = "  ".join(f"{{:<{width}}}" for width in widths) + "\n"
    write = sys.stdout.write
    write(line.format(*headers))
    for start in range(0, len(rows), _TABLE_CHUNK):
        write("".join(starmap(line.format, rows[start:start + _TABLE_CHUNK])))


def _report_rows(reports: Iterable[DiscrepancyReport],
                 lead: Callable[[DiscrepancyReport], Tuple[str, ...]]
                 ) -> List[Tuple[str, ...]]:
    """One table row per entry of each report: the cells ``lead`` gives the
    report, then a, e, b and e*b. The cells of a shared entries tuple are
    taken once; the tuple is held, so its id stays valid."""
    cells: Dict[int, Tuple[Any, List[Tuple[str, ...]]]] = {}
    rows = []
    for report in reports:
        entries = report.entries
        held = cells.get(id(entries))
        if held is None:
            a = str(report.a)
            held = cells[id(entries)] = (entries, [
                (a, str(entry.e), str(entry.b), str(entry.weighted))
                for entry in entries])
        first = lead(report)
        rows.extend([first + tail for tail in held[1]])
    return rows


def _verdict(reports: Sequence[DiscrepancyReport]) -> str:
    """The verdict of reports: ``bad-stratum-found`` if a determinate one
    has e*b <= 0, else ``indeterminate`` if a degree is undetermined, else
    ``terminal-certified``."""
    if any(r.determinate and r.worst_weighted() <= 0 for r in reports):
        return "bad-stratum-found"
    if any(not r.determinate for r in reports):
        return "indeterminate"
    return "terminal-certified"


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
        in enumerate(boundary_divisor(model))
    ]
    # every divisor of a loaded root chart is original
    _write_machine(args.out, (
        {"type": "boundary", "divisor": divisor_id, "kind": "original",
         "extra_degree": extra, "e": e, "coefficient": _frac(coeff)}
        for divisor_id, extra, e, coeff in divisors
    ))
    _print_table(("divisor", "kind", "extra", "e", "coefficient"), [
        (divisor_id, "original", str(extra), str(e), str(coeff))
        for divisor_id, extra, e, coeff in divisors
    ])
    return _EXIT_OK


def cmd_discrepancy(args: argparse.Namespace) -> int:
    reports = stratum_discrepancies(_load(args))
    _write_machine(args.out, _report_lines(reports))
    _print_table(("center", "divisor", "a", "e", "b", "e*b"), _report_rows(
        reports, lambda r: (",".join(r.witness[0].center), r.divisor_id)))
    return _VERDICT_EXIT[_verdict(reports)]


def cmd_resolve(args: argparse.Namespace) -> int:
    model = _load(args)
    tree = level_one_fixup(model, max_rounds=args.max_rounds)
    _write_machine(args.out, _tree_json(tree))
    print(f"fixup rounds: {tree.rounds}")
    if tree.edges:
        rows = [
            (edge.parent, edge.child, ",".join(edge.center), edge.exceptional)
            for edge in tree.edges
        ]
        _print_table(("parent", "child", "center", "exceptional"), rows)
    print("leaves: " + " ".join(tree.leaves))
    return _EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    model = _load(args)
    cert = certify(model, depth=args.depth, fixup=not args.no_fixup,
                   max_rounds=args.max_rounds, max_probes=args.max_probes)
    _write_machine(args.out, chain(
        map(_certificate_json, [cert]),
        _report_lines(cert.reports),
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
    _print_table(("divisor", "level", "a", "e", "b", "e*b"), _report_rows(
        cert.reports, lambda r: (r.divisor_id, str(r.level))))
    return _VERDICT_EXIT[cert.verdict]


def cmd_remark(args: argparse.Namespace) -> int:
    check = run_remark()
    first, final = check.reports[0], check.reports[-1]
    boundary = boundary_divisor(remark_model())
    b_e, a_on_y = first.entries[0].b, check.side_conditions[-1].value
    # per candidate degree e of F: its entry, b(F,Y), whether
    # b(F,X) = b(F,Y) + b(E,X), and the obstruction if e*b <= 0
    rows = []
    for entry in final.entries:
        b_on_y = None if a_on_y is None else b_from_a(a_on_y, entry.e)
        rows.append((entry, b_on_y,
                     b_on_y is not None and entry.b == b_on_y + b_e,
                     None if entry.weighted > 0 else
                     f"degree {entry.e} gives weighted discrepancy "
                     f"{entry.weighted}, terminality fails"))
    verdict = _verdict((final,))
    _write_machine(args.out, _remark_json(check, boundary, rows, verdict))
    print("boundary: " + "  ".join(
        f"{divisor}={coeff}" for divisor, coeff in boundary
    ))
    print(f"first blow-up: {first.divisor_id} with e={first.entries[0].e}, "
          f"b={b_e}")
    print(f"second blow-up: monomial order {final.degree.monomial_order}, "
          f"degree candidates {list(final.degree.candidates)}")
    print(f"a on base: {final.a}; one-step a: {a_on_y}")
    _print_table(("e", "b on Y", "b on X", "e*b", "additive", "obstruction"), [
        (str(entry.e), str(b_on_y), str(entry.b), str(entry.weighted),
         "yes" if additive else "no", obstruction or "-")
        for entry, b_on_y, additive, obstruction in rows
    ])
    for condition in check.side_conditions:
        if condition.ok is False:
            print(f"side condition failed: {condition.name} "
                  f"= {condition.value}")
    print(f"verdict: {verdict}")
    return _VERDICT_EXIT[verdict]


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
