"""Command line front end.

Commands:
  compute   write table.csv and bounds.txt
  figure    write figure.svg and figure.dat
  bounds    print the bounds summary to stdout
  formula   parse one chemical formula and print its composition
  validate  check a records file (and optional constants file)

Exit codes: 0 success, 1 validation problem, 2 I/O failure or a usage
error reported by argparse (unknown command or option, bad value).  Output
files are written to a temporary name and renamed into place, so a
failing run never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .catalog import embedded_catalog, parse_records, rank
from .errors import CatalogError, Diagnostic, StfomError
from .fom import evaluate_catalog
from .formula import (
    molar_mass,
    nuclei_per_formula,
    parse_formula,
)
from .quantities import Constants, load_constants
from .report import (
    build_figure_points,
    emit_bounds_summary,
    emit_figure,
    emit_table,
    format_sig,
)


def _read_text(path: Path) -> str:
    """Read an input file as UTF-8; a leading byte order mark is dropped."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CatalogError((
            Diagnostic(0, "file", "BadEncoding",
                       f"{path} is not UTF-8 text: {exc.reason} "
                       f"at byte offset {exc.start}"),
        )) from None


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file of its own in path's directory.

    The temporary name is unique to the call, so concurrent runs on one
    --out never share it, and it is removed if anything fails before the
    rename.  It is created with mode 0o666 less the umask, as an ordinary
    file is; tempfile.mkstemp would leave the output readable by its owner
    only.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_outputs(out: Path, files: dict[str, str]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        _write_atomic(out / name, text)


def cmd_compute(args, catalog, constants, results) -> int:
    ranked = rank(catalog, results, args.filter)
    _write_outputs(args.out, {
        "table.csv": emit_table(ranked, results),
        "bounds.txt": emit_bounds_summary(catalog, results, constants=constants,
                                          which=args.filter),
    })
    print(f"wrote table.csv ({len(ranked)} rows) and bounds.txt to {args.out}")
    return 0


def cmd_figure(args, catalog, constants, results) -> int:
    points = build_figure_points(rank(catalog, results, args.filter), results, args.k)
    svg_text, data_text = emit_figure(points)
    _write_outputs(args.out, {"figure.svg": svg_text, "figure.dat": data_text})
    print(f"wrote figure.svg and figure.dat ({len(points)} points) to {args.out}")
    return 0


def cmd_bounds(args, catalog, constants, results) -> int:
    sys.stdout.write(
        emit_bounds_summary(catalog, results, constants=constants, which=args.filter)
    )
    return 0


def cmd_formula(text: str) -> int:
    formula = parse_formula(text)
    terms = " ".join(f"{symbol}:{count}" for symbol, count in formula.terms)
    print(f"terms: {terms}")
    print(f"M = {format_sig(molar_mass(formula), 4)} kg/mol")
    print(f"nuclei = {nuclei_per_formula(formula)}")
    if formula.charge_ignored:
        print("charge token ignored")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stfom",
        description="Force-noise figures of merit and diffusion-model bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io_parent = argparse.ArgumentParser(add_help=False)
    io_parent.add_argument("--records", type=Path, default=None,
                           help="records CSV (default: embedded catalog)")
    io_parent.add_argument("--constants", type=Path, default=None,
                           help="constants override file")
    filter_parent = argparse.ArgumentParser(add_help=False)
    filter_parent.add_argument("--filter", choices=("all", "absolute-on-earth"),
                               default="all",
                               help="record subset to analyse")
    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument("--out", type=Path, default=Path("."),
                            help="output directory")

    sub.add_parser("compute", parents=[io_parent, filter_parent, out_parent],
                   help="write table.csv and bounds.txt")
    figure_parser = sub.add_parser(
        "figure", parents=[io_parent, filter_parent, out_parent],
        help="write figure.svg and figure.dat",
    )
    figure_parser.add_argument("--k", type=_positive_int, default=3,
                               help="points kept per category")
    sub.add_parser("bounds", parents=[io_parent, filter_parent],
                   help="print the bounds summary")
    formula_parser = sub.add_parser("formula", help="inspect a chemical formula")
    formula_parser.add_argument("text", help="formula, e.g. Si3N4")
    sub.add_parser("validate", parents=[io_parent],
                   help="check input files and report problems")
    return parser


# Each record command takes the parsed arguments, the loaded inputs and
# the evaluated results; main does the loading, evaluation and warnings.
_RECORD_COMMANDS = {"compute": cmd_compute, "figure": cmd_figure,
                    "bounds": cmd_bounds}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "formula":
            return cmd_formula(args.text)
        catalog = (embedded_catalog() if args.records is None
                   else parse_records(_read_text(args.records)))
        constants = (Constants() if args.constants is None
                     else load_constants(_read_text(args.constants)))
        if args.command == "validate":
            print(f"ok: {len(catalog)} records")
            return 0
        results = evaluate_catalog(catalog, constants=constants)
        for result in results.values():
            for warning in result.warnings:
                print(f"warning: {warning}", file=sys.stderr)
        return _RECORD_COMMANDS[args.command](args, catalog, constants, results)
    except CatalogError as exc:
        for diagnostic in exc.diagnostics:
            print(str(diagnostic), file=sys.stderr)
        return 1
    except StfomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
