"""Command line front end.

Commands:
  compute   write table.csv and bounds.txt
  figure    write figure.svg and figure.dat
  bounds    print the bounds summary to stdout
  formula   parse one chemical formula and print its composition
  validate  check a records file (and optional constants file)

Exit codes: 0 success, 1 validation problem, 2 I/O failure.  Output
files are written to a temporary name and renamed into place, so a
failing run never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .catalog import (
    Catalog,
    RecordFilter,
    embedded_catalog,
    parse_records,
    rank,
)
from .errors import CatalogError, StfomError
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


@dataclass(frozen=True)
class RunConfig:
    """Resolved inputs for one command invocation."""

    records_path: Path | None = None
    constants_path: Path | None = None
    k_per_category: int = 3
    record_filter: RecordFilter = "all"
    output_dir: Path = Path(".")


def _load_catalog(cfg: RunConfig) -> Catalog:
    if cfg.records_path is None:
        return embedded_catalog()
    return parse_records(cfg.records_path.read_text(encoding="utf-8"))


def _load_constants(cfg: RunConfig) -> Constants:
    if cfg.constants_path is None:
        return Constants()
    return load_constants(cfg.constants_path.read_text(encoding="utf-8"))


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


def _print_warnings(results) -> None:
    for result in results.values():
        for warning in result.warnings:
            print(f"warning: {warning}", file=sys.stderr)


def cmd_compute(cfg: RunConfig) -> int:
    catalog = _load_catalog(cfg)
    constants = _load_constants(cfg)
    results = evaluate_catalog(catalog, constants=constants)
    _print_warnings(results)

    filtered = Catalog(tuple(rank(catalog, results, cfg.record_filter)))
    table_text = emit_table(filtered, results)
    bounds_text = emit_bounds_summary(
        catalog, results, constants=constants, which=cfg.record_filter
    )

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(cfg.output_dir / "table.csv", table_text)
    _write_atomic(cfg.output_dir / "bounds.txt", bounds_text)
    print(f"wrote table.csv ({len(filtered)} rows) and bounds.txt to {cfg.output_dir}")
    return 0


def cmd_figure(cfg: RunConfig) -> int:
    catalog = _load_catalog(cfg)
    constants = _load_constants(cfg)
    results = evaluate_catalog(catalog, constants=constants)
    _print_warnings(results)

    filtered = Catalog(tuple(rank(catalog, results, cfg.record_filter)))
    points = build_figure_points(filtered, results, cfg.k_per_category)
    svg_text, data_text = emit_figure(points)

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(cfg.output_dir / "figure.svg", svg_text)
    _write_atomic(cfg.output_dir / "figure.dat", data_text)
    shown = sum(1 for p in points if p.in_figure)
    print(f"wrote figure.svg and figure.dat ({shown} points) to {cfg.output_dir}")
    return 0


def cmd_bounds(cfg: RunConfig) -> int:
    catalog = _load_catalog(cfg)
    constants = _load_constants(cfg)
    results = evaluate_catalog(catalog, constants=constants)
    _print_warnings(results)
    sys.stdout.write(
        emit_bounds_summary(catalog, results, constants=constants,
                            which=cfg.record_filter)
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


def cmd_validate(cfg: RunConfig) -> int:
    catalog = _load_catalog(cfg)
    _load_constants(cfg)
    print(f"ok: {len(catalog)} records")
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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "formula":
            return cmd_formula(args.text)
        cfg = RunConfig(
            records_path=args.records,
            constants_path=args.constants,
            k_per_category=getattr(args, "k", 3),
            record_filter=getattr(args, "filter", "all"),
            output_dir=getattr(args, "out", Path(".")),
        )
        handler = {
            "compute": cmd_compute,
            "figure": cmd_figure,
            "bounds": cmd_bounds,
            "validate": cmd_validate,
        }[args.command]
        return handler(cfg)
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
