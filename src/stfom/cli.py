"""Command line front end: compute, figure, bounds, formula and validate.

Each cmd_* handler returns its text for stdout; main alone writes the
streams and picks the exit code: 0 success, 1 a validation problem, 2 when
an input, an output file, stdout or stderr cannot be read or written, or a
usage error from argparse (unknown command or option, bad value).  Every
output file is written before any is renamed into place, so a failed write
replaces none; a failed rename can leave an earlier one replaced.

Each record command is one pass over the records, and no command holds
the catalog or a result per record: validate parses and counts them, and
_evaluate parses, checks and evaluates each in turn for the others,
hands it to what the command keeps for its output, and drops it.  This
module only opens a records file: catalog._checked_records decodes,
splits, parses and checks its binary lines in one loop.

_COMMANDS and _ARGUMENTS state the grammar of the command line once.
_build_parser builds the argparse parser from them, and _read_argv reads a
plain command line from them without importing argparse: the command, its
positional, then full-spelled options each with its value.  Every other
command line (--help, an abbreviation, --opt=value, a bad value, an
unknown command) goes to the parser, so its messages and exit codes are
argparse's own.
"""

from __future__ import annotations

import os
import struct
import sys
from bisect import insort
from pathlib import Path
from types import SimpleNamespace
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, get_args

# bench/tracing.py wraps nine of these names on stfom.cli, used here or not.
from .catalog import (
    ExperimentRecord,
    RecordFilter,
    _checked_records,
    _decoded_lines,
    _on_earth,
    embedded_catalog,
    parse_records,
    rank,
)
from .errors import CatalogError, OutOfRangeError, StfomError
from .fom import FomResult, evaluate_catalog, evaluate_record
from .formula import molar_mass, nuclei_per_formula, parse_formula
from .quantities import _DEFAULT_CONSTANTS, Constants, load_constants
from .report import (
    _TABLE_HEADER_LINE,
    _Tally,
    _table_row,
    build_figure_points,
    emit_bounds_summary,
    emit_figure,
    emit_table,
    format_sig,
)

_pack_fom = struct.Struct(">d").pack


def _write_outputs(out: Path, files: dict[str, Iterable[bytes]]) -> None:
    """Write every file to a temporary file in out, then rename each into place.

    A file's value is its bytes, as chunks each written as it is taken, so
    a large file need not be held in memory as one object.  The files are
    opened in binary, so every byte reaches the file as given: no "\n"
    becomes os.linesep.  The temporary names are unique to the call, so
    concurrent runs on one --out never share one; those not yet renamed
    are removed on failure, also when taking a chunk fails.  Their mode is
    0o666 less the umask, as for an ordinary file (not 0o600).
    """
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{os.getpid()}.{os.urandom(6).hex()}"
    tmps = {name: out / f".{name}.{tag}.tmp" for name in files}
    try:
        for name, chunks in files.items():
            fd = os.open(tmps[name], os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            with open(fd, "wb") as fh:
                fh.writelines(chunks)
        for name in files:
            os.replace(tmps[name], out / name)
            del tmps[name]
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        raise


def _write(name: str, text: str) -> None:
    """Write and flush text to sys.<name>, which is None if the process
    started with it closed ("stfom bounds >&-").  A stream that fails is
    closed, dropping its text, or the interpreter would fail again at exit
    and exit 120.  Text the stream's encoding cannot spell is an OSError
    too; the stream encodes all of it before it writes any, so it stays
    open."""
    if text:
        stream = getattr(sys, name)
        if stream is None or stream.closed:
            raise OSError(f"{name} is closed")
        try:
            stream.write(text)
            stream.flush()
        except UnicodeEncodeError as exc:
            raise OSError(f"{name}: {exc}") from None
        except OSError:
            stream.close()  # flushes, so it may raise the same error, but closes
            raise


def _records(args) -> Iterator[ExperimentRecord]:
    """Each record of the records file args names, read, decoded, parsed
    and checked by _checked_records as it is asked for; or of the embedded
    catalog."""
    if args.records is None:
        yield from embedded_catalog()
        return
    with open(args.records, "rb") as fh:
        yield from _checked_records(fh, args.records)


def _constants(args) -> Constants:
    """The constants args names, or the defaults.  When they cannot be
    read, the records are read through before the error is raised, so a
    problem of the records file is still the one reported."""
    if args.constants is None:
        return _DEFAULT_CONSTANTS
    try:
        with open(args.constants, "rb") as fh:
            return load_constants("".join(_decoded_lines(fh, args.constants)))
    except (StfomError, OSError):
        for _ in _records(args):
            pass
        raise


def _evaluate(args, keep: Callable[[ExperimentRecord, FomResult], object]) -> Constants:
    """Evaluate each record of args in file order, hand it and its result
    to keep, and drop it; then write every warning to stderr in one write
    and return the constants.

    The first record that cannot be evaluated stops the evaluation, but
    its error is raised only once the rest of the records is read and
    checked, so a later problem of the file is the one reported.
    """
    constants = _constants(args)
    warnings: list[str] = []
    error = None
    for record in _records(args):
        if error is None:
            try:
                result = evaluate_record(record, constants)
            except OutOfRangeError as exc:
                error = exc
                continue
            keep(record, result)
            warnings += result.warnings
    if error is not None:
        raise error
    # One write: on an unbuffered stderr each print is two syscalls.
    _write("stderr", "".join([f"warning: {warning}\n" for warning in warnings]))
    return constants


def cmd_compute(args) -> str:
    tally = _Tally()
    every = args.filter == "all"
    # Each shown row as one bytes object: its FOM as a big-endian double,
    # then its name, a NUL and its line of table.csv in UTF-8.
    rows: list[bytes] = []

    def keep(record, result):
        tally.add(record, result)
        if every or _on_earth(record):
            rows.append(_pack_fom(result.fom) + f"{record.name}\0"
                        f"{_table_row(record, result)}".encode())

    constants = _evaluate(args, keep)
    # The summary can refuse the constants, so it is built before any file
    # is opened.
    bounds_text = tally.summary(constants, args.filter)
    # Sorting the bytes sorts the rows by (fom, name), as rank does:
    # evaluate_record makes every FOM a finite double > 0, and those order
    # as their big-endian bytes; a name holds no NUL (_is_xml_text refuses
    # it) and UTF-8 keeps code-point order, so a name sorts before every
    # longer name it begins; and names are unique, so no line is compared.
    rows.sort()
    table = chain((_TABLE_HEADER_LINE.encode(),), (row[row.index(0, 8) + 1:] for row in rows))
    _write_outputs(args.out, {"table.csv": table, "bounds.txt": (bounds_text.encode(),)})
    return f"wrote table.csv ({len(rows)} rows) and bounds.txt to {args.out}\n"


def cmd_figure(args) -> str:
    k, every = args.k, args.filter == "all"
    # The k least (fom, name, record, result) of each category, in order.
    kept: dict[str, list[tuple[float, str, ExperimentRecord, FomResult]]] = {}

    def keep(record, result):
        if every or _on_earth(record):
            best = kept.setdefault(record.category, [])
            entry = (result.fom, record.name, record, result)
            if len(best) < k or entry < best[-1]:
                insort(best, entry)
                del best[k:]

    _evaluate(args, keep)
    chosen = sorted(entry for best in kept.values() for entry in best)
    points = build_figure_points([entry[2] for entry in chosen],
                                 {entry[1]: entry[3] for entry in chosen}, k)
    svg_text, data_text = emit_figure(points)
    _write_outputs(args.out, {"figure.svg": (svg_text.encode(),),
                              "figure.dat": (data_text.encode(),)})
    return f"wrote figure.svg and figure.dat ({len(points)} points) to {args.out}\n"


def cmd_bounds(args) -> str:
    tally = _Tally()
    constants = _evaluate(args, tally.add)
    return tally.summary(constants, args.filter)


def cmd_formula(args) -> str:
    formula = parse_formula(args.text)
    terms = " ".join(f"{symbol}:{count}" for symbol, count in formula.terms)
    return (f"terms: {terms}\n"
            f"M = {format_sig(molar_mass(formula), 4)} kg/mol\n"
            f"nuclei = {nuclei_per_formula(formula)}\n"
            + ("charge token ignored\n" if formula.charge_ignored else ""))


def cmd_validate(args) -> str:
    _constants(args)
    return f"ok: {sum(1 for _ in _records(args))} records\n"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        import argparse  # the parser is built next if _read_argv gets here
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


class _Command(NamedTuple):
    help: str
    arguments: tuple[str, ...]  # keys of _ARGUMENTS, positionals first
    handler: Callable[[SimpleNamespace], str]  # returns the text for stdout


# The command-line grammar, from which _build_parser builds the parser and
# _read_argv reads a plain argv.  Each argument is add_argument's name and
# keywords; a name without "--" is a positional.
_ARGUMENTS = {
    "--records": {"type": Path, "default": None,
                  "help": "records CSV (default: embedded catalog)"},
    "--constants": {"type": Path, "default": None, "help": "constants override file"},
    "--filter": {"type": str, "choices": get_args(RecordFilter), "default": "all",
                 "help": "record subset to analyse"},
    "--out": {"type": Path, "default": Path("."), "help": "output directory"},
    "--k": {"type": _positive_int, "default": 3, "help": "points kept per category"},
    "text": {"type": str, "default": None, "help": "formula, e.g. Si3N4"},
}
_COMMANDS = {
    "compute": _Command("write table.csv and bounds.txt",
                        ("--records", "--constants", "--filter", "--out"), cmd_compute),
    "figure": _Command("write figure.svg and figure.dat",
                       ("--records", "--constants", "--filter", "--out", "--k"), cmd_figure),
    "bounds": _Command("print the bounds summary",
                       ("--records", "--constants", "--filter"), cmd_bounds),
    "formula": _Command("inspect a chemical formula", ("text",), cmd_formula),
    "validate": _Command("check input files and report problems",
                         ("--records", "--constants"), cmd_validate),
}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """What _build_parser().parse_args(argv) returns, for a plain argv.

    A plain argv is a command, its positionals, then "--option value"
    pairs, each option one the command takes spelt in full; no positional
    or value starts with "-".  Values are converted as the parser converts
    them, and the last of a repeated option wins.  Any other argv returns
    None, and so does a value the parser would refuse.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    names = command.arguments
    n = sum(not name.startswith("-") for name in names)
    options = argv[n + 1::2]
    if len(argv) <= n or (len(argv) - n) % 2 == 0 or not all(
            option in names[n:] for option in options):
        return None
    values = {name.lstrip("-"): _ARGUMENTS[name]["default"] for name in names}
    for name, text in [*zip(names[:n], argv[1:]), *zip(options, argv[n + 2::2])]:
        argument = _ARGUMENTS[name]
        if text.startswith("-"):
            return None
        try:
            value = argument["type"](text)
        except Exception:  # the parser refuses a value its converter raises on
            return None
        if value not in argument.get("choices", (value,)):
            return None
        values[name.lstrip("-")] = value
    return SimpleNamespace(command=argv[0], **values)


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="stfom",
        description="Force-noise figures of merit and diffusion-model bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        command_parser = sub.add_parser(name, help=command.help)
        for argument in command.arguments:
            command_parser.add_argument(argument, **_ARGUMENTS[argument])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        _write("stdout", _COMMANDS[args.command].handler(args))
        return 0
    except CatalogError as exc:
        message, code = "".join([f"{diagnostic}\n" for diagnostic in exc.diagnostics]), 1
    except StfomError as exc:
        message, code = f"error: {exc}\n", 1
    except OSError as exc:
        message, code = f"io error: {exc}\n", 2
    try:
        _write("stderr", message)
    except OSError:
        return 2  # stderr cannot take the message: an I/O failure itself
    return code
