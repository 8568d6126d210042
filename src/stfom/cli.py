"""Command line front end: compute, figure, bounds, formula and validate.

Each cmd_* handler returns its text for stdout; main alone writes the
streams and picks the exit code: 0 success, 1 a validation problem, 2 when
an input, an output file, stdout or stderr cannot be read or written, or a
usage error from argparse (unknown command or option, bad value).  Every
output file is written before any is renamed into place, so a failed write
replaces none; a failed rename can leave an earlier one replaced.

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
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple, TextIO, get_args

from .catalog import RecordFilter, embedded_catalog, parse_records, rank
from .errors import CatalogError, Diagnostic, StfomError
from .fom import evaluate_catalog
from .formula import molar_mass, nuclei_per_formula, parse_formula
from .quantities import _DEFAULT_CONSTANTS, load_constants
from .report import (
    build_figure_points,
    emit_bounds_summary,
    emit_figure,
    emit_table,
    format_sig,
)

_BOM = b"\xef\xbb\xbf"


def _decoded_lines(fh, path: Path) -> Iterator[str]:
    """The lines of a file opened in binary, each decoded as UTF-8 as it is
    read and kept with its "\\n".  Lines are split only at "\\n", as
    catalog._lines splits text, so a "\\r" inside a quoted cell reaches
    parse_records unchanged.  A leading byte order mark is dropped, and so
    is a file that is only part of one, as the utf-8-sig codec drops them;
    a byte that is not UTF-8 is a BadEncoding diagnostic whose offset, as
    that codec's, counts the bytes after the mark.
    """
    offset = 0
    for line in fh:
        if not offset and _BOM.startswith(line[:3]):  # only the first line has offset 0
            line = line[3:]
            if not line:  # the file is a mark, or part of one
                return
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CatalogError((
                Diagnostic(0, "file", "BadEncoding",
                           f"{path} is not UTF-8 text: {exc.reason} "
                           f"at byte offset {offset + exc.start}"),
            )) from None
        offset += len(line)
        yield text


def _read(path: Path, parse: Callable[[Iterator[str]], object]):
    """What parse returns for the decoded lines of the file at path, each
    read when parse asks for it.  A CatalogError that stops parse before
    the last line is raised once the rest is decoded, so a later byte that
    is not UTF-8 is reported alone, as when the whole file is decoded
    first."""
    with open(path, "rb") as fh:
        lines = _decoded_lines(fh, path)
        try:
            return parse(lines)
        except CatalogError:
            for _ in lines:
                pass
            raise


def _write_outputs(out: Path, files: dict[str, str | Callable[[TextIO], object]]) -> None:
    """Write every file to a temporary file in out, then rename each into place.

    A file's value is its text, or a function that writes the text into
    the open temporary file, so a large file need not be held in memory.
    The temporary names are unique to the call, so concurrent runs on one
    --out never share one; those not yet renamed are removed on failure.
    Their mode is 0o666 less the umask, as for an ordinary file (not 0o600).
    """
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{os.getpid()}.{os.urandom(6).hex()}"
    tmps = {name: out / f".{name}.{tag}.tmp" for name in files}
    try:
        for name, content in files.items():
            fd = os.open(tmps[name], os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            with open(fd, "w", encoding="utf-8") as fh:
                if isinstance(content, str):
                    fh.write(content)
                else:
                    content(fh)
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


def _load(args):
    """The catalog and constants that args name, or the embedded defaults."""
    catalog = (embedded_catalog() if args.records is None
               else _read(args.records, parse_records))
    constants = (_DEFAULT_CONSTANTS if args.constants is None
                 else _read(args.constants, lambda lines: load_constants("".join(lines))))
    return catalog, constants


def _evaluate(args):
    """_load's inputs and their results, each warning written to stderr."""
    catalog, constants = _load(args)
    results = evaluate_catalog(catalog, constants=constants)
    # One write: on an unbuffered stderr each print is two syscalls.
    _write("stderr", "".join([f"warning: {warning}\n"
                              for result in results.values()
                              for warning in result.warnings]))
    return catalog, constants, results


def cmd_compute(args) -> str:
    catalog, constants, results = _evaluate(args)
    ranked = rank(catalog, results, args.filter)
    # The summary can refuse the constants, so it is built before any file
    # is opened; the table is written row by row into its temporary file.
    bounds_text = emit_bounds_summary(catalog, results, constants=constants,
                                      which=args.filter)
    _write_outputs(args.out, {
        "table.csv": lambda fh: emit_table(ranked, results, fh),
        "bounds.txt": bounds_text,
    })
    return f"wrote table.csv ({len(ranked)} rows) and bounds.txt to {args.out}\n"


def cmd_figure(args) -> str:
    catalog, _, results = _evaluate(args)
    points = build_figure_points(rank(catalog, results, args.filter), results, args.k)
    svg_text, data_text = emit_figure(points)
    _write_outputs(args.out, {"figure.svg": svg_text, "figure.dat": data_text})
    return f"wrote figure.svg and figure.dat ({len(points)} points) to {args.out}\n"


def cmd_bounds(args) -> str:
    catalog, constants, results = _evaluate(args)
    return emit_bounds_summary(catalog, results, constants=constants, which=args.filter)


def cmd_formula(args) -> str:
    formula = parse_formula(args.text)
    terms = " ".join(f"{symbol}:{count}" for symbol, count in formula.terms)
    return (f"terms: {terms}\n"
            f"M = {format_sig(molar_mass(formula), 4)} kg/mol\n"
            f"nuclei = {nuclei_per_formula(formula)}\n"
            + ("charge token ignored\n" if formula.charge_ignored else ""))


def cmd_validate(args) -> str:
    catalog, _ = _load(args)
    return f"ok: {len(catalog)} records\n"


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
