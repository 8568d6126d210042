"""In-memory spans around the stfom functions the CLI pipeline calls.

The tracer replaces module attributes (for example ``stfom.cli.parse_records``)
with wrappers that record one span per call: name, start, end and the index of
the enclosing span.  Spans stay in memory until ``write_spans`` dumps them.
Nothing inside ``src/`` is changed; the wrappers only exist in the process that
installs them.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from pathlib import Path

# (module, attribute, span name).  Calls made through these module globals are
# the boundaries of the pipeline's layers: cli calls into catalog, fom, report
# and quantities; catalog calls parse_material; fom calls nuclei_count; report
# calls select_for_figure, format_sig and the two bound functions.
WRAPPED = (
    ("stfom.cli", "parse_records", "catalog.parse_records"),
    ("stfom.cli", "embedded_catalog", "catalog.embedded_catalog"),
    ("stfom.cli", "rank", "catalog.rank"),
    ("stfom.cli", "evaluate_catalog", "fom.evaluate_catalog"),
    ("stfom.cli", "emit_table", "report.emit_table"),
    ("stfom.cli", "emit_bounds_summary", "report.emit_bounds_summary"),
    ("stfom.cli", "build_figure_points", "report.build_figure_points"),
    ("stfom.cli", "emit_figure", "report.emit_figure"),
    ("stfom.cli", "load_constants", "quantities.load_constants"),
    ("stfom.catalog", "parse_material", "formula.parse_material"),
    ("stfom.fom", "nuclei_count", "formula.nuclei_count"),
    ("stfom.report", "select_for_figure", "catalog.select_for_figure"),
    ("stfom.report", "format_sig", "report.format_sig"),
    ("stfom.report", "anchored_bound", "bounds.anchored_bound"),
    ("stfom.report", "si_bound", "bounds.si_bound"),
)

# Spans whose arguments are collected, to measure how many calls repeat an
# earlier input (the share a value-keyed cache could serve).
ARG_KEYED = {"formula.parse_material", "report.format_sig"}


class Tracer:
    """Records spans for wrapped calls; one tracer per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.distinct: dict[str, set] = {name: set() for name in ARG_KEYED}
        self._stack = [-1]

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        open_, close = self._open, self._close
        seen = self.distinct.get(name)

        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(args)
            index = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every WRAPPED attribute for its traced wrapper, then restore."""
        originals = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, distinct args.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[i]
        for name, args in self.distinct.items():
            if name in out:
                out[name]["distinct"] = len(args)
        return out

    def write_spans(self, path: Path) -> None:
        """One 'index name start_us end_us parent' line per span."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# index name start_us end_us parent\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i} {name} {(self.starts[i] - origin) * 1e6:.3f} "
                    f"{(self.ends[i] - origin) * 1e6:.3f} {self.parents[i]}\n"
                )
