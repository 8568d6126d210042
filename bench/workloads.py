"""Seeded inputs for the benchmark's workloads.

Every input is made from the seed alone and written to files; the stfom
processes under test only ever see those files.  Generation is not timed.

cold-start  the embedded 46-record catalog; interpreter start-up and
            ``import stfom`` dominate every command.
survey      renamed copies of the embedded rows: only 46 distinct material
            texts and cell values, no thermal fields, default constants and
            filter.  Repeated values abound.
sweep       parameter-sweep rows where every mixture fraction and mass is
            distinct, every row has temperature, frequency and Q, a fixed
            share sits below the thermal floor, some rows are differential or
            in space, and a constants file overrides N_A and k_B.  The
            commands run with ``--filter absolute-on-earth``.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

COMMANDS = ("compute", "figure", "bounds", "formula", "validate")
FORMULA_TEXT = "Si3N4"

# Large enough that stfom's main() takes 40-75% of a record command's wall
# time (start-up and import take the rest, and records_per_s.* leaves them
# out), small enough that a run samples every command several times (see
# README.md).
SURVEY_ROWS = 5_000
SWEEP_ROWS = 5_000

SWEEP_BELOW_FLOOR_SHARE = 0.10
SWEEP_DIFFERENTIAL_SHARE = 0.10
SWEEP_SPACE_SHARE = 0.05
SWEEP_QUOTES_SQRT_SA_SHARE = 0.30
# Two-component mixtures by mass; every element is in the standard table.
SWEEP_MIXTURES = (
    ("SiO2", "B2O3"), ("Si3N4", "SiO2"), ("Al2O3", "SiO2"),
    ("GaAs", "AlAs"), ("Nd2Fe14B", "Fe"), ("Au", "Pt"), ("C", "SiC"),
)
# The constants the sweep's override file starts from (CODATA 2018).
AVOGADRO = 6.02214076e23
BOLTZMANN = 1.380649e-23

NUMERIC_COLUMNS = ("mass_kg", "n_override", "f0_hz", "sqrt_sf", "sqrt_sa",
                   "temp_k", "quality")


@dataclass(frozen=True)
class Workload:
    """Generated inputs and the command lines that consume them."""

    records_path: Path | None
    constants_path: Path | None
    record_filter: str

    def argv(self, command: str, out_dir: Path) -> list[str]:
        io_args: list[str] = []
        if self.records_path is not None:
            io_args += ["--records", str(self.records_path)]
        if self.constants_path is not None:
            io_args += ["--constants", str(self.constants_path)]
        filter_args = ([] if self.record_filter == "all"
                       else ["--filter", self.record_filter])
        if command in ("compute", "figure"):
            return [command, *io_args, *filter_args, "--out", str(out_dir)]
        if command == "bounds":
            return [command, *io_args, *filter_args]
        if command == "validate":
            return [command, *io_args]
        if command == "formula":
            return [command, FORMULA_TEXT]
        raise ValueError(f"unknown command {command!r}")


def _write_rows(path: Path, header: str, rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header.split(","))
        writer.writerows(rows)


def _survey(stfom, seed: int, work: Path) -> Workload:
    text = stfom.serialize_records(stfom.embedded_catalog())
    header, *base = list(csv.reader(text.splitlines()))
    rng = random.Random(seed)
    rows = []
    for i in range(SURVEY_ROWS):
        row = list(base[rng.randrange(len(base))])
        row[0] = f"{row[0]} #{i:05d}"
        rows.append(row)
    path = work / "survey.csv"
    _write_rows(path, stfom.CSV_HEADER, rows)
    return Workload(path, None, "all")


def _sweep(stfom, seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    n_a = AVOGADRO * (1.0 + rng.uniform(-1e-3, 1e-3))
    k_b = BOLTZMANN * (1.0 + rng.uniform(-1e-3, 1e-3))
    rows = []
    for i in range(SWEEP_ROWS):
        first, second = rng.choice(SWEEP_MIXTURES)
        fraction = round(rng.uniform(0.05, 0.95), 12)
        material = f"{fraction!r}*{first}+{1.0 - fraction!r}*{second}"
        mass = 10.0 ** rng.uniform(-20.0, 0.0)
        f0 = 10.0 ** rng.uniform(1.0, 6.0)
        temp = rng.uniform(0.01, 300.0)
        quality = 10.0 ** rng.uniform(2.0, 8.0)
        floor = math.sqrt(4.0 * k_b * temp * mass * 2.0 * math.pi * f0 / quality)
        if rng.random() < SWEEP_BELOW_FLOOR_SHARE:
            sqrt_sf = floor * rng.uniform(0.3, 0.9)
        else:
            sqrt_sf = floor * 10.0 ** rng.uniform(0.05, 3.0)
        sqrt_sa = ""
        if rng.random() < SWEEP_QUOTES_SQRT_SA_SHARE:
            sqrt_sa = repr(sqrt_sf / mass * (1.0 + rng.uniform(-0.01, 0.01)))
        mode = "differential" if rng.random() < SWEEP_DIFFERENTIAL_SHARE else "absolute"
        location = "space" if rng.random() < SWEEP_SPACE_SHARE else "earth"
        year = rng.randint(1990, 2025)
        rows.append([
            f"sweep {i:05d}", str(year), f"Sweep et al. ({year})",
            rng.choice(stfom.CATEGORIES), material, repr(mass), "", repr(f0),
            repr(sqrt_sf), sqrt_sa, repr(temp), repr(quality), mode, location,
            "true" if rng.random() < 0.2 else "false", "",
        ])
    records = work / "sweep.csv"
    _write_rows(records, stfom.CSV_HEADER, rows)
    constants = work / "sweep-constants.txt"
    constants.write_text(f"# sweep override\nN_A {n_a!r}\nk_B {k_b!r}\n",
                         encoding="utf-8")
    return Workload(records, constants, "absolute-on-earth")


def make_workload(name: str, stfom, seed: int, work: Path) -> Workload:
    """Write the inputs of workload `name` for `seed` under `work`."""
    if name == "cold-start":
        return Workload(None, None, "all")
    if name == "survey":
        return _survey(stfom, seed, work)
    if name == "sweep":
        return _sweep(stfom, seed, work)
    raise ValueError(f"unknown workload {name!r}")


def input_properties(records_text: str, expected) -> dict[str, float]:
    """Measured properties of a workload's records, for citing cache claims.

    `expected` is the reference computation (oracle.Expected) for the same
    inputs; thermal and below-floor shares come from its evaluated results.
    """
    header, *rows = list(csv.reader(records_text.splitlines()))
    material_col = header.index("material")
    numeric_cols = [header.index(c) for c in NUMERIC_COLUMNS]
    cells = [row[c] for row in rows for c in numeric_cols if row[c]]
    results = expected.results.values()
    n = len(rows)
    return {
        "rows": n,
        "distinct_material_share": len({row[material_col] for row in rows}) / n,
        "distinct_numeric_share": len(set(cells)) / len(cells),
        "thermal_share": sum(r.thermal_fom is not None for r in results) / n,
        "below_floor_share": sum(
            r.thermal_sqrt_sf is not None and r.sqrt_sf < r.thermal_sqrt_sf
            for r in results) / n,
        "filter_pass_share": expected.filtered_rows / n,
    }
