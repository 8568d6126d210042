"""Fixed stdlib-only workload that calibrates the machine's current speed.

The closed loop runs this script once per round, next to the stfom commands.
The CPU speed of a shared host drifts by ±10% over tens of seconds, and this
script slows down with it.  Dividing the commands' times by this script's
time therefore cancels most of the drift.  The script does the same kinds of
work as stfom's pipeline: CSV parsing, float parsing, frozen dataclasses,
sorting and number formatting.  It never imports stfom, so no change to the
program can change its time.
"""

import csv
import io
import random
from dataclasses import dataclass

ROWS = 8000


@dataclass(frozen=True)
class Row:
    name: str
    mass: float
    noise: float
    material: str


def main() -> None:
    rng = random.Random(0)
    cells = [[f"row {i}", repr(10.0 ** rng.uniform(-20.0, 0.0)), repr(rng.random()),
              rng.choice(("SiO2", "Si3N4", "Au"))] for i in range(ROWS)]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(cells)
    rows = [Row(name, float(mass), float(noise), material)
            for name, mass, noise, material in csv.reader(io.StringIO(text.getvalue()))]
    rows.sort(key=lambda r: (r.noise * r.mass, r.name))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for r in rows:
        writer.writerow([r.name, f"{r.mass:.2e}", f"{r.noise * r.mass:.2e}", r.material])


if __name__ == "__main__":
    main()
