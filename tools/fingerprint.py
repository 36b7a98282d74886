"""Print one SHA-256 per output of the toolkit, to show that a change leaves
every output byte-identical.

Run from any directory, with no options: ``python3 tools/fingerprint.py``.
It imports ``fuzzycr`` from the ``src/`` beside this script, writes only to a
temporary directory, and prints ``<sha256>  <output>`` lines for:

- each CSV that ``fuzzycr tables`` writes;
- the four CSVs of the channel-selection ``fuzzycr surface``;
- ``float.hex`` of ``evaluate_batch`` on 300 seeded random rows, inputs in
  -5..105, for each decision x variant pair;
- ``float.hex`` of ``evaluate`` on each of the first 50 of those rows, one
  row at a time, as a single decision is served;
- ``repr(rules)`` of each of the 24 ``build_system`` systems.

Run it in two checkouts and compare the two outputs, e.g. with ``diff``.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fuzzycr import DecisionId, VariantId, build_system  # noqa: E402
from fuzzycr.cli import main as cli_main  # noqa: E402

ROWS = 300
SCALAR_ROWS = 50
SEED = 3
SURFACE_ARGS = (
    "surface", "--decision", "channel-selection",
    "--vary-a", "signal_strength", "--vary-b", "spectrum_demand",
)


def _line(data: bytes, name: str) -> str:
    return f"{hashlib.sha256(data).hexdigest()}  {name}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (("tables",), SURFACE_ARGS):
                if cli_main([*argv, "--out-dir", str(out / argv[0])]) != 0:
                    raise SystemExit(f"fuzzycr {argv[0]} failed")
        for path in sorted(out.glob("*/*.csv")):
            print(_line(path.read_bytes(), f"{path.parent.name}/{path.name}"))
    rng = np.random.default_rng(SEED)
    for decision in DecisionId:
        for variant in VariantId:
            system = build_system(decision, variant)
            pair = f"{decision.value}/{variant.value}"
            rows = rng.uniform(-5.0, 105.0, (ROWS, len(system.input_names)))
            values = " ".join(float(v).hex() for v in system.evaluate_batch(rows))
            print(_line(values.encode(), f"evaluate_batch {pair}"))
            values = " ".join(system.evaluate(row).hex() for row in rows[:SCALAR_ROWS])
            print(_line(values.encode(), f"evaluate {pair}"))
            print(_line(repr(system.rules).encode(), f"rules {pair}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
