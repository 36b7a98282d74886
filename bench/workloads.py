"""The three benchmark workloads: decide, tables and surface.

Each workload is a single-threaded closed loop with one caller. It is split
into the parts the harness times separately:

- ``prepare()`` is the program's set-up: importing fuzzycr and building the
  systems the loop needs. ``setup_probe.py`` runs exactly this in fresh
  processes to measure ``setup_s``.
- ``generate(seed)`` makes the seeded inputs before any timing starts.
- ``run_unit()`` runs one unit of work and returns its per-operation
  latencies in seconds plus the number of operations whose output check
  failed. A unit is one pass over the decision stream (decide) or one CLI
  pass (tables, surface).
- ``final_problems()`` runs the checks that need the whole run, such as the
  replay against the stored reference.

Only the public names of the program are called; the source tree is never
modified.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = ROOT / ".bench_work"

# The harness pins BLAS/OpenMP pools to one thread (never above nproc), so
# the loop stays single-threaded whatever numpy links against.
BLAS_THREADS = 1
_THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

DEFAULT_SEED = 1
# decide: every decision x variant pair appears this many times per stream.
DECIDE_PER_PAIR = 100
# decide: stream prefix whose outputs are stored in reference/decide.json.
DECIDE_REFERENCE_LEN = 480
SURFACE_ARGS = (
    "surface", "--decision", "channel-selection",
    "--vary-a", "signal_strength", "--vary-b", "spectrum_demand",
)
REFERENCE_TOLERANCE = 1e-9


class BenchError(Exception):
    """The benchmark cannot run here, e.g. the program's sources are missing."""


def pin_threads() -> None:
    for name in _THREAD_ENV:
        os.environ[name] = str(BLAS_THREADS)


def load_program():
    """Import fuzzycr from this checkout's ``src/``, never from elsewhere."""
    pin_threads()
    package = SRC / "fuzzycr" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"program sources not found: {package} is missing")
    sys.path.insert(0, str(SRC))
    import fuzzycr
    import fuzzycr.cli

    if Path(fuzzycr.__file__).resolve() != package.resolve():
        raise BenchError(f"imported fuzzycr from {fuzzycr.__file__}, not {package}")
    return fuzzycr


def _in_range(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 100.0


class Decide:
    """Single ``FuzzySystem.evaluate`` calls over all 24 decision x variant
    pairs, each preceded by ``RadioScenario.crisp_inputs()`` for the inputs
    that have a closed form."""

    name = "decide"
    operation = "decision"

    def prepare(self) -> None:
        fuzzycr = load_program()
        from fuzzycr.metrics import DEFAULT_CALIBRATION

        self.fuzzycr = fuzzycr
        self.closed_form = frozenset(DEFAULT_CALIBRATION)
        self.systems = {
            (d, v): fuzzycr.build_system(d, v)
            for d in fuzzycr.DecisionId
            for v in fuzzycr.VariantId
        }

    def _stream(self, seed: int) -> list[tuple]:
        """Seeded (system, scenario, closed-form names, direct inputs, pair)."""
        rng = random.Random(seed)
        pairs = [pair for pair in self.systems for _ in range(DECIDE_PER_PAIR)]
        rng.shuffle(pairs)
        stream = []
        for decision, variant in pairs:
            names = self.fuzzycr.DECISION_INPUTS[decision]
            closed = tuple(n for n in names if n in self.closed_form)
            direct = {n: rng.uniform(0.0, 100.0) for n in names if n not in closed}
            scenario = _scenario(self.fuzzycr.RadioScenario, rng) if closed else None
            stream.append(
                (self.systems[decision, variant], scenario, closed, direct,
                 f"{decision.value}/{variant.value}")
            )
        return stream

    def generate(self, seed: int) -> None:
        self.stream = self._stream(seed)
        self.decisions_per_unit = len(self.stream)
        self.first_values: list[float] | None = None

    @staticmethod
    def _decide(system, scenario, closed, direct) -> float:
        x = dict(direct)
        if scenario is not None:
            crisp = scenario.crisp_inputs()
            for name in closed:
                x[name] = crisp[name]
        return system.evaluate(x)

    def run_unit(self) -> tuple[list[float], int]:
        perf = time.perf_counter
        decide = self._decide
        latencies = []
        values = []
        for system, scenario, closed, direct, _ in self.stream:
            t0 = perf()
            try:
                value = decide(system, scenario, closed, direct)
            except Exception:  # a raising decision is a failed operation
                value = math.nan
            latencies.append(perf() - t0)
            values.append(value)
        # Evaluation is pure, so every pass over the stream must reproduce
        # the first pass exactly.
        if self.first_values is None:
            self.first_values = values
        failed = sum(
            1 for v, first in zip(values, self.first_values)
            if not _in_range(v) or v != first
        )
        return latencies, failed

    def final_problems(self) -> list[str]:
        reference = json.loads((REFERENCE_DIR / "decide.json").read_text())
        stream = self._stream(reference["seed"])[: len(reference["values"])]
        problems = []
        for i, ((system, scenario, closed, direct, pair), (ref_pair, ref)) in enumerate(
            zip(stream, zip(reference["pairs"], reference["values"]))
        ):
            value = self._decide(system, scenario, closed, direct)
            if pair != ref_pair or not abs(value - ref) <= REFERENCE_TOLERANCE:
                problems.append(f"decide reference #{i} {ref_pair}: {value!r} != {ref!r}")
        return problems

    def reference(self) -> dict:
        """Outputs of the default-seed stream prefix, for reference/decide.json."""
        stream = self._stream(DEFAULT_SEED)[:DECIDE_REFERENCE_LEN]
        return {
            "seed": DEFAULT_SEED,
            "pairs": [pair for *_, pair in stream],
            "values": [self._decide(*op[:4]) for op in stream],
        }


def _scenario(RadioScenario, rng: random.Random):
    """Raw readings spread so that some crisp inputs fall outside their
    calibration windows and are clamped."""
    return RadioScenario(
        desired_power=10 ** rng.uniform(-2.0, 2.0),
        interference_power=10 ** rng.uniform(-2.0, 0.0),
        noise_power=10 ** rng.uniform(-2.0, 0.0),
        p_i=rng.uniform(0.0, 2e-14),
        free_time=rng.uniform(0.01, 10.0),
        usage_time=rng.uniform(0.0, 10.0),
        arrivals=rng.uniform(0.0, 5.0),
        su_band=rng.uniform(0.0, 10e6),
        primary_tx_power=10 ** rng.uniform(-2.0, 2.0),
        noise_variance=10 ** rng.uniform(-1.0, 1.0),
        rho1=rng.uniform(0.0, 0.95),
        rho2=rng.uniform(0.0, 1.0),
        blocking_prob=rng.uniform(0.0, 1.0),
        lam1=rng.uniform(0.05, 1.0),
        lam2=rng.uniform(0.05, 1.0),
    )


class _CliPass:
    """Repeated in-process ``fuzzycr.cli.main`` passes into one directory.

    The first pass's files are checked in full; every later pass must write
    byte-identical files (the CLI's byte-stability contract).
    """

    argv: tuple[str, ...] = ()
    operation = "pass"

    def prepare(self) -> None:
        self.fuzzycr = load_program()

    def generate(self, seed: int) -> None:
        # The paper's sweeps and the standard surface have fixed inputs; the
        # seed is recorded but changes nothing here.
        WORK_DIR.mkdir(exist_ok=True)
        self.out_dir = WORK_DIR / f"{self.name}-{os.getpid()}"
        self.first_files: dict[str, bytes] | None = None
        self.bytes_written = 0

    def run_unit(self) -> tuple[list[float], int]:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = [*self.argv, "--out-dir", str(self.out_dir)]
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                status = self.fuzzycr.cli.main(argv)
        except Exception:  # a raising pass is a failed operation
            status = None
        elapsed = time.perf_counter() - t0
        self.out_dir.mkdir(exist_ok=True)
        files = {p.name: p.read_bytes() for p in sorted(self.out_dir.iterdir())}
        self.bytes_written = sum(len(b) for b in files.values())
        if self.first_files is None:
            self.first_files = files
            self.first_problems = self.checked(files)
            ok = status == 0 and not self.first_problems
        else:
            ok = status == 0 and files == self.first_files
        return [elapsed], 0 if ok else 1

    def final_problems(self) -> list[str]:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
        if self.first_files is None:
            return ["no pass completed"]
        return self.first_problems

    def checked(self, files: dict[str, bytes]) -> list[str]:
        try:
            return self.problems(files)
        except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
            return [f"{self.name} output is malformed: {exc!r}"]

    def problems(self, files: dict[str, bytes]) -> list[str]:
        raise NotImplementedError


def _read_csv(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _golden(name: str) -> list[dict[str, str]]:
    """The published values the program ships in ``src/fuzzycr/data``."""
    return list(csv.DictReader(io.StringIO((SRC / "fuzzycr" / "data" / name).read_text())))


class Tables(_CliPass):
    """``fuzzycr tables``: 14 sweeps x 10 points x 4 variants plus table23."""

    name = "tables"
    argv = ("tables",)
    decisions_per_unit = 14 * 10 * 4

    def problems(self, files: dict[str, bytes]) -> list[str]:
        expected = {f"table{n:02d}.csv" for n in range(9, 24)}
        if set(files) != expected:
            return [f"tables wrote {sorted(files)}, expected {sorted(expected)}"]
        tables = {name: _read_csv(data) for name, data in files.items()}
        problems = [
            f"{name}: a value outside 0..100"
            for name, (_, *rows) in tables.items()
            if name != "table23.csv" and not all(_in_range(float(c)) for r in rows for c in r)
        ]
        for row in _golden("golden_sweeps.csv"):
            if row["status"] != "assert":
                continue
            header, *rows = tables[row["source_table"] + ".csv"]
            column = header.index(row["variant"])
            cells = [float(r[column]) for r in rows if float(r[0]) == float(row["input_value"])]
            published, tol = float(row["published_value"]), float(row["tolerance"])
            if len(cells) != 1 or not abs(cells[0] - published) <= tol:
                problems.append(f"{row['source_table']} {row['sweep']}={row['input_value']} "
                                f"{row['variant']}: {cells} vs {published} (tol {tol})")
        header, *rows = tables["table23.csv"]
        report = {r[0]: dict(zip(header[1:], map(float, r[1:]))) for r in rows}
        for row in _golden("golden_correlations.csv"):
            if row["status"] != "assert":
                continue
            ours = report.get(row["sweep"], {}).get(row["pair"], math.nan)
            published, tol = float(row["published_value"]), float(row["tolerance"])
            if not abs(ours - published) <= tol:
                problems.append(f"table23 {row['sweep']} {row['pair']}: "
                                f"{ours} vs {published} (tol {tol})")
        return problems


class Surface(_CliPass):
    """``fuzzycr surface`` for channel-selection: 51x51 points x 4 variants of
    the 125-rule base."""

    name = "surface"
    argv = SURFACE_ARGS
    decisions_per_unit = 51 * 51 * 4

    def problems(self, files: dict[str, bytes]) -> list[str]:
        references = sorted(REFERENCE_DIR.glob("surface_*.csv"))
        if sorted(files) != [p.name for p in references]:
            return [f"surface wrote {sorted(files)}, expected {[p.name for p in references]}"]
        problems = []
        for path in references:
            ours, ref = _read_csv(files[path.name]), _read_csv(path.read_bytes())
            if ours[0] != ref[0] or len(ours) != len(ref):
                problems.append(f"{path.name}: grid differs from the reference")
                continue
            worst = 0.0
            for row, ref_row in zip(ours[1:], ref[1:]):
                if len(row) != len(ref_row) or row[0] != ref_row[0]:
                    worst = math.inf
                    break
                for cell, ref_cell in zip(row[1:], ref_row[1:]):
                    value = float(cell)
                    worst = max(worst, abs(value - float(ref_cell)) if _in_range(value) else math.inf)
            if not worst <= REFERENCE_TOLERANCE:
                problems.append(f"{path.name}: differs from the reference by {worst}")
        return problems


WORKLOADS = {w.name: w for w in (Decide, Tables, Surface)}
