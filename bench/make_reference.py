"""Regenerate the stored references the benchmark checks outputs against.

Writes ``reference/decide.json`` (the default-seed decide stream prefix) and
``reference/surface_*.csv`` (the standard channel-selection surface, one CSV
per variant, as ``fuzzycr surface`` writes it). Run from the repository
root after a deliberate change of the program's outputs:
``python3 bench/make_reference.py``.
"""

import contextlib
import io
import json
import shutil

from workloads import REFERENCE_DIR, SURFACE_ARGS, WORK_DIR, Decide, load_program

if __name__ == "__main__":
    fuzzycr = load_program()
    REFERENCE_DIR.mkdir(exist_ok=True)
    decide = Decide()
    decide.prepare()
    (REFERENCE_DIR / "decide.json").write_text(json.dumps(decide.reference(), indent=0) + "\n")
    out_dir = WORK_DIR / "reference"
    with contextlib.redirect_stdout(io.StringIO()):
        status = fuzzycr.cli.main([*SURFACE_ARGS, "--out-dir", str(out_dir)])
    if status != 0:
        raise SystemExit(f"fuzzycr surface exited with {status}")
    for path in REFERENCE_DIR.glob("surface_*.csv"):
        path.unlink()
    for path in out_dir.glob("surface_*.csv"):
        shutil.copyfile(path, REFERENCE_DIR / path.name)
    shutil.rmtree(WORK_DIR)
