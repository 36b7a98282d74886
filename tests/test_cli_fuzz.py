"""Seeded grammar fuzz of ``cli.main``: any argument list drawn from the
seven commands, their flags and awkward values either succeeds or fails with
one ``error:`` line, never a traceback. Every path is relative to a scratch
working directory, so nothing is written to the checkout."""

import random
import shutil
from importlib import resources

import pytest

from fuzzycr.catalog import DECISION_INPUTS, DecisionId
from fuzzycr.cli import OUTPUT_DIR_ENV, main

# Values that have broken number parsing somewhere: empty, non-finite,
# overflowing, subnormal, non-ASCII digits, hex, digit separators.
AWKWARD = ("", "nan", "inf", "-inf", "1e400", "5e-324", "٣", "0x10", "1_000")

# Each flag draws from a pool of (good values, odd values): good ones three
# times in four, so that most commands get past parsing. NAME draws an input
# of the drawn decision, IN a NAME=VALUE pair, DECISION the decision itself.
NAME, IN, DECISION = "name", "in", "decision"
NUMBERS = (("0", "50", "100", "33.3"), ("-5", "105") + AWKWARD)
OTHER_NAMES = ("signal_strength", "Spectrum Demand", "SNR", "access_latency", "volume", "")
VARIANTS = (("triangular-mamdani", "gaussian_mamdani", "Constant Sugeno", "linear-sugeno",
             "triangular-mamdani,constant-sugeno"),
            ("linear-sugeno,linear-sugeno", "x", ",", ""))
GRIDS = (("10:100:10", "0:100:50", "10,20,30", "5e-324"),
         ("1:2", "0:100:-10", "1:nan:1", "100:0:10", "0:1e400:1", "0:100:0.01", "10,,20",
          ":", ",", "٣,0x10", "1_000"))
# steps of 10 and up keep each surface cheap; the odd ones fail or are tiny
STEPS = (("10", "25", "50", "100", "1000"), ("0", "-10", "٣") + AWKWARD)
OUT_PATHS = (("out.csv", "sub/out.csv"), ("", ".", "a-file", "a-file/x.csv", "no-such-dir/x.csv"))
OUT_DIRS = (("outdir", "sub/dir", "."), ("", "a-file", "a-file/sub"))
CSV_PATHS = (("sweep.csv", "point.csv", "out.csv"),
             ("bad.csv", "nan.csv", "empty.csv", "a-file", "missing.csv", "", ".", "/dev/null"))
SVG_PATHS = (("chart.svg", "sub/chart.svg"), ("", ".", "a-file/c.svg"))
RULE_PATHS = (("handoff.rules", "partial.rules", "empty.rules"),
              ("foreign.rules", "syntax.rules", "sweep.csv", "missing.rules", "", ".",
               "/dev/null"))
CONFIGS = (("good.cfg",), ("bad.cfg", "sugeno.cfg", "missing.cfg", "", "/dev/null"))
TEXTS = (("a title", "x & y <z>"), ("",))

# flag (empty for a positional), its pool, and whether the command requires it
COMMANDS = {
    "eval": [("--decision", DECISION, True), ("--variant", VARIANTS, False),
             ("--in", IN, False), ("--in", IN, False)],
    "sweep": [("--decision", DECISION, True), ("--vary", NAME, True),
              ("--fixed", NUMBERS, False), ("--grid", GRIDS, False),
              ("--variants", VARIANTS, False), ("--out", OUT_PATHS, True)],
    "surface": [("--decision", DECISION, True), ("--vary-a", NAME, True),
                ("--vary-b", NAME, True), ("--fixed", NUMBERS, False),
                ("--step", STEPS, True), ("--variants", VARIANTS, False),
                ("--out-dir", OUT_DIRS, False)],
    "tables": [("--out-dir", OUT_DIRS, False)],
    "correlate": [("--out", OUT_PATHS, False)],
    "plot": [("", CSV_PATHS, True), ("--out", SVG_PATHS, False),
             ("--title", TEXTS, False), ("--y-label", TEXTS, False)],
    "check-rules": [("", RULE_PATHS, True)],
}

FILES = {
    "a-file": "not,a\nsweep,file\n",
    "sweep.csv": "snr,a,b\n10,1,2\n20,3,4\n",
    "point.csv": "snr,a\n5e-324,5e-324\n",
    "bad.csv": "snr,a\n10,x\n",
    "nan.csv": "snr,a\n10,nan\n",
    "empty.csv": "",
    "foreign.rules": "IF signal_strength IS Low THEN handoff_status IS On\n",
    "partial.rules": "IF snr IS Low THEN handoff_status IS On\n",
    "syntax.rules": "IF snr Low THEN handoff_status IS On\n",
    "empty.rules": "# no rules\n",
    "good.cfg": "resolution = 101\nfixed_value = 5e-324\ngrid = 0:100:50\n",
    "bad.cfg": "grid = 1:2\n",
    "sugeno.cfg": "[sugeno.handoff-status]\nOn = 1, 0.5, nan\n",
}

SEEDS = range(4)
CASES_PER_SEED = 150

# Argument lists pinned as they were found to break the invariant.
PINNED = [
    # a tenth of 5e-324 rounds to 0: plot divided by a zero x span
    ["sweep", "--decision", "handoff-status", "--vary", "snr", "--grid", "5e-324",
     "--out", "g.csv"],
    ["plot", "g.csv"],
]


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    shipped = resources.files("fuzzycr.data").joinpath("handoff_status.rules")
    with resources.as_file(shipped) as path:
        shutil.copy(path, tmp_path / "handoff.rules")
    return tmp_path


def draw_argv(rng):
    """One argument list: maybe a config, a command, its flags, maybe junk."""

    def pick(pool):
        good, odd = pool
        return rng.choice(good if rng.random() < 0.75 else odd)

    decision = rng.choice(list(DecisionId))
    spellings = (decision.value, decision.value.replace("-", " ").title(),
                 decision.value.replace("-", "_"))
    pools = {NAME: (DECISION_INPUTS[decision], OTHER_NAMES),
             DECISION: (spellings, ("nonsense", ""))}
    argv = ["--config", pick(CONFIGS)] if rng.random() < 0.15 else []
    command = rng.choice(list(COMMANDS))
    argv.append(command)
    for flag, pool, required in COMMANDS[command]:
        if rng.random() >= (0.98 if required else 0.4):
            continue
        if pool == IN:
            value = rng.choice([f"{pick(pools[NAME])}={pick(NUMBERS)}"] * 3 + [pick(pools[NAME])])
        else:
            value = pick(pools.get(pool, pool))
        argv += [flag, value] if flag else [value]
    if rng.random() < 0.03:
        argv.append(rng.choice(["--bogus", "extra", "--out"]))
    return argv


def check_one(argv, capsys):
    code = main(argv)  # an exception escaping here fails the test
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "", argv
    elif err == "" and "check-rules" in argv:
        assert code == 1 and out.startswith(f"{argv[-1]}: "), argv  # the check's report
    else:
        assert code == 1, argv
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv


@pytest.mark.parametrize("seed", SEEDS)
def test_any_argument_list_succeeds_or_errors_in_one_line(scratch, capsys, seed):
    rng = random.Random(seed)
    for _ in range(CASES_PER_SEED):
        check_one(draw_argv(rng), capsys)


def test_pinned_argument_lists(scratch, capsys):
    for argv in PINNED:
        check_one(argv, capsys)
    assert "nan" not in (scratch / "g.svg").read_text()
