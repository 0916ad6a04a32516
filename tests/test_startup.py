"""Process start-up: the modules a fresh process loads, and the state one process keeps between calls.

Each check runs in a fresh interpreter, since the test process has already
imported every module and built the CLI parser.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import restrictlab
from restrictlab.measures import random_flat, save_measure

SRC = os.path.dirname(os.path.dirname(restrictlab.__file__))


def _fresh(code: str) -> str:
    """Run code in a fresh interpreter that imports restrictlab from this tree; returns its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("statement, loaded", [
    ("import restrictlab", []),
    ("import restrictlab.cli", ["cli", "measures", "rationals"]),
    # the benchmark's import line: regularity, verifiers and config stay unloaded
    ("from restrictlab import cli, measures, probe",
     ["cli", "fitting", "measures", "probe", "rationals", "spectral"]),
], ids=["package", "cli", "benchmark"])
def test_an_import_loads_only_the_modules_it_needs(statement, loaded):
    out = _fresh(f"""
        import json, sys
        {statement}
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "restrictlab")))
        """)
    assert json.loads(out) == ["restrictlab", *(f"restrictlab.{m}" for m in loaded)]


def test_every_public_name_resolves_on_first_access():
    out = _fresh("""
        import json
        import restrictlab
        names = dir(restrictlab)
        star = {}
        exec("from restrictlab import *", star)
        print(json.dumps({
            "missing_from_dir": [n for n in restrictlab.__all__ if n not in names],
            "unresolved": [n for n in restrictlab.__all__ if getattr(restrictlab, n, None) is None],
            "star": sorted(n for n in star if n != "__builtins__"),
            "version": restrictlab.__version__,
        }))
        """)
    got = json.loads(out)
    assert got == {"missing_from_dir": [], "unresolved": [], "star": sorted(restrictlab.__all__),
                   "version": restrictlab.__version__}
    for name in restrictlab.__all__:
        value = getattr(restrictlab, name)
        home = sys.modules[f"restrictlab.{restrictlab._EXPORTS[name]}"]
        assert value is getattr(home, name), name
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        restrictlab.nope


def test_back_to_back_cli_calls_write_what_each_call_writes_alone(tmp_path):
    # main builds its parser once per process; a call must leave no state on
    # it, so each call writes the artifact it writes in a fresh process
    measure = tmp_path / "flat.json"
    save_measure(random_flat(512, 32, seed=7), str(measure))
    sweep = ["sweep", "--measure", str(measure), "--p-grid", "2:2:1", "--q-grid", "2:2:1",
             "--restarts", "1", "--iters", "5"]
    calls = {"default.csv": sweep, "X.csv": [*sweep, "--X", "2,4,8,16"]}

    def fresh(*runs):
        # one process calls main once per (argv, expected exit code)
        _fresh(f"""
            from restrictlab.cli import main
            for argv, rc in {list(runs)!r}:
                assert main(argv) == rc, argv
            """)

    alone, together = tmp_path / "alone", tmp_path / "together"
    alone.mkdir()
    together.mkdir()
    for name, argv in calls.items():
        fresh(([*argv, "--out", str(alone / name)], 0))
    fresh(([*calls["default.csv"], "--out", str(together / "first.csv")], 0),
          ([*calls["X.csv"], "--out", str(together / "X.csv")], 0),
          ([*sweep, "--X", "0,4,8,16"], 2),  # a parse error
          ([*calls["default.csv"], "--out", str(together / "default.csv")], 0))
    for name in calls:
        assert (together / name).read_bytes() == (alone / name).read_bytes(), name
    assert (together / "first.csv").read_bytes() == (alone / "default.csv").read_bytes()
    assert (alone / "default.csv").read_text().startswith("p,q,norm_X64,norm_X128,norm_X256,norm_X512,")
