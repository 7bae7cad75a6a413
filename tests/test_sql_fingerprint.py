"""``tests/sql_fingerprint.py`` is the bar a refactor that claims the
same SQL is held to, so its output must be a function of the tree
alone: two runs over the same histories print the same digests."""

import os
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent / "sql_fingerprint.py"


def run_fingerprint():
    # no hash seed given: the script must pin its own
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONHASHSEED"}
    done = subprocess.run([sys.executable, str(SCRIPT), "--seeds", "2"],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_fingerprint_is_reproducible():
    first = run_fingerprint()
    lines = first.splitlines()
    assert [line.split()[0] for line in lines] == ["statements",
                                                    "native"]
    assert all(int(line.split()[1]) > 0 for line in lines)
    assert run_fingerprint() == first
