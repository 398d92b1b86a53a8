"""Byte-identity of the command line outputs on the bundled examples.

Each run of the matrix below (every bundled example, roots s1-s4, json and
text) is recorded as the sha256 of its exit code, stdout and stderr in
tests/data/cli_outputs.json.  A change meant to keep the outputs must keep
every digest.  Run this module as a script to regenerate the file:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from coxrep.cli import BUNDLED, main

DATA = Path(__file__).parent / "data" / "cli_outputs.json"

COMMANDS = (
    ("verify",),
    ("form", "--theta", "1"),
    ("form", "--theta", "3"),
    ("form", "--theta", "7"),
    ("dual",),
    ("build",),
    ("equiv", "--root2", "s1"),
    ("equiv", "--root2", "s2"),
    ("equiv", "--root2", "s3"),
)


def matrix() -> list[list[str]]:
    return [[*command, "--diagram", name, "--root", root, "--format", fmt]
            for name in BUNDLED
            for root in ("s1", "s2", "s3", "s4")
            for command in COMMANDS
            for fmt in ("json", "text")]


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def test_cli_outputs_match_recorded_digests():
    expected = json.loads(DATA.read_text())
    runs = matrix()
    assert [" ".join(argv) for argv in runs] == list(expected)
    changed = [key for key, argv in zip(expected, runs)
               if digest(argv) != expected[key]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:3]}"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    table = {" ".join(argv): digest(argv) for argv in matrix()}
    DATA.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} digests to {DATA}", file=sys.stderr)
