"""Golden CLI transcript: stdout, stderr and exit code of a fixed command list.

``tests/golden/cli.txt`` holds the transcript of every command below, run
through ``cli.main`` in-process, with the verify timings masked.  A refactor
that must keep the CLI byte-identical leaves this file unchanged.  To
regenerate it (only when the output is meant to change), run

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import re
import shlex
import sys
import tempfile
from pathlib import Path

from ncomplex.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.txt"

COMPLEXES = {
    "p3": (3, [[1, 2], [2, 3]]),
    "p4": (4, [[1, 2], [2, 3], [3, 4]]),
    "p5": (5, [[1, 2], [2, 3], [3, 4], [4, 5]]),
    "c4": (4, [[1, 2], [2, 3], [3, 4], [1, 4]]),
    "paw": (4, [[1, 2], [2, 3], [1, 3], [3, 4]]),
    "k4_123": (4, [[1, 2, 3], [1, 4], [2, 4], [3, 4]]),
    "tetra": (4, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]),
    "edgeless3": (3, []),
    "simplex2": (3, [[1, 2, 3]]),
}

VERIFIED = ("p3", "paw", "c4", "k4_123", "tetra")

#: @name stands for the path of that complex's file
COMMANDS = (
    ["closure --complex @p3", "closure --complex @tetra"]
    + [f"hilbert --complex @p3 --max-degree {d}" for d in range(5)]
    + [f"hilbert --complex @{c} --max-degree 3"
       for c in ("p4", "p5", "c4", "k4_123", "tetra", "edgeless3")]
    + ["hilbert --complex @simplex2 --max-degree 4",
       "hilbert --complex @p5 --max-degree 2",
       "hilbert --complex @p5 --max-degree 4",
       "hilbert --complex @c4 --max-degree 4 --presentation graph",
       "hilbert --complex @p4 --max-degree 3 --presentation graph",
       "membership --complex @p3 --poly 'u({1,3})' --max-degree 2",
       "membership --complex @p3 --poly "
       "'1/2*u({1})*u({3})-2/3*u({3})*u({1,2})+3*u({2})*u({2})' --max-degree 2",
       "membership --complex @p3 --poly '1 + [u({1}),u({3})]' --max-degree 2",
       "membership --complex @p3 --poly 'u({1,3})*z({},1)' --max-degree 3",
       "membership --complex @p3 --poly 'u({1})' --max-degree 0",
       # rel_4({3},2,1), an entry of the family that Q_F lists by negation
       "membership --complex @p3 --poly 'u({1})*u({2}) + u({1})*u({2,3}) "
       "- u({2})*u({1}) - u({2})*u({1,3}) - u({1,2})*u({1}) + u({1,2})*u({2}) "
       "- u({1,2})*u({1,3}) + u({1,2})*u({2,3}) + u({1,3})*u({2}) "
       "+ u({1,3})*u({2,3}) - u({2,3})*u({1}) - u({2,3})*u({1,3}) "
       "- u({1,2,3})*u({1}) + u({1,2,3})*u({2}) - u({1,2,3})*u({1,3}) "
       "+ u({1,2,3})*u({2,3})' --max-degree 2",
       "relations --family 1 --n 3 --A 3 --i 1 --j 2",
       "relations --family 2 --n 3 --A 3 --i 1 --j 2",
       "relations --family 4 --n 2 --A '' --i 1 --j 2",
       "relations --family 4 --n 3 --A 3 --i 1 --j 2",
       "relations --family 4 --n 3 --A 3 --i 2 --j 1",
       "relations --family 5 --n 3 --A 3 --i 1 --j 2",
       "relations --family 9 --n 4 --A 3 --B 4 --i 1 --j 2",
       "relations --family 9 --n 16 --A 3,4,5,6,7,8,9,10,11 "
       "--B 3,4,5,6,7,8,9,10,11,12 --i 1 --j 2",
       "relations --family 10 --n 4 --A 3,4 --i 1 --j 2",
       "relations --family theorem --complex @c4",
       "relations --family theorem --complex @p5",
       "relations --family theorem --complex @paw",
       "verify --n 1",
       "verify --n 3",
       "verify --n 4 --format json",
       "verify --n 17",
       "verify --n 2 --checks ','",
       "verify --n 2 --checks ''",
       "verify --complex @edgeless3",
       "verify --complex @simplex2",
       "verify --complex @simplex2 --checks theorem"]
    + [f"verify --complex @{c}{fmt}" for c in VERIFIED
       for fmt in ("", " --format json")]
)

_MILLIS = (re.compile(r"\(\d+ ms\)"), re.compile(r'"millis":\d+'))


def _write_complexes(folder: Path) -> dict[str, str]:
    paths = {}
    for name, (n, facets) in COMPLEXES.items():
        p = folder / f"{name}.json"
        p.write_text(json.dumps({"n": n, "facets": facets}))
        paths[name] = str(p)
    return paths


def transcript(folder: Path) -> str:
    """Run every command in COMMANDS and return the masked transcript."""
    paths = _write_complexes(folder)
    blocks = []
    for cmd in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(shlex.split(re.sub(r"@(\w+)", lambda m: paths[m[1]], cmd)))
        text = f"$ {cmd}\n[exit {code}]\n{out.getvalue()}[stderr]\n{err.getvalue()}"
        text = _MILLIS[0].sub("(N ms)", _MILLIS[1].sub('"millis":N', text))
        blocks.append(text)
    return "\n".join(blocks)


def test_cli_output_matches_the_golden_transcript(tmp_path):
    assert len(COMMANDS) >= 40
    assert transcript(tmp_path) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(transcript(Path(folder)), encoding="utf-8")
    sys.exit(0)
