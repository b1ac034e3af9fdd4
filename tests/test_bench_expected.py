"""Every call the benchmark records must still print exactly its recorded lines.

``bench/expected/*.json`` holds, per workload, each CLI argv with its exit
code and stdout split into one line per operation.  ``bench/run.py`` counts
an operation as failed unless the call's stdout, split on newlines, equals
those lines plus the empty string after the last newline (``_failed_ops``).
Replaying the same rule here makes any such drift fail the tests.  The
files are only read.
"""

import json
from pathlib import Path

import pytest

from parafock.cli import main

EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected"
CALLS = [
    (path.stem, call)
    for path in sorted(EXPECTED.glob("*.json"))
    for call in json.loads(path.read_text(encoding="utf-8"))["calls"]
]


def test_recorded_calls_are_found():
    # an empty glob would leave the replay below with nothing to check
    assert CALLS


@pytest.mark.parametrize(
    "call", [call for _, call in CALLS], ids=[f"{w}-{i}" for i, (w, _) in enumerate(CALLS)]
)
def test_recorded_call_replays_byte_for_byte(call, capsys):
    code = main(list(call["argv"]))
    out = capsys.readouterr().out
    assert code == call["exit"]
    assert out.split("\n") == call["reports"] + [""]
