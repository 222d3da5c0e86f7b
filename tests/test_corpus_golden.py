"""Golden output of the shipped corpus: every command listed in
perfbench/corpus_expected.json is run in-process and must reproduce the
recorded exit code and the sha256 of its stdout byte for byte."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from coendforge.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = json.loads((ROOT / "perfbench" / "corpus_expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "entry", EXPECTED, ids=[f"{e['spec']} {' '.join(e['args'])}" for e in EXPECTED]
)
def test_corpus_command_output_is_byte_identical(entry):
    args = entry["args"]
    argv = [args[0], str(ROOT / "specs" / f"{entry['spec']}.json"), *args[1:]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == entry["exit"]
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == entry["sha256"]
