#!/usr/bin/env python3
"""Drive every applicable CLI command over the shipped spec corpus.

Prints one line per (spec, command) pair with the exit code and a short
summary pulled from the JSON output.  Exits nonzero if anything that should
succeed does not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
# the corpus commands, shared with tests/test_corpus_golden.py and the benchmark
CORPUS = ROOT / "perfbench" / "corpus_expected.json"
RUNS = [(e["spec"], e["args"]) for e in json.loads(CORPUS.read_text(encoding="utf-8"))]

SUMMARY_KEYS = ["ok", "carrier_dim", "verdict", "plain_carrier_dim"]


def main() -> int:
    # run this checkout's package, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    failures = 0
    for spec, args in RUNS:
        cmd = [sys.executable, "-m", "coendforge", args[0],
               str(SPECS / f"{spec}.json"), *args[1:]]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        summary = ""
        try:
            data = json.loads(proc.stdout)
            bits = [f"{k}={data[k]}" for k in SUMMARY_KEYS if k in data]
            summary = ", ".join(bits)
        except json.JSONDecodeError:
            summary = proc.stdout.strip()[:60]
        status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
        print(f"{spec:18s} {' '.join(args):55s} {status:8s} {summary}")
        if proc.returncode != 0:
            failures += 1
    print(f"\n{len(RUNS) - failures}/{len(RUNS)} runs succeeded")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
