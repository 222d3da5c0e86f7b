#!/usr/bin/env python3
"""Certified bounded coend ladder on zigzags of weighted lines over padic:2.

Usage: python scripts/zigzag_ladder.py [max_n]

For n = 10, 20, ... up to max_n (default 40) this takes the n-line zigzag
l0 -> l1 <- l2 -> ... of the bcoend_certified workload
(`perfbench/workloads.zigzag_spec`), seeded with `random.Random(n)`: each
arrow is 2^e * unit with e in -2..2 and each line has a weight in -2..2.
Every arrow is invertible, so the coend is one line (carrier dimension 1).
Each spec runs through the CLI command `bcoend` (certified, its default)
in-process, and the script prints the exit code, the carrier dimension,
the wall time and the sha256 of stdout, so the timing can be reproduced
and the output compared across checkouts.  The package is imported from
this checkout's src/, installed or not.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from coendforge import cli  # noqa: E402
from workloads import zigzag_spec  # noqa: E402

P = 2


def main(argv) -> int:
    top = int(argv[0]) if argv else 40
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for n in range(10, top + 1, 10):
            path = Path(tmp) / f"zigzag{n}.json"
            path.write_text(json.dumps(zigzag_spec(P, n, random.Random(n)), sort_keys=True),
                            encoding="utf-8")
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["bcoend", str(path), "--functor", "F"])
            dt = time.perf_counter() - t0
            out = buf.getvalue()
            dim = json.loads(out).get("carrier_dim") if code == 0 else None
            ok = code == 0 and dim == 1
            failures += not ok
            print(f"zigzag of {n} lines over padic:{P}: exit {code}, carrier_dim {dim}, "
                  f"{dt * 1e3:.2f} ms, stdout sha256 {hashlib.sha256(out.encode()).hexdigest()}"
                  + ("" if ok else "  FAILED (expected exit 0 and carrier_dim 1)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
