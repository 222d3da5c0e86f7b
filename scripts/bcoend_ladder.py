#!/usr/bin/env python3
"""Certified bounded coend ladder: one dense arrow K^k -> K^k over padic:3.

Usage: python scripts/bcoend_ladder.py [max_k]

For k = 2 .. max_k (default 6) this writes a spec with one arrow a -> b
between two weighted copies of K^k.  The arrow's entries are 3^e * unit with
e in 0..2 and a unit in -9..9 prime to 3, and the weights of both spaces are
mixed in -2..2; all of it comes from a fixed seed, and an arrow that is not
invertible is drawn again.  An invertible arrow makes the coend the comatrix
coalgebra of K^k, so the carrier dimension must be k^2.  Each spec then runs
through the CLI command `bcoend` (certified, its default) in-process, and
the script prints the carrier dimension, the wall time and the sha256 of
stdout, so the timing can be reproduced and the output compared across
checkouts.  The package is imported from this checkout's src/, installed or
not.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coendforge import cli  # noqa: E402

P = 3
SEED = 13


def rank(rows) -> int:
    """Rank of a matrix of Fractions by plain Gaussian elimination."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            t = rows[i][c] / rows[r][c]
            rows[i] = [x - t * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def arrow_spec(k: int, rng) -> dict:
    units = [u for u in range(-9, 10) if u % P]
    while True:
        a = [[Fraction(P ** rng.randint(0, 2) * rng.choice(units)) for _ in range(k)]
             for _ in range(k)]
        if rank(a) == k:
            break
    space = {name: {"labels": [f"{name[1]}{i}" for i in range(k)],
                    "weights": [rng.randint(-2, 2) for _ in range(k)]}
             for name in ("Ka", "Kb")}
    return {
        "field": f"padic:{P}",
        "spaces": space,
        "categories": {"Arrow": {"objects": ["a", "b"],
                                 "morphisms": [{"name": "f", "dom": "a", "cod": "b"}],
                                 "composition": []}},
        "functors": {"F": {"source": "Arrow", "objects": {"a": "Ka", "b": "Kb"},
                           "morphisms": {"f": [[str(x) for x in row] for row in a]}}},
    }


def main(argv) -> int:
    max_k = int(argv[0]) if argv else 6
    rng = random.Random(SEED)
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(2, max_k + 1):
            path = Path(tmp) / f"arrow{k}.json"
            path.write_text(json.dumps(arrow_spec(k, rng), sort_keys=True), encoding="utf-8")
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["bcoend", str(path), "--functor", "F"])
            dt = time.perf_counter() - t0
            out = buf.getvalue()
            dim = json.loads(out).get("carrier_dim") if code == 0 else None
            ok = code == 0 and dim == k * k
            failures += not ok
            print(f"K^{k} -> K^{k} over padic:{P}: exit {code}, carrier_dim {dim}, "
                  f"{dt:.2f} s, stdout sha256 {hashlib.sha256(out.encode()).hexdigest()}"
                  + ("" if ok else f"  FAILED (expected exit 0 and carrier_dim {k * k})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
