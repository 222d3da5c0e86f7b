#!/usr/bin/env python3
"""Hopf ladder: the CLI command `hopf` on seeded Z/n gradings.

Usage: python scripts/hopf_ladder.py [max_n]

For n = 8, 16, ... up to max_n (default 48) and each field q and fp:7 this
writes a spec of Z/n acting on n copies of the line K: the tensor table
g_a (x) g_b = g_(a+b), a coboundary xi_(a,b) = l_a l_b / l_(a+b) (which
satisfies every associativity and unit square), xi_unit = 1 / l_0 and
nonzero dual identifications.  The scalars l come from a seed fixed per
rung, so a rung is the same whatever max_n is.  The induced Hopf algebra
is K[Z/n], so the carrier dimension must be n.  Each spec runs through
`hopf` in-process, and the script prints the carrier dimension, the wall
time and the sha256 of stdout, so the timing can be reproduced and the
output compared across checkouts.  The package is imported from this
checkout's src/, installed or not.
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

SEED = 19
FIELDS = ("q", "fp:7")


def grading_spec(desc: str, n: int, rng) -> dict:
    if desc == "q":
        lam = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
               for _ in range(n)]
        inv, fmt = (lambda a: 1 / a), str
    else:
        p = int(desc.split(":")[1])
        lam = [rng.randint(1, p - 1) for _ in range(n)]
        inv, fmt = (lambda a: pow(a, -1, p)), (lambda a: str(a % p))
    objs = [f"g{i}" for i in range(n)]
    return {
        "field": desc,
        "spaces": {"K1": {"dim": 1}},
        "categories": {"Zn": {
            "objects": objs, "morphisms": [], "composition": [],
            "monoidal": {
                "unit": "g0",
                "tensor": [[objs[a], objs[b], objs[(a + b) % n]]
                           for a in range(n) for b in range(n)],
                "duals": {objs[a]: objs[(-a) % n] for a in range(n)},
            },
        }},
        "functors": {"F": {
            "source": "Zn",
            "objects": {o: "K1" for o in objs},
            "morphisms": {},
            "xi": [[objs[a], objs[b], [[fmt(lam[a] * lam[b] * inv(lam[(a + b) % n]))]]]
                   for a in range(n) for b in range(n)],
            "xi_unit": [[fmt(inv(lam[0]))]],
            "dual_maps": {o: [[fmt(lam[rng.randrange(n)])]] for o in objs},
        }},
    }


def main(argv) -> int:
    max_n = int(argv[0]) if argv else 48
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for n in range(8, max_n + 1, 8):
            for desc in FIELDS:
                rng = random.Random(f"{SEED}:{desc}:{n}")
                path = Path(tmp) / f"z{n}-{desc.replace(':', '')}.json"
                path.write_text(json.dumps(grading_spec(desc, n, rng), sort_keys=True),
                                encoding="utf-8")
                buf = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["hopf", str(path), "--functor", "F"])
                dt = time.perf_counter() - t0
                out = buf.getvalue()
                dim = json.loads(out).get("carrier_dim") if code == 0 else None
                ok = code == 0 and dim == n
                failures += not ok
                print(f"Z/{n} over {desc}: exit {code}, carrier_dim {dim}, {dt:.3f} s, "
                      f"stdout sha256 {hashlib.sha256(out.encode()).hexdigest()}"
                      + ("" if ok else f"  FAILED (expected exit 0 and carrier_dim {n})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
