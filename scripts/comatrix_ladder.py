#!/usr/bin/env python3
"""Reconstruction ladder: the comatrix coalgebra comatrix(d) from one
seeded monomial comodule.

Usage: python scripts/comatrix_ladder.py [N]

For d = 4..N (default 8), over q and over fp:7, this takes comatrix(d) and
the standard comodule K^d seen through a seeded monomial change of basis
(a permutation times nonzero scalars) from the reconstruct_ladder
workload's input builder (`perfbench/workloads.comatrix_input`), seeded
with `random.Random(d)`.  The inputs are written densely there; their
sparse columns are built before the clock starts, so no dense input is
converted inside the timed step.  The comodule is the only seed;
reconstruction must give back comatrix(d), of dimension d^2.

Each rung prints the verdict, the carrier dimension, the wall time of
`reconstruct_coalgebra` in ms, the peak resident set size of the process
so far (`ru_maxrss`, in kB on Linux) and the sha256 of the comparison map h
and of the coend's comultiplication, so that the timing can be reproduced and the
output compared across checkouts.  The package is imported from this
checkout's src/, installed or not.
"""

import hashlib
import importlib
import random
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from coendforge.exactlinalg import QQ, LinearMap, PrimeField  # noqa: E402
from coendforge.reconstruct import reconstruct_coalgebra  # noqa: E402
from workloads import comatrix_input  # noqa: E402

FIELDS = [("q", QQ), ("fp:7", PrimeField(7))]
# the modules comatrix_input reads, as perfbench hands them over
PKG = SimpleNamespace(**{m: importlib.import_module(f"coendforge.{m}")
                         for m in ("cohom", "exactlinalg")})


def digest(field, *maps: LinearMap) -> str:
    """sha256 of the maps' shapes and sparse columns, entries in the wire format."""
    h = hashlib.sha256()
    for m in maps:
        h.update(f"{m.dom.dim}x{m.cod.dim}|".encode())
        for col in m.cols:
            h.update(repr(sorted((i, field.fmt(a)) for i, a in col.items())).encode())
    return h.hexdigest()


def main(argv) -> int:
    top = int(argv[0]) if argv else 8
    failures = 0
    for d in range(4, top + 1):
        for fname, field in FIELDS:
            c, seed = comatrix_input(PKG, field, d, random.Random(d))
            for m in (c.delta, c.counit, seed.rho):
                m.cols  # the dense-to-sparse conversion, outside the clock
            t0 = time.perf_counter()
            res = reconstruct_coalgebra(c, {"std": seed})
            dt = time.perf_counter() - t0
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            dim = res.coend.carrier.dim
            ok = res.verdict == "Isomorphism" and dim == d * d
            failures += not ok
            sha = digest(field, res.h, res.coend.coalgebra.delta)
            print(f"comatrix({d}) over {fname}: {res.verdict}, carrier_dim {dim}, "
                  f"{dt * 1e3:.2f} ms, maxrss {rss} kB, sha256 {sha}"
                  + ("" if ok else f"  FAILED (expected Isomorphism and carrier_dim {d * d})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
