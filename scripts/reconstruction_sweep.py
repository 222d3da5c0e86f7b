#!/usr/bin/env python3
"""Reconstruction sweep: rebuild cyclic group coalgebras and comatrix
coalgebras from their comodule categories, over several fields, and report
verdicts and timings.

Usage: python scripts/reconstruction_sweep.py [max_n] [max_dim]

max_n (default 4) bounds the cyclic groups Z/n, max_dim (default 3) the
comatrix coalgebras comatrix(d), whose dimension is d^2.  The package is
imported from this checkout's src/, installed or not.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coendforge.cohom import Comodule, coend_object, grouplike_coalgebra  # noqa: E402
from coendforge.exactlinalg import QQ, LinearMap, PrimeField, Space, tensor_space  # noqa: E402
from coendforge.reconstruct import equivalence_check, reconstruct_coalgebra  # noqa: E402


def graded_line(field, c, degree, n):
    v = Space.std(1, prefix=f"l{degree}")
    rows = [[field.zero()] for _ in range(n)]
    rows[degree][0] = field.one()
    return Comodule(v, c, LinearMap(field, v, tensor_space(v, c.carrier),
                                    tuple(tuple(r) for r in rows)))


def sweep_group_coalgebras(max_n):
    for field, fname in [(QQ, "Q"), (PrimeField(5), "F_5")]:
        for n in range(2, max_n + 1):
            c = grouplike_coalgebra(field, [f"g{i}" for i in range(n)])
            seeds = {f"k{i}": graded_line(field, c, i, n) for i in range(n)}
            t0 = time.perf_counter()
            res = reconstruct_coalgebra(c, seeds)
            dt = time.perf_counter() - t0
            print(f"K[Z/{n}] over {fname:4s} -> {res.verdict:13s} "
                  f"(coend dim {res.coend.carrier.dim}, {dt * 1000:.1f} ms)")
            partial = {f"k{i}": seeds[f"k{i}"] for i in range(n - 1)}
            res_partial = reconstruct_coalgebra(c, partial)
            print(f"   without the top seed -> {res_partial.verdict}")


def sweep_comatrix(max_dim):
    for d in range(1, max_dim + 1):
        ce = coend_object(Space.std(d), QQ)
        c = ce.coalgebra
        com = Comodule(Space.std(d), c, ce.cohom.coev)
        t0 = time.perf_counter()
        res = reconstruct_coalgebra(c, {"std": com})
        dt = time.perf_counter() - t0
        print(f"comatrix({d}x{d})     -> {res.verdict:13s} "
              f"(coend dim {res.coend.carrier.dim}, {dt * 1000:.1f} ms)")
        if d <= 2:
            verdict = equivalence_check(
                c, {"std": com}, {"regular": Comodule(c.carrier, c, c.delta)}
            )
            print(f"   equivalence with regular probe -> ok={verdict.ok}")


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    max_dim = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    print("== cyclic group coalgebras ==")
    sweep_group_coalgebras(max_n)
    print("== comatrix coalgebras ==")
    sweep_comatrix(max_dim)


if __name__ == "__main__":
    main()
