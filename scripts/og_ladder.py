#!/usr/bin/env python3
"""Reconstruction ladder: the function coalgebra O(G) of a finite group G
from its regular comodule.

Usage: python scripts/og_ladder.py [n]

For the first n groups (default 3) of S3, S4 and S4 x Z/2, over q and over
fp:7, this builds O(G) from the group table: the basis is the delta
functions d_g, the comultiplication is d_g |-> sum over ab = g of
d_a (x) d_b, and the counit picks out the identity.  The group table comes
from composing permutations in plain Python, with no help from the package.
The regular comodule (O(G), Delta) is the only seed; its hom space is the
left-multiplication action of G, so the coend has |G| * |G| ambient
coordinates and many relations, and reconstruction must give back O(G),
of dimension |G|.

Each rung prints the verdict, the carrier dimension, the wall time of
`reconstruct_coalgebra`, the peak resident set size of the process so far
(`ru_maxrss`, in kB on Linux) and the sha256 of the comparison map h and of
the coend's comultiplication, so that the timing can be reproduced and the
output compared across checkouts.  The package is imported from this
checkout's src/, installed or not.
"""

import hashlib
import itertools
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coendforge.cohom import Coalgebra, Comodule  # noqa: E402
from coendforge.exactlinalg import (  # noqa: E402
    QQ, LinearMap, PrimeField, Space, tensor_space,
)
from coendforge.reconstruct import reconstruct_coalgebra  # noqa: E402


def symmetric_group(k: int) -> list[tuple]:
    return list(itertools.permutations(range(k)))


def compose(p: tuple, q: tuple) -> tuple:
    """p o q for permutations, or for pairs (permutation, bit) of S_k x Z/2."""
    if isinstance(p[0], tuple):
        return compose(p[0], q[0]), (p[1] + q[1]) % 2
    return tuple(p[i] for i in q)


GROUPS = [
    ("S3", symmetric_group(3)),
    ("S4", symmetric_group(4)),
    ("S4 x Z/2", [(p, b) for p in symmetric_group(4) for b in range(2)]),
]
FIELDS = [("q", QQ), ("fp:7", PrimeField(7))]


def function_coalgebra(field, elements: list) -> Coalgebra:
    """O(G) on the basis d_g, in the order of elements."""
    n = len(elements)
    index = {g: i for i, g in enumerate(elements)}
    one = field.one()
    delta = [{} for _ in range(n)]
    for a, ga in enumerate(elements):
        for b, gb in enumerate(elements):
            delta[index[compose(ga, gb)]][a * n + b] = one
    identity_element = next(g for g in elements if all(compose(g, h) == h for h in elements))
    counit = [{0: one} if g == identity_element else {} for g in elements]
    carrier = Space.std(n, prefix="d")
    return Coalgebra(
        carrier,
        LinearMap.from_sparse(field, carrier, tensor_space(carrier, carrier), delta),
        LinearMap.from_sparse(field, carrier, Space.std(1, prefix="k"), counit),
    )


def digest(field, *maps: LinearMap) -> str:
    """sha256 of the maps' shapes and sparse columns, entries in the wire format."""
    h = hashlib.sha256()
    for m in maps:
        h.update(f"{m.dom.dim}x{m.cod.dim}|".encode())
        for col in m.cols:
            h.update(repr(sorted((i, field.fmt(a)) for i, a in col.items())).encode())
    return h.hexdigest()


def main(argv) -> int:
    n = int(argv[0]) if argv else len(GROUPS)
    failures = 0
    for name, elements in GROUPS[:n]:
        for fname, field in FIELDS:
            c = function_coalgebra(field, elements)
            t0 = time.perf_counter()
            res = reconstruct_coalgebra(c, {"regular": Comodule(c.carrier, c, c.delta)})
            dt = time.perf_counter() - t0
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            dim = res.coend.carrier.dim
            ok = res.verdict == "Isomorphism" and dim == len(elements)
            failures += not ok
            print(f"O({name}) over {fname}: {res.verdict}, carrier_dim {dim}, {dt:.2f} s, "
                  f"maxrss {rss} kB, sha256 {digest(field, res.h, res.coend.coalgebra.delta)}"
                  + ("" if ok else f"  FAILED (expected Isomorphism and carrier_dim "
                                   f"{len(elements)})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
