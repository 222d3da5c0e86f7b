"""Seeded inputs and the fixed job list of each workload.

A workload's job-list function takes the freshly imported package, a seeded
`random.Random` and a scratch directory, and returns its jobs.  The seed
changes scalars, weights and bases but not the structure that sets the cost
(ladder sizes, block shapes, p-adic valuations), so runs with different
seeds do the same amount of work on different inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
from checks import CliOutcome


@dataclass
class Job:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], str] = CliOutcome.digest
    # documented window-oracle refusals are not failures; see NOTES.md
    may_refuse: bool = False


def run_cli(cli, argv) -> CliOutcome:
    """Run one CLI command in-process and capture its stdout.  A window
    oracle refusal is recorded whether it escapes as ArithmeticError (as at
    fa0051b) or is reported with a nonzero exit code and JSON problems."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except ArithmeticError as exc:
        if "window oracle" not in str(exc):
            raise
        return CliOutcome(None, buf.getvalue(), str(exc))
    out = buf.getvalue()
    if code != 0 and "window oracle" in out:
        return CliOutcome(code, out, f"exit {code}: window oracle refusal")
    return CliOutcome(code, out)


def _cli_job(pkg, name, argv, check, may_refuse=False) -> Job:
    # pkg.cli.main is looked up per call so a traced pass sees the wrapper
    return Job(name, lambda: run_cli(pkg.cli, argv), check, may_refuse=may_refuse)


def _write_spec(workdir: Path, name: str, spec: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(spec, indent=1, sort_keys=True), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# reconstruct_ladder: comatrix(d) over Q and F_7
# ---------------------------------------------------------------------------

RECONSTRUCT_LADDER = [("q", d) for d in (4, 5, 6, 7)] + [("fp:7", d) for d in (4, 5, 6, 7)]


def _field_scalars(field, rng, count):
    """Nonzero scalars: small signed integers over Q, units mod p over F_p."""
    if getattr(field, "kind", None) == "fp":
        return [rng.randint(1, field.p - 1) for _ in range(count)]
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5)) for _ in range(count)]


def comatrix_input(pkg, field, d: int, rng):
    """comatrix(d) from its closed form, and the standard comodule K^d seen
    through a seeded monomial change of basis g (a permutation times
    nonzero scalars): rho' = (g^-1 (x) id) o coev o g.  The basis change
    keeps the coaction as sparse as the standard one."""
    el = pkg.exactlinalg
    one, zero = field.one(), field.zero()

    def to_field(rows):
        return tuple(tuple(one if a else zero for a in row) for row in rows)

    x = el.Space.std(d)
    carrier = el.Space.std(d * d, prefix="c")
    delta = el.LinearMap(field, carrier, el.tensor_space(carrier, carrier),
                         to_field(checks.comatrix_delta_rows(d)))
    counit = el.LinearMap(field, carrier, pkg.cohom.unit_space(),
                          to_field(checks.comatrix_counit_rows(d)))
    coalgebra = pkg.cohom.Coalgebra(carrier, delta, counit)
    sigma = list(range(d))
    rng.shuffle(sigma)
    sigma_inv = [sigma.index(j) for j in range(d)]
    s = _field_scalars(field, rng, d)
    rows = [[zero] * d for _ in range(d * d * d)]
    for i in range(d):
        for j in range(d):
            # g x_i = s_i x_sigma(i); coev x_k = sum_j x_j (x) e_(j,k)
            row = sigma_inv[j] * d * d + j * d + sigma[i]
            rows[row][i] = field.mul(s[i], field.invert(s[sigma_inv[j]]))
    rho = el.LinearMap(field, x, el.tensor_space(x, carrier),
                       tuple(tuple(r) for r in rows))
    return coalgebra, pkg.cohom.Comodule(x, coalgebra, rho)


def reconstruct_ladder(pkg, rng, workdir) -> list[Job]:
    jobs = []
    for desc, d in RECONSTRUCT_LADDER:
        field = pkg.exactlinalg.field_from_descriptor(desc)
        coalgebra, comodule = comatrix_input(pkg, field, d, rng)
        space = pkg.exactlinalg.Space.std(d)
        jobs.append(Job(
            f"coend_object {desc} d={d}",
            lambda space=space, field=field: pkg.cohom.coend_object(space, field),
            lambda ce, d=d: checks.check_comatrix(
                d, ce.coalgebra.delta.entries, ce.coalgebra.counit.entries),
            lambda ce: str(hash((ce.coalgebra.delta.entries,
                                 ce.coalgebra.counit.entries))),
        ))
        jobs.append(Job(
            f"reconstruct {desc} d={d}",
            lambda c=coalgebra, m=comodule: pkg.reconstruct.reconstruct_coalgebra(
                c, {"std": m}),
            lambda res, d=d: checks.check_reconstruction(
                d, res.verdict, res.coend.carrier.dim),
            lambda res: f"{res.verdict} {hash(res.h.entries)}",
        ))
    return jobs


# ---------------------------------------------------------------------------
# hopf_ladder: CLI hopf on Z/n gradings
# ---------------------------------------------------------------------------

HOPF_LADDER = [("q", n) for n in (8, 12, 16)] + [("fp:7", n) for n in (8, 12, 16)]


def zn_grading_spec(desc: str, n: int, rng) -> dict:
    """Z/n acting on n copies of the line K.  The structure maps are a
    seeded coboundary xi_{a,b} = l_a l_b / l_{a+b} (which satisfies the
    associativity and unit squares) and seeded dual identifications; the
    induced Hopf algebra is K[Z/n] whatever the scalars are."""
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


def hopf_ladder(pkg, rng, workdir) -> list[Job]:
    jobs = []
    for desc, n in HOPF_LADDER:
        path = _write_spec(workdir, f"z{n}-{desc.replace(':', '')}",
                           zn_grading_spec(desc, n, rng))
        jobs.append(_cli_job(pkg, f"hopf {desc} n={n}",
                             ["hopf", path, "--functor", "F"],
                             lambda out, n=n: checks.check_zn_hopf(n, out)))
    return jobs


# ---------------------------------------------------------------------------
# bcoend_certified: certified bounded coends over padic:p
# ---------------------------------------------------------------------------

ZIGZAG_SIZES = (10, 12, 14)
# (prime, weights of a, weights of b); the last one is refused by the oracle
K2_CASES = [(2, (0, 1), (0, 0)), (3, (0, 0), (0, 1)), (3, (0, 0), (0, 2))]


def _unit(p: int, rng) -> int:
    return rng.choice([u for u in range(-9, 10) if u % p])


def zigzag_spec(p: int, n: int, rng) -> dict:
    """n weighted lines joined by alternating arrows l0 -> l1 <- l2 -> ...
    with seeded scalars p^e * unit.  Every arrow is invertible, so the coend
    is one line whose class has quotient norm 1."""
    objs = [f"l{i}" for i in range(n)]
    morphisms, maps = [], {}
    for i in range(n - 1):
        dom, cod = (objs[i], objs[i + 1]) if i % 2 == 0 else (objs[i + 1], objs[i])
        morphisms.append({"name": f"f{i}", "dom": dom, "cod": cod})
        maps[f"f{i}"] = [[str(Fraction(p) ** rng.randint(-2, 2) * _unit(p, rng))]]
    return {
        "field": f"padic:{p}",
        "spaces": {f"L{i}": {"labels": [f"x{i}"], "weights": [rng.randint(-2, 2)]}
                   for i in range(n)},
        "categories": {"Zigzag": {"objects": objs, "morphisms": morphisms,
                                  "composition": []}},
        "functors": {"F": {"source": "Zigzag",
                           "objects": {o: f"L{i}" for i, o in enumerate(objs)},
                           "morphisms": maps}},
    }


def k2_spec(p: int, wa, wb, rng) -> dict:
    """One arrow K^2 -> K^2 given by a seeded diagonal matrix of p-adic
    units; the weights are fixed, so the oracle's windows are too."""
    a = [[str(_unit(p, rng)), "0"], ["0", str(_unit(p, rng))]]
    return {
        "field": f"padic:{p}",
        "spaces": {"Ka": {"labels": ["a0", "a1"], "weights": list(wa)},
                   "Kb": {"labels": ["b0", "b1"], "weights": list(wb)}},
        "categories": {"Arrow": {"objects": ["a", "b"],
                                 "morphisms": [{"name": "f", "dom": "a", "cod": "b"}],
                                 "composition": []}},
        "functors": {"F": {"source": "Arrow", "objects": {"a": "Ka", "b": "Kb"},
                           "morphisms": {"f": a}}},
    }


def bcoend_certified(pkg, rng, workdir) -> list[Job]:
    jobs = []
    for n in ZIGZAG_SIZES:
        path = _write_spec(workdir, f"zigzag{n}", zigzag_spec(2, n, rng))
        jobs.append(_cli_job(
            pkg, f"bcoend zigzag n={n}", ["bcoend", path, "--functor", "F"],
            lambda out: checks.check_bcoend(out, 1, [{"exp": 0}])))
    for k, (p, wa, wb) in enumerate(K2_CASES):
        path = _write_spec(workdir, f"k2-{k}", k2_spec(p, wa, wb, rng))
        jobs.append(_cli_job(
            pkg, f"bcoend K2->K2 padic:{p} w={wa}{wb}", ["bcoend", path, "--functor", "F"],
            lambda out: checks.check_bcoend(out, 4), may_refuse=k == len(K2_CASES) - 1))
    jobs.extend(j for j in corpus(pkg, rng, workdir) if " bcoend" in j.name)
    return jobs


# ---------------------------------------------------------------------------
# corpus: the shipped specs
# ---------------------------------------------------------------------------

CORPUS_FILE = Path(__file__).resolve().parent / "corpus_expected.json"


def corpus(pkg, rng, workdir) -> list[Job]:
    """Every command of the shipped corpus, checked against the exit code
    and stdout digest recorded in corpus_expected.json."""
    jobs = []
    for entry in json.loads(CORPUS_FILE.read_text(encoding="utf-8")):
        args = entry["args"]
        argv = [args[0], str(pkg.specs / f"{entry['spec']}.json"), *args[1:]]
        jobs.append(_cli_job(
            pkg, f"{entry['spec']} {' '.join(args)}", argv,
            lambda out, e=entry: checks.check_expected(out, e["exit"], e["sha256"])))
    return jobs


# name -> (job-list function, name of the top-rung job reported as largest_job_s)
WORKLOADS = {
    "reconstruct_ladder": (reconstruct_ladder, "reconstruct q d=7"),
    "hopf_ladder": (hopf_ladder, "hopf q n=16"),
    "bcoend_certified": (bcoend_certified, "bcoend zigzag n=14"),
    "corpus": (corpus, "one_object_k2 equiv --coalgebra M2 --seeds V --probes regular"),
}

