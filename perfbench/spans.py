"""Outside span recorder for the traced benchmark run.

Each listed public function of `coendforge` is replaced, in every module
that binds it, by a wrapper that records a span (name, job, start, end,
parent) plus the operand sizes named in TARGETS.  Methods (`check`,
`LinearMap.__matmul__`) are patched on their classes.  Nothing under `src/`
is edited, and `uninstall` puts every original binding back, so an untraced
pass runs the unmodified program.

Self time is a span's duration minus the durations of its direct children;
calls are single-threaded, so child intervals never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path, size counters)
# A size counter maps (args, result) to the value added to
# "<prefix>.<counter>"; "ambient_dim" and "carrier_dim" are layer-wide names.
TARGETS = [
    ("exactlinalg.tensor", "exactlinalg", "tensor",
     {"out_cells": lambda a, r: r.cod.dim * r.dom.dim}),
    ("exactlinalg.matmul", "exactlinalg", "LinearMap.__matmul__",
     {"mul_bound": lambda a, r: a[0].cod.dim * a[0].dom.dim * a[1].dom.dim}),
    ("exactlinalg.solve_factor", "exactlinalg", "solve_factor",
     {"aug_cells": lambda a, r: a[1].dom.dim * (a[1].cod.dim + a[0].cod.dim)}),
    ("exactlinalg.kernel", "exactlinalg", "kernel", {}),
    ("exactlinalg.cokernel", "exactlinalg", "cokernel", {}),
    ("exactlinalg.echelon", "exactlinalg", "echelon", {}),
    ("cohom.coalgebra_check", "cohom", "Coalgebra.check", {}),
    ("cohom.comodule_check", "cohom", "Comodule.check", {}),
    ("cohom.bialgebra_check", "cohom", "Bialgebra.check", {}),
    ("cohom.hopf_check", "cohom", "HopfAlgebra.check", {}),
    ("cohom.coend_object", "cohom", "coend_object", {}),
    ("cohom.is_coalgebra_morphism", "cohom", "is_coalgebra_morphism", {}),
    ("fincat.check_monoidal", "fincat", "check_monoidal", {}),
    ("fincat.validate_functor", "fincat", "validate_functor", {}),
    ("fincat.validate_category", "fincat", "validate_category", {}),
    ("coend.coend_of_diagram", "coend", "coend_of_diagram",
     {"coend.ambient_dim": lambda a, r: r.nspace.dim,
      "coend.carrier_dim": lambda a, r: r.carrier.dim}),
    ("coend.coalgebra_on_coend", "coend", "coalgebra_on_coend", {}),
    ("coend.comodule_on", "coend", "comodule_on", {}),
    ("coend.verify_cowedge", "coend", "verify_cowedge", {}),
    ("coend.bialgebra_from_monoidal", "coend", "bialgebra_from_monoidal", {}),
    ("coend.antipode_from_monoidal", "coend", "antipode_from_monoidal", {}),
    ("coend.factor_through_coend", "coend", "factor_through_coend", {}),
    ("coend.epi_to_c_coend", "coend", "epi_to_c_coend", {}),
    ("reconstruct.comodule_hom_basis", "reconstruct", "comodule_hom_basis", {}),
    ("reconstruct.reconstruct_coalgebra", "reconstruct", "reconstruct_coalgebra", {}),
    ("reconstruct.equivalence_check", "reconstruct", "equivalence_check", {}),
    ("padic_banach.quotient_norm", "padic_banach", "quotient_norm", {}),
    ("padic_banach.quotient_norm_bruteforce", "padic_banach",
     "quotient_norm_bruteforce", {}),
    ("padic_banach.operator_norm", "padic_banach", "operator_norm", {}),
    ("padic_banach.bounded_coend", "padic_banach", "bounded_coend", {}),
    ("specfile.load_spec", "specfile", "load_spec", {}),
    ("cli.main", "cli", "main", {}),
]


def _counter_name(prefix: str, counter: str) -> str:
    return counter if "." in counter else f"{prefix}.{counter}"


# every per-layer metric the traced run reports, with its unit
LAYER_UNITS = {
    **{f"{prefix}.{kind}": ("s" if kind == "self_s" else "count")
       for prefix, _m, _a, _s in TARGETS for kind in ("calls", "self_s")},
    **{_counter_name(prefix, k): "count" for prefix, _m, _a, sizes in TARGETS for k in sizes},
}


class SpanRecorder:
    """Holds the spans of one process in memory; `install` patches the
    package, `uninstall` restores it."""

    def __init__(self, package: str = "coendforge"):
        self.package = package
        self.spans: list[tuple] = []  # (name, job, start, end, parent, self_s, sizes)
        self.job = None
        self._stack: list[list] = []  # [span index, summed child duration]
        self._restore: list[tuple] = []

    # -- patching -------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("wrappers are already installed")
        modules = self._modules()
        for prefix, modname, path, sizes in TARGETS:
            module = sys.modules[f"{self.package}.{modname}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(prefix, original, sizes))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(prefix, original, sizes)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, prefix, fn, sizes):
        counters = [(_counter_name(prefix, k), f) for k, f in sizes.items()]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (prefix, self.job, start, end, parent,
                                duration - frame[1], None)
            if counters:
                spans[index] = spans[index][:6] + (
                    tuple((name, f(args, result)) for name, f in counters),)
            return result

        return wrapper

    # -- reading --------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """calls, self_s and size sums per metric over the recorded spans."""
        out: dict[str, float] = defaultdict(float)
        for prefix, _job, _s, _e, _p, self_s, sizes in self.spans:
            out[f"{prefix}.calls"] += 1
            out[f"{prefix}.self_s"] += self_s
            for name, value in sizes or ():
                out[name] += value
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: index, name, job, start, end,
        parent index, self time, sizes."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tjob\tstart\tend\tparent\tself_s\tsizes\n")
            for i, (name, job, start, end, parent, self_s, sizes) in enumerate(self.spans):
                size_text = ",".join(f"{k}={v}" for k, v in sizes or ())
                fh.write(f"{i}\t{name}\t{job}\t{start:.9f}\t{end:.9f}\t{parent}"
                         f"\t{self_s:.9f}\t{size_text}\n")
