"""The benchmark's span recorder patches package functions by name, so a
rename inside `src/` would break the benchmark only when it runs.  This
reads the recorder's target list, without patching anything, and resolves
every entry against the package: a module attribute, or an entry of a
class's own namespace for a dotted path."""

import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_targets():
    # executed from its source text, so no bytecode cache is written beside it
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    return namespace["TARGETS"]


TARGETS = load_targets()


@pytest.mark.parametrize("target", TARGETS, ids=[t[0] for t in TARGETS])
def test_benchmark_target_resolves(target):
    _prefix, modname, path, _sizes = target
    module = importlib.import_module(f"coendforge.{modname}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, path))
