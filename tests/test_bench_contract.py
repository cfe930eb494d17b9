"""The traced benchmark run rebinds package functions by name.

``bench/spans.py`` lists them in ``TRACED`` and ``NODE_COUNTER``; a rename
or removal in the package would break the traced run only when it is next
used. This test reads that file, unchanged, and checks that every name still
resolves in its ``shoberry`` module.
"""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_namespace() -> dict:
    namespace = {"__name__": "bench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    return namespace


def test_traced_names_resolve_in_the_package():
    spans = _spans_namespace()
    missing = []
    for layer, functions in spans["TRACED"].items():
        module = importlib.import_module(f"shoberry.{layer}")
        for qualname in functions:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if not callable(vars(owner).get(attr)):
                missing.append(f"{layer}.{qualname}")
    layer, name = spans["NODE_COUNTER"]
    if not callable(getattr(importlib.import_module(f"shoberry.{layer}"), name, None)):
        missing.append(f"{layer}.{name}")
    assert not missing, f"bench/spans.py names no longer in shoberry: {missing}"
