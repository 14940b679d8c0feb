"""The benchmark's per-layer metrics name functions that its tracer looks
up by name: each must stay a public module-level function of its module."""

from __future__ import annotations

import inspect
import json
from importlib import import_module
from pathlib import Path

from couplingcert.groups import GroupModel

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_per_layer_metrics_name_public_functions():
    names = {m["name"].rsplit(".", 1)[0] for m in json.loads(SPEC.read_text())["per_layer"]}
    names.discard("trace")  # the tracer's own overhead
    for name in sorted(names):
        module, attr = name.split(".")
        if module == "groups":
            # group arithmetic is counted per call on the model classes
            assert attr in ("mul", "inv") and inspect.isfunction(getattr(GroupModel, attr))
            continue
        mod = import_module(f"couplingcert.{module}")
        fn = getattr(mod, attr, None)
        assert not attr.startswith("_"), name
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name
