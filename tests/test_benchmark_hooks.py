"""The benchmark's tracer wraps library names where their callers look them up.

perfbench/tracing.py lists those (module, attribute) pairs in PATCH_POINTS.
Renaming one of them, say an import in cli, breaks only a traced benchmark
run, which the unit tests do not make; this test checks each pair resolves.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# run_path compiles the source in memory: it imports nothing from perfbench
# and writes no bytecode cache next to the file
PATCH_POINTS = runpy.run_path(str(TRACING))["PATCH_POINTS"]


@pytest.mark.parametrize("module, attr, layer", PATCH_POINTS,
                         ids=[f"{m}.{a}" for m, a, _ in PATCH_POINTS])
def test_patch_point_resolves_to_a_callable(module, attr, layer):
    target = getattr(importlib.import_module(f"transient_lab.{module}"), attr, None)
    assert callable(target), f"transient_lab.{module}.{attr} (layer {layer})"
