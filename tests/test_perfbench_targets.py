"""The benchmark's traced targets stay reachable.

perfbench/layers.py names the linkhom functions and methods that a traced
benchmark run wraps.  A target that a rename removes is only reported as
missing, and the layer metrics it feeds then read 0.

Core claims:
    - every TARGETS entry resolves to a callable in linkhom
"""

import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _targets():
    """TARGETS of perfbench/layers.py, executed from its text so that
    nothing is written next to it."""
    namespace = {"__name__": "perfbench_layers"}
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), namespace)
    return [(module, path) for module, path, _, _ in namespace["TARGETS"]]


@pytest.mark.parametrize("module_name, path", _targets(), ids=lambda x: x)
def test_traced_target_is_callable(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{module_name}:{path} is not a callable"
