"""The benchmark's span tracer rebinds dgsum names; they must all still exist."""

import importlib
import importlib.util
from pathlib import Path

from dgsum.gaussian import GaussianShape
from dgsum.intmat import IntMatrix
from dgsum.tvd import FiberWorkspace

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracer = load_tracer()
    for module, function in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"dgsum.{module}"), function, None)), (module, function)
    for method in tracer.METHODS:
        assert method in FiberWorkspace.__dict__, method
    # workspace attributes the tracer reads to count box points
    ws = FiberWorkspace(IntMatrix.from_rows([[1, 1]]), GaussianShape.spherical(2.0), [0.0, 0.0])
    for attr in ("kernel", "box", "box_w", "section_radius"):
        assert hasattr(ws, attr), attr
