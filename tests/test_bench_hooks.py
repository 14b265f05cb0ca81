"""The benchmark's span hooks name library functions by string; a rename or deletion fails here first."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from qrf import reps

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers(monkeypatch) -> dict:
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read only: no cache beside the benchmark's files
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_function_resolves_on_its_module(monkeypatch):
    missing = [
        f"{layer}.{name}"
        for layer, names in _layers(monkeypatch).items()
        for name in names
        if not callable(getattr(importlib.import_module(f"qrf.{layer}"), name, None))
    ]
    assert not missing


def test_group_average_takes_mode():
    # the benchmark's flop counter reads the bound ``mode`` argument
    assert "mode" in inspect.signature(reps.group_average).parameters
