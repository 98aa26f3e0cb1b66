"""The benchmark's tracer (perfbench/spans.py) looks up geoconn functions by
name with a bare getattr; every name it lists must exist."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert Path(spans.__file__).resolve().parent == PERFBENCH
    targets = list(spans.SPANS) + list(spans.COUNT_ONLY)
    assert targets
    missing = [f"{module}.{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(f"geoconn.{module}"),
                                       name, None))]
    assert missing == []
