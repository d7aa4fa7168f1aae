"""The benchmark's layer-tracing wrap table still matches the program.

``perfbench/tracing.py`` times each layer by replacing the callables
listed in its ``SPANS`` table with wrappers, looked up as
``owner.__dict__[attr]``. A callable that is renamed, removed, or only
inherited (so absent from its owner's own ``__dict__``) breaks traced
benchmark runs. This test loads the table by path and resolves every
entry the same way, so such a change fails here first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_wrapped_layer_resolves_in_its_owner_dict():
    spans = load_spans()
    assert spans
    for module_name, owner_path, attr, span_name in spans:
        owner = importlib.import_module(module_name)
        if owner_path:
            owner = getattr(owner, owner_path)
        assert attr in owner.__dict__, (module_name, owner_path, attr, span_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            raw = raw.__func__
        assert callable(raw), (module_name, owner_path, attr, span_name)
