"""Every name the benchmark's tracer wraps still exists in wmstat.

``perfbench/tracing.py`` wraps wmstat functions by name; a name that a change
deletes or renames drops out of the traced per-layer metrics silently, so the
tracer is built here over the library under test and must find every name.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrapped_name():
    tracing = _load_tracing()
    assert len(tracing.LAYERS) == 10
    lib = SimpleNamespace(
        **{name: importlib.import_module(f"wmstat.{name}") for name in tracing.LAYERS}
    )
    tracer = tracing.Tracer(lib)
    assert tracer.missing == []
