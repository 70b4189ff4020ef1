"""The benchmark's per-layer tracer wraps library functions by the names
their callers look them up by; a renamed or deleted name must fail here,
not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import bcsi.cli
import bcsi.info_measures
import bcsi.rate_regions

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_restored():
    layers = _load_layers()
    originals = (bcsi.rate_regions.entropy, bcsi.cli.emit)
    tracer = layers.install(layers.Tracer(), [])
    try:
        assert bcsi.rate_regions.entropy is not originals[0]
    finally:
        tracer.close()
    assert (bcsi.rate_regions.entropy, bcsi.cli.emit) == originals
    assert bcsi.rate_regions.entropy is bcsi.info_measures.entropy
