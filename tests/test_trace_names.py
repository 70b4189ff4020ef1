"""The benchmark's per-layer tracer wraps library functions by the names
their callers look them up by, and its worker calls some library functions
directly; a renamed or deleted name, or a changed signature, must fail
here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import bcsi.cli
import bcsi.info_measures
import bcsi.rate_regions
from bcsi.probability import Alphabet, Pmf, noiseless_channel
from bcsi.rate_regions import SplitRates, specialize_scheme
from bcsi.simulator import SchemeConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_restored():
    layers = _load("layers")
    originals = (bcsi.rate_regions.entropy, bcsi.cli.emit)
    tracer = layers.install(layers.Tracer(), [])
    try:
        assert bcsi.rate_regions.entropy is not originals[0]
    finally:
        tracer.close()
    assert (bcsi.rate_regions.entropy, bcsi.cli.emit) == originals
    assert bcsi.rate_regions.entropy is bcsi.info_measures.entropy


def test_worker_times_codebooks_of_a_captured_config():
    """The worker draws the codebooks of each captured (channel, config,
    trials) through the library's own calls."""
    worker = _load("worker")
    ch = noiseless_channel(2)
    scheme = specialize_scheme("complementary", Pmf.uniform(Alphabet.indexed("X", 2)), ch)
    cfg = SchemeConfig(scheme=scheme, n=4, rates=SplitRates(r1=0.5), seed=3)
    out = worker.time_codebooks([(ch, cfg, 6)], sample=2)
    assert set(out) == {"simulator.codebook.s", "simulator.codebook.mb"}
    assert out["simulator.codebook.s"] > 0.0
    assert out["simulator.codebook.mb"] > 0.0
