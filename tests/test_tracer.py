"""The benchmark tracer must still find every function it wraps.

``benchmarks/tracer.py`` rebinds omlab's public functions by name, so a
refactor that renames or removes one breaks traced benchmark runs.  This
installs the tracer, makes one traced call, and restores the originals.
"""

import importlib.util
from pathlib import Path

from omlab import alternating_rank2, oriented
from omlab.matroid import MinorSpec

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("omlab_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_target():
    tracer_module = load_tracer()
    original = oriented.induced_signature
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert oriented.induced_signature is not original
        oriented.induced_signature(alternating_rank2(4), MinorSpec.of(delete=[0]))
    finally:
        tracer.uninstall()
    assert oriented.induced_signature is original
    assert tracer.stats["oriented.induced_signature"]["calls"] == 1
