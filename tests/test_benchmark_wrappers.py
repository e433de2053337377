"""The names the benchmark's traced runs wrap (perfbench/spans.py) exist,
and a traced tradeoff run records a span for each of its layers."""

import importlib.util
import types
from pathlib import Path

from mdlgauge import cli, mdl, tradeoff, viscosity
from mdlgauge.tradeoff import DomainSpec, emit_tradeoff_points

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_tradeoff_run_records_each_layer():
    spans = load_spans()
    tracer = spans.Tracer("test")
    lib = types.SimpleNamespace(cli=cli, tradeoff=tradeoff, viscosity=viscosity, mdl=mdl)
    spans.install_wrappers(tracer, lib)
    try:
        emit_tradeoff_points(DomainSpec(1, 6, 60, 2, 6, 0.4))
    finally:
        tracer.unwrap_all()
    assert {span["name"] for span in tracer.spans} == {
        "tradeoff.generate_corpus",
        "tradeoff.compress.L0",
        "tradeoff.compress.L1",
        "tradeoff.compress.L2",
    }
    assert tradeoff._compress is tradeoff.compress_with_level
