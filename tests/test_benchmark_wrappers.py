"""The names the benchmark's traced runs wrap (perfbench/spans.py) exist,
a traced tradeoff run records a span for each of its layers, and one tiny
round of every benchmark workload (perfbench/workloads.py) passes its own
checks."""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

import mdlgauge
from mdlgauge import cli, lexcount, mdl, sampling, term, tradeoff, treedist, viscosity
from mdlgauge.tradeoff import DomainSpec, emit_tradeoff_points
from support import reference_lex

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks a class's module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_tradeoff_run_records_each_layer():
    spans = load_perfbench("spans")
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


WORKLOADS = load_perfbench("workloads")


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_a_tiny_round_of_each_workload_passes_its_checks(workload, corpus, tmp_path):
    # The same namespace of modules that perfbench/run.py hands the workloads.
    lib = types.SimpleNamespace(
        cli=cli,
        lexcount=lexcount,
        mdl=mdl,
        sampling=sampling,
        term=term,
        tradeoff=tradeoff,
        treedist=treedist,
        viscosity=viscosity,
        package=mdlgauge,
        reference_lex=reference_lex,
    )
    ctx = WORKLOADS.Context(lib, 1, True, corpus, reference_lex, tmp_path)
    ops, probes = WORKLOADS.build_round(ctx, workload, 0)
    assert ops
    for op in ops + probes:
        assert op.check(op.call()) is None, (op.kind, op.inputs[:200])
