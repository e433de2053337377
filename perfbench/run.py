"""The mdlgauge benchmark.

    python3 perfbench/run.py --workload tradeoff|editdist|files \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The work runs in one process with no threads; child interpreters only
time the import and the start-up.  Set-up (a fresh-interpreter import of mdlgauge,
generating the first round's inputs, and a warm-up round on tiny inputs)
is repeated several times and its median reported.  Then whole rounds of
the workload run for ``--seconds`` (at least one); every op's output is
checked after its round.  Times are in nominal seconds: see ``pace``.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` the named workload first runs one untraced round, then
traced rounds for ``--seconds``, and each other workload one traced round,
because each per-layer metric comes from the workload that exercises its
layer; the spans go to ``perfbench/out/`` as one JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC, CORPUS, TESTS = ROOT / "src", ROOT / "corpus", ROOT / "tests"
OUT = HERE / "out"
REQUIRED = (SRC / "mdlgauge" / "cli.py", CORPUS / "scenario.json", TESTS / "support.py")

SETUP_REPEATS = 5
STARTUP_SPAWNS = 5
# A tail percentile needs this many ops beyond it.
TAIL_BEYOND = 10

sys.path.insert(0, str(HERE))
import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def child_env(lib) -> dict:
    """Environment for a child interpreter: the absolute directory that
    ``mdlgauge`` was imported from on the path, so the child does not
    depend on its working directory."""
    src = Path(lib.package.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def time_import(lib) -> float:
    """Import time of mdlgauge in a fresh interpreter, as a user pays it."""
    code = (
        "import time; t = time.perf_counter(); import mdlgauge.cli; "
        "print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=child_env(lib),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout)


def load_library() -> types.SimpleNamespace:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(TESTS))
    import support

    import mdlgauge
    from mdlgauge import cli, lexcount, mdl, sampling, term, tradeoff, treedist, viscosity

    return types.SimpleNamespace(
        cli=cli,
        lexcount=lexcount,
        mdl=mdl,
        sampling=sampling,
        term=term,
        tradeoff=tradeoff,
        treedist=treedist,
        viscosity=viscosity,
        package=mdlgauge,
        reference_lex=support.reference_lex,
    )


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Bench:
    """One benchmark process: its inputs, the ops it ran and their spans."""

    def __init__(self, lib, seed: int, tmp: Path, tiny: bool):
        self.lib = lib
        self.seed = seed
        self.tmp = tmp
        self.tiny = tiny
        self.ops: list[dict] = []  # one record per op run
        self._issued = 0  # op ids handed out so far
        self.pacer = pace.Pacer()
        self.tracer: spans.Tracer | None = None

    def context(self, workload: str, tiny: bool) -> workloads.Context:
        folder = self.tmp / (workload + ("-tiny" if tiny else ""))
        folder.mkdir(parents=True, exist_ok=True)
        return workloads.Context(
            self.lib, self.seed, tiny, CORPUS, self.lib.reference_lex, folder
        )

    def set_up(self, workload: str) -> tuple[workloads.Context, tuple, dict]:
        """Repeated set-up; returns the context, round 0 and the medians."""
        totals, imports, generates = [], [], []
        for _ in range(SETUP_REPEATS):
            self.pacer.gap()
            begin = perf_counter()
            import_s = time_import(self.lib)
            # The timer starts only now: a reading taken while the child
            # imports would compete with it for the processor.
            with self.pacer.during_ops():
                start, paced = perf_counter(), self.pacer.in_ops_s
                ctx = self.context(workload, self.tiny)
                first = workloads.build_round(ctx, workload, 0)
                generated, paced_generated = perf_counter(), self.pacer.in_ops_s
                warm_ops, _ = workloads.build_round(self.context(workload, True), workload, 0)
                for op in warm_ops:
                    # A failing op is recorded by the timed rounds.
                    with contextlib.suppress(Exception):
                        op.call()
                done, paced_done = perf_counter(), self.pacer.in_ops_s
            self.pacer.gap()
            import_nominal = self.pacer.nominal(import_s, begin, start)
            generate_s = generated - start - (paced_generated - paced)
            in_process_s = done - start - (paced_done - paced)
            imports.append(import_nominal)
            generates.append(self.pacer.nominal(generate_s, start, generated))
            totals.append(import_nominal + self.pacer.nominal(in_process_s, start, done))
        stats = {
            "setup_s": statistics.median(totals),
            "import_s": statistics.median(imports),
            "generate_s": statistics.median(generates),
        }
        return ctx, first, stats

    def run_round(self, workload: str, index: int, built: tuple, traced: bool) -> dict:
        """Time every op of one round, pacing the host between and during
        ops, then check every output and run the deep-chain probes.  Returns
        the round's wall time (the sum of its ops' nominal times) and its op
        records."""
        ops, deep = built
        outputs = []
        first = len(self.pacer.readings)
        self.pacer.gap()
        with self.pacer.during_ops():
            for op in ops:
                outputs.append(self._call(workload, op, traced))
                self.pacer.gap()
        paces = [p for _, p in self.pacer.readings[first:]]
        records = [self._record(workload, index, op, called, traced) for op, called in zip(ops, outputs)]
        for op in deep:
            self._record(workload, index, op, self._call(workload, op, traced), traced)
        return {
            "wall": sum(r["nominal"] for r in records),
            "raw_wall": sum(r["seconds"] for r in records),
            "pace": statistics.median(paces),
            "ops": records,
        }

    def next_id(self) -> int:
        self._issued += 1
        return self._issued - 1

    def _call(self, workload: str, op: workloads.Op, traced: bool) -> tuple:
        op_id = self.next_id()
        span = None
        if traced:
            self.tracer.context = {"workload": workload, "op": op_id}
            span = self.tracer.begin("op." + op.kind)
        output, error = None, None
        pacing = self.pacer.in_ops_s
        start = perf_counter()
        try:
            output = op.call()
        except Exception as exc:  # an op that raises is a failed op
            error = exc
        end = perf_counter()
        if span is not None:
            self.tracer.end(span)
            if error is not None:
                span["failed"] = True
        seconds = end - start - (self.pacer.in_ops_s - pacing)
        return op_id, seconds, start, end, output, error

    def _record(self, workload: str, index: int, op: workloads.Op, called: tuple, traced: bool) -> dict:
        op_id, seconds, start, end, output, error = called
        if error is not None:
            failure = f"raised {type(error).__name__}: {error}"[:200]
        else:
            try:
                failure = op.check(output)
            except Exception as exc:  # a check that cannot parse the output
                failure = f"check raised {type(exc).__name__}: {exc}"[:200]
        record = {
            "id": op_id,
            "workload": workload,
            "round": index,
            "kind": op.kind,
            "seconds": seconds,
            "nominal": self.pacer.nominal(seconds, start, end),
            "failure": failure,
            "traced": traced,
            "work": op.work,
        }
        self.ops.append(record)
        return record


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND ops beyond it, as
    (value, percentile); the maximum when a round has too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / n


def end_to_end(rounds: list[dict], setup: dict) -> tuple[dict, dict]:
    """Median and tail latency per round, then the median over rounds."""
    walls = [r["wall"] for r in rounds]
    rates = [sum(op["failure"] is None for op in r["ops"]) / r["wall"] for r in rounds]
    p50s, tails, percentiles = [], [], []
    for r in rounds:
        latencies = [op["nominal"] for op in r["ops"]]
        p50s.append(statistics.median(latencies))
        value, percentile = tail(latencies)
        tails.append(value)
        percentiles.append(percentile)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(p50s) * 1000, "ms"),
        "op_tail_ms": (statistics.median(tails) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    by_kind: dict[str, list[float]] = {}
    for r in rounds:
        for op in r["ops"]:
            by_kind.setdefault(op["kind"], []).append(op["nominal"])
    details = {
        "rounds": len(rounds),
        "ops_per_round": len(rounds[0]["ops"]),
        "tail_percentile": statistics.median(percentiles),
        "kind_p50_ms": {kind: statistics.median(v) * 1000 for kind, v in sorted(by_kind.items())},
        "round_wall_s": walls,
        "round_raw_wall_s": [r["raw_wall"] for r in rounds],
        "round_pace_ms": [r["pace"] * 1000 for r in rounds],
    }
    return metrics, details


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the result object (plus details)."""
    lib = load_library()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    try:
        bench = Bench(lib, seed, tmp, tiny)
        ctx, first, setup = bench.set_up(workload)
        if trace:
            return _traced(bench, workload, ctx, first, seconds, setup)
        start = perf_counter()
        rounds = [bench.run_round(workload, 0, first, False)]
        while _another_round(start, len(rounds), seconds):
            built = workloads.build_round(ctx, workload, len(rounds))
            rounds.append(bench.run_round(workload, len(rounds), built, False))
        metrics, details = end_to_end(rounds, setup)
        return _result(bench, workload, seed, trace, metrics, details)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _another_round(start: float, done: int, seconds: float) -> bool:
    """Whether one more round, as long as the mean round so far, still
    ends within ``seconds`` of ``start``."""
    elapsed = perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def _traced(bench: Bench, workload: str, ctx, first, seconds: float, setup: dict) -> dict:
    untraced = bench.run_round(workload, 0, first, False)
    bench.tracer = spans.Tracer(f"{workload}-seed{bench.seed}-pid{os.getpid()}")
    spans.install_wrappers(bench.tracer, bench.lib)
    try:
        rounds = []
        start = perf_counter()
        while not rounds or _another_round(start, len(rounds), seconds):
            built = workloads.build_round(ctx, workload, len(rounds))
            rounds.append(bench.run_round(workload, len(rounds), built, True))
        traced_rounds = {workload: len(rounds)}
        for other in workloads.WORKLOADS:
            if other != workload:
                built = workloads.build_round(bench.context(other, bench.tiny), other, 0)
                bench.run_round(other, 0, built, True)
                traced_rounds[other] = 1
    finally:
        bench.tracer.unwrap_all()
    startup = [_startup(bench) for _ in range(STARTUP_SPAWNS)]
    extra = {
        "setup.import_s": (setup["import_s"], "s"),
        "setup.generate_s": (setup["generate_s"], "s"),
        "cli.startup_ms": (statistics.median(startup) * 1000, "ms"),
        "trace.overhead_ratio": (rounds[0]["wall"] / untraced["wall"], "ratio"),
    }
    all_spans = bench.tracer.with_self_times()
    metrics = spans.per_layer_metrics(all_spans, bench.ops, traced_rounds, extra)
    details = {"traced_rounds": traced_rounds, "untraced_wall_s": untraced["wall"]}
    result = _result(bench, workload, bench.seed, True, metrics, details)
    trace_file = OUT / f"trace-{workload}-seed{bench.seed}.json"
    trace_file.write_text(
        json.dumps({"run": bench.tracer.run_id, "machine": machine(), "result": result,
                    "ops": bench.ops, "spans": all_spans})
    )
    result["details"]["trace_file"] = str(trace_file.relative_to(ROOT))
    return result


def _startup(bench: Bench) -> float:
    """Spawn ``python -m mdlgauge --version`` from a directory other than
    the checkout root; counted as an op of the files workload."""
    expected = f"mdlgauge {bench.lib.package.__version__}\n"
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mdlgauge", "--version"],
        cwd=bench.tmp,
        env=child_env(bench.lib),
        capture_output=True,
        text=True,
        timeout=60,
    )
    seconds = perf_counter() - start
    failure = None
    if proc.returncode != 0 or proc.stdout != expected:
        failure = f"exit status {proc.returncode}, stdout {proc.stdout!r}"
    bench.ops.append(
        {"id": bench.next_id(), "workload": "files", "round": 0, "kind": "cli.startup",
         "seconds": seconds, "failure": failure, "traced": False, "work": {}}
    )
    return seconds


def _result(bench: Bench, workload: str, seed: int, trace: bool, metrics: dict, details: dict) -> dict:
    timed = [op for op in bench.ops if not op["kind"].startswith("deep.")]
    deep = [op for op in bench.ops if op["kind"].startswith("deep.")]
    failures = [op for op in timed if op["failure"] is not None]
    details.update(
        {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "machine": machine(),
            "failed_ratio": len(failures) / len(timed),
            "failures": [f"{op['kind']}: {op['failure']}" for op in failures[:5]],
            "deep_probes": {"attempted": len(deep), "failed": sum(op["failure"] is not None for op in deep)},
        }
    )
    return {
        "correct": not failures,
        "attempted": len(timed),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "details": details,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: not a checkout of mdlgauge, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    details = result.pop("details")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
