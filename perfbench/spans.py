"""In-memory spans for the traced run, and the per-layer metrics derived
from them.

Spans are recorded from the benchmark's side only: the op itself, plus a
wrapper around each coarse public call as its caller sees it (the name
bound in the calling module is replaced for the traced run and restored
afterwards).  Per-node helpers such as ``term_size`` or ``__hash__`` are
deliberately not wrapped; their cost shows in the callers' self time.
"""

from __future__ import annotations

import math
import re
import statistics
from time import perf_counter
from typing import Callable, Optional

_SYMBOL_RE = re.compile(r"[^\s()]+")


def count_symbols(text: str) -> int:
    """Nodes in a term's text: every label and every ?variable is one."""
    return len(_SYMBOL_RE.findall(text))


def rendered_nodes(text: str) -> int:
    """Nodes in a rendered substitution ("{?a -> t, ...}") or abstraction
    ("params: ..." line, then the body)."""
    if text.startswith("params:"):
        return count_symbols(text.partition("\n")[2])
    body = text.strip()[1:-1]
    return sum(count_symbols(item.partition(" -> ")[2]) for item in body.split(", ?"))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.context: dict = {}  # workload and op id of the current op
        self._open: list[dict] = []
        self._patches: list[tuple] = []
        self._origin = perf_counter()

    def begin(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": perf_counter() - self._origin,
            "end": None,
            "parent": self._open[-1]["id"] if self._open else None,
            "run": self.run_id,
            **self.context,
        }
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = perf_counter() - self._origin
        self._open.pop()

    def wrap(
        self,
        module,
        attr: str,
        name: str | Callable[..., str],
        describe: Optional[Callable[[tuple, object], dict]] = None,
    ) -> None:
        """Record a span around every call of ``module.attr`` made through
        that module's namespace.  ``describe(args, result)`` adds fields
        to the span after it has ended."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self.begin(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span["failed"] = True
                raise
            finally:
                self.end(span)
            if describe is not None:
                span.update(describe(args, result))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def with_self_times(self) -> list[dict]:
        """Spans with ``self``: duration minus the children's durations
        (children of one span never overlap, the benchmark is one thread)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        return [
            {**span, "self": span["end"] - span["start"] - child_time[span["id"]]}
            for span in self.spans
        ]


def install_wrappers(tracer: Tracer, lib) -> None:
    """The layer boundaries the per-layer metrics are measured at."""
    cli, tradeoff, viscosity = lib.cli, lib.tradeoff, lib.viscosity

    def compress_name(corpus, level):
        return f"tradeoff.compress.L{level.index}"

    def compress_result(args, run):
        # Exact results of the level, to catch a speed-up that changes them.
        return {"library": len(run.library), "size": run.compressed_size}

    tracer.wrap(tradeoff, "generate_corpus", "tradeoff.generate_corpus")
    # emit_tradeoff_points compresses each level through the module-private
    # _compress (compress_with_level is a thin public wrapper around it).
    tracer.wrap(tradeoff, "_compress", compress_name, compress_result)
    tracer.wrap(tradeoff, "lgg", "tradeoff.lgg")

    tracer.wrap(viscosity, "ted", "viscosity.ted")
    tracer.wrap(viscosity, "perturb", "viscosity.perturb")
    tracer.wrap(viscosity, "instantiate", "viscosity.instantiate")

    tracer.wrap(cli, "parse_term", "term.parse_term", lambda a, r: {"nodes": count_symbols(a[0])})
    for attr in ("render_substitution", "render_abstraction"):
        tracer.wrap(cli, attr, "term.render", lambda a, r: {"nodes": rendered_nodes(r)})
    tracer.wrap(cli, "match_term", "term.match_term")
    tracer.wrap(cli, "unify", "term.unify")
    tracer.wrap(cli, "lgg", "term.lgg")
    for module in (cli, lib.mdl):
        tracer.wrap(
            module,
            "tokenize",
            "lexcount.tokenize",
            lambda a, r: {"chars": len(a[0]), "tokens": len(r)},
        )
    tracer.wrap(cli, "rank_candidates", "mdl.rank_candidates")
    tracer.wrap(cli, "load_manifest", "cli.load_manifest")


def per_layer_metrics(
    spans: list[dict],
    ops: list[dict],
    traced_rounds: dict[str, int],
    extra: dict[str, tuple[float, str]],
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit).

    Each metric comes from the workload that exercises its layer: busy
    times and call counts are per round of that workload, averaged over
    its traced rounds; rates are totals over totals.
    """
    op_work = {op["id"]: op for op in ops}
    # Deep-chain probes report through term.deep.failed alone.
    spans = [s for s in spans if not op_work[s["op"]]["kind"].startswith("deep.")]

    def sel(workload: str, *names: str) -> list[dict]:
        return [s for s in spans if s["workload"] == workload and s["name"] in names]

    def dur(span: dict) -> float:
        return span["end"] - span["start"]

    def busy(workload: str, *names: str) -> float:
        return sum(map(dur, sel(workload, *names))) / traced_rounds[workload]

    def calls(workload: str, *names: str) -> float:
        return len(sel(workload, *names)) / traced_rounds[workload]

    def rate(selected: list[dict], amount: Callable[[dict], float]) -> float:
        done = [s for s in selected if not s.get("failed")]
        return sum(map(amount, done)) / sum(map(dur, done))

    def work(key: str) -> Callable[[dict], float]:
        return lambda span: op_work[span["op"]]["work"][key]

    def p50_ms(workload: str, name: str) -> float:
        return statistics.median(map(dur, sel(workload, name))) * 1000

    m: dict[str, tuple[float, str]] = {}
    levels = [f"tradeoff.compress.L{i}" for i in range(3)]
    compress = sel("tradeoff", *levels)
    m["tradeoff.generate_corpus.busy_s"] = (busy("tradeoff", "tradeoff.generate_corpus"), "s")
    for i, level in enumerate(levels):
        m[f"tradeoff.compress.L{i}.busy_s"] = (busy("tradeoff", level), "s")
    m["tradeoff.lgg.busy_s"] = (busy("tradeoff", "tradeoff.lgg"), "s")
    m["tradeoff.lgg.calls"] = (calls("tradeoff", "tradeoff.lgg"), "count")
    m["tradeoff.self_s"] = (
        sum(s["self"] for s in compress) / traced_rounds["tradeoff"],
        "s",
    )
    m["tradeoff.compress.nodes_per_s"] = (rate(compress, work("nodes")), "nodes/s")

    def upper_levels(kind: str) -> tuple[float, int]:
        chosen = [
            s for s in compress
            if s["name"] != levels[0] and op_work[s["op"]]["kind"] == kind
        ]
        return sum(map(dur, chosen)), op_work[chosen[0]["op"]]["work"]["programs"]

    (small_s, small_n), (large_s, large_n) = upper_levels("tradeoff.readme"), upper_levels("tradeoff.large")
    m["tradeoff.compress.scaling_exp"] = (math.log(large_s / small_s) / math.log(large_n / small_n), "exp")
    readme = {
        s["name"]: s for s in compress if op_work[s["op"]]["kind"] == "tradeoff.readme"
    }
    m["tradeoff.L1.library_size"] = (readme[levels[1]]["library"], "count")
    m["tradeoff.L2.library_size"] = (readme[levels[2]]["library"], "count")
    m["tradeoff.L2.compressed_nodes"] = (readme[levels[2]]["size"], "count")

    m["term.parse_term.nodes_per_s"] = (
        rate(sel("files", "term.parse_term"), lambda s: s["nodes"]),
        "nodes/s",
    )
    m["term.render_term.nodes_per_s"] = (
        rate(sel("files", "term.render"), lambda s: s["nodes"]),
        "nodes/s",
    )
    m["term.unify.nodes_per_s"] = (rate(sel("files", "term.unify"), work("nodes")), "nodes/s")
    for name in ("match_term", "unify", "lgg"):
        m[f"term.{name}.busy_s"] = (busy("files", f"term.{name}"), "s")
    deep = [op for op in ops if op["workload"] == "files" and op["traced"] and op["kind"].startswith("deep.")]
    m["term.deep.failed"] = (
        sum(op["failure"] is not None for op in deep) / traced_rounds["files"],
        "count",
    )

    direct = ("op.ted.small", "op.ted.random", "op.ted.comb")
    m["treedist.ted.calls"] = (calls("editdist", *direct, "viscosity.ted"), "count")
    m["treedist.ted.busy_s"] = (busy("editdist", *direct, "viscosity.ted"), "s")
    m["treedist.ted.random.busy_s"] = (busy("editdist", "op.ted.random"), "s")
    m["treedist.ted.comb.busy_s"] = (busy("editdist", "op.ted.comb"), "s")
    m["treedist.ted.node_pairs_per_s"] = (rate(sel("editdist", *direct), work("pairs")), "pairs/s")

    estimates = sel("editdist", "op.lipschitz.hypot", "op.lipschitz.random")
    m["viscosity.estimate_lipschitz.busy_s"] = (busy("editdist", "op.lipschitz.hypot", "op.lipschitz.random"), "s")
    m["viscosity.samples_per_s"] = (rate(estimates, work("samples")), "1/s")
    m["viscosity.ted.busy_s"] = (busy("editdist", "viscosity.ted"), "s")
    m["viscosity.ted_share"] = (
        m["viscosity.ted.busy_s"][0] / m["viscosity.estimate_lipschitz.busy_s"][0],
        "ratio",
    )
    m["viscosity.perturb.busy_s"] = (busy("editdist", "viscosity.perturb"), "s")
    m["viscosity.instantiate.busy_s"] = (busy("editdist", "viscosity.instantiate"), "s")

    lexing = sel("files", "lexcount.tokenize")
    m["lexcount.tokenize.mb_per_s"] = (rate(lexing, lambda s: s["chars"] / 1e6), "MB/s")
    m["lexcount.tokenize.tokens_per_s"] = (rate(lexing, lambda s: s["tokens"]), "1/s")
    m["lexcount.tokenize.busy_s"] = (busy("files", "lexcount.tokenize"), "s")
    m["mdl.rank_candidates.busy_s"] = (busy("files", "mdl.rank_candidates"), "s")
    m["cli.load_manifest.busy_s"] = (busy("files", "cli.load_manifest"), "s")
    for sub in ("tokenize", "mdl", "match", "unify", "lgg", "ted"):
        m[f"cli.{sub}.p50_ms"] = (p50_ms("files", f"op.cli.{sub}"), "ms")

    m.update(extra)
    return m
