"""Seeded inputs, operations and reference checks for the three workloads.

A workload is built one round at a time.  A round is a fixed mix of
operations ("ops"); each op is one public call into mdlgauge, and its check
compares the output with a reference that does not come from the timed
code path: a README-published output, a closed form, the brute-force
``ted_oracle``, the reference lexer in ``tests/support.py``, or a property
that any correct answer has.  Inputs are a pure function of the benchmark
seed and the round index, and the library receives only the generated
inputs (its own seeds are never the benchmark seed).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

WORKLOADS = ("tradeoff", "editdist", "files")

# Outputs published in README.md.
README_TRADEOFF_CSV = (
    "level,power,compression_ratio,inversion_cost\n"
    "L0,0.000000,1.000000,0.000000\n"
    "L1,0.500000,0.909300,5.679537\n"
    "L2,1.000000,0.727900,8.989130\n"
)
README_MDL_CSV = (
    "name,chain_index,component_tokens,adaptation_tokens,total,winner_flag\n"
    "a,0,41,82,123,0\n"
    "b,1,46,60,106,1\n"
    "c,2,44,69,113,0\n"
    "d,3,56,121,177,0\n"
    "u_shaped,true,min_index,1\n"
)

LABELS = ("a", "b", "c", "d", "e", "f", "g", "h")
# A label that never occurs in generated trees: every node carrying it in
# the second tree of a pair must be inserted or relabeled, which is what
# makes the edit distances below exact.
FRESH = "Z"


@dataclass
class Op:
    """One timed public call.  ``check`` returns None when the output is
    right, else the reason it is not."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    inputs: str
    work: dict = field(default_factory=dict)


@dataclass
class Context:
    lib: Any  # namespace holding the imported mdlgauge modules
    seed: int
    tiny: bool  # small inputs, for warm-up and the smoke check
    corpus: Path
    reference_lex: Callable[[str], list]
    tmp: Path  # where generated files go


def derive(*parts: object) -> int:
    """A library-side seed derived from the benchmark seed (string seeding
    hashes with sha512, so it is stable across processes)."""
    return random.Random(":".join(str(p) for p in parts)).randrange(10**6)


def build_round(ctx: Context, workload: str, index: int) -> tuple[list[Op], list[Op]]:
    """The ops of one round in a seeded order, plus probes: ops that run
    after the timed phase and count only towards ``term.deep.failed``.

    Shuffling spreads ops of one kind over the whole round, so the
    machine's speed drifting during a round does not fall on one kind.
    """
    if workload == "tradeoff":
        ops, probes = _tradeoff_round(ctx, index), []
    elif workload == "editdist":
        ops, probes = _editdist_round(ctx, index), []
    elif workload == "files":
        ops, probes = _files_round(ctx, index)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"order:{workload}:{ctx.seed}:{index}").shuffle(ops)
    return ops, probes


# ---------------------------------------------------------------------------
# Trees as (label, children) tuples; labels starting with '?' are variables.


def random_tree(rng: random.Random, size: int, labels=LABELS) -> tuple:
    if size == 1:
        return (rng.choice(labels), ())
    arity = rng.randint(1, min(3, size - 1))
    cuts = sorted(rng.sample(range(1, size - 1), arity - 1))
    bounds = [0, *cuts, size - 1]
    return (
        rng.choice(labels),
        tuple(random_tree(rng, hi - lo, labels) for lo, hi in zip(bounds, bounds[1:])),
    )


def tree_paths(t: tuple) -> list[tuple[int, ...]]:
    out, stack = [], [((), t)]
    while stack:
        path, (_, kids) = stack.pop()
        out.append(path)
        stack.extend((path + (i,), kid) for i, kid in enumerate(kids))
    return out


def subtree(t: tuple, path) -> tuple:
    for i in path:
        t = t[1][i]
    return t


def replace(t: tuple, path, new: tuple) -> tuple:
    if not path:
        return new
    label, kids = t
    i = path[0]
    return (label, kids[:i] + (replace(kids[i], path[1:], new),) + kids[i + 1:])


def render(t: tuple) -> str:
    label, kids = t
    if not kids:
        return label
    return "(" + " ".join([label] + [render(k) for k in kids]) + ")"


def count_label(t: tuple, label: str) -> int:
    return sum(subtree(t, p)[0] == label for p in tree_paths(t))


def to_term(lib, t: tuple):
    label, kids = t
    if label.startswith("?"):
        return lib.term.Var(label[1:])
    return lib.term.Node(label, tuple(to_term(lib, k) for k in kids))


def disjoint_paths(rng: random.Random, t: tuple, k: int) -> list[tuple[int, ...]]:
    """``k`` non-root positions, none inside another."""
    candidates = [p for p in tree_paths(t) if p]
    rng.shuffle(candidates)
    chosen: list[tuple[int, ...]] = []
    for p in candidates:
        if all(p[: len(q)] != q and q[: len(p)] != p for q in chosen):
            chosen.append(p)
            if len(chosen) == k:
                break
    return chosen


def fresh_edits(rng: random.Random, t: tuple, edits: int) -> tuple:
    """Apply relabel-to-FRESH and FRESH-node insertions.  Each edit adds
    one FRESH node and nothing is deleted, so the unit-cost distance to
    ``t`` is exactly the number of FRESH nodes in the result."""
    for _ in range(edits):
        path = rng.choice(tree_paths(t))
        label, kids = subtree(t, path)
        style = rng.randrange(3)
        if style == 0 and label != FRESH:
            new = (FRESH, kids)
        elif style == 1:
            pos = rng.randint(0, len(kids))
            new = (label, kids[:pos] + ((FRESH, ()),) + kids[pos:])
        else:
            new = (FRESH, ((label, kids),))
        t = replace(t, path, new)
    return t


def comb(shape: str, n: int, leaves, inner) -> tuple:
    """A comb of ``n`` (odd) nodes: a spine of (n-1)/2 internal nodes, each
    with one leaf child.  ``right`` puts the spine on the right, the shape
    on which Zhang-Shasha needs the most keyroot pairs."""
    t = (leaves[0], ())
    for i in range((n - 1) // 2):
        leaf = (leaves[i + 1], ())
        spine_right = shape == "right" or (shape == "zigzag" and i % 2 == 0)
        t = (inner[i], (leaf, t) if spine_right else (t, leaf))
    return t


# ---------------------------------------------------------------------------
# tradeoff: emit_tradeoff_points on planted-motif corpora at two scales.


def format_points(points) -> str:
    """The CSV that ``mdlgauge tradeoff`` prints for these points."""
    lines = ["level,power,compression_ratio,inversion_cost"]
    lines.extend(
        f"{p.level.name},{p.level.power:.6f},{p.compression_ratio:.6f},{p.inversion_cost:.6f}"
        for p in points
    )
    return "".join(line + "\n" for line in lines)


def _tradeoff_round(ctx: Context, index: int) -> list[Op]:
    tr = ctx.lib.tradeoff
    if ctx.tiny:
        programs, size, motifs, motif_size = 6, 60, 2, 6
    else:
        programs, size, motifs, motif_size = 50, 200, 3, 12
    # The README spec and two more fixed seeds; the README spec with 1.5x
    # the programs (the first programs of both corpora are identical, so
    # the pair isolates scale); and one corpus from a seed derived from the
    # benchmark seed.  Corpus cost varies by a factor of two between seeds,
    # so fixed corpora carry most of a round and hold its median op, which
    # keeps runs with different seeds comparable.
    def spec(seed: int, count: int = programs):
        return tr.DomainSpec(seed, count, size, motifs, motif_size, 0.4)

    specs = [
        ("tradeoff.readme", spec(7)),
        ("tradeoff.fixed", spec(8)),
        ("tradeoff.fixed", spec(9)),
        ("tradeoff.large", spec(7, programs * 3 // 2)),
        ("tradeoff.derived", spec(derive("tradeoff", ctx.seed, index))),
    ]
    ops = []
    for kind, domain in specs:
        if kind == "tradeoff.readme" and not ctx.tiny:
            check = _expect_text(README_TRADEOFF_CSV)
        else:
            check = _curve_check(ctx.lib, domain, strict=not ctx.tiny)
        ops.append(
            Op(
                kind,
                _bind(lambda d: format_points(tr.emit_tradeoff_points(d)), domain),
                check,
                repr(domain),
                {"nodes": domain.program_count * domain.program_size, "programs": domain.program_count},
            )
        )
    return ops


def _curve_check(lib, spec, strict: bool) -> Callable[[str], Optional[str]]:
    """Ratios strictly fall and inversion costs strictly rise along the
    ladder, and no level compresses below the planted ground truth.  Tiny
    corpora plant too little structure for the strict ordering, so there
    only the ratios must not rise."""

    def check(text: str) -> Optional[str]:
        rows = [line.split(",") for line in text.splitlines()[1:]]
        if len(rows) != 3:
            return f"{len(rows)} levels, expected 3"
        ratios = [float(r[2]) for r in rows]
        costs = [float(r[3]) for r in rows]
        if not ratios[0] >= ratios[1] >= ratios[2]:
            return f"compression ratios rise: {ratios}"
        if strict and not ratios[0] > ratios[1] > ratios[2]:
            return f"compression ratios do not strictly fall: {ratios}"
        if strict and not costs[0] < costs[1] < costs[2]:
            return f"inversion costs do not strictly rise: {costs}"
        corpus, truth = lib.tradeoff.generate_corpus_with_truth(spec)
        original = sum(lib.term.term_size(t) for t in corpus)
        floor = lib.tradeoff.ground_truth_floor(corpus, truth)
        # The CSV keeps six decimals, so allow half a unit in the last place.
        if min(ratios) * original < floor - 5e-7 * original:
            return f"compressed below the ground-truth floor {floor}"
        return None

    return check


# ---------------------------------------------------------------------------
# editdist: ted on random and comb pairs, estimate_lipschitz.


def _editdist_round(ctx: Context, index: int) -> list[Op]:
    lib = ctx.lib
    rng = random.Random(f"editdist:{ctx.seed}:{index}")
    ops: list[Op] = []
    if ctx.tiny:
        n_small, n_random, lo, hi = 3, 4, 10, 30
        hypot_samples, random_samples = 20, 10
        combs = [(shape, n) for shape in ("left", "right", "zigzag") for n in (11, 21)]
    else:
        n_small, n_random, lo, hi = 25, 10, 20, 200
        hypot_samples, random_samples = 1000, 100
        # The 24 left combs of 81 nodes hold the median op and the 12 right
        # combs of 61 nodes the tail op: fixed shapes, so the two latencies
        # compare across seeds, while the random pairs, whose cost varies by
        # about 20% with shape at a given size, lie around them.  There are
        # as many ops cheaper than the left combs as dearer ones, and ten
        # ops beyond the middle of the right combs.
        combs = [(shape, n) for shape in ("left", "right", "zigzag") for n in (61, 101)]
        combs += [("left", 81)] * 24 + [("right", 61)] * 12

    for _ in range(n_small):
        a = random_tree(rng, rng.randint(2, 10))
        b = random_tree(rng, rng.randint(2, 10))
        ops.append(_ted_op(lib, "ted.small", a, b, None))
    for i in range(n_random):
        size = lo + round((hi - lo) * i / (n_random - 1))
        a = random_tree(rng, size)
        b = fresh_edits(rng, a, 1 + size // 16)
        ops.append(_ted_op(lib, "ted.random", a, b, float(count_label(b, FRESH))))
    for shape, n in combs:
        leaves = [rng.choice(LABELS) for _ in range(n)]
        inner = [rng.choice(LABELS) for _ in range(n)]
        a = comb(shape, n, leaves, inner)
        b = comb(shape, n, leaves, [FRESH] * n)
        ops.append(_ted_op(lib, "ted.comb", a, b, float((n - 1) // 2)))

    hypot_text = (ctx.corpus / "hypot.abs").read_text()
    hypot = lib.term.parse_abstraction(hypot_text)
    ops.append(
        _lipschitz_op(lib, "lipschitz.hypot", hypot, hypot_samples, derive("hypot", ctx.seed, index), 2)
    )
    for i, (body_size, n_params) in enumerate(((12, 2), (16, 3))):
        arng = random.Random(f"editdist:{ctx.seed}:{index}:abstraction{i}")
        abstraction = lib.sampling.random_abstraction(arng, body_size, n_params)
        occurrences = _var_occurrences(lib, abstraction.body)
        ops.append(
            _lipschitz_op(
                lib,
                "lipschitz.random",
                abstraction,
                random_samples,
                derive("abstraction", ctx.seed, index, i),
                max(occurrences.values()),
            )
        )
    return ops


def _ted_op(lib, kind: str, a: tuple, b: tuple, expected: Optional[float]) -> Op:
    ta, tb = to_term(lib, a), to_term(lib, b)
    n, m = len(tree_paths(a)), len(tree_paths(b))

    def check(distance: float) -> Optional[str]:
        want = lib.treedist.ted_oracle(ta, tb) if expected is None else expected
        return None if distance == want else f"distance {distance}, expected {want}"

    return Op(
        kind,
        _bind(lib.treedist.ted, ta, tb),
        check,
        render(a) + " " + render(b),
        {"pairs": n * m},
    )


def _var_occurrences(lib, body) -> dict[str, int]:
    counts: dict[str, int] = {}
    stack = [body]
    while stack:
        t = stack.pop()
        if isinstance(t, lib.term.Var):
            counts[t.name] = counts.get(t.name, 0) + 1
        else:
            stack.extend(t.children)
    return counts


def _lipschitz_op(lib, kind: str, abstraction, samples: int, seed: int, bound: int) -> Op:
    """For hypot the README value 2.000000 is exact; for any abstraction a
    perturbed argument occurring c times moves the instance by at most c
    times its own distance, so forward_k lies in (0, max occurrences]."""
    exact = kind == "lipschitz.hypot"

    def check(estimate) -> Optional[str]:
        if estimate.samples != samples or estimate.seed != seed:
            return "samples or seed not echoed"
        if exact and (f"{estimate.forward_k:.6f}" != "2.000000" or not estimate.inverse_ok):
            return f"hypot gave forward_k {estimate.forward_k}, inverse_ok {estimate.inverse_ok}"
        if not 0 < estimate.forward_k <= bound:
            return f"forward_k {estimate.forward_k} outside (0, {bound}]"
        return None

    return Op(
        kind,
        _bind(lib.viscosity.estimate_lipschitz, abstraction, samples, seed),
        check,
        f"{lib.term.render_abstraction(abstraction)}{samples} {seed}",
        {"samples": samples},
    )


# ---------------------------------------------------------------------------
# files: cli.main subcommands on generated files, half of them with --out.

_IDENT_RE = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*")


def run_cli(main: Callable, argv: list[str]) -> tuple[int, str]:
    """Run ``mdlgauge argv`` in-process; returns (exit status, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue()


def _rename(text: str, suffix: str, keywords) -> str:
    """Rename every non-keyword identifier; token counts are unchanged."""
    return _IDENT_RE.sub(
        lambda m: m.group() if m.group() in keywords else f"{m.group()}_{suffix}", text
    )


def _files_round(ctx: Context, index: int) -> tuple[list[Op], list[Op]]:
    lib = ctx.lib
    rng = random.Random(f"files:{ctx.seed}:{index}")
    root = ctx.tmp / f"round{index}"
    root.mkdir(parents=True, exist_ok=True)
    keywords = lib.lexcount.CPP_KEYWORDS
    ops: list[Op] = []

    def add(kind, argv, expected_status, check_text, inputs, work=None):
        out = None
        if len(ops) % 2:
            out = str(root / f"out{len(ops)}.txt")
            argv = argv + ["--out", out]
        ops.append(
            Op(
                kind,
                _bind(run_cli, lib.cli.main, argv),
                _cli_check(expected_status, check_text, out),
                inputs,
                work or {},
            )
        )

    def write(name: str, text: str) -> str:
        path = root / name
        path.write_text(text)
        return str(path)

    # tokenize: renamed copies of corpus/*.cpp, about 0.5 MB per round.
    sources = {p.name: p.read_text() for p in sorted(ctx.corpus.glob("*.cpp"))}
    base_counts = {name: len(ctx.reference_lex(text)) for name, text in sources.items()}
    names = sorted(sources)
    n_files, target_bytes = (4, 1500) if ctx.tiny else (16, 32000)
    generated = []
    for j in range(n_files):
        parts, count, length = [], 0, 0
        while length < target_bytes:
            name = rng.choice(names)
            part = _rename(sources[name], f"r{rng.randrange(10**6)}", keywords)
            parts.append(part)
            count += base_counts[name]
            length += len(part)
        text = "\n".join(parts)
        generated.append((write(f"src{j}.cpp", text), text, count))
    for path, text, count in generated:
        add(
            "cli.tokenize",
            ["tokenize", path],
            0,
            _tokenize_check(ctx.reference_lex, f"{path}\t{count}\n", text, count),
            text,
            {"bytes": len(text)},
        )

    # mdl: the bundled scenario and renamed copies of it.
    scenario = json.loads((ctx.corpus / "scenario.json").read_text())
    referenced = sorted(
        {c["component"] for c in scenario["candidates"]}
        | {c["shared"] for c in scenario["candidates"] if "shared" in c}
        | {rel for c in scenario["candidates"] for rel in c["adaptations"].values()}
    )
    manifests = [str(ctx.corpus / "scenario.json")]
    for copy in range(1 if ctx.tiny else 7):
        suffix = f"r{rng.randrange(10**6)}"
        folder = root / f"scenario{copy}"
        folder.mkdir(exist_ok=True)
        for rel in referenced:
            (folder / rel).write_text(_rename((ctx.corpus / rel).read_text(), suffix, keywords))
        (folder / "scenario.json").write_text(json.dumps(scenario, indent=2))
        manifests.append(str(folder / "scenario.json"))
    for manifest in manifests:
        add("cli.mdl", ["mdl", manifest], 0, _expect_text(README_MDL_CSV), manifest)

    # match, unify, lgg on 500-5000 node terms; ted on 60-120 node terms,
    # because Zhang-Shasha takes seconds per pair beyond a few hundred nodes.
    per_kind, lo, hi = (1, 20, 60) if ctx.tiny else (6, 500, 5000)
    sizes = [lo + round((hi - lo) * i / max(1, per_kind - 1)) for i in range(per_kind)]
    for i, size in enumerate(sizes):
        t = random_tree(rng, size)
        pattern = t
        bindings = []
        for k, path in enumerate(sorted(disjoint_paths(rng, t, 3))):
            bindings.append(f"?x{k} -> {render(subtree(t, path))}")
            pattern = replace(pattern, path, (f"?x{k}", ()))
        p, q = write(f"match{i}.pattern.term", render(pattern)), write(f"match{i}.target.term", render(t))
        add("cli.match", ["match", p, q], 0, _expect_text("{" + ", ".join(bindings) + "}\n"), render(pattern), {"nodes": 2 * size})

    t = random_tree(rng, sizes[-1])
    leaf = next(p for p in tree_paths(t) if not subtree(t, p)[1])
    p = write("nomatch.pattern.term", render(replace(t, leaf, (FRESH, ()))))
    q = write("nomatch.target.term", render(t))
    add("cli.match", ["match", p, q, "--strict"], 1, _expect_text("no match\n"), render(t), {"nodes": 2 * sizes[-1]})

    for i, size in enumerate(sizes):
        t = random_tree(rng, size)
        left, right = t, t
        for k, path in enumerate(disjoint_paths(rng, t, 2)):
            left = replace(left, path, (f"?a{k}", ()))
        for k, path in enumerate(disjoint_paths(rng, t, 2)):
            right = replace(right, path, (f"?b{k}", ()))
        p, q = write(f"unify{i}.left.term", render(left)), write(f"unify{i}.right.term", render(right))
        add(
            "cli.unify",
            ["unify", p, q],
            0,
            _unify_check(lib, left, right, t),
            render(left) + " " + render(right),
            {"nodes": 2 * size},
        )

    t = random_tree(rng, sizes[-1])
    path = rng.choice([p for p in tree_paths(t) if p])
    p = write("occurs.left.term", render(replace(t, path, ("?x", ()))))
    q = write("occurs.right.term", render(replace(t, path, ("g", (("?x", ()),)))))
    add("cli.unify", ["unify", p, q, "--strict"], 1, _expect_text("no unifier\n"), render(t), {"nodes": 2 * sizes[-1]})

    for i, size in enumerate(sizes):
        t = random_tree(rng, size)
        inputs = [t]
        for _ in range(1 + i % 2):
            variant = t
            for path in disjoint_paths(rng, t, 3):
                variant = replace(variant, path, random_tree(rng, rng.randint(1, 5)))
            inputs.append(variant)
        paths = [write(f"lgg{i}.{k}.term", render(x)) for k, x in enumerate(inputs)]
        add(
            "cli.lgg",
            ["lgg"] + paths,
            0,
            _lgg_check(lib, inputs),
            " ".join(render(x) for x in inputs),
            {"nodes": size * len(inputs)},
        )

    n_ted, lo, hi = (1, 10, 20) if ctx.tiny else (4, 60, 120)
    for i in range(n_ted):
        size = lo + round((hi - lo) * i / max(1, n_ted - 1))
        a = random_tree(rng, size)
        b = fresh_edits(rng, a, 1 + size // 16)
        p, q = write(f"ted{i}.a.term", render(a)), write(f"ted{i}.b.term", render(b))
        add("cli.ted", ["ted", p, q], 0, _expect_text(f"{count_label(b, FRESH):.6f}\n"), render(a) + " " + render(b))

    # Unary chains deeper than Python's recursion limit.
    probes = []
    for kind in ("match", "unify", "lgg"):
        depth = rng.randint(30, 60) if ctx.tiny else rng.randint(2000, 5000)
        head, tail = "(f " * depth, ")" * depth
        if kind == "lgg":
            files = [write(f"deep.{kind}.{k}.term", head + leaf + tail) for k, leaf in enumerate("ab")]
            expected = "params: ?v0\n" + head + "?v0" + tail + "\n"
        else:
            files = [write(f"deep.{kind}.{k}.term", head + end + tail) for k, end in enumerate(("?x", "(g a)"))]
            expected = "{?x -> (g a)}\n"
        probes.append(
            Op(
                f"deep.{kind}",
                _bind(run_cli, lib.cli.main, [kind] + files),
                _cli_check(0, _expect_text(expected), None),
                f"{kind} {depth}",
                {"depth": depth, "nodes": 2 * depth + 3},
            )
        )
    return ops, probes


def _cli_check(status: int, check_text, out: Optional[str]):
    def check(result: tuple[int, str]) -> Optional[str]:
        got, stdout = result
        if got != status:
            return f"exit status {got}, expected {status}"
        if out is not None:
            if stdout:
                return "wrote to stdout although --out was given"
            stdout = Path(out).read_text()
        return check_text(stdout)

    return check


def _expect_text(expected: str):
    def check(text: str) -> Optional[str]:
        return None if text == expected else "output differs from the reference"

    return check


def _tokenize_check(reference_lex, expected: str, source: str, count: int):
    def check(text: str) -> Optional[str]:
        if text != expected:
            return "token count differs from the base counts of the renamed copies"
        if len(reference_lex(source)) != count:
            return "reference lexer disagrees with the base counts"
        return None

    return check


def _parse_substitution(lib, text: str):
    body = text.strip()[1:-1]
    bindings = {}
    for item in body.split(", ?") if body else []:
        name, _, value = item.lstrip("?").partition(" -> ")
        bindings[name] = lib.term.parse_term(value)
    return lib.term.Substitution(bindings)


def _unify_check(lib, left, right, common):
    """Applying the printed unifier to both sides yields one term, and the
    ground term both sides were cut from is an instance of it."""

    def check(text: str) -> Optional[str]:
        mgu = _parse_substitution(lib, text)
        unified = mgu.apply(to_term(lib, left))
        if unified != mgu.apply(to_term(lib, right)):
            return "the unifier does not make both sides equal"
        if lib.term.match_term(unified, to_term(lib, common)) is None:
            return "the common instance is not an instance of the unified term"
        return None

    return check


def _lgg_check(lib, inputs):
    """The printed template is lgg_with_witnesses' template, and
    instantiating it with each witness gives back that input."""

    def check(text: str) -> Optional[str]:
        printed = lib.term.parse_abstraction(text)
        terms = [to_term(lib, t) for t in inputs]
        template, witnesses = lib.term.lgg_with_witnesses(terms)
        if printed.params != template.params or printed.body != template.body:
            return "printed template differs from lgg_with_witnesses"
        for term, args in zip(terms, witnesses):
            if lib.term.instantiate(printed, args) != term:
                return "template does not instantiate back to an input"
        return None

    return check


def _bind(fn: Callable, *args) -> Callable[[], Any]:
    return lambda: fn(*args)
