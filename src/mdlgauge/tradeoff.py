"""Compression/inversion tradeoff curves over a ladder of abstraction
mechanisms.

Synthetic corpora are random terms with parameterized motifs planted at a
configurable rate.  Three mechanism levels are compared: L0 (no
abstraction), L1 (named constants for repeated ground subterms), and L2
(first-order substitution abstractions discovered by anti-unification).
For each level we report the compression ratio achieved and the mean
matching work per reuse, which together trace the two curves: more powerful
mechanisms compress better and cost more to invert.

L2's motif candidates come from anti-unifying neighbours in a window of
distinct subterms sorted by their text.  Each windowed subterm is rendered
once, from its children's texts, and each pair is generalized by ``term``'s
own anti-unification walk, which gives up as soon as it needs a fourth
parameter, before any candidate is built.

Each level picks library entries greedily by savings.  The candidates are
filed once in a discrimination tree keyed on their bodies' pre-order
(label, arity) symbols, where a metavariable skips one whole subterm.
Every corpus node that a body could match is looked up in it once, and
only the candidates that agree with the node's skeleton are matched
against it.  Each candidate keeps a list of its hits.  After an accepted
entry, only the rewritten subterms and their ancestors lose their hits and
are looked up again, so a candidate is re-scored from its hit list, never
by a scan of the corpus.
A body of *s* nodes matches only subterms of at least *s* nodes, so only
nodes at least as large as the smallest candidate body are counted, looked
up and re-filed, and the walks never descend below one that is smaller.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .sampling import leaf_paths, random_ground_term, seeded
from .term import (
    Abstraction,
    Node,
    Term,
    Var,
    instantiate,
    iter_subterms,
    # Not called here, where motif candidates come from _anti_unify, but
    # perfbench/spans.py wraps ``tradeoff.lgg`` by name in traced runs.
    lgg,
    render_term,
    replace_at,
    subterm_at,
)
from .term import _anti_unify  # the pairwise walk behind lgg, with a limit
from .term import _match_cost  # match with node-comparison accounting


class InconsistentSpec(ValueError):
    pass


@dataclass(frozen=True)
class DomainSpec:
    """Parameters of the synthetic problem-domain generator."""

    seed: int
    program_count: int
    program_size: int
    motif_count: int
    motif_size: int
    motif_rate: float
    alphabet_size: int = 6

    def __post_init__(self):
        problems = []
        if self.program_count < 1:
            problems.append("program_count must be positive")
        if self.program_size < 1:
            problems.append("program_size must be positive")
        if self.motif_count < 0:
            problems.append("motif_count must be nonnegative")
        if self.motif_size < 1:
            problems.append("motif_size must be positive")
        if not 0.0 <= self.motif_rate <= 1.0:
            problems.append("motif_rate must lie in [0, 1]")
        if self.alphabet_size < 1:
            problems.append("alphabet_size must be positive")
        # With no motifs planted, motif_size is never used.
        if self.motif_count > 0:
            if self.motif_size > self.program_size:
                problems.append("motif_size must not exceed program_size")
            if self.motif_rate * self.program_size < self.motif_size:
                problems.append("motif_rate * program_size must cover at least one motif instance")
        if problems:
            raise InconsistentSpec("; ".join(problems))

    def alphabet(self) -> tuple[str, ...]:
        letters = "abcdefghijklmnopqrstuvwxyz"
        if self.alphabet_size <= len(letters):
            return tuple(letters[: self.alphabet_size])
        return tuple(letters) + tuple(
            f"s{i}" for i in range(self.alphabet_size - len(letters))
        )


@dataclass(frozen=True)
class MetalanguageLevel:
    index: int
    name: str
    power: float


LADDER: tuple[MetalanguageLevel, ...] = (
    MetalanguageLevel(0, "L0", 0.0),
    MetalanguageLevel(1, "L1", 0.5),
    MetalanguageLevel(2, "L2", 1.0),
)


@dataclass(frozen=True)
class TradeoffPoint:
    level: MetalanguageLevel
    compression_ratio: float
    inversion_cost: float


@dataclass(frozen=True)
class PlantedInstance:
    program_index: int
    path: tuple[int, ...]
    motif_index: int
    args: tuple[Term, ...]


@dataclass(frozen=True)
class GroundTruth:
    motifs: tuple[Abstraction, ...]
    instances: tuple[PlantedInstance, ...]


# ---------------------------------------------------------------------------
# Corpus generation


def generate_corpus(spec: DomainSpec) -> list[Term]:
    return generate_corpus_with_truth(spec)[0]


def generate_corpus_with_truth(spec: DomainSpec) -> tuple[list[Term], GroundTruth]:
    """Deterministic corpus plus the generator's record of what was planted.

    Arguments of repeat instances are resampled until every parameter slot
    sees at least two distinct values corpus-wide and no two slots carry
    identical argument sequences, so the planted motif is recoverable by
    anti-unification over its instance sites.
    """
    alphabet = spec.alphabet()
    motifs = _make_motifs(spec, alphabet)
    corpus: list[Term] = []
    planted: list[PlantedInstance] = []
    seen_args: list[list[tuple[Term, ...]]] = [[] for _ in motifs]

    for p in range(spec.program_count):
        rng = seeded("corpus", spec.seed, p)
        program, sites = _build_program(rng, spec, motifs, alphabet, seen_args)
        corpus.append(program)
        planted.extend(
            PlantedInstance(p, path, mi, args) for mi, args, path in sites
        )
    return corpus, GroundTruth(tuple(motifs), tuple(planted))


def _make_motifs(spec: DomainSpec, alphabet: tuple[str, ...]) -> list[Abstraction]:
    motifs: list[Abstraction] = []
    bodies: set[str] = set()
    for m in range(spec.motif_count):
        rng = seeded("motif", spec.seed, m)
        for _ in range(64):
            skeleton = random_ground_term(rng, spec.motif_size, alphabet)
            leaves = leaf_paths(skeleton)
            wanted = 0 if spec.motif_size < 3 else (2 if spec.motif_size >= 6 else 1)
            n_params = min(wanted, max(0, len(leaves) - 1))
            body = skeleton
            for k, path in enumerate(rng.sample(leaves, n_params)):
                body = replace_at(body, path, Var(f"p{k}"))
            key = render_term(body)
            if key not in bodies:
                bodies.add(key)
                motifs.append(
                    Abstraction(f"motif{m}", tuple(f"p{k}" for k in range(n_params)), body)
                )
                break
        else:
            raise InconsistentSpec("could not generate distinct motifs")
    return motifs


def _instance_args(rng, motif: Abstraction, alphabet, prior: list[tuple[Term, ...]]):
    for _ in range(64):
        args = tuple(
            random_ground_term(rng, rng.randint(1, 3), alphabet) for _ in motif.params
        )
        if len(set(args)) != len(args):
            continue
        if prior and any(args[s] == prior[0][s] for s in range(len(args))):
            continue
        return args
    return args


def _build_program(rng, spec, motifs, alphabet, seen_args):
    """One program: planted instances plus filler leaves, joined by random
    binary glue so the final node count is exactly spec.program_size."""
    instances: list[tuple[int, tuple[Term, ...], Term]] = []
    covered = 0
    if motifs and spec.motif_rate > 0:
        target = spec.motif_rate * spec.program_size
        while covered < target:
            mi = rng.randrange(len(motifs))
            args = _instance_args(rng, motifs[mi], alphabet, seen_args[mi])
            inst = instantiate(motifs[mi], args)
            size = inst.size
            if covered + size + len(instances) + 1 > spec.program_size:
                break
            seen_args[mi].append(args)
            instances.append((mi, args, inst))
            covered += size

    k = len(instances)
    filler = max(0 if k else 1, (spec.program_size - covered - k + 1) // 2)

    # Items carry a map from instance index to the path of its root.
    items: list[tuple[Term, dict[int, tuple[int, ...]]]] = [
        (inst, {i: ()}) for i, (_, _, inst) in enumerate(instances)
    ]
    items.extend((Node(rng.choice(alphabet)), {}) for _ in range(filler))

    while len(items) > 1:
        i, j = rng.sample(range(len(items)), 2)
        (ta, ma), (tb, mb) = items[i], items[j]
        joined = Node(rng.choice(alphabet), (ta, tb))
        paths = {key: (0,) + path for key, path in ma.items()}
        paths.update({key: (1,) + path for key, path in mb.items()})
        for idx in sorted((i, j), reverse=True):
            items.pop(idx)
        items.append((joined, paths))

    program, paths = items[0]
    while program.size < spec.program_size:
        program = Node(rng.choice(alphabet), (program,))
        paths = {key: (0,) + path for key, path in paths.items()}

    sites = [
        (instances[i][0], instances[i][1], paths[i]) for i in range(len(instances))
    ]
    return program, sites


def ground_truth_floor(corpus: Sequence[Term], truth: GroundTruth) -> int:
    """A lower bound on compressed size given only the planted structure:
    every planted instance collapsed to a single node, libraries free."""
    total = sum(t.size for t in corpus)
    planted = sum(
        subterm_at(corpus[inst.program_index], inst.path).size - 1
        for inst in truth.instances
    )
    return total - planted


# ---------------------------------------------------------------------------
# Compression at each ladder level

# Discovery thresholds.  Small-subterm pooling is deliberately cut off at
# five nodes: random corpora are full of three- and four-node coincidences,
# and harvesting those would let the "no planted structure" control corpus
# compress for free.
_MIN_CONST_SIZE = 5
_MIN_MOTIF_SIZE = 6
_MIN_GROUND_NODES = 4
_MAX_MOTIF_PARAMS = 3
_MAX_WINDOW = 64
_MAX_CANDIDATES = 400
# No candidate generator reads a smaller subterm.
_MIN_COUNTED_SIZE = min(_MIN_CONST_SIZE, _MIN_MOTIF_SIZE)


@dataclass
class CompressionResult:
    """One level's compression of a corpus: the discovered library, the
    rewritten terms, the compressed size (nodes left in the corpus plus
    library body nodes, where each reuse site costs one call node plus its
    argument nodes), and the match comparisons spent on the rewrites."""

    library: list[Abstraction]
    terms: list[Term]
    compressed_size: int
    comparisons: int
    rewrites: int

    @property
    def mean_cost(self) -> float:
        """Mean node comparisons spent by matching per successful rewrite."""
        return self.comparisons / self.rewrites if self.rewrites else 0.0


def compress_with_level(
    corpus: Sequence[Term], level: MetalanguageLevel
) -> CompressionResult:
    """Compress ``corpus`` with the mechanisms available at ``level``."""
    if not corpus:
        raise ValueError("corpus must be non-empty")
    return _compress(corpus, level)


def emit_tradeoff_points(spec: DomainSpec) -> list[TradeoffPoint]:
    """One (compression ratio, inversion cost) point per ladder level."""
    corpus = generate_corpus(spec)
    original = sum(t.size for t in corpus)
    points = []
    for level in LADDER:
        run = _compress(corpus, level)
        points.append(
            TradeoffPoint(level, run.compressed_size / original, run.mean_cost)
        )
    return points


def _compress(corpus: Sequence[Term], level: MetalanguageLevel) -> CompressionResult:
    terms = list(corpus)
    run = CompressionResult([], terms, 0, 0, 0)
    candidates: list[tuple[str, Abstraction]] = []
    if level.index >= 1:
        counts = _subterm_counts(terms)
        candidates.extend(_constant_candidates(counts))
    if level.index >= 2:
        # Parameterized motifs compete with plain constants in one greedy
        # pass; a constant is just the zero-parameter special case.
        candidates.extend(_motif_candidates(counts))
    _greedy_rewrite(run, candidates)
    run.compressed_size = sum(t.size for t in run.terms) + sum(a.body.size for a in run.library)
    return run


def _subterm_counts(corpus: Sequence[Term]) -> dict[Term, int]:
    """Each distinct subterm of ``corpus`` with at least _MIN_COUNTED_SIZE
    nodes, all of them Nodes, and its number of occurrences."""
    counts: dict[Term, int] = {}
    # A child is never larger than its parent, so the walk stops at the
    # first subterm below the floor.
    stack = [t for t in corpus if t.size >= _MIN_COUNTED_SIZE]
    while stack:
        t = stack.pop()
        counts[t] = counts.get(t, 0) + 1
        for c in t.children:
            if c.size >= _MIN_COUNTED_SIZE:
                stack.append(c)
    return counts


@dataclass(frozen=True)
class _Site:
    term_index: int
    path: tuple[int, ...]
    size: int
    args: tuple[Term, ...]
    cost: int


class _CandidateTrie:
    """A discrimination tree over candidate bodies (McCune, JAR 9(2), 1992;
    Graf, *Term Indexing*, LNCS 1053, 1996).

    A body is filed under its pre-order sequence of (label, arity) symbols,
    with None for a metavariable.  These sequences are prefix-free, so every
    body ends at a leaf, the list of candidates with that skeleton; an inner
    node is a dict from symbol to child.  Looking up a corpus node follows
    the edges that agree with it, and a None edge skips one whole subterm,
    library calls and metavariable leaves included.  So a candidate that
    comes back can fail to match the node only on a repeated variable.
    """

    def __init__(self, bodies: Sequence[Term]):
        self._root: dict = {}
        for ci, body in enumerate(bodies):
            if isinstance(body, Node):  # a bare metavariable has no sites
                *path, last = [
                    None if isinstance(t, Var) else (t.label, len(t.children))
                    for _, t in iter_subterms(body)
                ]
                inner = self._root
                for symbol in path:
                    inner = inner.setdefault(symbol, {})
                inner.setdefault(last, []).append(ci)

    def lookup(self, node: Node) -> list[int]:
        """The candidates whose skeleton agrees with ``node``."""
        # Every body in the trie is a Node, so the root has no None edge,
        # and most corpus nodes are ruled out by their own symbol.
        first = self._root.get((node.label, len(node.children)))
        if first is None:
            return []
        found: list[int] = []
        # A trie position and the subterms of ``node`` still to be read
        # there, as a linked list of (subterm, rest) pairs ending in None.
        rest = None
        for c in reversed(node.children):
            rest = (c, rest)
        stack: list[tuple] = [(first, rest)]
        while stack:
            at, pending = stack.pop()
            if pending is None:
                found.extend(at)
                continue
            t, rest = pending
            skip = at.get(None)
            if skip is not None:
                stack.append((skip, rest))
            child = at.get((t.label, len(t.children)))
            if child is not None:
                for c in reversed(t.children):
                    rest = (c, rest)
                stack.append((child, rest))
        return found


class _HitLists:
    """Every match of every live candidate's body in ``terms``, the list
    that accepted entries rewrite in place.

    Every corpus node at least as large as the smallest candidate body is
    looked up in the candidate trie once, and ``_match_cost`` runs only on
    the candidates that come back.  After an accepted entry only the
    rewritten subterms and their ancestors lose their hits and are looked
    up again.  A dead candidate, one that was accepted or scored no gain,
    keeps no hits and is skipped when the trie returns it.
    """

    def __init__(self, candidates: Sequence[Abstraction], terms: list[Term]):
        self.candidates = candidates
        self.terms = terms
        self.trie = _CandidateTrie([c.body for c in candidates])
        # No candidate matches a smaller node, dead or alive.
        self.floor = min(c.body.size for c in candidates)
        # Per candidate, (term index, path) -> site; None once it is dead.
        self.hits: list[Optional[dict[tuple[int, tuple[int, ...]], _Site]]] = [
            {} for _ in candidates
        ]
        # (term index, path) -> the candidates with a hit there, dead or not
        self.owners: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        for ti, term in enumerate(terms):
            self._file(ti, _region(term, [()], self.floor))

    def sites(self, ci: int) -> list[_Site]:
        """Outermost, non-overlapping occurrences of candidate ``ci``."""
        return _outermost(self.hits[ci].values())

    def kill(self, ci: int) -> None:
        self.hits[ci] = None

    def update(self, changed: dict[int, tuple[Term, list[tuple[int, ...]]]]) -> None:
        """Each term ``ti`` in ``changed`` was ``before`` until its subterms
        at ``paths`` were replaced."""
        for ti, (before, paths) in changed.items():
            for path in _region(before, paths, self.floor):
                for ci in self.owners.pop((ti, path), ()):
                    hits = self.hits[ci]
                    if hits is not None:
                        del hits[ti, path]
            self._file(ti, _region(self.terms[ti], paths, self.floor))

    def _file(self, ti: int, region: dict[tuple[int, ...], Node]) -> None:
        for path, node in region.items():
            for ci in self.trie.lookup(node):
                hits = self.hits[ci]
                if hits is None:
                    continue
                cand = self.candidates[ci]
                bindings, cost = _match_cost(cand.body, node)
                if bindings is not None:
                    args = tuple(bindings[p] for p in cand.params)
                    hits[ti, path] = _Site(ti, path, node.size, args, cost)
                    self.owners.setdefault((ti, path), []).append(ci)


def _region(
    term: Term, paths: list[tuple[int, ...]], floor: int
) -> dict[tuple[int, ...], Node]:
    """The Nodes of ``term`` at, below and above each of ``paths`` that
    have at least ``floor`` nodes, by path."""
    region: dict[tuple[int, ...], Node] = {}
    for path in paths:
        node = term
        for depth, i in enumerate(path):
            if node.size < floor:  # and so is every node below it
                break
            region[path[:depth]] = node
            node = node.children[i]
        else:
            stack = [(path, node)]
            while stack:
                at, sub = stack.pop()
                if sub.size >= floor:
                    region[at] = sub
                    for i in range(len(sub.children) - 1, -1, -1):
                        stack.append((at + (i,), sub.children[i]))
    return region


def _outermost(hits: Iterable[_Site]) -> list[_Site]:
    """The outermost, non-overlapping sites among ``hits``."""
    kept: list[_Site] = []
    taken: dict[int, set[tuple[int, ...]]] = {}
    for site in sorted(hits, key=lambda s: (s.term_index, len(s.path), s.path)):
        paths = taken.setdefault(site.term_index, set())
        if any(site.path[:i] in paths for i in range(len(site.path) + 1)):
            continue
        paths.add(site.path)
        kept.append(site)
    return kept


def _savings(candidate: Abstraction, sites: list[_Site]) -> int:
    per_site = sum(site.size - 1 - sum(a.size for a in site.args) for site in sites)
    return per_site - candidate.body.size


def _greedy_rewrite(
    run: CompressionResult, keyed: list[tuple[str, Abstraction]]
) -> None:
    """Lazy-greedy selection: re-evaluate a candidate's savings against the
    current corpus when it reaches the top of the heap, apply it while the
    savings stay positive.  ``keyed`` holds each candidate with its body's
    rendering, which breaks ties between equal savings."""
    if not keyed:
        return
    candidates = [cand for _, cand in keyed]
    index = _HitLists(candidates, run.terms)
    version = 0
    # Keys are distinct renderings, so heap order never compares sites.  An
    # entry scored at the current version carries the sites that are still
    # valid, since the hit lists change only with the version.
    heap: list[tuple[int, str, int, int, list[_Site]]] = []

    def score(ci: int, key: str) -> None:
        sites = index.sites(ci)
        gain = _savings(candidates[ci], sites)
        if gain > 0:
            heapq.heappush(heap, (-gain, key, version, ci, sites))
        else:
            index.kill(ci)

    for ci, (key, _) in enumerate(keyed):
        score(ci, key)
    while heap:
        _, key, seen, ci, sites = heapq.heappop(heap)
        if seen != version:
            score(ci, key)
            continue
        index.kill(ci)
        name = f"${len(run.library)}"
        run.library.append(Abstraction(name, candidates[ci].params, candidates[ci].body))
        changed: dict[int, tuple[Term, list[tuple[int, ...]]]] = {}
        for site in sites:
            ti = site.term_index
            changed.setdefault(ti, (run.terms[ti], []))[1].append(site.path)
            run.terms[ti] = replace_at(run.terms[ti], site.path, Node(name, site.args))
            run.comparisons += site.cost
            run.rewrites += 1
        version += 1
        index.update(changed)


def _constant_candidates(counts: dict[Term, int]) -> list[tuple[str, Abstraction]]:
    """Each repeated subterm whose naming saves nodes, with its rendering,
    by savings and then by text."""
    # Every subterm of _MIN_CONST_SIZE or more nodes is a Node.
    ranked = [
        (occ * (t.size - 1) - t.size, render_term(t), t)
        for t, occ in counts.items()
        if t.size >= _MIN_CONST_SIZE and occ >= 2 and occ * (t.size - 1) - t.size > 0
    ]
    ranked.sort(key=lambda r: (-r[0], r[1]))
    return [(text, Abstraction("const", (), t)) for _, text, t in ranked]


def _motif_candidates(counts: dict[Term, int]) -> list[tuple[str, Abstraction]]:
    """Candidate abstractions, each with its body's rendering, from
    pairwise anti-unification over windows of the distinct subterms, sorted.

    Sorting by rendered text clusters structurally similar subterms, so
    generalizing each entry against its next neighbors finds repeated
    parameterized shapes without comparing all pairs.  Each windowed
    subterm is rendered once, smallest first, from its children's texts,
    and each pair is generalized by ``_anti_unify``, which gives up at the
    first parameter past _MAX_MOTIF_PARAMS.
    """
    window = [t for t in counts if _MIN_MOTIF_SIZE <= t.size <= _MAX_WINDOW]
    # term -> render_term text.  A child is smaller than its parent, so the
    # text of a windowed child, or of an equal copy of one, is already here.
    # Children below the window are rendered in full.
    text: dict[Term, str] = {}
    for t in sorted(window, key=lambda t: t.size):
        parts = [t.label]
        for c in t.children:
            rendered = text.get(c)
            parts.append(render_term(c) if rendered is None else rendered)
        text[t] = "(" + " ".join(parts) + ")"
    window.sort(key=text.__getitem__)

    # (body, params) -> (ground nodes, candidate)
    found: dict[tuple[Term, tuple[str, ...]], tuple[int, Abstraction]] = {}
    for i, left in enumerate(window):
        for right in window[i + 1 : i + 3]:
            if left.label != right.label or len(left.children) != len(right.children):
                continue
            pair = _anti_unify(left, right, _MAX_MOTIF_PARAMS)
            if pair is None:
                continue
            # Distinct terms disagree somewhere, so every pair has a parameter.
            body, params, occurrences = pair
            ground = body.size - occurrences
            if body.size < _MIN_MOTIF_SIZE or ground < _MIN_GROUND_NODES:
                continue
            key = (body, params)
            if key not in found:
                found[key] = (ground, Abstraction("lgg", params, body))

    ranked = sorted(
        [(ground, render_term(cand.body), cand) for ground, cand in found.values()],
        key=lambda r: (-r[0], r[1]),
    )
    return [(text, cand) for _, text, cand in ranked[:_MAX_CANDIDATES]]
