"""Compression/inversion tradeoff curves over a ladder of abstraction
mechanisms.

Synthetic corpora are random terms with parameterized motifs planted at a
configurable rate.  Three mechanism levels are compared: L0 (no
abstraction), L1 (named constants for repeated ground subterms), and L2
(first-order substitution abstractions discovered by anti-unification).
For each level we report the compression ratio achieved and the mean
matching work per reuse, which together trace the two curves: more powerful
mechanisms compress better and cost more to invert.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .sampling import leaf_paths, random_ground_term, seeded
from .term import (
    Abstraction,
    Node,
    Term,
    Var,
    instantiate,
    iter_subterms,
    lgg,
    render_term,
    replace_at,
    subterm_at,
    term_size,
)
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
        if self.motif_size > self.program_size:
            problems.append("motif_size must not exceed program_size")
        if self.motif_count > 0 and self.motif_rate * self.program_size < self.motif_size:
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
            size = term_size(inst)
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
    while term_size(program) < spec.program_size:
        program = Node(rng.choice(alphabet), (program,))
        paths = {key: (0,) + path for key, path in paths.items()}

    sites = [
        (instances[i][0], instances[i][1], paths[i]) for i in range(len(instances))
    ]
    return program, sites


def ground_truth_floor(corpus: Sequence[Term], truth: GroundTruth) -> int:
    """A lower bound on compressed size given only the planted structure:
    every planted instance collapsed to a single node, libraries free."""
    total = sum(term_size(t) for t in corpus)
    planted = sum(
        term_size(subterm_at(corpus[inst.program_index], inst.path)) - 1
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
    original = sum(term_size(t) for t in corpus)
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
    candidates: list[Abstraction] = []
    if level.index >= 1:
        candidates.extend(_constant_candidates(terms))
    if level.index >= 2:
        # Parameterized motifs compete with plain constants in one greedy
        # pass; a constant is just the zero-parameter special case.
        candidates.extend(_motif_candidates(terms))
    _greedy_rewrite(run, candidates)
    run.compressed_size = sum(term_size(t) for t in run.terms) + sum(
        term_size(a.body) for a in run.library
    )
    return run


@dataclass(frozen=True)
class _Site:
    term_index: int
    path: tuple[int, ...]
    size: int
    args: tuple[Term, ...]
    cost: int


def _label_index(terms: Sequence[Term]) -> dict[str, list[tuple[int, tuple[int, ...], Term]]]:
    index: dict[str, list[tuple[int, tuple[int, ...], Term]]] = {}
    for ti, term in enumerate(terms):
        for path, node in iter_subterms(term):
            if isinstance(node, Node):
                index.setdefault(node.label, []).append((ti, path, node))
    return index


def _find_sites(index, candidate: Abstraction) -> list[_Site]:
    """Outermost, non-overlapping occurrences of the candidate's body."""
    root = candidate.body
    if not isinstance(root, Node):
        return []
    hits = []
    for ti, path, node in index.get(root.label, ()):
        bindings, cost = _match_cost(root, node)
        if bindings is not None:
            args = tuple(bindings[p] for p in candidate.params)
            hits.append(_Site(ti, path, term_size(node), args, cost))
    hits.sort(key=lambda s: (s.term_index, len(s.path), s.path))
    kept: list[_Site] = []
    taken: dict[int, set[tuple[int, ...]]] = {}
    for site in hits:
        paths = taken.setdefault(site.term_index, set())
        if any(site.path[:i] in paths for i in range(len(site.path) + 1)):
            continue
        paths.add(site.path)
        kept.append(site)
    return kept


def _savings(candidate: Abstraction, sites: list[_Site]) -> int:
    per_site = sum(site.size - 1 - sum(term_size(a) for a in site.args) for site in sites)
    return per_site - term_size(candidate.body)


def _greedy_rewrite(run: CompressionResult, candidates: list[Abstraction]) -> None:
    """Lazy-greedy selection: re-evaluate a candidate's savings against the
    current corpus when it reaches the top of the heap, apply it while the
    savings stay positive."""
    if not candidates:
        return
    index = _label_index(run.terms)
    version = 0
    # Keys are distinct renderings, so heap order never compares candidates
    # or sites.  An entry scored at the current version carries the sites
    # that are still valid, since the index changes only with the version.
    heap: list[tuple[int, str, int, Abstraction, list[_Site]]] = []

    def score(cand: Abstraction, key: str) -> None:
        sites = _find_sites(index, cand)
        gain = _savings(cand, sites)
        if gain > 0:
            heapq.heappush(heap, (-gain, key, version, cand, sites))

    for cand in candidates:
        score(cand, render_term(cand.body))
    while heap:
        _, key, seen, cand, sites = heapq.heappop(heap)
        if seen != version:
            score(cand, key)
            continue
        name = f"${len(run.library)}"
        run.library.append(Abstraction(name, cand.params, cand.body))
        for site in sites:
            run.terms[site.term_index] = replace_at(
                run.terms[site.term_index], site.path, Node(name, site.args)
            )
            run.comparisons += site.cost
            run.rewrites += 1
        version += 1
        index = _label_index(run.terms)


def _constant_candidates(terms: Sequence[Term]) -> list[Abstraction]:
    counts: dict[Term, int] = {}
    sizes: dict[Term, int] = {}
    for term in terms:
        for _, node in iter_subterms(term):
            if isinstance(node, Node):
                size = sizes.get(node)
                if size is None:
                    size = sizes[node] = term_size(node)
                if size >= _MIN_CONST_SIZE:
                    counts[node] = counts.get(node, 0) + 1
    ranked = [
        (occ * (sizes[t] - 1) - sizes[t], t)
        for t, occ in counts.items()
        if occ >= 2 and occ * (sizes[t] - 1) - sizes[t] > 0
    ]
    ranked.sort(key=lambda pair: (-pair[0], render_term(pair[1])))
    return [Abstraction("const", (), t) for _, t in ranked]


def _motif_candidates(terms: Sequence[Term]) -> list[Abstraction]:
    """Candidate abstractions from pairwise anti-unification over windows of
    the sorted subterm pool.

    Sorting by rendered text clusters structurally similar subterms, so
    generalizing each entry against its next neighbors finds repeated
    parameterized shapes without comparing all pairs.
    """
    pool_set: set[Term] = set()
    for term in terms:
        for _, node in iter_subterms(term):
            if isinstance(node, Node) and _MIN_MOTIF_SIZE <= term_size(node) <= _MAX_WINDOW:
                pool_set.add(node)
    pool = sorted(pool_set, key=render_term)

    found: dict[tuple, Abstraction] = {}
    for i, left in enumerate(pool):
        for j in (i + 1, i + 2):
            if j >= len(pool):
                break
            right = pool[j]
            if left.label != right.label or len(left.children) != len(right.children):
                continue
            cand = lgg([left, right])
            if not _useful_motif(cand):
                continue
            key = (render_term(cand.body), cand.params)
            found.setdefault(key, cand)

    candidates = sorted(
        found.values(), key=lambda a: (-_ground_nodes(a), render_term(a.body))
    )
    return candidates[:_MAX_CANDIDATES]


def _ground_nodes(a: Abstraction) -> int:
    var_positions = sum(1 for _, sub in iter_subterms(a.body) if isinstance(sub, Var))
    return term_size(a.body) - var_positions


def _useful_motif(a: Abstraction) -> bool:
    return (
        1 <= len(a.params) <= _MAX_MOTIF_PARAMS
        and term_size(a.body) >= _MIN_MOTIF_SIZE
        and _ground_nodes(a) >= _MIN_GROUND_NODES
    )
