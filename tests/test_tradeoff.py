"""Synthetic corpora and the compression/inversion tradeoff ladder."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mdlgauge import tradeoff
from mdlgauge.sampling import random_ground_term
from mdlgauge.term import (
    Abstraction,
    Node,
    _anti_unify,
    _match_cost,
    instantiate,
    iter_subterms,
    lgg,
    match_term,
    parse_term,
    render_term,
    replace_at,
    subterm_at,
    term_size,
)
from mdlgauge.tradeoff import (
    LADDER,
    CompressionResult,
    DomainSpec,
    InconsistentSpec,
    compress_with_level,
    emit_tradeoff_points,
    generate_corpus,
    generate_corpus_with_truth,
    ground_truth_floor,
)
from support import (
    _reference_motif_candidates,
    reference_compress,
    reference_equal,
    reference_greedy_rewrite,
    reference_lgg,
    skolemize,
)

L0, L1, L2 = LADDER

SMALL_PLANTED = DomainSpec(
    seed=3, program_count=10, program_size=100, motif_count=3, motif_size=8, motif_rate=0.4
)


def total_nodes(corpus):
    return sum(term_size(t) for t in corpus)


# ---------------------------------------------------------------------------
# spec validation and generation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(program_count=0),
        dict(program_size=0),
        dict(motif_count=-1),
        dict(motif_rate=1.5),
        dict(motif_size=300),
        dict(motif_rate=0.01),  # cannot cover a single instance
        dict(alphabet_size=0),
    ],
)
def test_inconsistent_specs(kwargs):
    base = dict(
        seed=1, program_count=5, program_size=80, motif_count=2, motif_size=10, motif_rate=0.4
    )
    base.update(kwargs)
    with pytest.raises(InconsistentSpec):
        DomainSpec(**base)


def test_generation_is_deterministic():
    spec = DomainSpec(seed=42, program_count=6, program_size=60, motif_count=1,
                      motif_size=8, motif_rate=0.3)
    first = generate_corpus(spec)
    second = generate_corpus(spec)
    assert first == second


# Instances would cover all of its programs, so the generator must stop
# planting before one overflows its program.
CROWDED = DomainSpec(1, 2, 20, 1, 12, 1.0)


def test_program_sizes_are_exact():
    for spec in (
        DomainSpec(seed=5, program_count=8, program_size=73, motif_count=2,
                   motif_size=9, motif_rate=0.35),
        CROWDED,
    ):
        corpus = generate_corpus(spec)
        assert [term_size(t) for t in corpus] == [spec.program_size] * spec.program_count


def test_motif_free_corpus_has_no_truth():
    spec = DomainSpec(seed=9, program_count=4, program_size=50, motif_count=0,
                      motif_size=5, motif_rate=0.0)
    corpus, truth = generate_corpus_with_truth(spec)
    assert truth.motifs == () and truth.instances == ()
    assert len(corpus) == 4


def test_planted_sites_hold_real_instances():
    for spec in (SMALL_PLANTED, CROWDED):
        corpus, truth = generate_corpus_with_truth(spec)
        assert truth.instances
        for inst in truth.instances:
            site = subterm_at(corpus[inst.program_index], inst.path)
            assert site == instantiate(truth.motifs[inst.motif_index], inst.args)


def test_planted_motifs_recoverable_by_lgg():
    corpus, truth = generate_corpus_with_truth(SMALL_PLANTED)
    for mi, motif in enumerate(truth.motifs):
        sites = [
            subterm_at(corpus[i.program_index], i.path)
            for i in truth.instances
            if i.motif_index == mi
        ]
        assert len(sites) >= 2
        recovered = lgg(sites)
        assert len(recovered.params) == len(motif.params)
        # alpha-equivalent: each body matches the other's skolemization
        assert match_term(recovered.body, skolemize(motif.body)) is not None
        assert match_term(motif.body, skolemize(recovered.body)) is not None


# ---------------------------------------------------------------------------
# compression levels


def test_level_zero_is_identity():
    corpus = generate_corpus(SMALL_PLANTED)
    run = compress_with_level(corpus, L0)
    assert run.library == []
    assert run.terms == corpus
    assert run.compressed_size == total_nodes(corpus)
    assert run.mean_cost == 0.0


def test_identical_programs_collapse_to_references():
    program = Node("f", (Node("g", (Node("a"), Node("b"))), Node("c"), Node("d")))
    assert term_size(program) == 6
    corpus = [program] * 5
    run = compress_with_level(corpus, L1)
    assert len(run.library) == 1
    assert run.library[0].params == ()
    assert run.compressed_size == 6 + 5  # one library entry plus five references
    assert run.rewrites == 5
    # each successful lookup walks the whole constant once
    assert run.mean_cost == 6.0


def test_accepted_candidate_is_matched_once(monkeypatch):
    # The sites found when a candidate is scored are the ones applied when
    # it is accepted, so the single constant here is matched exactly once
    # at each of the five roots, and never again once it is accepted.
    calls = []
    match_cost = tradeoff._match_cost

    def counting(pattern, target):
        calls.append(target)
        return match_cost(pattern, target)

    monkeypatch.setattr(tradeoff, "_match_cost", counting)
    program = Node("f", (Node("g", (Node("a"), Node("b"))), Node("c"), Node("d")))
    run = compress_with_level([program] * 5, L1)
    assert len(run.library) == 1
    assert calls == [program] * 5


def test_lookup_cost_scales_with_constant_size():
    program = Node("f", tuple(Node("g", (Node("a"), Node(l))) for l in "abc"))
    m = term_size(program)
    corpus = [program] * 4
    assert compress_with_level(corpus, L1).mean_cost == float(m)


def test_curve_shape_on_planted_corpora():
    for seed in (1, 2, 5):
        spec = DomainSpec(seed=seed, program_count=15, program_size=120,
                          motif_count=2, motif_size=10, motif_rate=0.35)
        points = emit_tradeoff_points(spec)
        ratios = [p.compression_ratio for p in points]
        costs = [p.inversion_cost for p in points]
        assert ratios[0] == 1.0
        assert ratios[2] < ratios[1] < 1.0, f"seed {seed}: {ratios}"
        assert costs[0] == 0.0
        assert costs[0] < costs[1] < costs[2], f"seed {seed}: {costs}"


def test_ratios_stay_above_ground_truth_floor():
    corpus, truth = generate_corpus_with_truth(SMALL_PLANTED)
    floor = ground_truth_floor(corpus, truth)
    total = total_nodes(corpus)
    for level in LADDER:
        assert floor <= compress_with_level(corpus, level).compressed_size <= total


def test_motif_free_corpus_barely_compresses():
    spec = DomainSpec(seed=7, program_count=20, program_size=120, motif_count=0,
                      motif_size=5, motif_rate=0.0)
    points = emit_tradeoff_points(spec)
    assert points[2].compression_ratio >= 0.95


def test_points_are_deterministic():
    wide = DomainSpec(seed=1, program_count=3, program_size=40, motif_count=2,
                      motif_size=8, motif_rate=0.4, alphabet_size=30)
    # Past the 26 letters, the labels go on as s0, s1, ...
    assert wide.alphabet()[-4:] == ("s0", "s1", "s2", "s3")
    for spec in (
        DomainSpec(seed=11, program_count=8, program_size=80, motif_count=2,
                   motif_size=9, motif_rate=0.4),
        wide,
    ):
        points = emit_tradeoff_points(spec)
        assert len(points) == 3
        assert points == emit_tradeoff_points(spec)


def test_ladder_powers():
    assert [lvl.power for lvl in LADDER] == [0.0, 0.5, 1.0]
    assert [lvl.index for lvl in LADDER] == [0, 1, 2]


def test_library_calls_carry_arguments():
    corpus, truth = generate_corpus_with_truth(SMALL_PLANTED)
    parameterized = [a for a in compress_with_level(corpus, L2).library if a.params]
    assert parameterized, "expected at least one parameterized library entry"
    for entry in parameterized:
        assert render_term(entry.body).count("?") >= len(entry.params)


def expand(t, library):
    """``t`` with every call ``$k`` replaced by ``library[k]`` applied to
    its expanded arguments."""
    kids = tuple(expand(c, library) for c in t.children)
    if t.label.startswith("$"):
        return instantiate(library[int(t.label[1:])], kids)
    return Node(t.label, kids)


@pytest.mark.parametrize("level", [L1, L2], ids=lambda level: level.name)
def test_call_k_applies_library_entry_k(level, monkeypatch):
    offered = []
    original = tradeoff._greedy_rewrite

    def rewrite(run, keyed):
        offered.extend(cand for _, cand in keyed)
        original(run, keyed)

    monkeypatch.setattr(tradeoff, "_greedy_rewrite", rewrite)
    corpus = generate_corpus(DomainSpec(2, 8, 80, 3, 7, 0.5, alphabet_size=3))
    run = compress_with_level(corpus, level)
    assert run.library
    # Each entry is a candidate object itself, not a copy of one.
    assert all(any(entry is cand for cand in offered) for entry in run.library)
    assert [expand(t, run.library) for t in run.terms] == corpus


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        compress_with_level([], L1)


# ---------------------------------------------------------------------------
# agreement with the reference compressor in tests/support.py


def outcome(run):
    """Everything a compression decides, in a comparable form."""
    return (
        [(f"${k}", a.params, render_term(a.body)) for k, a in enumerate(run.library)],
        [render_term(t) for t in run.terms],
        run.compressed_size,
        run.comparisons,
        run.rewrites,
    )


def greedy(rewrite, texts, candidates):
    """Run a greedy rewriter on parsed ``texts`` with the given
    (params, body text) candidates."""
    run = CompressionResult([], [parse_term(t) for t in texts], 0, 0, 0)
    rewrite(run, [Abstraction(params, parse_term(b)) for params, b in candidates])
    return outcome(run)


def greedy_rewrite(run, candidates):
    """``tradeoff._greedy_rewrite``, given each candidate with its body's
    rendering, as the candidate generators give it."""
    tradeoff._greedy_rewrite(run, [(render_term(c.body), c) for c in candidates])


REFERENCE_SPECS = [
    DomainSpec(1, 6, 60, 2, 8, 0.4),
    DomainSpec(2, 8, 80, 3, 7, 0.5, alphabet_size=3),
    DomainSpec(3, 10, 100, 3, 8, 0.4),
    DomainSpec(4, 5, 50, 1, 6, 0.3, alphabet_size=2),
    DomainSpec(5, 8, 70, 0, 5, 0.0, alphabet_size=3),
    DomainSpec(6, 12, 60, 2, 10, 0.4),
    DomainSpec(7, 6, 120, 3, 12, 0.4),
    DomainSpec(8, 10, 90, 2, 9, 0.5, alphabet_size=4),
    DomainSpec(9, 4, 40, 2, 5, 0.6, alphabet_size=2),
]


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: f"seed{s.seed}")
def test_agrees_with_reference_on_generated_corpora(spec):
    corpus = generate_corpus(spec)
    snapshot = tuple(corpus)
    for level in LADDER:
        run = compress_with_level(corpus, level)
        assert outcome(run) == outcome(reference_compress(corpus, level))
        assert len(corpus) == len(snapshot)
        assert all(t is s for t, s in zip(corpus, snapshot))


# The README's spec at 200 programs fills the window far beyond the small
# specs, and the motif-free control gives only chance coincidences.
CANDIDATE_SPECS = REFERENCE_SPECS + [
    DomainSpec(7, 200, 200, 3, 12, 0.4),
    DomainSpec(12, 30, 150, 0, 12, 0.0),
]


@pytest.mark.parametrize(
    "spec", CANDIDATE_SPECS, ids=lambda s: f"seed{s.seed}-{s.program_count}x{s.program_size}"
)
def test_motif_candidates_equal_the_reference(spec):
    corpus = generate_corpus(spec)
    got = tradeoff._motif_candidates(tradeoff._subterm_counts(corpus))
    want = _reference_motif_candidates(corpus)
    assert [(a.params, text) for text, a in got] == [
        (a.params, render_term(a.body)) for a in want
    ]
    assert all(text == render_term(a.body) for text, a in got)


@st.composite
def rooted_pairs(draw):
    """A random ground term and a copy with a few random proper subterms
    replaced, so the two share their root symbol and disagree in a few
    places.  A replacement may cover every copy of a subterm, so that a
    disagreement repeats."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    alphabet = "abcd"[: draw(st.integers(2, 4))]
    left = random_ground_term(rng, draw(st.integers(2, 40)), alphabet)
    right = left
    for _ in range(draw(st.integers(0, 12))):
        subterms = list(iter_subterms(right))[1:]
        path, old = rng.choice(subterms)
        new = random_ground_term(rng, rng.randint(1, 4), alphabet)
        # Copies of one subterm never overlap, so each path stays valid.
        every_copy = draw(st.booleans())
        for at, sub in subterms:
            if at == path or every_copy and sub == old:
                right = replace_at(right, at, new)
    return left, right


@settings(max_examples=300, deadline=None)
@given(rooted_pairs())
def test_pairwise_walk_is_lgg_up_to_the_parameter_limit(pair):
    left, right = pair
    expected = reference_lgg([left, right])
    got = _anti_unify(left, right, tradeoff._MAX_MOTIF_PARAMS)
    if len(expected.params) > tradeoff._MAX_MOTIF_PARAMS:
        assert got is None
        return
    body, params, occurrences = got
    assert reference_equal(body, expected.body)
    assert params == expected.params
    ground_nodes = sum(1 for _, sub in iter_subterms(body) if isinstance(sub, Node))
    assert body.size - occurrences == ground_nodes


def fresh_hits(candidate, terms):
    """Every node of ``terms`` that ``candidate`` matches, as the compressor
    files it: (term index, path) -> site."""
    hits = {}
    for ti, term in enumerate(terms):
        for path, node in iter_subterms(term):
            if isinstance(node, Node):
                bindings, cost = _match_cost(candidate.body, node)
                if bindings is not None:
                    args = tuple(bindings[p] for p in candidate.params)
                    hits[ti, path] = tradeoff._Site(ti, path, term_size(node), args, cost)
    return hits


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: f"seed{s.seed}")
def test_hit_lists_equal_a_fresh_scan_after_each_entry(spec, monkeypatch):
    update = tradeoff._HitLists.update
    entries = []

    def checked(hit_lists, changed):
        update(hit_lists, changed)
        entries.append(changed)
        for candidate, hits in zip(hit_lists.candidates, hit_lists.hits):
            if hits is not None:  # a live candidate
                assert hits == fresh_hits(candidate, hit_lists.terms)

    monkeypatch.setattr(tradeoff._HitLists, "update", checked)
    corpus = generate_corpus(spec)
    for level in (L1, L2):
        compress_with_level(corpus, level)
    assert entries, "expected at least one accepted entry"


# Each case: corpus texts, candidate (params, body) pairs.
HAND_BUILT = {
    # A chain where the motif's occurrences nest and overlap, next to a
    # constant that also occurs inside the motif's sites.
    "nested-and-overlapping": (
        [
            "(f (f (f (f (f a)))))",
            "(g (f (f (f b))) (f (f (f b))))",
            "(f (f (f b)))",
            "(g (g (f (f a)) (f (f a))) (f (f (f b))))",
        ],
        [(("x",), "(f (f ?x))"), ((), "(f (f (f b)))"), (("x", "y"), "(g ?x ?y)"), (("x",), "?x")],
    ),
    # Once the constant is a library call, the motif's variable child must
    # bind the call node ($0) at the rewritten node's parent.
    "variable-child-matches-call": (
        [
            "(h (p q r s t) (k l m n))",
            "(h (p q r s t) (k l m o))",
            "(h (p q r s t) (k l m n))",
            "(j (h (p q r s t) (k l m u)) (p q r s t))",
            "(h (p q r s u) (k l m n))",
        ],
        [((), "(p q r s t)"), (("x", "y"), "(h ?x (k l m ?y))")],
    ),
    # Repeated variables bind consistently, including to call nodes and
    # to metavariable leaves in the corpus.
    "repeated-variables": (
        [
            "(g (a b c d e) (a b c d e))",
            "(g (a b c d e) (a b c d x))",
            "(g (h i) (h i))",
            "(g (h i) (h j))",
            "(g (h ?i) (h ?i))",
            "(f (g (a b c d e) (a b c d e)) (a b c d e))",
        ],
        [(("x",), "(g ?x ?x)"), ((), "(a b c d e)"), (("x", "y"), "(f (g ?x ?x) ?y)")],
    ),
    # Rewriting the constant to the call $0 makes (g ?x ?x) match at the
    # parent, which did not match before: the corpus already holds $0 leaves.
    "rewrite-creates-match-at-ancestor": (
        ["(g (k a b c d e) $0)"] * 4 + ["(g (h a) (h a))"] * 6,
        [((), "(k a b c d e)"), (("x",), "(g ?x ?x)")],
    ),
}


@pytest.mark.parametrize("case", HAND_BUILT, ids=str)
def test_greedy_rewrite_agrees_with_reference(case):
    texts, candidates = HAND_BUILT[case]
    got = greedy(greedy_rewrite, texts, candidates)
    assert got == greedy(reference_greedy_rewrite, texts, candidates)
    assert got[0], "expected at least one accepted entry"


def test_rewrite_creates_match_at_ancestor():
    texts, candidates = HAND_BUILT["rewrite-creates-match-at-ancestor"]
    library, terms, _, _, rewrites = greedy(greedy_rewrite, texts, candidates)
    assert library == [("$0", (), "(k a b c d e)"), ("$1", ("x",), "(g ?x ?x)")]
    # Four constant sites, then ten motif sites: four of them are new.
    assert rewrites == 14
    assert terms == ["($1 $0)"] * 4 + ["($1 (h a))"] * 6


def test_variable_child_binds_call_node():
    texts, candidates = HAND_BUILT["variable-child-matches-call"]
    library, terms, _, _, _ = greedy(greedy_rewrite, texts, candidates)
    assert [entry[2] for entry in library] == ["(p q r s t)", "(h ?x (k l m ?y))"]
    assert terms[0] == "($1 $0 n)"


@pytest.mark.parametrize("case", ["nested-and-overlapping", "variable-child-matches-call"])
def test_compress_agrees_with_reference_on_hand_built_corpora(case):
    corpus = [parse_term(t) for t in HAND_BUILT[case][0]]
    for level in LADDER:
        assert outcome(compress_with_level(corpus, level)) == outcome(
            reference_compress(corpus, level)
        )
