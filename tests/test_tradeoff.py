"""Synthetic corpora and the compression/inversion tradeoff ladder."""

import pytest

from mdlgauge import tradeoff
from mdlgauge.term import (
    Node,
    match_term,
    lgg,
    render_term,
    subterm_at,
    term_size,
)
from mdlgauge.tradeoff import (
    LADDER,
    DomainSpec,
    InconsistentSpec,
    compress_with_level,
    emit_tradeoff_points,
    generate_corpus,
    generate_corpus_with_truth,
    ground_truth_floor,
)
from support import skolemize

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


def test_program_sizes_are_exact():
    spec = DomainSpec(seed=5, program_count=8, program_size=73, motif_count=2,
                      motif_size=9, motif_rate=0.35)
    corpus = generate_corpus(spec)
    assert [term_size(t) for t in corpus] == [73] * 8


def test_motif_free_corpus_has_no_truth():
    spec = DomainSpec(seed=9, program_count=4, program_size=50, motif_count=0,
                      motif_size=5, motif_rate=0.0)
    corpus, truth = generate_corpus_with_truth(spec)
    assert truth.motifs == () and truth.instances == ()
    assert len(corpus) == 4


def test_planted_sites_hold_real_instances():
    corpus, truth = generate_corpus_with_truth(SMALL_PLANTED)
    from mdlgauge.term import instantiate

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
    # it is accepted, so the single constant here is matched exactly once.
    calls = []
    find_sites = tradeoff._find_sites

    def counting(index, candidate):
        calls.append(candidate)
        return find_sites(index, candidate)

    monkeypatch.setattr(tradeoff, "_find_sites", counting)
    program = Node("f", (Node("g", (Node("a"), Node("b"))), Node("c"), Node("d")))
    run = compress_with_level([program] * 5, L1)
    assert len(run.library) == 1
    assert len(calls) == 1


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
    spec = DomainSpec(seed=11, program_count=8, program_size=80, motif_count=2,
                      motif_size=9, motif_rate=0.4)
    assert emit_tradeoff_points(spec) == emit_tradeoff_points(spec)


def test_ladder_powers():
    assert [lvl.power for lvl in LADDER] == [0.0, 0.5, 1.0]
    assert [lvl.index for lvl in LADDER] == [0, 1, 2]


def test_library_calls_carry_arguments():
    corpus, truth = generate_corpus_with_truth(SMALL_PLANTED)
    parameterized = [a for a in compress_with_level(corpus, L2).library if a.params]
    assert parameterized, "expected at least one parameterized library entry"
    for entry in parameterized:
        assert render_term(entry.body).count("?") >= len(entry.params)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        compress_with_level([], L1)
