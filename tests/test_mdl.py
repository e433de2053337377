"""Scoring and ranking of candidate components by description length."""

import random

import pytest

from mdlgauge.lexcount import rename_identifiers, tokenize
from mdlgauge.mdl import (
    Candidate,
    EmptyCandidateList,
    MdlScore,
    MissingAdaptation,
    check_unimodal,
    rank_candidates,
    report_csv,
    score_candidate,
)
from support import stream_text

USES = ("double", "int", "float")


def token_source(n: int) -> str:
    """A source text with exactly n tokens."""
    return " ".join(f"t{i}" for i in range(n))


def synthetic_candidate(name, chain_index, component_tokens, per_use_tokens):
    return Candidate(
        name,
        chain_index,
        token_source(component_tokens),
        {u: token_source(per_use_tokens) for u in USES},
    )


def load_scenario(corpus):
    from mdlgauge.cli import load_manifest

    return load_manifest(corpus / "scenario.json")


def test_score_candidate_b(corpus):
    manifest = load_scenario(corpus)
    b = next(c for c in manifest.candidates if c.name == "b")
    score = score_candidate(b, manifest.use_cases)
    assert (score.component_tokens, score.adaptation_tokens, score.total) == (46, 60, 106)


def test_score_candidate_d(corpus):
    manifest = load_scenario(corpus)
    d = next(c for c in manifest.candidates if c.name == "d")
    score = score_candidate(d, manifest.use_cases)
    assert (score.component_tokens, score.adaptation_tokens, score.total) == (56, 121, 177)


def test_score_with_no_use_cases():
    c = synthetic_candidate("x", 0, 17, 5)
    score = score_candidate(c, ())
    assert (score.component_tokens, score.adaptation_tokens, score.total) == (17, 0, 17)


def test_missing_adaptation():
    c = Candidate("x", 0, "a b", {"double": "c"})
    with pytest.raises(MissingAdaptation):
        score_candidate(c, USES)


def test_rank_reproduces_reference_totals():
    # Chain totals 123, 106, 108, 177: the winner is the second candidate
    # and the profile is U-shaped with its minimum at index 1.
    cands = [
        synthetic_candidate("a", 0, 41, 0),
        Candidate("b", 1, token_source(46), {u: token_source(20) for u in USES}),
        Candidate("c", 2, token_source(42), {u: token_source(22) for u in USES}),
        Candidate("d", 3, token_source(56), {u: token_source(30) for u in USES},
                  shared_source=token_source(31)),
    ]
    cands[0] = Candidate(
        "a", 0, token_source(41),
        {"double": "", "int": token_source(41), "float": token_source(41)},
    )
    report = rank_candidates(cands, USES)
    totals = [report.scores[c.name].total for c in report.candidates]
    assert totals == [123, 106, 108, 177]
    assert report.winner == "b"
    assert report.u_shaped and report.min_index == 1


def test_rank_single_candidate():
    report = rank_candidates([synthetic_candidate("only", 0, 10, 2)], USES)
    assert report.winner == "only"
    assert report.u_shaped and report.min_index == 0


def test_tie_breaks_to_less_general():
    a = synthetic_candidate("general", 5, 10, 2)
    b = synthetic_candidate("specific", 1, 10, 2)
    report = rank_candidates([a, b], USES)
    assert report.winner == "specific"


def test_rank_is_permutation_safe():
    cands = [synthetic_candidate(f"c{i}", i, 30 - i, 4 + i) for i in range(5)]
    rng = random.Random(13)
    baseline = rank_candidates(cands, USES)
    for _ in range(10):
        shuffled = cands[:]
        rng.shuffle(shuffled)
        report = rank_candidates(shuffled, USES)
        assert report.winner == baseline.winner
        assert report.scores == baseline.scores
        assert [c.name for c in report.candidates] == [c.name for c in baseline.candidates]


def test_adding_a_use_case_never_decreases_totals():
    c = synthetic_candidate("x", 0, 12, 3)
    extended = Candidate("x", 0, c.component_source,
                         dict(c.adaptations, extra=token_source(2)))
    base = score_candidate(c, USES).total
    more = score_candidate(extended, USES + ("extra",)).total
    assert more >= base


def test_empty_candidate_list():
    with pytest.raises(EmptyCandidateList):
        rank_candidates([], USES)


def test_duplicate_chain_index_rejected():
    with pytest.raises(ValueError):
        rank_candidates(
            [synthetic_candidate("x", 0, 5, 1), synthetic_candidate("y", 0, 6, 1)], USES
        )


@pytest.mark.parametrize(
    "totals,expected",
    [
        ([123, 106, 108, 177], (True, 1)),
        ([5], (True, 0)),
        ([1, 3, 2], (False, 0)),
        ([3, 2, 2, 4], (True, 1)),
        ([2, 2], (True, 0)),
        ([5, 4, 3], (True, 2)),
        ([1, 2, 3], (True, 0)),
        ([4, 4, 1, 1, 9], (True, 2)),
    ],
)
def test_check_unimodal(totals, expected):
    assert check_unimodal(totals) == expected


def test_check_unimodal_rejects_empty():
    with pytest.raises(ValueError):
        check_unimodal([])


def test_report_csv_format(corpus):
    manifest = load_scenario(corpus)
    report = rank_candidates(list(manifest.candidates), manifest.use_cases)
    assert report_csv(report) == (
        "name,chain_index,component_tokens,adaptation_tokens,total,winner_flag\n"
        "a,0,41,82,123,0\n"
        "b,1,46,60,106,1\n"
        "c,2,44,69,113,0\n"
        "d,3,56,121,177,0\n"
        "u_shaped,true,min_index,1\n"
    )


def test_decision_is_renaming_invariant(corpus):
    manifest = load_scenario(corpus)
    baseline = rank_candidates(list(manifest.candidates), manifest.use_cases)

    idents = set()
    sources = []
    for c in manifest.candidates:
        sources.append(c.component_source)
        sources.append(c.shared_source)
        sources.extend(c.adaptations.values())
    for src in sources:
        idents |= {t.text for t in tokenize(src) if t.kind == "identifier"}
    idents = sorted(idents)

    rng = random.Random(99)
    targets = [f"w{k}" for k in range(len(idents))]
    rng.shuffle(targets)
    mapping = dict(zip(idents, targets))

    def rename(src: str) -> str:
        return stream_text(rename_identifiers(tokenize(src), mapping))

    renamed = [
        Candidate(
            c.name,
            c.chain_index,
            rename(c.component_source),
            {u: rename(s) for u, s in c.adaptations.items()},
            rename(c.shared_source) if c.shared_source else "",
        )
        for c in manifest.candidates
    ]
    report = rank_candidates(renamed, manifest.use_cases)
    assert report.scores == baseline.scores
    assert report.winner == baseline.winner
    assert (report.u_shaped, report.min_index) == (baseline.u_shaped, baseline.min_index)
