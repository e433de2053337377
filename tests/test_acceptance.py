"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line (visible under ``pytest -s``); a failing
criterion fails its test.  Criteria with runtime budgets assert them.
"""

import random
import time
from pathlib import Path

import pytest

from mdlgauge.lexcount import count_tokens, rename_identifiers, tokenize
from mdlgauge.mdl import Candidate, check_unimodal, rank_candidates
from mdlgauge.sampling import random_abstraction, random_ground_term, seeded
from mdlgauge.term import (
    Node,
    Substitution,
    Var,
    instantiate,
    match_term,
    parse_abstraction,
    parse_term,
    replace_at,
    subterm_at,
    term_size,
    unify,
    iter_subterms,
)
from mdlgauge.tradeoff import (
    LADDER,
    DomainSpec,
    compress_with_level,
    emit_tradeoff_points,
    generate_corpus_with_truth,
    ground_truth_floor,
)
from mdlgauge.treedist import ted, ted_oracle
from mdlgauge.viscosity import estimate_lipschitz
from support import all_trees, stream_text, subsumes
from test_term import random_pattern


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_token_counts(corpus_text):
    start = time.perf_counter()
    counts = {
        name: count_tokens(tokenize(corpus_text(f"fig2{name}.cpp")))
        for name in "abcd"
    }
    elapsed = time.perf_counter() - start
    assert counts["a"] == 41
    assert counts["b"] == 46
    assert counts["d"] == 56
    assert abs(counts["c"] - 44) <= 3
    assert elapsed < 1.0
    report(1, f"component token counts {counts} in {elapsed:.3f}s")


def test_criterion_2_mdl_decision(corpus):
    from mdlgauge.cli import load_manifest

    start = time.perf_counter()
    manifest = load_manifest(corpus / "scenario.json")
    rep = rank_candidates(list(manifest.candidates), manifest.use_cases,
                          manifest.tokenizer_dialect)
    elapsed = time.perf_counter() - start

    totals = {name: rep.scores[name].total for name in "abcd"}
    assert rep.winner == "b"
    assert totals["b"] < totals["c"] < totals["a"] < totals["d"]
    assert abs(totals["d"] - 177) <= 0.1 * 177
    chain_totals = [rep.scores[c.name].total for c in rep.candidates]
    assert check_unimodal(chain_totals) == (True, 1)
    assert elapsed < 1.0
    report(2, f"winner=b, totals={totals}, U-shaped at 1, {elapsed:.3f}s")


def test_criterion_3_inversion(corpus_text):
    pattern = parse_term(corpus_text("hypot_pattern.term"))
    y = parse_term(corpus_text("hypot_y.term"))
    got = match_term(pattern, y)
    assert got is not None
    assert got.bindings == {"a": parse_term("r"), "b": parse_term("(f s)")}

    hypot = parse_abstraction(corpus_text("hypot.abs"))
    x = (parse_term("r"), parse_term("(f s)"))
    x2 = (parse_term("r"), parse_term("(f (+ s 1))"))
    assert instantiate(hypot, x) == y
    assert instantiate(hypot, x2) == parse_term(corpus_text("hypot_y_prime.term"))
    report(3, "match recovers {?a -> r, ?b -> (f s)}; instantiation maps both rows")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    trees = {n: all_trees(n, ("a", "b")) for n in range(1, 6)}
    pairs = 0
    for n1 in range(1, 6):
        for n2 in range(1, 7 - n1):
            for t1 in trees[n1]:
                for t2 in trees[n2]:
                    pairs += 1
                    assert ted(t1, t2) == ted_oracle(t1, t2)

    rng = seeded("acceptance-ted")
    for _ in range(200):
        t1 = random_ground_term(rng, rng.randint(1, 10))
        t2 = random_ground_term(rng, rng.randint(1, 10))
        pairs += 1
        assert ted(t1, t2) == ted_oracle(t1, t2)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"{pairs} tree pairs, zero oracle mismatches, {elapsed:.1f}s")


def test_criterion_5_unification_soundness():
    rng = random.Random("acceptance-unify")

    for i in range(500):
        ancestor = random_pattern(rng, rng.randint(2, 9), ("x", "y", "z"))
        planted = Substitution(
            {
                v: random_pattern(rng, rng.randint(1, 4), (f"n{i}_{k}",))
                for k, v in enumerate(("x", "y", "z"))
            }
        )
        instance = planted.apply(ancestor)
        mgu = unify(ancestor, instance)
        assert mgu is not None, "planted pair must unify"
        assert mgu.apply(ancestor) == mgu.apply(instance)
        assert subsumes(mgu.apply(ancestor), instance)

    failures = 0
    for i in range(500):
        ancestor = random_pattern(rng, rng.randint(3, 9), ("x", "y"))
        if i % 2 == 0:
            # rigid label clash at a shared non-variable position
            ground = Substitution(
                {"x": Node(f"c{i}"), "y": Node(f"d{i}")}
            ).apply(ancestor)
            rigid = [p for p, s in iter_subterms(ancestor) if not isinstance(s, Var)]
            path = rigid[rng.randrange(len(rigid))]
            node = subterm_at(ground, path)
            clashed = replace_at(ground, path, Node(node.label + "_x", node.children))
            result = unify(ancestor, clashed)
        else:
            # occurs: some ?v position on one side wraps the same ?v
            positions = [p for p, s in iter_subterms(ancestor) if isinstance(s, Var)]
            if not positions:
                ancestor = Node("f", (Var("x"),))
                positions = [(0,)]
            path = positions[rng.randrange(len(positions))]
            var = subterm_at(ancestor, path)
            cyclic = replace_at(ancestor, path, Node("w", (var,)))
            result = unify(ancestor, cyclic)
        if result is None:
            failures += 1
    assert failures == 500, f"only {failures}/500 negative cases failed to unify"
    report(5, "500 planted mgus verified, 500 clash/occurs pairs rejected")


def test_criterion_6_viscosity(corpus_text):
    start = time.perf_counter()
    rng = seeded("acceptance-visc")
    for i in range(50):
        a = random_abstraction(rng, rng.randint(4, 10), rng.randint(1, 3))
        est = estimate_lipschitz(a, samples=20, seed=i)
        assert est.all_params_used
        assert est.inverse_ok, f"abstraction {i} violated the inverse inequality"

    hypot = parse_abstraction(corpus_text("hypot.abs"))
    est = estimate_lipschitz(hypot, samples=20, seed=0)
    assert est.forward_k <= 2.0
    assert est.forward_k == 2.0  # at least one sample achieves ratio 2
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(6, f"1000 samples honor d_in <= d_out; hypot forward_k = 2, {elapsed:.1f}s")


def readme_tradeoff_csv() -> list[str]:
    """The four CSV lines the README publishes for the seed-7 spec."""
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    start = lines.index("$ cat points.csv") + 1
    return lines[start : start + 4]


def test_criterion_7_tradeoff_curve():
    start = time.perf_counter()
    spec = DomainSpec(seed=7, program_count=50, program_size=200,
                      motif_count=3, motif_size=12, motif_rate=0.4)
    corpus, truth = generate_corpus_with_truth(spec)
    total = sum(term_size(t) for t in corpus)
    floor = ground_truth_floor(corpus, truth)

    points = emit_tradeoff_points(spec)
    ratios = [p.compression_ratio for p in points]
    costs = [p.inversion_cost for p in points]
    assert ratios[0] > ratios[1] > ratios[2]
    assert costs[0] < costs[1] < costs[2]
    for level, point in zip(LADDER, points):
        run = compress_with_level(corpus, level)
        assert run.compressed_size >= floor
        assert abs(run.compressed_size / total - point.compression_ratio) < 1e-12
        assert point.inversion_cost == run.mean_cost
    # Formatted as `mdlgauge tradeoff` prints them, the points are the
    # README's published CSV byte for byte.
    assert ["level,power,compression_ratio,inversion_cost"] + [
        f"{p.level.name},{p.level.power:.6f},{p.compression_ratio:.6f},{p.inversion_cost:.6f}"
        for p in points
    ] == readme_tradeoff_csv()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"ratios {ratios} decreasing, costs {costs} increasing, "
              f"floor {floor}/{total} respected, {elapsed:.1f}s")


def test_criterion_8_renaming_invariance(corpus):
    from mdlgauge.cli import load_manifest

    manifest = load_manifest(corpus / "scenario.json")
    baseline = rank_candidates(list(manifest.candidates), manifest.use_cases)
    baseline_counts = {
        c.name: (baseline.scores[c.name].component_tokens,
                 baseline.scores[c.name].adaptation_tokens)
        for c in manifest.candidates
    }

    idents = set()
    for c in manifest.candidates:
        for src in [c.component_source, c.shared_source, *c.adaptations.values()]:
            idents |= {t.text for t in tokenize(src) if t.kind == "identifier"}
    idents = sorted(idents)

    rng = random.Random("acceptance-rename")
    for trial in range(100):
        targets = [f"r{trial}_{k}" for k in range(len(idents))]
        rng.shuffle(targets)
        mapping = dict(zip(idents, targets))

        def rename(src: str) -> str:
            return stream_text(rename_identifiers(tokenize(src), mapping))

        renamed = [
            Candidate(c.name, c.chain_index, rename(c.component_source),
                      {u: rename(s) for u, s in c.adaptations.items()},
                      c.inapplicable,
                      rename(c.shared_source) if c.shared_source else "")
            for c in manifest.candidates
        ]
        rep = rank_candidates(renamed, manifest.use_cases)
        got_counts = {
            c.name: (rep.scores[c.name].component_tokens,
                     rep.scores[c.name].adaptation_tokens)
            for c in rep.candidates
        }
        assert got_counts == baseline_counts
        assert rep.winner == baseline.winner
        assert (rep.u_shaped, rep.min_index) == (baseline.u_shaped, baseline.min_index)
    report(8, "100 renamings left every count, the winner, and the U-shape unchanged")
