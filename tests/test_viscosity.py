"""Perturbation sampling and Lipschitz estimates."""

import pytest

from mdlgauge import viscosity
from mdlgauge.sampling import random_abstraction, random_ground_term, seeded
from mdlgauge.term import (
    Abstraction,
    Var,
    instantiate,
    iter_subterms,
    parse_term,
    term_size,
    term_variables,
)
from mdlgauge.treedist import ted
from mdlgauge.viscosity import LipschitzEstimate, ZeroSamples, estimate_lipschitz, perturb

HYPOT = Abstraction(("a", "b"), parse_term("(+ (* ?a ?a) (* ?b ?b))"))


def test_perturb_is_deterministic():
    t = parse_term("(f (g a) b)")
    assert perturb(t, 7) == perturb(t, 7)


def test_perturb_changes_the_term():
    rng = seeded("perturb-diff")
    for seed in range(300):
        t = random_ground_term(rng, rng.randint(1, 8))
        assert perturb(t, seed) != t


def test_perturb_moves_at_least_one_unit():
    rng = seeded("perturb-ted")
    for seed in range(1000):
        t = random_ground_term(rng, rng.randint(1, 8))
        assert ted(t, perturb(t, seed)) >= 1.0


def test_perturb_single_node_tree():
    from mdlgauge.term import Node

    leaf = Node("a")
    for seed in range(50):
        out = perturb(leaf, seed)
        assert out != leaf
        assert term_size(out) >= 1  # relabel or insert; never an empty tree


def test_perturb_can_produce_argument_style_growth():
    # among many seeds, (f s) grows into a (op (f s) leaf) style wrap somewhere
    t = parse_term("(f s)")
    grown = {perturb(t, seed) for seed in range(60)}
    assert any(term_size(g) == term_size(t) + 2 for g in grown)


def test_perturb_rejects_patterns():
    with pytest.raises(ValueError):
        perturb(Var("x"), 0)


def test_hypot_forward_constant():
    est = estimate_lipschitz(HYPOT, samples=20, seed=0)
    assert est.forward_k <= 2.0
    assert est.forward_k == 2.0  # some sample achieves the occurrence bound
    assert est.inverse_ok
    assert est.all_params_used


def test_single_occurrence_ratio_is_one():
    wrap = Abstraction(("a",), parse_term("(f ?a)"))
    est = estimate_lipschitz(wrap, samples=40, seed=3)
    assert est.forward_k == 1.0
    assert est.inverse_ok


def test_constant_abstraction():
    const = Abstraction((), parse_term("(f a b)"))
    est = estimate_lipschitz(const, samples=10, seed=0)
    assert est.forward_k == 0.0
    assert est.inverse_ok


def test_forward_bound_by_max_occurrences():
    rng = seeded("fwd-bound")
    for i in range(25):
        a = random_abstraction(rng, rng.randint(4, 9), rng.randint(1, 3), max_occurrences=3)
        occurrences = {}
        for _, sub in iter_subterms(a.body):
            if isinstance(sub, Var):
                occurrences[sub.name] = occurrences.get(sub.name, 0) + 1
        est = estimate_lipschitz(a, samples=15, seed=i)
        assert est.forward_k <= max(occurrences.values()) + 1e-9


def test_inverse_inequality_sampled():
    rng = seeded("inv-ineq")
    for i in range(25):
        a = random_abstraction(rng, rng.randint(4, 9), rng.randint(1, 3))
        assert estimate_lipschitz(a, samples=20, seed=i).inverse_ok


def test_unused_parameter_is_flagged():
    a = Abstraction(("a", "b"), parse_term("(f ?a)"))
    est = estimate_lipschitz(a, samples=10, seed=0)
    assert not est.all_params_used


def test_estimates_are_deterministic():
    first = estimate_lipschitz(HYPOT, samples=15, seed=9)
    second = estimate_lipschitz(HYPOT, samples=15, seed=9)
    assert first == second
    assert first == LipschitzEstimate(first.forward_k, first.inverse_ok, 15, 9, True)


def test_zero_samples_rejected():
    with pytest.raises(ZeroSamples):
        estimate_lipschitz(HYPOT, samples=0, seed=0)


def test_canonical_hypot_sample_ratio():
    # the canonical perturbation: x=(r, (f s)) to x'=(r, (f (+ s 1)))
    x = (parse_term("r"), parse_term("(f s)"))
    x2 = (parse_term("r"), parse_term("(f (+ s 1))"))
    d_in = sum(ted(a, b) for a, b in zip(x, x2))
    d_out = ted(instantiate(HYPOT, x), instantiate(HYPOT, x2))
    assert (d_in, d_out) == (2.0, 4.0)


def test_d_in_measures_only_the_perturbed_coordinate(monkeypatch):
    # Every other coordinate is the same object, at distance 0, so each
    # sample costs one ted for d_in and one for d_out.
    calls = []

    def counting_ted(t1, t2, costs):
        calls.append((t1, t2))
        return ted(t1, t2, costs)

    monkeypatch.setattr(viscosity, "ted", counting_ted)
    estimate = estimate_lipschitz(HYPOT, samples=50, seed=3)
    assert len(calls) == 100
    assert (estimate.forward_k, estimate.inverse_ok) == (2.0, True)
