"""Perturbation sampling and Lipschitz estimates."""

import pytest
from hypothesis import assume, given, settings, strategies as st

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
from mdlgauge.treedist import UNIT_COSTS, CostModel, ted
from mdlgauge.viscosity import LipschitzEstimate, ZeroSamples, estimate_lipschitz, perturb
from support import reference_estimate_lipschitz

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
    # sample costs one ted for d_in, between the perturbed coordinate and
    # its perturbation.  Hypot's instances then move by exactly twice
    # that, so after the first sample the bounds settle every d_out.
    d_in_calls, d_out_calls = [], []

    def counting_ted(t1, t2, costs):
        (d_out_calls if t1.label == "+" else d_in_calls).append((t1, t2))
        return ted(t1, t2, costs)

    monkeypatch.setattr(viscosity, "ted", counting_ted)
    estimate = estimate_lipschitz(HYPOT, samples=50, seed=3)
    assert len(d_in_calls) == 50
    assert all(t1 != t2 and t1.size <= 4 and t2.size <= 6 for t1, t2 in d_in_calls)
    assert len(d_out_calls) == 1
    assert (estimate.forward_k, estimate.inverse_ok) == (2.0, True)


# ---------------------------------------------------------------------------
# Skipped samples: the estimate equals the loop that measures every sample.


class LetterCosts(CostModel):
    """Whole-number relabels: 1 between two letters or two non-letters, 3
    across."""

    def relabel(self, a: str, b: str) -> float:
        if a == b:
            return 0
        return 1 if a.isalpha() == b.isalpha() else 3


class DearSelfCosts(CostModel):
    """Relabeling a label to itself costs 1, so the bounds do not hold."""

    def relabel(self, a: str, b: str) -> float:
        return 1.0


WHOLE_COSTS = [
    UNIT_COSTS,
    CostModel(2.0, 1.0, 3.0),
    CostModel(1.0, 2.0, 1.0),
    CostModel(1.0, 1.0, 5.0),
    CostModel(3.0, 3.0, 1.0),
    LetterCosts(1, 1, 1),
    CostModel(0.0, 0.0, 0.0),
    CostModel(0.0, 1.0, 1.0),
]
# Costs for which the bounds are not exact: fractional ones, whole ones too
# large for ted's exact int sums, and a self-relabel that is not free.
INEXACT_COSTS = [
    CostModel(0.1, 0.3, 0.7),
    CostModel(1e15, 1e15, 1e15),
    CostModel(1e300, 1e300, 1e300),
    DearSelfCosts(1.0, 1.0, 1.0),
]


def occurrence_counts(a):
    counts = dict.fromkeys(a.params, 0)
    for _, sub in iter_subterms(a.body):
        if isinstance(sub, Var):
            counts[sub.name] += 1
    return counts


@st.composite
def abstractions(draw):
    rng = seeded("lipschitz-oracle", draw(st.integers(0, 2**32)))
    try:
        a = random_abstraction(
            rng, draw(st.integers(5, 16)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
        )
    except ValueError:  # too few leaves for the parameters
        assume(False)
    if draw(st.booleans()):
        a = Abstraction(a.params + ("unused",), a.body)
    return a


@settings(max_examples=250, deadline=None)
@given(
    abstractions(),
    st.integers(1, 40),
    st.integers(0, 10**6),
    st.sampled_from(WHOLE_COSTS + INEXACT_COSTS),
)
def test_estimate_equals_the_reference(a, samples, seed, costs):
    assert estimate_lipschitz(a, samples, seed, costs) == reference_estimate_lipschitz(
        a, samples, seed, costs
    )


@pytest.mark.parametrize("costs", WHOLE_COSTS + INEXACT_COSTS)
def test_unused_parameter_equals_the_reference(costs):
    a = Abstraction(("a", "b"), parse_term("(f ?a (g ?a))"))
    estimate = estimate_lipschitz(a, samples=60, seed=1, costs=costs)
    assert estimate == reference_estimate_lipschitz(a, 60, 1, costs)
    assert not estimate.all_params_used
    # Only free edits move neither an unused argument nor anything else.
    assert estimate.inverse_ok == (costs == CostModel(0.0, 0.0, 0.0))


@pytest.mark.parametrize("costs", INEXACT_COSTS)
def test_inexact_costs_measure_every_sample(monkeypatch, costs):
    calls = []

    def counting_ted(t1, t2, costs):
        calls.append((t1, t2))
        return ted(t1, t2, costs)

    monkeypatch.setattr(viscosity, "ted", counting_ted)
    estimate = estimate_lipschitz(HYPOT, samples=30, seed=3, costs=costs)
    assert len(calls) == 60
    assert estimate == reference_estimate_lipschitz(HYPOT, 30, 3, costs)


@pytest.mark.parametrize("costs", WHOLE_COSTS)
def test_whole_costs_have_exact_bounds(costs):
    assert viscosity._exact_relabel_floor(HYPOT, occurrence_counts(HYPOT), costs) is not None


@pytest.mark.parametrize("costs", INEXACT_COSTS)
def test_inexact_costs_have_no_exact_bounds(costs):
    assert viscosity._exact_relabel_floor(HYPOT, occurrence_counts(HYPOT), costs) is None


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(WHOLE_COSTS))
def test_instance_distance_bounds(seed, costs):
    # C[x] and C[y]: a random context whose other parameters are bound to
    # fixed arguments, and the perturbed one, occurring c times, to x or y.
    rng = seeded("lipschitz-bounds", seed)
    context = random_abstraction(rng, rng.randint(4, 12), rng.randint(1, 3), max_occurrences=3)
    args = [random_ground_term(rng, rng.randint(1, 4)) for _ in context.params]
    coord = rng.randrange(len(args))
    x = args[coord]
    if rng.random() < 0.5:
        y = perturb(x, rng.randrange(2**32))
    else:
        y = random_ground_term(rng, rng.randint(1, 6))
    occurrences = occurrence_counts(context)
    c = occurrences[context.params[coord]]
    moved = args[:coord] + [y] + args[coord + 1:]
    d_out = ted(instantiate(context, args), instantiate(context, moved), costs)
    floor = viscosity._exact_relabel_floor(context, occurrences, costs)
    assert d_out <= c * ted(x, y, costs)
    assert d_out >= c * viscosity._label_lower_bound(x, y, costs, floor)
