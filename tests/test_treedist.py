"""Tree edit distance: oracle equivalence, agreement with the reference
Zhang-Shasha, metric axioms, cost knobs."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from mdlgauge import treedist
from mdlgauge.sampling import random_ground_term, seeded
from mdlgauge.term import Node, parse_term
from mdlgauge.treedist import UNIT_COSTS, CostModel, SizeLimitExceeded, ted, ted_oracle
from support import all_trees, reference_ted


def test_identity():
    t = parse_term("(+ (* r r) (* (f s) (f s)))")
    assert ted(t, t) == 0.0


def test_leaf_relabel():
    assert ted(Node("a"), Node("b")) == 1.0


def test_reference_pair_costs_four():
    y = parse_term("(+ (* r r) (* (f s) (f s)))")
    y2 = parse_term("(+ (* r r) (* (f (+ s 1)) (f (+ s 1))))")
    assert ted(y, y2) == 4.0
    # and each changed argument occurrence alone costs two insertions
    assert ted(parse_term("(f s)"), parse_term("(f (+ s 1))")) == 2.0
    assert ted_oracle(parse_term("(f s)"), parse_term("(f (+ s 1))")) == 2.0


def test_oracle_identity():
    t = parse_term("(f (g a) b)")
    assert ted_oracle(t, t) == 0.0


def test_oracle_size_limit():
    big = random_ground_term(seeded("big"), 11)
    small = Node("a")
    with pytest.raises(SizeLimitExceeded):
        ted_oracle(big, small)
    with pytest.raises(SizeLimitExceeded):
        ted_oracle(small, big)


def test_exhaustive_agreement_small():
    trees = {n: all_trees(n, ("a", "b")) for n in range(1, 5)}
    for n1 in range(1, 4):
        for n2 in range(1, 5 - n1 + 1):
            for t1 in trees[n1]:
                for t2 in trees[n2]:
                    assert ted(t1, t2) == ted_oracle(t1, t2)


def test_random_agreement():
    rng = seeded("ted-agree")
    for _ in range(120):
        t1 = random_ground_term(rng, rng.randint(1, 10))
        t2 = random_ground_term(rng, rng.randint(1, 10))
        assert ted(t1, t2) == ted_oracle(t1, t2)


def test_random_agreement_with_skewed_costs():
    rng = seeded("ted-costs")
    costs = CostModel(insert_cost=2.0, delete_cost=0.5, relabel_cost=1.5)
    for _ in range(60):
        t1 = random_ground_term(rng, rng.randint(1, 8))
        t2 = random_ground_term(rng, rng.randint(1, 8))
        assert ted(t1, t2, costs) == ted_oracle(t1, t2, costs)


def test_metric_axioms_on_sampled_triples():
    rng = seeded("metric")
    for _ in range(60):
        a = random_ground_term(rng, rng.randint(1, 9))
        b = random_ground_term(rng, rng.randint(1, 9))
        c = random_ground_term(rng, rng.randint(1, 9))
        assert ted(a, a) == 0.0
        assert ted(a, b) == ted(b, a)
        assert ted(a, c) <= ted(a, b) + ted(b, c) + 1e-9
        if a != b:
            assert ted(a, b) > 0.0


def test_subtree_replacement_upper_bound():
    # swapping one subtree s -> s2 moves the distance by at most ted(s, s2)
    rng = seeded("subtree")
    from mdlgauge.term import iter_subterms, replace_at

    for _ in range(40):
        t = random_ground_term(rng, rng.randint(3, 12))
        paths = [p for p, _ in iter_subterms(t)]
        path = paths[rng.randrange(len(paths))]
        s2 = random_ground_term(rng, rng.randint(1, 5))
        t2 = replace_at(t, path, s2)
        from mdlgauge.term import subterm_at

        bound = ted(subterm_at(t, path), s2)
        assert ted(t, t2) <= bound + 1e-9


def test_asymmetric_insert_delete():
    costs = CostModel(insert_cost=3.0, delete_cost=1.0, relabel_cost=1.0)
    leaf, wrapped = Node("a"), Node("f", (Node("a"),))
    assert ted(leaf, wrapped, costs) == 3.0
    assert ted(wrapped, leaf, costs) == 1.0


def test_negative_costs_rejected():
    with pytest.raises(ValueError):
        CostModel(insert_cost=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_costs_rejected(value):
    for field in ("insert_cost", "delete_cost", "relabel_cost"):
        with pytest.raises(ValueError):
            CostModel(**{field: value})


def test_costs_beyond_the_float_range_rejected():
    for field in ("insert_cost", "delete_cost", "relabel_cost"):
        with pytest.raises(ValueError, match="edit costs must be finite and nonnegative"):
            CostModel(**{field: 10**400})
    # The largest int that converts to a finite float is still a cost.
    big = CostModel(insert_cost=int(sys.float_info.max))
    assert ted(Node("a"), Node("f", (Node("a"),)), big) == sys.float_info.max


def test_metavariables_act_as_labels():
    from mdlgauge.term import Var

    assert ted(Var("x"), Var("x")) == 0.0
    assert ted(Var("x"), Var("y")) == 1.0
    assert ted(Var("x"), Node("x")) == 1.0  # '?x' and 'x' differ


# ---------------------------------------------------------------------------
# agreement with the reference Zhang-Shasha on the shapes that decide the
# left or mirrored side


class ClassCosts(CostModel):
    """Relabeling is cheap between two letters or two digits, dear across."""

    def relabel(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        return 0.25 if a.isalpha() == b.isalpha() else 1.5


# Sums of these costs are exact in binary floating point, so the order in
# which ted adds them cannot change the result.
EXACT_COSTS = [UNIT_COSTS, CostModel(2.0, 0.5, 1.5), ClassCosts(0.5, 1.0, 1.0)]
# 0.1, 0.3 and 0.7 have no exact binary form: the mirrored side adds the
# same costs in another order, which can move the last bits.  Bound: about
# n rounding errors of 2**-53 relative each, for n of at most a few hundred.
INEXACT_COSTS = CostModel(0.1, 0.3, 0.7)
LABELS = ("a", "b", "c", "1", "2")


def comb(shape: str, n: int, leaves, inner) -> Node:
    """A comb of ``n`` (odd) nodes: a spine of (n - 1) / 2 internal nodes,
    each with one leaf child, on the left, on the right, or alternating."""
    t = Node(leaves[0])
    for i in range((n - 1) // 2):
        leaf = Node(leaves[i + 1])
        spine_right = shape == "right" or (shape == "zigzag" and i % 2 == 0)
        t = Node(inner[i], (leaf, t) if spine_right else (t, leaf))
    return t


def random_comb(rng, shape: str, n: int) -> Node:
    leaves = [rng.choice(LABELS) for _ in range(n)]
    return comb(shape, n, leaves, [rng.choice(LABELS) for _ in range(n)])


def mirror(t):
    if isinstance(t, Node):
        return Node(t.label, tuple(mirror(c) for c in reversed(t.children)))
    return t


def assert_agrees(t1, t2, every_cost_model=True):
    if not every_cost_model:
        assert ted(t1, t2) == reference_ted(t1, t2)
        return
    for costs in EXACT_COSTS:
        assert ted(t1, t2, costs) == reference_ted(t1, t2, costs)
    want = reference_ted(t1, t2, INEXACT_COSTS)
    assert ted(t1, t2, INEXACT_COSTS) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("shape", ["left", "right", "zigzag"])
def test_agrees_with_reference_on_combs(shape):
    rng = seeded("ted-combs", shape)
    for n in (11, 21, 31, 61):
        leaves = [rng.choice(LABELS) for _ in range(n)]
        a = comb(shape, n, leaves, [rng.choice(LABELS) for _ in range(n)])
        b = comb(shape, n, leaves, ["z"] * n)
        other = random_comb(rng, rng.choice(("left", "right", "zigzag")), rng.choice((11, 21)))
        # unit costs alone on the largest combs, where the reference takes
        # cubic time on right combs
        every_cost_model = n <= 31
        assert_agrees(a, b, every_cost_model)
        assert_agrees(a, other, every_cost_model)
        assert_agrees(other, a, every_cost_model)


def test_agrees_with_reference_on_random_trees():
    rng = seeded("ted-reference")
    for _ in range(25):
        t1 = random_ground_term(rng, rng.randint(1, 60), LABELS)
        t2 = random_ground_term(rng, rng.randint(1, 60), LABELS)
        assert_agrees(t1, t2)


def test_left_side_matches_reference_bit_for_bit():
    # Left combs run on the left side, which adds costs in the reference's
    # order, so even inexact costs agree exactly.
    rng = seeded("ted-left")
    for n in (11, 31, 61):
        a, b = random_comb(rng, "left", n), random_comb(rng, "left", n)
        assert ted(a, b, INEXACT_COSTS) == reference_ted(a, b, INEXACT_COSTS)


def test_runs_on_the_side_with_fewer_subproblems(monkeypatch):
    sides = []
    postorder = treedist._postorder

    def spy(t, mirrored, ids):
        sides.append(mirrored)
        return postorder(t, mirrored, ids)

    monkeypatch.setattr(treedist, "_postorder", spy)
    rng = seeded("ted-side")
    ted(random_comb(rng, "right", 41), random_comb(rng, "right", 41))
    assert sides.count(True) == 2  # both trees mirrored, never one alone
    sides.clear()
    ted(random_comb(rng, "left", 41), random_comb(rng, "left", 41))
    assert True not in sides


def test_deep_chain_is_not_recursive():
    chain = Node("a")
    for _ in range(4999):
        chain = Node("f", (chain,))
    assert ted(chain, Node("a")) == 4999.0
    assert ted(Node("a"), chain) == 4999.0
    with pytest.raises(SizeLimitExceeded):
        ted_oracle(chain, Node("a"))
    with pytest.raises(SizeLimitExceeded):
        ted_oracle(Node("a"), chain)


TREES = st.recursive(
    st.builds(Node, st.sampled_from("ab")),
    lambda kids: st.builds(
        Node, st.sampled_from("fg"), st.lists(kids, min_size=1, max_size=3).map(tuple)
    ),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(TREES, TREES, TREES)
def test_metric_axioms(a, b, c):
    assert ted(a, a) == 0.0
    assert ted(a, b) == ted(b, a)
    assert ted(a, c) <= ted(a, b) + ted(b, c)
    assert (ted(a, b) > 0.0) == (a != b)


@settings(max_examples=150, deadline=None)
@given(TREES, TREES, st.sampled_from(EXACT_COSTS))
def test_mirroring_both_trees_keeps_the_distance(a, b, costs):
    assert ted(a, b, costs) == ted(mirror(a), mirror(b), costs)


# ---------------------------------------------------------------------------
# whole-number costs: summed as ints, returned as the float the float sums
# would give


WHOLE_COST = st.one_of(st.integers(0, 5), st.integers(0, 5).map(float))
WHOLE_COSTS = st.builds(CostModel, WHOLE_COST, WHOLE_COST, WHOLE_COST)


@settings(max_examples=150, deadline=None)
@given(TREES, TREES, WHOLE_COSTS)
def test_whole_number_costs_agree_with_reference_exactly(a, b, costs):
    distance = ted(a, b, costs)
    assert type(distance) is float
    assert distance == reference_ted(a, b, costs)


def test_costs_past_the_exact_int_bound_are_summed_as_floats():
    # 2 * (n + m + 1) * 2**52 passes 2**53, so ted adds floats, which lose
    # the unit relabels and deletes that an exact sum, 2**53 + 4, keeps.
    costs = CostModel(2.0**52, 1.0, 1.0)
    a, b = parse_term("(g a b c)"), parse_term("(f (f (f a)))")
    assert ted(a, b, costs) == reference_ted(a, b, costs) == 2.0**53
    assert ted(b, a, costs) == reference_ted(b, a, costs)


def test_fractional_relabels_with_whole_insert_and_delete_agree():
    rng = seeded("ted-class-costs")
    costs = ClassCosts(1.0, 2.0, 1.0)
    for _ in range(25):
        t1 = random_ground_term(rng, rng.randint(1, 40), LABELS)
        t2 = random_ground_term(rng, rng.randint(1, 40), LABELS)
        assert ted(t1, t2, costs) == reference_ted(t1, t2, costs)


@pytest.mark.parametrize("shape", ["left", "right", "zigzag"])
def test_combs_of_101_nodes_are_exact(shape):
    # The benchmark's largest combs: relabeling each of the 50 internal
    # nodes is the cheapest edit.
    rng = seeded("ted-combs-101", shape)
    leaves = [rng.choice(LABELS) for _ in range(101)]
    a = comb(shape, 101, leaves, [rng.choice(LABELS) for _ in range(101)])
    b = comb(shape, 101, leaves, ["z"] * 101)
    assert ted(a, b) == ted(b, a) == 50.0


# ---------------------------------------------------------------------------
# whole-number costs fill in every keyroot pair that holds a leaf from a
# closed form; fractional costs run every pair


class KindCosts(CostModel):
    """Whole-number relabels that depend on the labels: 1 between two leaf
    labels or two inner ones, 4 across."""

    def relabel(self, a: str, b: str) -> int:
        if a == b:
            return 0
        return 1 if (a in "ab") == (b in "ab") else 4


class SelfRelabelCosts(CostModel):
    """Relabelling a node to its own label costs 1; otherwise 2 or 3, by
    the labels' order."""

    def relabel(self, a: str, b: str) -> int:
        return 1 if a == b else 2 if a < b else 3


def one_label(t):
    return Node("a", tuple(one_label(c) for c in t.children))


LEAF_LABEL = st.sampled_from("ab")
INNER_LABEL = st.sampled_from("abfg")
# Shapes where most keyroots are leaves: single nodes, stars, combs of each
# spine, and trees whose nodes all carry one label, beside bushy trees.
LEAFY_TREES = st.one_of(
    st.builds(Node, LEAF_LABEL),
    st.builds(
        lambda root, leaves: Node(root, tuple(Node(leaf) for leaf in leaves)),
        INNER_LABEL,
        st.lists(LEAF_LABEL, min_size=1, max_size=8),
    ),
    st.builds(
        lambda shape, leaves, inner: comb(shape, 2 * len(leaves) - 1, leaves, inner),
        st.sampled_from(["left", "right", "zigzag"]),
        st.lists(LEAF_LABEL, min_size=1, max_size=10),
        st.lists(INNER_LABEL, min_size=10, max_size=10),
    ),
    TREES,
    TREES.map(one_label),
)
LEAFY_COSTS = st.one_of(
    WHOLE_COSTS,
    st.builds(KindCosts, WHOLE_COST, WHOLE_COST),
    st.builds(SelfRelabelCosts, WHOLE_COST, WHOLE_COST),
)


@settings(max_examples=300, deadline=None)
@given(LEAFY_TREES, LEAFY_TREES, LEAFY_COSTS)
def test_leaf_closed_form_agrees_with_reference_exactly(a, b, costs):
    assert ted(a, b, costs) == reference_ted(a, b, costs)
    assert ted(b, a, costs) == reference_ted(b, a, costs)


def test_fractional_costs_keep_their_bits():
    # Float sums depend on their order, and the right comb taken the other
    # way round (run mirrored) already differs from the reference in the
    # last bit, so these pin the order in which fractional costs are added.
    rng = seeded("ted-fractional-bits")
    pairs = [
        (random_comb(rng, "left", 41), random_comb(rng, "left", 41)),
        (random_comb(rng, "right", 41), random_comb(rng, "right", 41)),
        (random_ground_term(rng, 50, LABELS), random_ground_term(rng, 50, LABELS)),
    ]
    pinned = [
        ("0x1.0ccccccccccc8p+3", "0x1.0ccccccccccc9p+3"),
        ("0x1.0ccccccccccc9p+3", "0x1.0ccccccccccc9p+3"),
        ("0x1.9999999999994p+3", "0x1.9999999999996p+3"),
    ]
    for (a, b), (forward, backward) in zip(pairs, pinned):
        assert ted(a, b, INEXACT_COSTS).hex() == forward
        assert ted(b, a, INEXACT_COSTS).hex() == backward
    a, b = pairs[1]
    assert reference_ted(b, a, INEXACT_COSTS).hex() != pinned[1][1]
