"""Term parsing, substitution, matching, unification, and anti-unification."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mdlgauge.sampling import random_ground_term, seeded
from mdlgauge.term import (
    Abstraction,
    ArityMismatch,
    Node,
    Substitution,
    TermSyntaxError,
    Var,
    _match_cost,
    instantiate,
    iter_subterms,
    lgg,
    lgg_with_witnesses,
    match_term,
    parse_abstraction,
    parse_term,
    render_abstraction,
    render_substitution,
    render_term,
    replace_at,
    subterm_at,
    term_size,
    term_variables,
    unify,
)
from support import (
    all_patterns,
    all_trees,
    reference_apply,
    reference_equal,
    reference_hash,
    reference_is_ground,
    reference_lgg,
    reference_match_cost,
    reference_parse_term,
    reference_render_term,
    reference_replace_at,
    reference_term_size,
    reference_unify,
    subsumes,
)


def term_strategy(leaves):
    """Terms over a few labels, so that random pairs often share structure."""
    return st.recursive(
        leaves,
        lambda kids: st.builds(
            Node, st.sampled_from("fg"), st.lists(kids, min_size=1, max_size=3).map(tuple)
        ),
        max_leaves=10,
    )


GROUND_TERMS = term_strategy(st.builds(Node, st.sampled_from("ab")))
PATTERN_TERMS = term_strategy(
    st.one_of(st.builds(Node, st.sampled_from("ab")), st.builds(Var, st.sampled_from("xyz")))
)

HYPOT = Abstraction(("a", "b"), parse_term("(+ (* ?a ?a) (* ?b ?b))"))


def random_pattern(rng: random.Random, size: int, var_names: tuple[str, ...]):
    """A random term whose leaves are sometimes metavariables."""
    label = rng.choice("fgh")
    if size == 1:
        if rng.random() < 0.4:
            return Var(rng.choice(var_names))
        return Node(rng.choice("abc"))
    arity = rng.randint(1, min(3, size - 1))
    cuts = sorted(rng.sample(range(1, size - 1), arity - 1)) if arity > 1 else []
    bounds = [0] + cuts + [size - 1]
    return Node(
        label,
        tuple(
            random_pattern(rng, bounds[i + 1] - bounds[i], var_names)
            for i in range(arity)
        ),
    )


# ---------------------------------------------------------------------------
# parse / render


def test_parse_nested():
    t = parse_term("(+ (* r r) (* (f s) (f s)))")
    assert term_size(t) == 9
    assert isinstance(t, Node) and t.label == "+"


def test_parse_var():
    assert parse_term("?a") == Var("a")


def test_render_basics():
    assert render_term(Var("a")) == "?a"
    assert render_term(Node("f", (Var("x"),))) == "(f ?x)"
    assert render_term(Node("leaf")) == "leaf"
    assert repr(Var("x")) == "Var('x')"
    assert repr(parse_term("(f a)")) == "<Node (f a)>"


def test_roundtrip_random_terms():
    rng = seeded("roundtrip")
    for _ in range(1000):
        t = random_ground_term(rng, rng.randint(1, 12))
        assert parse_term(render_term(t)) == t


def test_roundtrip_random_patterns():
    rng = random.Random("roundtrip-patterns")
    for _ in range(1000):
        t = random_pattern(rng, rng.randint(1, 10), ("x", "y", "z"))
        assert parse_term(render_term(t)) == t


@pytest.mark.parametrize("bad", ["", "(f", "f)", "(f ?)", "(?x a)", "((f) g)", "f g", "( )"])
def test_parse_errors(bad):
    with pytest.raises(TermSyntaxError) as err:
        parse_term(bad)
    assert err.value.pos >= 0


# ---------------------------------------------------------------------------
# instantiate


def test_instantiate_hypot():
    y = instantiate(HYPOT, [parse_term("r"), parse_term("(f s)")])
    assert y == parse_term("(+ (* r r) (* (f s) (f s)))")


def test_instantiate_hypot_perturbed():
    y2 = instantiate(HYPOT, [parse_term("r"), parse_term("(f (+ s 1))")])
    assert y2 == parse_term("(+ (* r r) (* (f (+ s 1)) (f (+ s 1))))")


def test_instantiate_zero_params():
    a = Abstraction((), parse_term("(f a b)"))
    assert instantiate(a, []) == a.body


def test_instantiate_arity_mismatch():
    with pytest.raises(ArityMismatch):
        instantiate(HYPOT, [parse_term("r")])


def test_abstraction_validation():
    with pytest.raises(ValueError):
        Abstraction(("a", "a"), Var("a"))
    with pytest.raises(ValueError):
        Abstraction(("a",), parse_term("(f ?a ?b)"))


def test_abstraction_file_roundtrip():
    text = render_abstraction(HYPOT)
    back = parse_abstraction(text)
    assert back.params == HYPOT.params and back.body == HYPOT.body


def test_abstraction_file_errors():
    with pytest.raises(TermSyntaxError):
        parse_abstraction("(f ?a)")  # missing params line
    with pytest.raises(TermSyntaxError):
        parse_abstraction("params: a\n(f ?a)")  # parameter without '?'
    with pytest.raises(ValueError):
        parse_abstraction("params: ?a\n(f ?a ?b)")  # ?b undeclared


# ---------------------------------------------------------------------------
# match


def test_match_hypot_fragment():
    got = match_term(HYPOT.body, parse_term("(+ (* r r) (* (f s) (f s)))"))
    assert got is not None
    assert got.bindings == {"a": parse_term("r"), "b": parse_term("(f s)")}
    assert render_substitution(got) == "{?a -> r, ?b -> (f s)}"


def test_match_bare_var():
    for text in ("r", "(f s)", "(+ (* r r) s)"):
        t = parse_term(text)
        got = match_term(Var("x"), t)
        assert got is not None and got.bindings == {"x": t}


def test_match_inconsistent_repeat():
    pattern = parse_term("(* ?a ?a)")
    assert match_term(pattern, parse_term("(* r s)")) is None
    # A clash costs the root's comparison, and the failed check of the
    # repeated variable nothing.
    assert _match_cost(pattern, parse_term("(* r s)")) == (None, 1)
    assert _match_cost(pattern, parse_term("(* (g x y) (g x z))")) == (None, 1)


def test_match_requires_ground_target():
    with pytest.raises(ValueError):
        match_term(Var("x"), Var("y"))


def test_match_soundness_random():
    rng = random.Random("match-sound")
    for _ in range(300):
        pattern = random_pattern(rng, rng.randint(1, 9), ("x", "y"))
        args = {v: random_ground_term(rng, rng.randint(1, 4)) for v in ("x", "y")}
        target = Substitution(args).apply(pattern)
        got = match_term(pattern, target)
        assert got is not None
        assert got.apply(pattern) == target


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_match_cost_agrees_with_the_reference(data):
    pattern = data.draw(PATTERN_TERMS, label="pattern")
    args = {x: data.draw(GROUND_TERMS, label=f"?{x}") for x in sorted(term_variables(pattern))}
    instance = Substitution(args).apply(pattern)

    def fill(t):
        """``t`` with a fresh ground term at each variable occurrence, so a
        repeated variable mostly clashes."""
        if isinstance(t, Var):
            return data.draw(GROUND_TERMS, label=f"an occurrence of ?{t.name}")
        return Node(t.label, tuple(fill(c) for c in t.children))

    targets = [
        # A repeated variable's subterms are one object.
        instance,
        # parse_term shares equal leaves; equal inner nodes are built apart.
        parse_term(render_term(instance)),
        # Every subterm is built apart.
        reference_parse_term(render_term(instance)),
        fill(pattern),
        data.draw(GROUND_TERMS, label="target"),
    ]
    for target in targets:
        expected = reference_match_cost(pattern, target)
        bindings, cost = _match_cost(pattern, target)
        if expected is None:
            assert bindings is None
        else:
            assert (bindings, cost) == expected


# ---------------------------------------------------------------------------
# unify


def test_unify_identical():
    t = parse_term("(+ (* r r) (* (f s) (f s)))")
    got = unify(t, t)
    assert got is not None and got.bindings == {}
    assert render_substitution(got) == "{}"


def test_unify_occurs_check():
    assert unify(Var("x"), parse_term("(f ?x)")) is None
    assert unify(parse_term("(g ?x (f ?x))"), parse_term("(g ?y ?y)")) is None


def test_unify_example():
    t1 = parse_term("(f ?x (g ?y))")
    t2 = parse_term("(f (h ?z) (g ?z))")
    got = unify(t1, t2)
    assert got is not None
    assert got.apply(t1) == got.apply(t2)
    assert got.bindings == {"x": parse_term("(h ?z)"), "y": Var("z")}


def test_unify_clash():
    assert unify(parse_term("(f a)"), parse_term("(f b)")) is None
    assert unify(parse_term("(f a)"), parse_term("(g a)")) is None
    assert unify(parse_term("(f a)"), parse_term("(f a a)")) is None


def test_unify_symmetry():
    rng = random.Random("unify-sym")
    agree = 0
    for _ in range(300):
        t1 = random_pattern(rng, rng.randint(1, 8), ("x", "y"))
        t2 = random_pattern(rng, rng.randint(1, 8), ("y", "z"))
        r12, r21 = unify(t1, t2), unify(t2, t1)
        assert (r12 is None) == (r21 is None)
        if r12 is not None:
            assert r12.apply(t1) == r12.apply(t2)
            assert r21.apply(t1) == r21.apply(t2)
            agree += 1
    assert agree > 20  # sanity: the generator does produce unifiable pairs


def test_unify_result_is_idempotent():
    rng = random.Random("unify-idem")
    for _ in range(200):
        ancestor = random_pattern(rng, rng.randint(2, 8), ("x", "y"))
        rho = Substitution(
            {
                v: random_pattern(rng, rng.randint(1, 4), (f"n{k}",))
                for k, v in enumerate(("x", "y"))
            }
        )
        got = unify(ancestor, rho.apply(ancestor))
        assert got is not None
        assert all(got.apply(v) == v for v in got.bindings.values())


def test_mgu_factoring_from_shared_ancestor():
    rng = random.Random("mgu-factor")
    for i in range(500):
        ancestor = random_pattern(rng, rng.randint(2, 9), ("x", "y", "z"))
        planted = Substitution(
            {
                v: random_pattern(rng, rng.randint(1, 4), (f"f{i}_{k}",))
                for k, v in enumerate(("x", "y", "z"))
            }
        )
        instance = planted.apply(ancestor)
        mgu = unify(ancestor, instance)
        assert mgu is not None
        assert mgu.apply(ancestor) == mgu.apply(instance)
        # the planted unifier factors through the mgu
        assert subsumes(mgu.apply(ancestor), instance)


# ---------------------------------------------------------------------------
# lgg


def test_lgg_of_equal_terms():
    t = parse_term("(f (g a) b)")
    a = lgg([t, t])
    assert a.params == () and a.body == t


def test_lgg_root_mismatch():
    a = lgg([parse_term("(f a b)"), parse_term("(g a b)")])
    assert isinstance(a.body, Var) and len(a.params) == 1


def test_lgg_shares_variables_for_equal_tuples():
    a = lgg([parse_term("(f a a)"), parse_term("(f b b)")])
    assert a.body == Node("f", (Var("v0"), Var("v0")))
    b = lgg([parse_term("(f a a)"), parse_term("(f b c)")])
    assert b.body == Node("f", (Var("v0"), Var("v1")))


def test_lgg_matches_every_input():
    rng = random.Random("lgg-match")
    for _ in range(200):
        terms = [random_ground_term(rng, rng.randint(1, 7)) for _ in range(rng.randint(1, 4))]
        a = lgg(terms)
        for t in terms:
            assert match_term(a.body, t) is not None


def test_lgg_witnesses_reproduce_inputs():
    rng = random.Random("lgg-wit")
    for _ in range(200):
        terms = [random_ground_term(rng, rng.randint(1, 7)) for _ in range(rng.randint(1, 4))]
        a, wits = lgg_with_witnesses(terms)
        for t, args in zip(terms, wits):
            assert instantiate(a, args) == t


def test_lgg_minimality_brute_force():
    """No enumerable generalization sits strictly between the lgg and the
    inputs: every pattern matching both inputs also subsumes the lgg body."""
    labels = ("f", "a", "b")
    rng = random.Random("lgg-min")
    enumerated = {
        n: all_patterns(n, labels, ("u", "v", "w")) for n in range(1, 5)
    }
    for _ in range(12):
        t1 = rng.choice(all_trees(rng.randint(1, 4), labels))
        t2 = rng.choice(all_trees(rng.randint(1, 4), labels))
        body = lgg([t1, t2]).body
        for n, patterns in enumerated.items():
            for g in patterns:
                if match_term(g, t1) is not None and match_term(g, t2) is not None:
                    assert subsumes(g, body), (
                        f"{render_term(g)} generalizes both inputs but not "
                        f"{render_term(body)}"
                    )


def test_lgg_requires_ground_inputs():
    with pytest.raises(ValueError):
        lgg([Var("x")])
    with pytest.raises(ValueError):
        lgg([])


def test_substitution_rejects_self_reference():
    with pytest.raises(ValueError):
        Substitution({"x": parse_term("(f ?x)")})


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=300, deadline=None)
@given(st.lists(GROUND_TERMS, min_size=1, max_size=4))
def test_lgg_instantiates_back_and_subsumes_every_input(terms):
    a, witnesses = lgg_with_witnesses(terms)
    assert len(witnesses) == len(terms)
    for t, args in zip(terms, witnesses):
        assert instantiate(a, args) == t
        assert subsumes(a.body, t)


@settings(max_examples=300, deadline=None)
@given(PATTERN_TERMS, PATTERN_TERMS)
def test_unifier_makes_both_sides_equal(a, b):
    s = unify(a, b)
    if s is not None:
        assert s.apply(a) == s.apply(b)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unify_returns_a_most_general_unifier(data):
    # Build a unifier theta of s and t by construction; the most general
    # unifier sigma must factor it, theta = theta . sigma, so theta(sigma(x))
    # equals theta(x) for every variable x of s and t.
    s = data.draw(PATTERN_TERMS, label="s")
    theta = {x: data.draw(GROUND_TERMS, label=f"theta({x})") for x in sorted(term_variables(s))}
    ground = Substitution(theta).apply(s)
    # t is theta(s) with random subterms replaced by fresh variables, each
    # bound in theta to the subterm it replaced.
    paths = [path for path, _ in iter_subterms(ground)]
    t, cut = ground, []
    for path in sorted(data.draw(st.lists(st.sampled_from(paths), max_size=4), label="cuts")):
        if any(path[: len(c)] == c for c in cut):
            continue  # inside a subterm already cut out
        fresh = f"t{len(cut)}"
        theta[fresh] = subterm_at(ground, path)
        t = replace_at(t, path, Var(fresh))
        cut.append(path)
    theta = Substitution(theta)
    assert theta.apply(s) == theta.apply(t)

    sigma = unify(s, t)
    assert sigma is not None
    for x in theta.bindings:
        assert theta.apply(sigma.apply(Var(x))) == theta.apply(Var(x))


# ---------------------------------------------------------------------------
# the term core against the recursive references in support.py


@settings(max_examples=150, deadline=None)
@given(PATTERN_TERMS)
def test_cached_fields_agree_with_the_references(t):
    assert t.size == term_size(t) == reference_term_size(t)
    assert t.ground == reference_is_ground(t)
    assert hash(t) == reference_hash(t)


@settings(max_examples=150, deadline=None)
@given(PATTERN_TERMS, PATTERN_TERMS)
def test_equality_agrees_with_the_reference(a, b):
    assert (a == b) == reference_equal(a, b)
    assert (a != b) != reference_equal(a, b)
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=150, deadline=None)
@given(PATTERN_TERMS)
def test_equal_terms_built_apart_hash_equally(t):
    copy = reference_parse_term(reference_render_term(t))
    assert copy is not t
    assert copy == t and hash(copy) == hash(t)


# Pairs of unequal terms, built fresh for each test, that differ at exactly
# one pair of corresponding subterms.
HASH_TWINS = {
    "labels": lambda: (
        Node("f", (Node("a"), Node("b"))),
        Node("f", (Node("a"), Node("c"))),
    ),
    "arities": lambda: (
        Node("f", (Node("g", (Node("a"),)),)),
        Node("f", (Node("g", (Node("a"), Node("a"))),)),
    ),
    "leaf-against-inner-node": lambda: (
        Node("f", (Node("a"), Node("b"))),
        Node("f", (Node("a"), Node("b", (Node("c"),)))),
    ),
    "var-against-node": lambda: (
        Node("f", (Var("x"),)),
        Node("f", (Node("?x"),)),
    ),
    "var-against-var": lambda: (Var("x"), Var("y")),
}


@pytest.mark.parametrize("case", sorted(HASH_TWINS))
def test_equality_never_trusts_the_hash_alone(case):
    left, right = HASH_TWINS[case]()
    # Every pair of corresponding subterms gets the same hash, so only the
    # class, label or arity test can tell the two terms apart.
    pairs = [(left, right)]
    while pairs:
        x, y = pairs.pop()
        object.__setattr__(y, "_hash", x._hash)
        pairs.extend(zip(x.children, y.children))
    assert left != right and right != left
    assert not reference_equal(left, right)


def test_a_var_never_equals_the_node_with_its_label():
    x, node = Var("x"), Node("?x")
    object.__setattr__(node, "_hash", x._hash)
    assert x.label == node.label == "?x" and x.children == node.children == ()
    assert x != node and node != x


def test_terms_are_immutable():
    t = Node("f", (Var("x"),))
    for attr in ("label", "children", "size", "ground"):
        with pytest.raises(AttributeError):
            setattr(t, attr, None)
    with pytest.raises(AttributeError):
        t.children[0].name = "y"
    x = Var("x")
    for attr in ("label", "children", "size", "ground", "name"):
        with pytest.raises(AttributeError):
            setattr(x, attr, None)
    for term in (t, x):
        for attr in ("label", "children", "size", "ground", "_hash"):
            with pytest.raises(AttributeError):
                delattr(term, attr)
    assert render_term(t) == "(f ?x)" and hash(t) == hash(Node("f", (Var("x"),)))
    assert (x.label, x.children, x.size, x.ground, x.name) == ("?x", (), 1, False, "x")


@settings(max_examples=150, deadline=None)
@given(PATTERN_TERMS)
def test_parse_and_render_agree_with_the_references(t):
    text = render_term(t)
    assert text == reference_render_term(t)
    assert reference_equal(parse_term(text), reference_parse_term(text))


def _parse_outcome(parse, text):
    try:
        return reference_render_term(parse(text))
    except TermSyntaxError as exc:
        return ("error", str(exc), exc.pos)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="()?ab_1 \n\t", max_size=16))
def test_parse_accepts_and_rejects_text_as_the_reference_does(text):
    # Every message and position of a syntax error is the reference's too.
    assert _parse_outcome(parse_term, text) == _parse_outcome(reference_parse_term, text)


# One fault each: spliced in at an offset, appended, or a ')' taken out.
PARSE_FAULTS = ["stray ')'", "bare '?'", "'(' with no label", "trailing input", "dropped ')'"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parse_errors_in_large_terms_agree_with_the_reference(data):
    # PATTERN_TERMS seldom passes 40 nodes, so the term comes from
    # random_pattern, at a drawn size.
    size = data.draw(st.integers(1, 200), label="size")
    rng = data.draw(st.randoms(use_true_random=False), label="rng")
    text = render_term(random_pattern(rng, size, ("x", "y", "z")))
    fault = data.draw(st.sampled_from(PARSE_FAULTS), label="fault")
    if fault == "trailing input":
        text += " " + data.draw(st.sampled_from(["a", "?x", "(f a)", ")"]), label="tail")
    elif fault == "dropped ')'":
        closes = [i for i, c in enumerate(text) if c == ")"]
        if not closes:
            text = "(f " + text  # a leaf has no ')' to drop: open one instead
        else:
            i = data.draw(st.sampled_from(closes), label="close")
            text = text[:i] + text[i + 1:]
    else:
        i = data.draw(st.integers(0, len(text)), label="offset")
        splice = {"stray ')'": " )", "bare '?'": "? ", "'(' with no label": "( )"}[fault]
        text = text[:i] + splice + text[i:]
    outcome = _parse_outcome(parse_term, text)
    assert outcome[0] == "error"
    assert outcome == _parse_outcome(reference_parse_term, text)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_replace_at_agrees_with_the_reference(data):
    t = data.draw(PATTERN_TERMS, label="t")
    path = data.draw(st.sampled_from([p for p, _ in iter_subterms(t)]), label="path")
    replacement = data.draw(PATTERN_TERMS, label="replacement")
    assert reference_equal(
        replace_at(t, path, replacement), reference_replace_at(t, path, replacement)
    )


@pytest.mark.parametrize("text, path", [("(f ?x)", (0, 0)), ("(f a)", (0, 0)), ("?x", (0,))])
def test_a_path_below_a_leaf_is_an_index_error(text, path):
    t = parse_term(text)
    with pytest.raises(IndexError):
        subterm_at(t, path)
    with pytest.raises(IndexError):
        replace_at(t, path, Node("b"))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_agrees_with_the_reference(data):
    t = data.draw(PATTERN_TERMS, label="t")
    names = data.draw(st.lists(st.sampled_from("xyz"), unique=True), label="bound")
    # A binding may mention the other variables, but never its own.
    bindings = {}
    for x in names:
        value = data.draw(PATTERN_TERMS, label=f"?{x}")
        if x not in term_variables(value):
            bindings[x] = value
    assert reference_equal(Substitution(bindings).apply(t), reference_apply(bindings, t))


@settings(max_examples=150, deadline=None)
@given(st.lists(GROUND_TERMS, min_size=1, max_size=4))
def test_lgg_agrees_with_the_reference(terms):
    want = reference_lgg(terms)
    # Both entry points share one walk; each must give the reference's lgg.
    for got in (lgg(terms), lgg_with_witnesses(terms)[0]):
        assert got.params == want.params
        assert reference_equal(got.body, want.body)


@st.composite
def near_copies(draw):
    """Two to five ground terms with one root symbol: a random term, then
    copies of earlier ones with a few proper subterms replaced.  Each
    replacement comes from a small pool and may cover every copy of a
    subterm, so disagreements repeat within a term and across terms."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    alphabet = "abcd"[: draw(st.integers(2, 4))]
    terms = [random_ground_term(rng, draw(st.integers(2, 40)), alphabet)]
    pool = [random_ground_term(rng, rng.randint(1, 4), alphabet) for _ in range(3)]
    for _ in range(draw(st.integers(1, 4))):
        copy = rng.choice(terms)
        for _ in range(draw(st.integers(0, 6))):
            subterms = list(iter_subterms(copy))[1:]
            path, old = rng.choice(subterms)
            new = rng.choice(pool)
            # Copies of one subterm never overlap, so each path stays valid.
            every_copy = draw(st.booleans())
            for at, sub in subterms:
                if at == path or every_copy and sub == old:
                    copy = replace_at(copy, at, new)
        terms.append(copy)
    return terms


@settings(max_examples=300, deadline=None)
@given(near_copies())
def test_lgg_of_near_copies_agrees_with_the_reference(terms):
    # Each step of lgg's fold keys a slot on an earlier step's variable and
    # a subterm; independent random terms seldom reach those slots.
    want = reference_lgg(terms)
    got = lgg(terms)
    assert got.params == want.params
    assert reference_equal(got.body, want.body)
    a, witnesses = lgg_with_witnesses(terms)
    assert a == got
    for t, args in zip(terms, witnesses):
        assert instantiate(a, args) == t


@settings(max_examples=150, deadline=None)
@given(PATTERN_TERMS, PATTERN_TERMS)
def test_unify_agrees_with_the_reference(a, b):
    got, want = unify(a, b), reference_unify(a, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.bindings.keys() == want.bindings.keys()
        for name, value in got.bindings.items():
            assert reference_equal(value, want.bindings[name])


def test_deep_chain_walks_need_no_recursion():
    depth = 20_000
    chain = parse_term("(f " * depth + "?x" + ")" * depth)
    assert chain.size == depth + 1 and not chain.ground
    ground = Substitution({"x": Node("a")}).apply(chain)
    assert ground.ground and render_term(ground) == "(f " * depth + "a" + ")" * depth
    assert ground == parse_term(render_term(ground))
    assert match_term(chain, ground).bindings == {"x": Node("a")}
    assert unify(Var("x"), chain) is None  # the occurs check
    template = lgg([ground, replace_at(ground, (0,) * depth, Node("b"))])
    assert template.params == ("v0",)
    assert template.body == Substitution({"x": Var("v0")}).apply(chain)
