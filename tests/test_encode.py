"""The C-fragment-to-term translator."""

import pytest
from hypothesis import given, settings, strategies as st
from support import reference_encode_expression, reference_encode_function

from mdlgauge.encode import EncodeError, encode_expression, encode_function
from mdlgauge.lexcount import tokenize
from mdlgauge.term import parse_term, render_term


@pytest.mark.parametrize(
    "source,expected",
    [
        ("r*r + f(s)*f(s)", "(+ (* r r) (* (f s) (f s)))"),
        ("f(s+1)", "(f (+ s 1))"),
        ("a+b*c", "(+ a (* b c))"),
        ("(a+b)*c", "(* (+ a b) c)"),
        ("x[i]", "(index x i)"),
        ("*x", "(deref x)"),
        ("++i", "(preinc i)"),
        ("-a + b", "(+ (neg a) b)"),
        ("s += x[i]", "(+= s (index x i))"),
        ("s = op(s, *x)", "(= s (op s (deref x)))"),
        ("x.hasNext()", "(call (member x hasNext))"),
        ("i < n", "(< i n)"),
        ("a + b + c", "(+ (+ a b) c)"),
        ("g()", "g"),
    ],
)
def test_expression_shapes(source, expected):
    assert render_term(encode_expression(source)) == expected


def test_expression_context_sentence():
    # the right-hand side of: double d = c + r*r + f(s)*f(s);
    got = encode_expression("c + r*r + f(s)*f(s)")
    assert got == parse_term("(+ (+ c (* r r)) (* (f s) (f s)))")


@pytest.mark.parametrize("bad", ["", "f(", "a +", ")", "x[1", "a b"])
def test_expression_errors(bad):
    with pytest.raises(EncodeError):
        encode_expression(bad)


# Each nesting 50 times deeper than the interpreter's default recursion
# limit: the parse steps run from an explicit stack, not the call stack.
DEEP = 5000
DEEP_CASES = {
    "parentheses": (encode_expression, "(" * DEEP + "x" + ")" * DEEP, "x"),
    "prefix": (encode_expression, "- " * DEEP + "x", "(neg " * DEEP + "x" + ")" * DEEP),
    "calls": (encode_expression, "f(" * DEEP + "x" + ")" * DEEP, "(f " * DEEP + "x" + ")" * DEEP),
    "index": (
        encode_expression,
        "a[" * DEEP + "i" + "]" * DEEP,
        "(index a " * DEEP + "i" + ")" * DEEP,
    ),
    "assignment": (encode_expression, "a = " * DEEP + "b", "(= a " * DEEP + "b" + ")" * DEEP),
    "blocks": (
        encode_function,
        "void f() " + "{" * DEEP + "}" * DEEP,
        "(fn f void params " + "(block " * (DEEP - 1) + "block" + ")" * (DEEP - 1) + ")",
    ),
    "for-bodies": (
        encode_function,
        "void f() { " + "for (;;) " * DEEP + "x; }",
        "(fn f void params (block "
        + "(for empty empty empty " * DEEP + "(expr x)" + ")" * DEEP
        + "))",
    ),
    "template-headers": (
        encode_function,
        "template <typename T> " * DEEP + "void f() {}",
        "(template (tparams T) " * DEEP + "(fn f void params block)" + ")" * DEEP,
    ),
}


@pytest.mark.parametrize("encode, source, expected", DEEP_CASES.values(), ids=DEEP_CASES)
def test_deep_nesting_encodes(encode, source, expected):
    assert render_term(encode(source)) == expected


def test_encodes_all_bundled_components(corpus):
    for name in ("fig2a.cpp", "fig2b.cpp", "fig2c.cpp", "fig2d.cpp"):
        term = encode_function((corpus / name).read_text())
        # stable round-trip through the term syntax
        assert parse_term(render_term(term)) == term


def test_function_encoding_shape(corpus):
    term = encode_function((corpus / "fig2a.cpp").read_text())
    text = render_term(term)
    assert text.startswith("(fn sum double")
    assert "(decl double s 0.0)" in text
    assert "(+= s (index x i))" in text
    assert "(return s)" in text


def test_template_header(corpus):
    term = encode_function((corpus / "fig2b.cpp").read_text())
    assert render_term(term).startswith("(template (tparams T)")


def test_encoding_is_deterministic(corpus):
    src = (corpus / "fig2d.cpp").read_text()
    assert encode_function(src) == encode_function(src)


def test_lgg_of_sum_loop_variants(corpus):
    """Generalizing the double/int/float variants of the array-sum loop
    yields a single metavariable shared by all element-type positions."""
    from mdlgauge.term import Var, instantiate, iter_subterms, lgg_with_witnesses, match_term

    variants = [
        encode_function((corpus / name).read_text())
        for name in ("fig2a.cpp", "adapt_a_int.cpp", "adapt_a_float.cpp")
    ]
    abstraction, witnesses = lgg_with_witnesses(variants)

    # type positions: return type, parameter element type, declaration type
    var_names = {
        path: sub.name
        for path, sub in iter_subterms(abstraction.body)
        if isinstance(sub, Var)
    }
    type_positions = [(1,), (2, 0, 0, 0), (3, 0, 0)]
    type_vars = {var_names[p] for p in type_positions}
    assert len(type_vars) == 1
    # the initializer (0.0 / 0 / 0.0f) varies independently
    assert len(set(var_names.values())) == 2

    for variant, args in zip(variants, witnesses):
        assert match_term(abstraction.body, variant) is not None
        assert instantiate(abstraction, args) == variant


# ---------------------------------------------------------------------------
# Differential tests against the recursive descent in tests/support.py: every
# input gives the same term as the reference, or the same EncodeError message.


def _outcome(encode, text):
    try:
        return encode(text)
    except EncodeError as exc:
        return f"EncodeError: {exc}"


def assert_encodes_like_the_reference(text):
    assert _outcome(encode_expression, text) == _outcome(reference_encode_expression, text)
    assert _outcome(encode_function, text) == _outcome(reference_encode_function, text)


BINARY_OPERATORS = "= += -= *= /= %= == != < > <= >= + - * / %".split()
PREFIX_OPERATORS = ["*", "++", "--", "-"]
VOCABULARY = (
    "a b f x i n T 0 1 2.5 0.0f int double void template typename return for "
    "++ -- && ! ( ) [ ] { } , ; ."
).split() + BINARY_OPERATORS
TOKEN_SOUP = st.lists(st.sampled_from(VOCABULARY), max_size=40).map(" ".join)

NAMES = st.sampled_from(["a", "b", "f", "x", "i", "n"])
TYPES = st.builds(
    lambda t, stars: t + " *" * stars, st.sampled_from(["int", "double", "T"]), st.integers(0, 2)
)
ATOMS = NAMES | st.sampled_from(["0", "1", "2.5", "0.0f", "true"])


def _chains(inner):
    """Operands built from ``inner``, joined by a run of binary operators."""
    operand = st.one_of(
        ATOMS,
        st.builds(lambda op, x: f"{op} {x}", st.sampled_from(PREFIX_OPERATORS), inner),
        inner.map(lambda x: f"({x})"),
        st.builds(
            lambda head, args: f"{head}({', '.join(args)})", inner, st.lists(inner, max_size=3)
        ),
        st.builds(lambda base, index: f"{base}[{index}]", inner, inner),
        st.builds(lambda base, name: f"{base} . {name}", inner, NAMES),
    )
    return st.builds(
        lambda first, rest: " ".join([first] + [f"{op} {x}" for op, x in rest]),
        operand,
        st.lists(st.tuples(st.sampled_from(BINARY_OPERATORS), operand), max_size=4),
    )


EXPRESSIONS = st.recursive(ATOMS, _chains, max_leaves=16)
SIMPLE_STATEMENTS = st.one_of(
    st.builds(lambda t, name: f"{t} {name}", TYPES, NAMES),
    st.builds(lambda t, name, value: f"{t} {name} = {value}", TYPES, NAMES, EXPRESSIONS),
    EXPRESSIONS,
)
OPTIONAL_EXPRESSIONS = EXPRESSIONS | st.just("")
STATEMENTS = st.recursive(
    SIMPLE_STATEMENTS.map(lambda s: s + ";") | EXPRESSIONS.map(lambda e: f"return {e};"),
    lambda s: st.one_of(
        st.lists(s, max_size=3).map(lambda body: "{ " + " ".join(body) + " }"),
        st.builds(
            lambda init, cond, step, body: f"for ({init}; {cond}; {step}) {body}",
            SIMPLE_STATEMENTS | st.just(""),
            OPTIONAL_EXPRESSIONS,
            OPTIONAL_EXPRESSIONS,
            s,
        ),
    ),
    max_leaves=6,
)
FUNCTIONS = st.builds(
    lambda headers, ret, name, params, body: "".join(
        f"template <{', '.join('typename ' + p for p in header)}> " for header in headers
    )
    + f"{ret} {name}({', '.join(params)}) {{ {' '.join(body)} }}",
    st.lists(st.lists(st.sampled_from(["T", "U"]), min_size=1, max_size=2), max_size=2),
    TYPES,
    NAMES,
    st.lists(st.builds(lambda t, name: f"{t} {name}", TYPES, NAMES), max_size=3),
    st.lists(STATEMENTS, max_size=3),
)


def _edit(text, k, edit, token):
    """``text`` with one token edit at token position ``k``, modulo its length."""
    tokens = [t.text for t in tokenize(text)]
    k %= len(tokens) + 1
    if edit == "drop":
        del tokens[k:k + 1]
    elif edit == "insert":
        tokens.insert(k, token)
    elif edit == "replace":
        tokens[k:k + 1] = [token]
    return " ".join(tokens)


# Valid inputs, and inputs one token away from valid for the error paths.
GRAMMAR_BUILT = st.builds(
    _edit,
    EXPRESSIONS | FUNCTIONS,
    st.integers(0, 200),
    st.sampled_from(["keep", "drop", "insert", "replace"]),
    st.sampled_from(VOCABULARY),
)


@settings(max_examples=300, deadline=None)
@given(TOKEN_SOUP)
def test_token_soup_encodes_like_the_reference(text):
    assert_encodes_like_the_reference(text)


@settings(max_examples=300, deadline=None)
@given(GRAMMAR_BUILT)
def test_grammar_built_inputs_encode_like_the_reference(text):
    assert_encodes_like_the_reference(text)
