"""Tokenizer behavior: the paper-style counting rules, renaming invariance,
and agreement with an independently written reference lexer."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mdlgauge.lexcount import (
    CPP_KEYWORDS,
    CollisionWithKeyword,
    InvalidIdentifier,
    LexError,
    NonInjectiveMapping,
    Token,
    UnterminatedComment,
    UnterminatedLiteral,
    rename_identifiers,
    tokenize,
)
from support import reference_kind, reference_lex, stream_text, token_texts

COMPONENT_COUNTS = [
    ("fig2a.cpp", 41),
    ("fig2b.cpp", 46),
    ("fig2c.cpp", 44),  # documented deviation: '.' counts as its own token
    ("fig2d.cpp", 56),
]


@pytest.mark.parametrize("name,expected", COMPONENT_COUNTS)
def test_component_token_counts(corpus_text, name, expected):
    assert len(tokenize(corpus_text(name))) == expected


def test_empty_text():
    assert len(tokenize("")) == 0


def test_compound_assignment_statement():
    stream = tokenize("s += x[i];")
    assert token_texts(stream) == ("s", "+=", "x", "[", "i", "]", ";")
    kinds = [t.kind for t in stream]
    assert kinds == [
        "identifier", "operator", "identifier", "punctuator",
        "identifier", "punctuator", "punctuator",
    ]


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0.0", ["0.0"]),
        ("0.0f", ["0.0f"]),
        ("1.5e-3", ["1.5e-3"]),
        ("0x1Fu", ["0x1Fu"]),
        (".5", [".5"]),
        ("x->y", ["x", "->", "y"]),
        ("a::b", ["a", "::", "b"]),
        ("i++ + ++j", ["i", "++", "+", "++", "j"]),
        ('"a b\\" c" + \'x\'', ['"a b\\" c"', "+", "'x'"]),
        ("a<=b", ["a", "<=", "b"]),
    ],
)
def test_maximal_munch(text, expected):
    assert list(token_texts(tokenize(text))) == expected


def test_reference_lexer_agrees_on_corpus(corpus):
    for path in sorted(corpus.glob("*.cpp")):
        text = path.read_text()
        assert list(token_texts(tokenize(text))) == reference_lex(text), path.name


def test_reference_lexer_agrees_on_snippets():
    snippets = [
        "s += x[i];",
        "for (int i=0; i < n; ++i) s += x[i];",
        "a && b || c != d",
        "x.hasNext()",
        "plus<double>()  /* adapt */ , 0.0f",
        "// only a comment\n",
        # digits and spaces outside ASCII: a superscript is not a decimal
        # digit, so it lexes as a one-character operator
        "x\u00b2",
        "x.\u00b2",
        "\u06639e",
        "a\xa0b",
        "a\u2028b",
    ]
    for text in snippets:
        assert list(token_texts(tokenize(text))) == reference_lex(text), text


C_ISH = st.text(
    alphabet=st.sampled_from(
        list("abxyz_019.eExXfLu+-*/%=<>!&|^~?:;,#()[]{}'\"\\ \t\n")
        + ["\u00b2", "\u0663", "\xa0", "\u2028"]
    ),
    max_size=40,
)


@settings(max_examples=500, deadline=None)
@given(C_ISH)
def test_reference_lexer_agrees_on_random_text(text):
    try:
        stream = tokenize(text)
    except LexError:
        return
    assert list(token_texts(stream)) == reference_lex(text)


@settings(max_examples=500, deadline=None)
@given(
    # C_ISH spells no keyword, so keywords are mixed in, whole or run into
    # a neighbouring word.
    st.lists(st.one_of(C_ISH, st.sampled_from(sorted(CPP_KEYWORDS))), max_size=4).map("".join),
    st.sampled_from(["cpp-like", "generic"]),
)
def test_token_kinds_follow_from_their_texts(text, dialect):
    # Each distinct lexeme is classified once, on its own; its kind must be
    # the one the lexing rules give it wherever it occurs.
    try:
        stream = tokenize(text, dialect)
    except LexError:
        return
    for tok in stream:
        assert tok.kind == reference_kind(tok.text, dialect), (tok, text)


@settings(max_examples=500, deadline=None)
@given(C_ISH)
def test_lex_errors_point_at_the_unterminated_construct(text):
    try:
        tokenize(text)
    except LexError as err:
        data = text.encode("utf-8")
        assert data[err.offset:].startswith((b"/*", b'"', b"'"))
        tokenize(data[: err.offset].decode("utf-8"))


@pytest.mark.parametrize(
    "text",
    ["a+b /* c */", "a+b // c", "a+b \n\t ", "a+b/**/", "a+b//", "a+b\n// c\n/* d */ "],
)
def test_text_ending_in_comments_or_whitespace(text):
    # Nothing of the trailing comment or whitespace becomes a token.
    assert list(token_texts(tokenize(text))) == reference_lex(text) == ["a", "+", "b"]


def test_block_comment_then_an_unterminated_one():
    with pytest.raises(UnterminatedComment) as err:
        tokenize("/* a */ /*")
    assert err.value.offset == 8
    assert str(err.value) == "unterminated block comment at byte offset 8"


def test_unterminated_string_after_comments_and_non_ascii_text():
    # 'π', 'é' and 'ü' take two bytes each, so the quote at character 23
    # is at byte 26.
    text = 'π /* é */ x; // ü\n s = "oops;'
    assert text.index('"') == 23
    with pytest.raises(UnterminatedLiteral) as err:
        tokenize(text)
    assert err.value.offset == 26
    assert str(err.value) == "unterminated literal at byte offset 26"


def test_corpus_token_sequences_are_pinned(corpus):
    # Every (kind, text) pair of every corpus file, as recorded from the
    # scanner that skipped whitespace and comments as tokens of their own.
    pinned = json.loads((Path(__file__).parent / "golden" / "corpus-tokens.json").read_text())
    got = {
        path.name: [[t.kind, t.text] for t in tokenize(path.read_text())]
        for path in sorted(corpus.glob("*.cpp"))
    }
    assert got == pinned


def test_tokenize_returns_a_tuple_of_tokens():
    tokens = tokenize("s += 1;")
    assert type(tokens) is tuple
    assert all(type(t) is Token for t in tokens)
    assert tokens == (("identifier", "s"), ("operator", "+="), ("number", "1"), ("punctuator", ";"))
    assert tokenize("// nothing but a comment") == ()


def test_tokens_are_named_tuples():
    tok = Token("identifier", "x")
    assert repr(tok) == "Token(kind='identifier', text='x')"
    assert tok == ("identifier", "x") and hash(tok) == hash(("identifier", "x"))
    with pytest.raises(AttributeError):
        tok.text = "y"


def test_comment_and_whitespace_invariance(corpus_text):
    base = tokenize(corpus_text("fig2a.cpp"))
    # Re-render with noise at every token boundary.
    noisy = " /* noise */ ".join(t.text for t in base)
    noisy = "// leading comment\n" + noisy + "\n/* trailing */"
    assert token_texts(tokenize(noisy)) == token_texts(base)


def test_tokenize_is_deterministic(corpus_text):
    text = corpus_text("fig2d.cpp")
    assert tokenize(text) == tokenize(text)


def test_concatenation(corpus_text):
    t1 = corpus_text("fig2a.cpp")
    t2 = corpus_text("fig2b.cpp")
    joined = tokenize(t1 + "\n" + t2)
    assert token_texts(joined) == token_texts(tokenize(t1)) + token_texts(tokenize(t2))


def test_unterminated_block_comment():
    with pytest.raises(UnterminatedComment) as err:
        tokenize("int a; /* never closed")
    assert err.value.offset == 7


def test_unterminated_string():
    with pytest.raises(UnterminatedLiteral):
        tokenize('char* s = "oops;')


def test_rename_simple():
    stream = tokenize("x[i]")
    renamed = rename_identifiers(stream, {"x": "arr"})
    assert token_texts(renamed) == ("arr", "[", "i", "]")
    assert len(renamed) == len(stream)


def test_rename_empty_mapping_is_identity():
    stream = tokenize("s += x[i];")
    assert rename_identifiers(stream, {}) == stream


def test_rename_rejects_keyword_target():
    stream = tokenize("x + y")
    with pytest.raises(CollisionWithKeyword):
        rename_identifiers(stream, {"x": "double"})


def test_rename_rejects_a_target_that_is_not_an_identifier():
    with pytest.raises(InvalidIdentifier, match="^rename target '1x' is not an identifier$"):
        rename_identifiers(tokenize("x + y"), {"x": "1x"})


def test_rename_takes_the_keywords_of_its_dialect():
    tokens = tokenize("x + y", dialect="generic")
    renamed = rename_identifiers(tokens, {"x": "double"}, dialect="generic")
    assert token_texts(renamed) == ("double", "+", "y")
    with pytest.raises(CollisionWithKeyword):
        rename_identifiers(tokens, {"x": "double"}, dialect="cpp-like")


def test_rename_rejects_an_unknown_dialect():
    with pytest.raises(ValueError, match="^unsupported dialect: 'fortran'$"):
        rename_identifiers(tokenize("x"), {}, dialect="fortran")


def test_rename_rejects_merging():
    stream = tokenize("x + y")
    with pytest.raises(NonInjectiveMapping):
        rename_identifiers(stream, {"x": "z", "y": "z"})
    with pytest.raises(NonInjectiveMapping):
        # target captures an identifier that is itself not renamed
        rename_identifiers(stream, {"x": "y"})


def test_rename_keeps_count_under_random_renamings(corpus_text):
    stream = tokenize(corpus_text("fig2a.cpp"))
    idents = sorted({t.text for t in stream if t.kind == "identifier"})
    rng = random.Random("rename-fig2a")
    for trial in range(100):
        targets = [f"id{trial}_{k}" for k in range(len(idents))]
        rng.shuffle(targets)
        renamed = rename_identifiers(stream, dict(zip(idents, targets)))
        assert len(renamed) == 41
        # and the renamed stream still lexes to itself
        assert token_texts(tokenize(stream_text(renamed))) == token_texts(renamed)


def test_generic_dialect():
    stream = tokenize("foo_1 <= bar(2)", dialect="generic")
    assert token_texts(stream) == ("foo_1", "<", "=", "bar", "(", "2", ")")
    kinds = {t.text: t.kind for t in stream}
    assert kinds["foo_1"] == "identifier"
    assert kinds["2"] == "number"


def test_unknown_dialect():
    with pytest.raises(ValueError, match="^unsupported dialect: 'fortran'$"):
        tokenize("x", dialect="fortran")
