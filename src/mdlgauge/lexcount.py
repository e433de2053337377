"""Tokenizers that measure code length in lexical tokens.

The count is what matters here: comments and whitespace are discarded and
identifier spelling is irrelevant, so the measure cannot be gamed by
stripping comments or shortening names.  Two dialects are supported:
``cpp-like`` (maximal-munch lexing with multi-character operators, numeric
and string literals) and ``generic`` (a crude fallback that groups word
characters and nothing else).

Each dialect is one master regex, read by one ``findall``: whitespace and
comments are an unnamed prefix of every match, whose one group is the
lexeme.  A lexeme's kind follows from its text, so each distinct lexeme is
classified once, by a regex of the same alternatives in named groups, into
one ``Token`` (a named tuple) that is repeated wherever the lexeme recurs.
``tokenize`` returns a plain tuple of them, which carries no dialect, so
``rename_identifiers`` is told the dialect whose keywords it must avoid.
"""

from __future__ import annotations

import re
from typing import Mapping, NamedTuple

DIALECTS = ("cpp-like", "generic")

# Every keyword of the C family that could plausibly appear in measured
# sources.  Keywords count exactly like identifiers; the set exists for
# classification and to reject renamings that capture a keyword.
CPP_KEYWORDS = frozenset(
    """
    alignas alignof asm auto bool break case catch char char16_t char32_t
    char8_t class const const_cast consteval constexpr constinit continue
    decltype default delete do double dynamic_cast else enum explicit
    export extern false float for friend goto if inline int long mutable
    namespace new noexcept nullptr operator private protected public
    register reinterpret_cast requires return short signed sizeof static
    static_assert static_cast struct switch template this thread_local
    throw true try typedef typeid typename union unsigned using virtual
    void volatile wchar_t while
    """.split()
)

_PUNCTUATORS = frozenset({"(", ")", "[", "]", "{", "}", ",", ";", ".", "#", "::", "..."})

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# After the whitespace-and-comment prefix, the first alternative that
# matches wins, so each table's order is the scanner's precedence;
# multi-character operators are listed longest first for maximal munch.
# An unterminated comment or literal takes the rest of the text, so no
# later opener is scanned to the end again.  The empty ``skip`` matches at
# the end only: without it, trailing whitespace or a trailing comment would
# be given back, one character at a time, to ``op``.
_CPP_ALTERNATIVES = (
    ("bad_comment", r"/\*.*"),
    ("string", r'"(?:\\.|[^"\\\n])*"'),
    ("char", r"'(?:\\.|[^'\\\n])*'"),
    ("bad_literal", r"[\"'].*"),
    ("number", r"(?:0[xX][0-9a-fA-F]+|0[bB][01]+|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)[fFlLuU]*"),
    ("word", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("op", r"<<=|>>=|->\*|\.\.\.|::|->|\+\+|--|\+=|-=|\*=|/=|%=|==|!=|<=|>=|&&|\|\||&=|\|=|\^="
           r"|<<|>>|\#\#|\.\*|."),
    ("skip", r"\Z"),
)

# The generic fallback: runs of word characters, a leading digit making the
# run a number, and any other non-space character on its own.
_GENERIC_ALTERNATIVES = (
    ("number", r"[0-9][A-Za-z0-9_]*"),
    ("word", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("op", r"."),
    ("skip", r"\Z"),
)


def _scanner(prefix: str, alternatives, keywords: frozenset):
    """The master regex, the kind regex and the keywords.  A lexeme lexed
    alone by the kind regex falls in the alternative it fell in within the
    text, since nothing follows the alternation in the master regex."""
    master = re.compile(prefix + "(" + "|".join(p for _, p in alternatives) + ")", re.DOTALL)
    kinds = re.compile("|".join(f"(?P<{k}>{p})" for k, p in alternatives), re.DOTALL)
    return master, kinds, keywords


_SCANNERS = {
    "cpp-like": _scanner(r"(?:\s+|//[^\n]*|/\*.*?\*/)*", _CPP_ALTERNATIVES, CPP_KEYWORDS),
    "generic": _scanner(r"\s*", _GENERIC_ALTERNATIVES, frozenset()),
}

_LITERAL_KINDS = {"string": "string-literal", "char": "char-literal", "number": "number"}


class LexError(ValueError):
    """Malformed input; ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, text: str, pos: int):
        offset = len(text[:pos].encode("utf-8"))
        super().__init__(f"{message} at byte offset {offset}")
        self.offset = offset


class UnterminatedComment(LexError):
    pass


class UnterminatedLiteral(LexError):
    pass


class CollisionWithKeyword(ValueError):
    pass


class NonInjectiveMapping(ValueError):
    pass


class InvalidIdentifier(ValueError):
    pass


class Token(NamedTuple):
    """One lexeme with its class (identifier, keyword, number,
    string-literal, char-literal, operator, or punctuator).

    A named tuple, so it compares equal to the plain ``(kind, text)``
    tuple with the same fields."""

    kind: str
    text: str


def _scanner_for(dialect: str):
    """The dialect's master regex, kind regex and keywords."""
    if dialect not in _SCANNERS:
        raise ValueError(f"unsupported dialect: {dialect!r}")
    return _SCANNERS[dialect]


def tokenize(text: str, dialect: str = "cpp-like") -> tuple[Token, ...]:
    """Lex ``text`` into its tokens, discarding comments and whitespace.

    Raises UnterminatedComment / UnterminatedLiteral on malformed input and
    ValueError on an unknown dialect.
    """
    master, kinds, keywords = _scanner_for(dialect)
    lexemes = master.findall(text)
    # ``skip`` leaves one or two empty lexemes at the end, and no others.
    while lexemes and not lexemes[-1]:
        lexemes.pop()
    made: dict[str, Token] = {}
    for lexeme in set(lexemes):
        group = kinds.match(lexeme).lastgroup
        if group == "word":
            made[lexeme] = Token("keyword" if lexeme in keywords else "identifier", lexeme)
        elif group == "op":
            made[lexeme] = Token("punctuator" if lexeme in _PUNCTUATORS else "operator", lexeme)
        elif group == "bad_comment":
            raise UnterminatedComment("unterminated block comment", text, len(text) - len(lexeme))
        elif group == "bad_literal":
            raise UnterminatedLiteral("unterminated literal", text, len(text) - len(lexeme))
        else:
            made[lexeme] = Token(_LITERAL_KINDS[group], lexeme)
    return tuple(map(made.__getitem__, lexemes))


def rename_identifiers(
    tokens: tuple[Token, ...], mapping: Mapping[str, str], dialect: str = "cpp-like"
) -> tuple[Token, ...]:
    """Rewrite identifier tokens per ``mapping``; every other token and the
    token count are untouched.

    The mapping must stay injective on the identifiers actually present and
    may not introduce a keyword of ``dialect``, the dialect ``tokens`` were
    lexed in.  Raises ValueError on an unknown dialect.
    """
    keywords = _scanner_for(dialect)[2]
    for target in mapping.values():
        if not _IDENT_RE.fullmatch(target):
            raise InvalidIdentifier(f"rename target {target!r} is not an identifier")
        if target in keywords:
            raise CollisionWithKeyword(f"rename target {target!r} is a keyword")

    present = {t.text for t in tokens if t.kind == "identifier"}
    effective = {name: mapping.get(name, name) for name in present}
    if len(set(effective.values())) != len(present):
        raise NonInjectiveMapping(
            "renaming merges identifiers: " + ", ".join(sorted(present))
        )

    return tuple(
        Token("identifier", effective[t.text]) if t.kind == "identifier" else t
        for t in tokens
    )
