"""A small translator from C-family fragments to terms.

Covers arithmetic expressions, calls, and the handful of statement forms
used by the bundled corpus (function definitions with declarations, for
loops, and returns).  It is deliberately not a C++ front end; anything
outside that subset raises EncodeError.

Expression shapes: binary operators become ``(op lhs rhs)``, a call through
an identifier becomes ``(name args...)``, so ``r*r + f(s)*f(s)`` encodes as
``(+ (* r r) (* (f s) (f s)))``.  Binary operators are parsed by precedence
climbing over one table of binding levels (Pratt, POPL 1973).  Every parse
step that can nest is a generator that yields its sub-parses to ``_run``,
which keeps the pending steps on a list, so nesting depth is bounded by
memory, not by the interpreter's recursion limit.
"""

from __future__ import annotations

from typing import Callable, Generator

from .lexcount import Token, tokenize
from .term import Node, Term


class EncodeError(ValueError):
    pass


# Binary operators by binding level, loosest first.  Assignment, the
# loosest, groups to the right; every other level groups to the left.
_ASSIGNMENT = 0
_BINARY = {
    **dict.fromkeys(("=", "+=", "-=", "*=", "/=", "%="), _ASSIGNMENT),
    **dict.fromkeys(("==", "!=", "<", ">", "<=", ">="), 1),
    **dict.fromkeys(("+", "-"), 2),
    **dict.fromkeys(("*", "/", "%"), 3),
}
_PREFIX = {"*": "deref", "++": "preinc", "--": "predec", "-": "neg"}

# A parse step: yields sub-parse steps, is sent their terms, returns a term.
_Step = Generator["_Step", Term, Term]


class _Cursor:
    def __init__(self, tokens: tuple[Token, ...]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.tokens[i].text if i < len(self.tokens) else ""

    def kind(self) -> str:
        return self.tokens[self.pos].kind if self.pos < len(self.tokens) else ""

    def next(self) -> str:
        if self.pos >= len(self.tokens):
            raise EncodeError("unexpected end of input")
        text = self.tokens[self.pos].text
        self.pos += 1
        return text

    def expect(self, text: str) -> None:
        got = self.next()
        if got != text:
            raise EncodeError(f"expected {text!r}, found {got!r}")

    def done(self) -> bool:
        return self.pos >= len(self.tokens)


def encode_expression(text: str) -> Term:
    """Encode a single C-family expression as a term."""
    return _encode(text, _expression)


def encode_function(text: str) -> Term:
    """Encode a function definition, optionally under a template header."""
    return _encode(text, _function)


def _encode(text: str, step: Callable[[_Cursor], _Step]) -> Term:
    """The term that ``step`` parses from all of ``text``'s tokens."""
    cur = _Cursor(tokenize(text))
    term = _run(step(cur))
    if not cur.done():
        raise EncodeError(f"trailing input at token {cur.peek()!r}")
    return term


def _run(step: _Step) -> Term:
    """Run ``step`` and every sub-parse it yields, innermost first."""
    pending = [step]
    term = None
    while pending:
        try:
            sub = pending[-1].send(term)
        except StopIteration as stop:
            pending.pop()
            term = stop.value
        else:
            pending.append(sub)
            term = None
    return term


def _expression(cur: _Cursor, floor: int = 0) -> _Step:
    """The operators binding at ``floor`` or tighter, and their operands."""
    left = yield _operand(cur)
    while _BINARY.get(cur.peek(), -1) >= floor:
        op = cur.next()
        level = _BINARY[op]
        right = yield _expression(cur, level if level == _ASSIGNMENT else level + 1)
        left = Node(op, (left, right))
    return left


def _operand(cur: _Cursor) -> _Step:
    """Prefix operators, a primary or a parenthesized expression, then
    calls, indexing and member access."""
    prefixes = []
    while cur.peek() in _PREFIX:
        prefixes.append(_PREFIX[cur.next()])
    if cur.peek() == "(":
        cur.next()
        term = yield _expression(cur)
        cur.expect(")")
    elif cur.kind() in ("identifier", "keyword", "number"):
        term = Node(cur.next())
    else:
        raise EncodeError(f"unexpected token {cur.peek()!r}")
    while True:
        head = cur.peek()
        if head == "(":
            cur.next()
            args = []
            if cur.peek() != ")":
                args.append((yield _expression(cur)))
                while cur.peek() == ",":
                    cur.next()
                    args.append((yield _expression(cur)))
            cur.expect(")")
            if isinstance(term, Node) and not term.children:
                term = Node(term.label, tuple(args))  # call through an identifier
            else:
                term = Node("call", (term, *args))
        elif head == "[":
            cur.next()
            index = yield _expression(cur)
            cur.expect("]")
            term = Node("index", (term, index))
        elif head == "." and cur.kind() == "punctuator":
            cur.next()
            term = Node("member", (term, Node(cur.next())))
        else:
            break
    for label in reversed(prefixes):
        term = Node(label, (term,))
    return term


# ---------------------------------------------------------------------------
# The statement subset: enough for the bundled corpus listings.


def _function(cur: _Cursor) -> _Step:
    if cur.peek() == "template":
        cur.next()
        cur.expect("<")
        tparams = []
        while True:
            cur.expect("typename")
            tparams.append(Node(cur.next()))
            if cur.peek() == ",":
                cur.next()
                continue
            cur.expect(">")
            break
        inner = yield _function(cur)
        return Node("template", (Node("tparams", tuple(tparams)), inner))

    ret = _type(cur)
    name = cur.next()
    cur.expect("(")
    params = []
    if cur.peek() != ")":
        while True:
            ptype = _type(cur)
            pname = cur.next()
            params.append(Node("param", (ptype, Node(pname))))
            if cur.peek() == ",":
                cur.next()
                continue
            break
    cur.expect(")")
    body = yield _block(cur)
    return Node("fn", (Node(name), ret, Node("params", tuple(params)), body))


def _type(cur: _Cursor) -> Term:
    if cur.kind() not in ("identifier", "keyword"):
        raise EncodeError(f"expected a type, found {cur.peek()!r}")
    t: Term = Node(cur.next())
    while cur.peek() == "*":
        cur.next()
        t = Node("ptr", (t,))
    return t


def _block(cur: _Cursor) -> _Step:
    cur.expect("{")
    stmts = []
    while cur.peek() != "}":
        stmts.append((yield _statement(cur)))
    cur.next()
    return Node("block", tuple(stmts))


def _statement(cur: _Cursor) -> _Step:
    head = cur.peek()
    if head == "{":
        return (yield _block(cur))
    if head == "return":
        cur.next()
        value = yield _expression(cur)
        cur.expect(";")
        return Node("return", (value,))
    if head == "for":
        cur.next()
        cur.expect("(")
        init: Term = Node("empty") if cur.peek() == ";" else (yield _simple_statement(cur))
        cur.expect(";")
        cond: Term = Node("empty") if cur.peek() == ";" else (yield _expression(cur))
        cur.expect(";")
        step: Term = Node("empty") if cur.peek() == ")" else (yield _expression(cur))
        cur.expect(")")
        body = yield _statement(cur)
        return Node("for", (init, cond, step, body))
    stmt = yield _simple_statement(cur)
    cur.expect(";")
    return stmt


def _simple_statement(cur: _Cursor) -> _Step:
    # A declaration when two identifier-ish tokens stand side by side
    # ("double s", "int i"); otherwise an expression statement.
    if cur.kind() in ("identifier", "keyword") and _looks_like_declarator(cur):
        dtype = _type(cur)
        name = cur.next()
        if cur.peek() == "=":
            cur.next()
            return Node("decl", (dtype, Node(name), (yield _expression(cur))))
        return Node("decl", (dtype, Node(name)))
    return Node("expr", ((yield _expression(cur)),))


def _looks_like_declarator(cur: _Cursor) -> bool:
    ahead = 1
    while cur.peek(ahead) == "*":
        ahead += 1
    nxt = cur.peek(ahead)
    return bool(nxt) and (nxt[0].isalpha() or nxt[0] == "_")
