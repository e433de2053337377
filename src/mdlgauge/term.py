"""Labeled ordered trees with metavariables, and the substitution calculus.

Terms stand for code fragments.  An abstraction is a term with named
parameter slots; applying it is substitution, recovering the arguments that
produced a given instance is matching, and reconciling two terms with
unknowns on both sides is unification (here with union-find term graphs, so
the work stays near-linear).  Anti-unification (``lgg``) goes the other way:
given instances, it finds the least general term covering all of them.  It
is one pairwise walk, and the lgg of n terms is its left fold (Plotkin, "A
note on inductive generalization", Machine Intelligence 5, 1970).

Terms are immutable.  Both kinds, ``Var`` and ``Node``, derive from one
base, ``Term``, which holds their fields, refuses every write to them, and
gives them one hash and one structural equality.  The fields are a
``label``, a tuple of ``children``, a ``size`` (node count, metavariable
leaves included) and whether the term is ``ground``.  A ``Var`` is a leaf
labelled with the '?' it renders with, followed by its ``name``; so walks
that only read labels and children, such as rendering and edit distance,
need no case for it.  A ``Node`` works out its size, groundness and hash
once, from its children's, when it is built; so ``term_size``, ``ground``
and hashing cost O(1), and equality compares hashes before it walks.  There
is no intern table: equal terms built apart are distinct objects.  Every
walk over a term is a loop with its own stack, so terms of any depth parse,
render, match, unify and generalize without reaching the interpreter's
recursion limit.

``parse_term`` reads its text with one ``findall`` into token strings, and
tells each token by its first character.  Leaves with the same text are one
object within a parse.  Where a syntax error stands is worked out only once
the parse has failed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Mapping, Optional, Sequence, Union


class _TermFields:
    """A term's storage, writable while the term is being built."""

    __slots__ = ("label", "children", "size", "ground", "_hash")


class Term(_TermFields):
    """What both kinds of term share: their fields, which no one may set,
    their hash, kept from construction, and structural equality.

    Each constructor stores the fields while the object is a plain
    _TermFields, and only then makes it a Var or a Node, whose
    __setattr__ refuses every write: five object.__setattr__ calls would
    cost as much again as the rest of a Node's constructor.
    """

    __slots__ = ()

    def __setattr__(self, attr, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable; cannot set {attr!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        # Pairs of sibling tuples still to compare; leaves are compared
        # where they are met, and never wait on the stack.  The class test
        # keeps Node("?x") apart from Var("x"), which has the same label.
        stack = [((self,), (other,))]
        while stack:
            xs, ys = stack.pop()
            for x, y in zip(xs, ys):
                if x is y:
                    continue
                xk, yk = x.children, y.children
                if (
                    x._hash != y._hash
                    or x.__class__ is not y.__class__
                    or x.label != y.label
                    or len(xk) != len(yk)
                ):
                    return False
                if xk:
                    stack.append((xk, yk))
        return True


class Var(Term):
    """Metavariable leaf; its ``label`` is its name with the '?' prefix it
    renders with."""

    __slots__ = ()

    def __new__(cls, name: str):
        self = object.__new__(_TermFields)
        self.label = "?" + name
        self.children = ()
        self.size = 1
        self.ground = False
        self._hash = hash(("?", name))
        self.__class__ = cls
        return self

    @property
    def name(self) -> str:
        return self.label[1:]

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class Node(Term):
    """Labeled node with an ordered (possibly empty) tuple of children.

    ``size`` and ``ground`` are computed from the children when the node is
    built, and so is the hash, from the label and the children's hashes.
    """

    __slots__ = ()

    def __new__(cls, label: str, children: tuple[Term, ...] = ()):
        children = tuple(children)
        # One plain loop: this constructor runs for every node every
        # operation builds, and generator expressions cost more here.
        size = 1
        ground = True
        key = [label]
        for c in children:
            size += c.size
            if not c.ground:
                ground = False
            key.append(c._hash)
        self = object.__new__(_TermFields)
        self.label = label
        self.children = children
        self.size = size
        self.ground = ground
        self._hash = hash(tuple(key))
        self.__class__ = cls
        return self

    def __repr__(self) -> str:
        return f"<Node {render_term(self)}>"


_VAR_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class TermSyntaxError(ValueError):
    """Ill-formed term text; ``pos`` is the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


class ArityMismatch(ValueError):
    pass


def term_size(t: Term) -> int:
    """Number of nodes, metavariable leaves included."""
    return t.size


def term_variables(t: Term) -> set[str]:
    out: set[str] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Var):
            out.add(cur.name)
        elif not cur.ground:
            stack.extend(cur.children)
    return out


def iter_subterms(t: Term) -> Iterator[tuple[tuple[int, ...], Term]]:
    """Pre-order traversal yielding (path, subterm) pairs."""
    stack: list[tuple[tuple[int, ...], Term]] = [((), t)]
    while stack:
        path, cur = stack.pop()
        yield path, cur
        for i in range(len(cur.children) - 1, -1, -1):
            stack.append((path + (i,), cur.children[i]))


def subterm_at(t: Term, path: Sequence[int]) -> Term:
    """The subterm at ``path``; IndexError if the path leaves the term."""
    for i in path:
        t = t.children[i]
    return t


def replace_at(t: Term, path: Sequence[int], replacement: Term) -> Term:
    spine = []
    for i in path:
        spine.append((t, i))
        t = t.children[i]
    for node, i in reversed(spine):
        kids = list(node.children)
        kids[i] = replacement
        replacement = Node(node.label, tuple(kids))
    return replacement


# ---------------------------------------------------------------------------
# Parsing and rendering

# One token: a '(' with the label after it (or, in error, without one), a
# ')', a metavariable (or, in error, a '?' without a name), or a symbol,
# which runs up to whitespace, a bracket or a '?'.  A token's first
# character tells which.  Every other character is whitespace, which
# findall skips.
_TOKEN_RE = re.compile(r"\(\s*[^\s()?]*|\)|\?(?:[A-Za-z_][A-Za-z0-9_]*)?|[^\s()?]+")


def parse_term(text: str) -> Term:
    """Parse parenthesized prefix notation, e.g. "(+ (* ?a ?a) (* ?b ?b))"."""
    tokens = _TOKEN_RE.findall(text)
    # Leaves by their token; terms are immutable, so one parse shares them.
    leaves: dict[str, Term] = {}
    top: list[Term] = []  # the whole term, once it is complete
    kids = top  # the children so far of the innermost open node
    open_nodes: list[tuple[str, list[Term]]] = []  # (label, its parent's kids)
    for k, tok in enumerate(tokens):
        first = tok[0]
        if first == "(":
            label = tok[1:].lstrip()
            if not label:
                break
            open_nodes.append((label, kids))
            kids = []
        elif first == ")":
            if kids is top:
                break
            label, parent = open_nodes.pop()
            parent.append(Node(label, kids))
            kids = parent
        else:
            leaf = leaves.get(tok)
            if leaf is None:
                if first != "?":
                    leaf = Node(tok)
                elif tok != "?":
                    leaf = Var(tok[1:])
                else:
                    break
                leaves[tok] = leaf
            kids.append(leaf)
    else:
        if kids is top and len(top) == 1:
            return top[0]
        k = len(tokens)
    raise _syntax_error(text, tokens, k, bool(top))


def _syntax_error(text: str, tokens: list[str], k: int, complete: bool) -> TermSyntaxError:
    """The error of a parse that stopped at token ``k`` (``len(tokens)`` at
    the end of the text); ``complete`` if a whole term came before it."""
    if complete:
        # The first token after the term is the error; the term ends where
        # its brackets first balance.
        depth = 0
        for k, tok in enumerate(tokens):
            depth += (tok[0] == "(") - (tok[0] == ")")
            if depth == 0:
                break
        k += 1
    elif k == len(tokens):
        return TermSyntaxError("missing ')'" if tokens else "unexpected end of input", len(text))
    m = next(islice(_TOKEN_RE.finditer(text), k, None))
    if complete:
        return TermSyntaxError("trailing input after term", m.start())
    first = tokens[k][0]
    if first == "(":
        return TermSyntaxError("expected a symbol", m.end())
    if first == ")":
        return TermSyntaxError("unexpected ')'", m.start())
    return TermSyntaxError("'?' must be followed by a variable name", m.start())


def render_term(t: Term) -> str:
    parts: list[str] = []
    # Terms still to render, and the strings between them.
    stack: list[Union[Term, str]] = [t]
    while stack:
        cur = stack.pop()
        if cur.__class__ is str:
            parts.append(cur)
        elif cur.children:
            parts.append("(" + cur.label)
            stack.append(")")
            for c in reversed(cur.children):
                stack.append(c)
                stack.append(" ")
        else:
            parts.append(cur.label)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Substitutions and abstractions


@dataclass(frozen=True)
class Substitution:
    """Finite map from metavariable names to terms.

    Construction rejects bindings whose value mentions the bound variable;
    the results of match_term and unify are idempotent already.
    """

    bindings: Mapping[str, Term]

    def __post_init__(self):
        object.__setattr__(self, "bindings", dict(self.bindings))
        for name, value in self.bindings.items():
            if not value.ground and name in term_variables(value):
                raise ValueError(f"binding ?{name} contains itself")

    def apply(self, t: Term) -> Term:
        bindings = self.bindings
        done: list[Term] = []  # finished subterms awaiting their parent
        stack: list[tuple[Term, bool]] = [(t, False)]
        while stack:
            cur, expanded = stack.pop()
            if cur.ground:  # no metavariable below, so nothing to replace
                done.append(cur)
            elif cur.__class__ is Var:
                done.append(bindings.get(cur.name, cur))
            elif not expanded:
                stack.append((cur, True))
                stack.extend([(c, False) for c in reversed(cur.children)])
            else:
                cut = len(done) - len(cur.children)
                kids = tuple(done[cut:])
                del done[cut:]
                done.append(Node(cur.label, kids))
        return done[0]


def render_substitution(s: Substitution) -> str:
    items = sorted(s.bindings.items())
    body = ", ".join(f"?{name} -> {render_term(value)}" for name, value in items)
    return "{" + body + "}"


@dataclass(frozen=True)
class Abstraction:
    """A named term template: instantiating binds ``params`` in order."""

    name: str
    params: tuple[str, ...]
    body: Term

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        if len(set(self.params)) != len(self.params):
            raise ValueError("duplicate parameter names")
        free = term_variables(self.body) - set(self.params)
        if free:
            raise ValueError(f"body uses undeclared metavariables: {sorted(free)}")


def instantiate(a: Abstraction, args: Sequence[Term]) -> Term:
    """Substitute ``args`` for the abstraction's parameters, positionally."""
    if len(args) != len(a.params):
        raise ArityMismatch(
            f"{a.name} takes {len(a.params)} arguments, got {len(args)}"
        )
    return Substitution(dict(zip(a.params, args))).apply(a.body)


def parse_abstraction(text: str, name: str = "abstraction") -> Abstraction:
    """Parse the two-part abstraction format: a "params: ?a ?b" first line
    followed by the body term."""
    first, _, rest = text.partition("\n")
    header = first.strip()
    if not header.startswith("params:"):
        raise TermSyntaxError("abstraction must start with a 'params:' line", 0)
    params = []
    for word in header[len("params:"):].split():
        if not word.startswith("?") or not _VAR_NAME_RE.fullmatch(word[1:]):
            raise TermSyntaxError(f"bad parameter {word!r}", 0)
        params.append(word[1:])
    return Abstraction(name, tuple(params), parse_term(rest))


def render_abstraction(a: Abstraction) -> str:
    header = "params:" + "".join(f" ?{p}" for p in a.params)
    return header + "\n" + render_term(a.body) + "\n"


# ---------------------------------------------------------------------------
# Matching (abstraction inversion against a known instance)


def match_term(pattern: Term, target: Term) -> Optional[Substitution]:
    """Find bindings making ``pattern`` equal ``target``, or None.

    The target must be ground.  Repeated pattern variables must bind
    consistently.
    """
    if not target.ground:
        raise ValueError("match target must be ground")
    bindings, _ = _match_cost(pattern, target)
    return None if bindings is None else Substitution(bindings)


def _match_cost(pattern: Term, target: Term) -> tuple[Optional[dict[str, Term]], int]:
    """Matching with a node-comparison count (the inversion-cost measure).

    Each non-variable pattern node costs 1, for its label comparison.  A
    repeated variable whose binding equals the subterm across from it costs
    that subterm's size, the node pairs an equality walk over the two
    visits; one whose binding differs ends the match at no further cost.
    """
    bindings: dict[str, Term] = {}
    cost = 0
    stack = [(pattern, target)]
    while stack:
        p, t = stack.pop()
        if isinstance(p, Var):
            name = p.name
            bound = bindings.get(name)
            if bound is None:
                bindings[name] = t
            elif bound == t:
                cost += t.size
            else:
                return None, cost
            continue
        cost += 1
        if isinstance(t, Var) or p.label != t.label or len(p.children) != len(t.children):
            return None, cost
        stack.extend(zip(p.children, t.children))
    return bindings, cost


# ---------------------------------------------------------------------------
# Unification (union-find term graphs)


class _UfClass:
    __slots__ = ("parent", "rank", "term")

    def __init__(self, term: Term):
        self.parent: Optional[_UfClass] = None
        self.rank = 0
        self.term = term  # a Node member if the class has one, else its Var


def unify(t1: Term, t2: Term) -> Optional[Substitution]:
    """Most general unifier of t1 and t2, or None.

    Equal subterms share union-find nodes (a term DAG), unions are by rank,
    and the occurs check happens once at extraction time as a cycle check,
    which keeps the closure pass near-linear.
    """
    classes: dict[Term, _UfClass] = {}

    def class_of(t: Term) -> _UfClass:
        cls = classes.get(t)
        if cls is None:
            cls = classes[t] = _UfClass(t)
        return cls

    def find(cls: _UfClass) -> _UfClass:
        root = cls
        while root.parent is not None:
            root = root.parent
        while cls is not root:
            parent = cls.parent
            cls.parent = root
            cls = parent
        return root

    def union(ra: _UfClass, rb: _UfClass) -> None:
        # Of two variables, the right-hand one names the merged class.
        term = ra.term if ra.term.__class__ is Node else rb.term
        if ra.rank < rb.rank:
            ra, rb = rb, ra
        rb.parent = ra
        if ra.rank == rb.rank:
            ra.rank += 1
        ra.term = term

    work = [(class_of(t1), class_of(t2))]
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra is rb:
            continue
        sa, sb = ra.term, rb.term
        if sa.__class__ is Node and sb.__class__ is Node:
            if sa.label != sb.label or len(sa.children) != len(sb.children):
                return None
            union(ra, rb)
            work.extend(
                (class_of(ca), class_of(cb)) for ca, cb in zip(sa.children, sb.children)
            )
        else:
            union(ra, rb)

    resolved: dict[_UfClass, Term] = {}

    def build(cls: _UfClass) -> Optional[Term]:
        """The term class ``cls`` stands for, or None if it contains itself.

        A depth-first walk of the class graph; ``visiting`` holds the
        classes on the path from the start to the current one."""
        visiting: set[_UfClass] = set()
        stack: list[tuple[_UfClass, bool]] = [(find(cls), False)]
        while stack:
            root, expanded = stack.pop()
            term = root.term
            if expanded:
                visiting.discard(root)
                kids = tuple(resolved[find(class_of(c))] for c in term.children)
                resolved[root] = Node(term.label, kids)
            elif root in resolved:
                continue
            elif root in visiting:
                return None  # a class reachable from itself: occurs violation
            elif not term.children:  # a variable or a leaf stands for itself
                resolved[root] = term
            else:
                visiting.add(root)
                stack.append((root, True))
                stack.extend([(find(class_of(c)), False) for c in reversed(term.children)])
        return resolved[find(cls)]

    bindings: dict[str, Term] = {}
    # build adds classes for subterms no union reached, so list them first.
    variables = sorted((t.name, t) for t in classes if t.__class__ is Var)
    for name, var in variables:
        value = build(classes[var])
        if value is None:
            return None
        if value != var:
            bindings[name] = value
    return Substitution(bindings)


# ---------------------------------------------------------------------------
# Anti-unification


def lgg(terms: Sequence[Term], name: str = "lgg") -> Abstraction:
    """Least general generalization of one or more ground terms.

    Positions where the inputs disagree become metavariables; equal
    subterm tuples share a variable, and variables are numbered v0, v1,
    ... by first occurrence, so the result is deterministic.
    """
    terms = tuple(terms)
    if not terms:
        raise ValueError("lgg needs at least one term")
    for t in terms:
        if not t.ground:
            raise ValueError("lgg inputs must be ground")
    body, params = terms[0], ()
    for t in terms[1:]:
        body, params, _ = _anti_unify(body, t)
    return Abstraction(name, params, body)


def lgg_with_witnesses(
    terms: Sequence[Term], name: str = "lgg"
) -> tuple[Abstraction, list[tuple[Term, ...]]]:
    """lgg plus, per input term, the argument tuple that reproduces it:
    ``instantiate(a, witnesses[i]) == terms[i]``."""
    terms = tuple(terms)
    a = lgg(terms, name)
    matches = [match_term(a.body, t).bindings for t in terms]
    return a, [tuple(bindings[p] for p in a.params) for bindings in matches]


# The variables of the first few slots, built once: the tradeoff compressor
# generalizes thousands of pairs, each with a parameter or three.
_SLOT_VARS = tuple(Var(f"v{k}") for k in range(4))


def _anti_unify(
    left: Term, right: Term, limit: Optional[int] = None
) -> Optional[tuple[Term, tuple[str, ...], int]]:
    """The lgg of ``left`` and the ground ``right``: its body, its
    parameters and the number of variable occurrences in the body; or None
    once the pair needs more than ``limit`` parameters.

    Each distinct pair of disagreeing subterms becomes one variable, named
    v0, v1, ... by first occurrence in pre-order.  A metavariable in
    ``left`` always disagrees with the ground subterm across from it, so a
    left-hand lgg folds in one more term: its variable and the new
    subterm key a slot, as the tuple of all the inputs' subterms there
    would.
    """
    slots: dict[tuple[Term, Term], Var] = {}
    occurrences = 0
    done: list[Term] = []  # finished subterms awaiting their parent
    # Pairs of corresponding subterms in pre-order.  A lone Node marks a
    # pair whose children are done: it is rebuilt from them, with its label.
    stack: list = [(left, right)]
    while stack:
        pair = stack.pop()
        if pair.__class__ is not tuple:
            cut = len(done) - len(pair.children)
            kids = tuple(done[cut:])
            del done[cut:]
            done.append(Node(pair.label, kids))
            continue
        x, y = pair
        if x.__class__ is Var or x.label != y.label or len(x.children) != len(y.children):
            var = slots.get(pair)
            if var is None:
                k = len(slots)
                if k == limit:
                    return None
                var = slots[pair] = _SLOT_VARS[k] if k < len(_SLOT_VARS) else Var(f"v{k}")
            occurrences += 1
            done.append(var)
        # Leaves that agree on their label are equal.
        elif x is y or x._hash == y._hash and (not x.children or x == y):
            done.append(x)
        else:
            stack.append(x)
            stack.extend(zip(reversed(x.children), reversed(y.children)))
    return done[0], tuple(var.name for var in slots.values()), occurrences
