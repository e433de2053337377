"""Shared test helpers: token texts, an independent reference lexer
and token classifier, exhaustive tree enumeration, pattern subsumption
checks, reference term operations, a reference tradeoff compressor, a
reference tree edit distance, a reference Lipschitz estimate and a
reference C-fragment encoder."""

from __future__ import annotations

import heapq
import itertools
import re
from typing import Mapping, Optional, Sequence

from mdlgauge import tradeoff
from mdlgauge.encode import EncodeError
from mdlgauge.lexcount import CPP_KEYWORDS, Token, tokenize
from mdlgauge.sampling import DEFAULT_ALPHABET, random_ground_term, seeded
from mdlgauge.term import (
    _VAR_NAME_RE,
    Abstraction,
    Node,
    Substitution,
    Term,
    TermSyntaxError,
    Var,
    instantiate,
    iter_subterms,
    term_variables,
)
from mdlgauge.treedist import UNIT_COSTS, CostModel, ted
from mdlgauge.viscosity import LipschitzEstimate, ZeroSamples, perturb


def stream_text(tokens) -> str:
    """Render tokens back to lexable text (space at every boundary)."""
    return " ".join(t.text for t in tokens)


def token_texts(tokens) -> tuple[str, ...]:
    """The texts of the tokens, in order."""
    return tuple(t.text for t in tokens)


# A one-regex reference lexer implementing the same cpp-like rules as the
# production scanner, but via a single alternation and finditer.  Kept
# deliberately separate so the two can cross-check each other.
_REFERENCE_RE = re.compile(
    r"""
      //[^\n]*
    | /\*.*?\*/
    | "(?:\\.|[^"\\\n])*"
    | '(?:\\.|[^'\\\n])*'
    | (?:0[xX][0-9a-fA-F]+|0[bB][01]+|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)[fFlLuU]*
    | [A-Za-z_][A-Za-z0-9_]*
    | <<=|>>=|->\*|\.\.\.|::|->|\+\+|--|\+=|-=|\*=|/=|%=|==|!=|<=|>=|&&|\|\||&=|\|=|\^=|<<|>>|\#\#|\.\*
    | \S
    """,
    re.VERBOSE | re.DOTALL,
)


def reference_lex(text: str) -> list[str]:
    out = []
    for m in _REFERENCE_RE.finditer(text):
        tok = m.group()
        if tok.startswith("//") or tok.startswith("/*"):
            continue
        out.append(tok)
    return out


_REFERENCE_PUNCTUATORS = {"(", ")", "[", "]", "{", "}", ",", ";", ".", "#", "::", "..."}


def reference_kind(text: str, dialect: str) -> str:
    """The kind of a token from its text alone, by the lexing rules: a
    literal by its first character, a word by the keyword list (cpp-like
    only), and any other text by the list of punctuators."""
    if dialect == "cpp-like":
        if text[0] == '"':
            return "string-literal"
        if text[0] == "'":
            return "char-literal"
        if text[0].isdecimal() or (text[0] == "." and text[1:2].isdecimal()):
            return "number"
    elif text[0] in "0123456789":
        return "number"
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text):
        return "keyword" if dialect == "cpp-like" and text in CPP_KEYWORDS else "identifier"
    return "punctuator" if text in _REFERENCE_PUNCTUATORS else "operator"


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum of ``parts`` positives."""
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def all_trees(size: int, labels: tuple[str, ...]) -> list[Term]:
    """Every ordered tree with exactly ``size`` nodes over ``labels``."""
    if size == 1:
        return [Node(l) for l in labels]
    out: list[Term] = []
    for label in labels:
        for arity in range(1, size):
            for parts in compositions(size - 1, arity):
                for kids in itertools.product(*[all_trees(p, labels) for p in parts]):
                    out.append(Node(label, kids))
    return out


def all_patterns(size: int, labels: tuple[str, ...], var_names: tuple[str, ...]) -> list[Term]:
    """Like all_trees, but leaves may also be metavariables."""
    if size == 1:
        return [Node(l) for l in labels] + [Var(v) for v in var_names]
    out: list[Term] = []
    for label in labels:
        for arity in range(1, size):
            for parts in compositions(size - 1, arity):
                for kids in itertools.product(
                    *[all_patterns(p, labels, var_names) for p in parts]
                ):
                    out.append(Node(label, kids))
    return out


def skolemize(t: Term) -> Term:
    """Turn each metavariable into a unique constant leaf."""
    if isinstance(t, Var):
        return Node("sk_" + t.name)
    return Node(t.label, tuple(skolemize(c) for c in t.children))


def subsumes(general: Term, specific: Term) -> bool:
    """Whether some substitution carries ``general`` onto ``specific``."""
    return reference_match_cost(general, skolemize(specific)) is not None


# ---------------------------------------------------------------------------
# Reference term operations.  The plain recursive definitions: each one
# measures, compares, hashes or matches a term by walking it, where the
# production terms keep their size, groundness and hash from construction
# and every production walk is a loop.  The production operations must
# agree with them on every term small enough to recurse over.


def reference_term_size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + sum(reference_term_size(c) for c in t.children)


def reference_is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    return all(reference_is_ground(c) for c in t.children)


def reference_equal(a: Term, b: Term) -> bool:
    if isinstance(a, Var) or isinstance(b, Var):
        return isinstance(a, Var) and isinstance(b, Var) and a.name == b.name
    return (
        a.label == b.label
        and len(a.children) == len(b.children)
        and all(map(reference_equal, a.children, b.children))
    )


def reference_match_cost(
    pattern: Term, target: Term
) -> Optional[tuple[dict[str, Term], int]]:
    """The bindings that carry ``pattern`` onto the ground ``target``, with
    the inversion cost of finding them, or None on a clash.  Each
    non-variable pattern node costs 1, and a repeated variable whose
    binding equals the subterm across from it costs that subterm's size."""
    bindings: dict[str, Term] = {}

    def cost(p: Term, t: Term) -> Optional[int]:
        if isinstance(p, Var):
            if p.name not in bindings:
                bindings[p.name] = t
                return 0
            return reference_term_size(t) if reference_equal(bindings[p.name], t) else None
        if isinstance(t, Var) or p.label != t.label or len(p.children) != len(t.children):
            return None
        total = 1
        for pc, tc in zip(p.children, t.children):
            c = cost(pc, tc)
            if c is None:
                return None
            total += c
        return total

    total = cost(pattern, target)
    return None if total is None else (bindings, total)


def reference_hash(t: Term) -> int:
    """The hash a term is built with: ("?", name) for a metavariable, and
    for a node its label followed by its children's hashes."""
    if isinstance(t, Var):
        return hash(("?", t.name))
    return hash((t.label, *[reference_hash(c) for c in t.children]))


def reference_parse_term(text: str) -> Term:
    term, pos = _reference_parse(text, _reference_skip_ws(text, 0))
    pos = _reference_skip_ws(text, pos)
    if pos != len(text):
        raise TermSyntaxError("trailing input after term", pos)
    return term


def _reference_skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _reference_parse(text: str, pos: int) -> tuple[Term, int]:
    if pos >= len(text):
        raise TermSyntaxError("unexpected end of input", pos)
    c = text[pos]
    if c == "(":
        pos = _reference_skip_ws(text, pos + 1)
        label, pos = _reference_parse_symbol(text, pos)
        children = []
        pos = _reference_skip_ws(text, pos)
        while pos < len(text) and text[pos] != ")":
            child, pos = _reference_parse(text, pos)
            children.append(child)
            pos = _reference_skip_ws(text, pos)
        if pos >= len(text):
            raise TermSyntaxError("missing ')'", pos)
        return Node(label, tuple(children)), pos + 1
    if c == ")":
        raise TermSyntaxError("unexpected ')'", pos)
    if c == "?":
        m = _VAR_NAME_RE.match(text, pos + 1)
        if not m:
            raise TermSyntaxError("'?' must be followed by a variable name", pos)
        return Var(m.group()), m.end()
    label, pos = _reference_parse_symbol(text, pos)
    return Node(label), pos


def _reference_parse_symbol(text: str, pos: int) -> tuple[str, int]:
    end = pos
    while end < len(text) and not text[end].isspace() and text[end] not in "()?":
        end += 1
    if end == pos:
        raise TermSyntaxError("expected a symbol", pos)
    return text[pos:end], end


def reference_render_term(t: Term) -> str:
    if isinstance(t, Var):
        return "?" + t.name
    if not t.children:
        return t.label
    return "(" + " ".join([t.label] + [reference_render_term(c) for c in t.children]) + ")"


def reference_replace_at(t: Term, path: Sequence[int], replacement: Term) -> Term:
    if not path:
        return replacement
    if isinstance(t, Var):
        raise IndexError("path descends below a leaf")
    i = path[0]
    kids = list(t.children)
    kids[i] = reference_replace_at(kids[i], path[1:], replacement)
    return Node(t.label, tuple(kids))


def reference_apply(bindings: Mapping[str, Term], t: Term) -> Term:
    if isinstance(t, Var):
        return bindings.get(t.name, t)
    if not t.children:
        return t
    return Node(t.label, tuple(reference_apply(bindings, c) for c in t.children))


def reference_lgg(terms: Sequence[Term]) -> Abstraction:
    terms = tuple(terms)
    slots: dict[tuple[Term, ...], str] = {}

    def gen(tup: tuple[Term, ...]) -> Term:
        first = tup[0]
        if all(reference_equal(t, first) for t in tup[1:]):
            return first
        if isinstance(first, Node) and all(
            isinstance(t, Node)
            and t.label == first.label
            and len(t.children) == len(first.children)
            for t in tup[1:]
        ):
            return Node(
                first.label,
                tuple(
                    gen(tuple(t.children[i] for t in tup))
                    for i in range(len(first.children))
                ),
            )
        var = slots.get(tup)
        if var is None:
            var = slots[tup] = f"v{len(slots)}"
        return Var(var)

    body = gen(terms)
    return Abstraction(tuple(slots.values()), body)


class _ReferenceClass:
    def __init__(self, schema: Optional[Node], canon: Optional[str]):
        self.parent: Optional[_ReferenceClass] = None
        self.rank = 0
        self.schema = schema
        self.canon = canon


def reference_unify(t1: Term, t2: Term) -> Optional[Substitution]:
    var_classes: dict[str, _ReferenceClass] = {}
    node_classes: dict[Term, _ReferenceClass] = {}

    def class_of(t: Term) -> _ReferenceClass:
        if isinstance(t, Var):
            cls = var_classes.get(t.name)
            if cls is None:
                cls = var_classes[t.name] = _ReferenceClass(None, t.name)
            return cls
        cls = node_classes.get(t)
        if cls is None:
            cls = node_classes[t] = _ReferenceClass(t, None)
        return cls

    def find(cls: _ReferenceClass) -> _ReferenceClass:
        while cls.parent is not None:
            cls = cls.parent
        return cls

    def union(ra: _ReferenceClass, rb: _ReferenceClass) -> None:
        schema = ra.schema if ra.schema is not None else rb.schema
        canon = None if schema is not None else rb.canon
        if ra.rank < rb.rank:
            ra, rb = rb, ra
        rb.parent = ra
        if ra.rank == rb.rank:
            ra.rank += 1
        ra.schema = schema
        ra.canon = canon

    work = [(class_of(t1), class_of(t2))]
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra is rb:
            continue
        sa, sb = ra.schema, rb.schema
        if sa is not None and sb is not None:
            if sa.label != sb.label or len(sa.children) != len(sb.children):
                return None
            union(ra, rb)
            work.extend(
                (class_of(ca), class_of(cb)) for ca, cb in zip(sa.children, sb.children)
            )
        else:
            union(ra, rb)

    resolved: dict[int, Term] = {}
    visiting: set[int] = set()

    def build(cls: _ReferenceClass) -> Optional[Term]:
        root = find(cls)
        key = id(root)
        if key in resolved:
            return resolved[key]
        if key in visiting:
            return None
        if root.schema is None:
            result: Term = Var(root.canon or "_")
        else:
            visiting.add(key)
            kids = []
            for child in root.schema.children:
                built = build(class_of(child))
                if built is None:
                    return None
                kids.append(built)
            visiting.discard(key)
            result = Node(root.schema.label, tuple(kids))
        resolved[key] = result
        return result

    bindings: dict[str, Term] = {}
    for name in sorted(var_classes):
        value = build(var_classes[name])
        if value is None:
            return None
        if not reference_equal(value, Var(name)):
            bindings[name] = value
    return Substitution(bindings)


# ---------------------------------------------------------------------------
# Reference tradeoff compressor.  The plain version of mdlgauge.tradeoff's
# level compression: it indexes the corpus by root label alone, matches a
# candidate against every node with that label, rebuilds the whole index
# after each accepted entry, and measures, generalizes and renders subterms
# with the recursive reference operations above.  The production
# compressor must agree with it exactly.


def reference_compress(
    corpus: Sequence[Term], level: tradeoff.MetalanguageLevel
) -> tradeoff.CompressionResult:
    run = tradeoff.CompressionResult([], list(corpus), 0, 0, 0)
    candidates: list[Abstraction] = []
    if level.index >= 1:
        candidates.extend(_reference_constant_candidates(run.terms))
    if level.index >= 2:
        candidates.extend(_reference_motif_candidates(run.terms))
    reference_greedy_rewrite(run, candidates)
    run.compressed_size = sum(reference_term_size(t) for t in run.terms) + sum(
        reference_term_size(a.body) for a in run.library
    )
    return run


def reference_greedy_rewrite(
    run: tradeoff.CompressionResult, candidates: list[Abstraction]
) -> None:
    if not candidates:
        return
    index = _reference_label_index(run.terms)
    version = 0
    heap: list = []

    def score(cand: Abstraction, key: str) -> None:
        sites = _reference_find_sites(index, cand)
        per_site = sum(
            size - 1 - sum(map(reference_term_size, args)) for _, _, size, args, _ in sites
        )
        gain = per_site - reference_term_size(cand.body)
        if gain > 0:
            heapq.heappush(heap, (-gain, key, version, cand, sites))

    for cand in candidates:
        score(cand, reference_render_term(cand.body))
    while heap:
        _, key, seen, cand, sites = heapq.heappop(heap)
        if seen != version:
            score(cand, key)
            continue
        name = f"${len(run.library)}"
        run.library.append(cand)
        for ti, path, _, args, cost in sites:
            run.terms[ti] = reference_replace_at(run.terms[ti], path, Node(name, args))
            run.comparisons += cost
            run.rewrites += 1
        version += 1
        index = _reference_label_index(run.terms)


def _reference_label_index(terms):
    index: dict[str, list] = {}
    for ti, term in enumerate(terms):
        for path, node in iter_subterms(term):
            if isinstance(node, Node):
                index.setdefault(node.label, []).append((ti, path, node))
    return index


def _reference_find_sites(index, candidate: Abstraction) -> list[tuple]:
    """Outermost, non-overlapping (term index, path, size, args, cost)."""
    root = candidate.body
    if not isinstance(root, Node):
        return []
    hits = []
    for ti, path, node in index.get(root.label, ()):
        found = reference_match_cost(root, node)
        if found is not None:
            bindings, cost = found
            args = tuple(bindings[p] for p in candidate.params)
            hits.append((ti, path, reference_term_size(node), args, cost))
    hits.sort(key=lambda h: (h[0], len(h[1]), h[1]))
    kept, taken = [], set()
    for hit in hits:
        ti, path = hit[0], hit[1]
        if not any((ti, path[:i]) in taken for i in range(len(path) + 1)):
            taken.add((ti, path))
            kept.append(hit)
    return kept


def _reference_constant_candidates(terms: Sequence[Term]) -> list[Abstraction]:
    counts: dict[Term, int] = {}
    for term in terms:
        for _, node in iter_subterms(term):
            if isinstance(node, Node) and reference_term_size(node) >= tradeoff._MIN_CONST_SIZE:
                counts[node] = counts.get(node, 0) + 1
    ranked = [
        (occ * (reference_term_size(t) - 1) - reference_term_size(t), t)
        for t, occ in counts.items()
        if occ >= 2
    ]
    ranked = [(gain, t) for gain, t in ranked if gain > 0]
    ranked.sort(key=lambda pair: (-pair[0], reference_render_term(pair[1])))
    return [Abstraction((), t) for _, t in ranked]


def _reference_motif_candidates(terms: Sequence[Term]) -> list[Abstraction]:
    pool = sorted(
        {
            node
            for term in terms
            for _, node in iter_subterms(term)
            if isinstance(node, Node)
            and tradeoff._MIN_MOTIF_SIZE <= reference_term_size(node) <= tradeoff._MAX_WINDOW
        },
        key=reference_render_term,
    )

    def ground_nodes(a: Abstraction) -> int:
        return sum(1 for _, sub in iter_subterms(a.body) if isinstance(sub, Node))

    found: dict[tuple, Abstraction] = {}
    for i, left in enumerate(pool):
        for right in pool[i + 1 : i + 3]:
            if left.label != right.label or len(left.children) != len(right.children):
                continue
            cand = reference_lgg([left, right])
            if (
                1 <= len(cand.params) <= tradeoff._MAX_MOTIF_PARAMS
                and reference_term_size(cand.body) >= tradeoff._MIN_MOTIF_SIZE
                and ground_nodes(cand) >= tradeoff._MIN_GROUND_NODES
            ):
                found.setdefault((reference_render_term(cand.body), cand.params), cand)
    ranked = sorted(
        found.values(), key=lambda a: (-ground_nodes(a), reference_render_term(a.body))
    )
    return ranked[: tradeoff._MAX_CANDIDATES]


# ---------------------------------------------------------------------------
# Reference tree edit distance.  Plain Zhang-Shasha on the left decomposition
# only: labels and leftmost leaves from a recursive walk, a fresh
# forest-distance table for every keyroot pair, and costs.relabel called in
# the inner loop.  The production ted must agree with it exactly.


def _reference_label(t: Term) -> str:
    """A node's label for edit distance: a metavariable is a leaf named by
    its rendered text, ?name."""
    return "?" + t.name if isinstance(t, Var) else t.label


def _reference_annotate(root: Term) -> tuple[list[str], list[int], list[int]]:
    """Postorder labels, leftmost-leaf-descendant indices, and keyroots."""
    labels: list[str] = []
    lmld: list[int] = []

    def walk(t: Term) -> tuple[int, int]:
        first_leaf = -1
        for child in () if isinstance(t, Var) else t.children:
            _, leaf = walk(child)
            if first_leaf < 0:
                first_leaf = leaf
        index = len(labels)
        leaf = index if first_leaf < 0 else first_leaf
        labels.append(_reference_label(t))
        lmld.append(leaf)
        return index, leaf

    walk(root)
    last_with_lmld: dict[int, int] = {}
    for i, leaf in enumerate(lmld):
        last_with_lmld[leaf] = i
    return labels, lmld, sorted(last_with_lmld.values())


def reference_ted(t1: Term, t2: Term, costs: CostModel = UNIT_COSTS) -> float:
    labels1, lmld1, keyroots1 = _reference_annotate(t1)
    labels2, lmld2, keyroots2 = _reference_annotate(t2)
    n, m = len(labels1), len(labels2)
    dele, ins = costs.delete_cost, costs.insert_cost
    td = [[0.0] * m for _ in range(n)]

    for i in keyroots1:
        li = lmld1[i]
        for j in keyroots2:
            lj = lmld2[j]
            rows, cols = i - li + 2, j - lj + 2
            fd = [[0.0] * cols for _ in range(rows)]
            for x in range(1, rows):
                fd[x][0] = fd[x - 1][0] + dele
            for y in range(1, cols):
                fd[0][y] = fd[0][y - 1] + ins
            for x in range(1, rows):
                ix = x + li - 1
                for y in range(1, cols):
                    jy = y + lj - 1
                    if lmld1[ix] == li and lmld2[jy] == lj:
                        best = min(
                            fd[x - 1][y] + dele,
                            fd[x][y - 1] + ins,
                            fd[x - 1][y - 1] + costs.relabel(labels1[ix], labels2[jy]),
                        )
                        td[ix][jy] = best
                    else:
                        best = min(
                            fd[x - 1][y] + dele,
                            fd[x][y - 1] + ins,
                            fd[lmld1[ix] - li][lmld2[jy] - lj] + td[ix][jy],
                        )
                    fd[x][y] = best
    return td[n - 1][m - 1]


# ---------------------------------------------------------------------------
# Reference Lipschitz estimate: the sampling loop that instantiates and
# measures every sample.  estimate_lipschitz must return the same estimate.


def reference_estimate_lipschitz(
    a: Abstraction, samples: int, seed: int = 0, costs: CostModel = UNIT_COSTS
) -> LipschitzEstimate:
    if samples < 1:
        raise ZeroSamples("need at least one sample")
    used = term_variables(a.body)
    all_used = all(p in used for p in a.params)

    forward_k = 0.0
    inverse_ok = True
    for i in range(samples):
        rng = seeded("lipschitz", seed, i)
        base = tuple(
            random_ground_term(rng, rng.randint(1, 4), DEFAULT_ALPHABET) for _ in a.params
        )
        if a.params:
            coord = rng.randrange(len(a.params))
            changed = perturb(base[coord], rng.randrange(2**32))
            perturbed = base[:coord] + (changed,) + base[coord + 1:]
            d_in = ted(base[coord], changed, costs)
        else:
            perturbed = base
            d_in = 0.0
        d_out = ted(instantiate(a, base), instantiate(a, perturbed), costs)
        if d_out > 0:
            forward_k = max(forward_k, float("inf") if d_in == 0 else d_out / d_in)
        if d_in > d_out:
            inverse_ok = False
    return LipschitzEstimate(forward_k, inverse_ok, samples, seed, all_used)


# ---------------------------------------------------------------------------
# Reference C-fragment encoder: the recursive descent that precedence
# climbing replaced, one function per precedence level.  The production
# encoder must give the same term or the same EncodeError message.


_REFERENCE_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=")
_REFERENCE_COMPARE_OPS = ("==", "!=", "<", ">", "<=", ">=")
_REFERENCE_ADD_OPS = ("+", "-")
_REFERENCE_MUL_OPS = ("*", "/", "%")


class _ReferenceCursor:
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


def reference_encode_expression(text: str) -> Term:
    """Encode a single C-family expression as a term."""
    cur = _ReferenceCursor(tokenize(text))
    term = _reference_expression(cur)
    if not cur.done():
        raise EncodeError(f"trailing input at token {cur.peek()!r}")
    return term


def reference_encode_function(text: str) -> Term:
    """Encode a function definition, optionally under a template header."""
    cur = _ReferenceCursor(tokenize(text))
    term = _reference_function(cur)
    if not cur.done():
        raise EncodeError(f"trailing input at token {cur.peek()!r}")
    return term


def _reference_expression(cur: _ReferenceCursor) -> Term:
    return _reference_assignment(cur)


def _reference_assignment(cur: _ReferenceCursor) -> Term:
    left = _reference_comparison(cur)
    if cur.peek() in _REFERENCE_ASSIGN_OPS:
        op = cur.next()
        right = _reference_assignment(cur)  # right associative
        return Node(op, (left, right))
    return left


def _reference_binary(cur: _ReferenceCursor, operators: tuple[str, ...], operand) -> Term:
    left = operand(cur)
    while cur.peek() in operators:
        op = cur.next()
        left = Node(op, (left, operand(cur)))
    return left


def _reference_comparison(cur: _ReferenceCursor) -> Term:
    return _reference_binary(cur, _REFERENCE_COMPARE_OPS, _reference_additive)


def _reference_additive(cur: _ReferenceCursor) -> Term:
    return _reference_binary(cur, _REFERENCE_ADD_OPS, _reference_multiplicative)


def _reference_multiplicative(cur: _ReferenceCursor) -> Term:
    return _reference_binary(cur, _REFERENCE_MUL_OPS, _reference_unary)


def _reference_unary(cur: _ReferenceCursor) -> Term:
    head = cur.peek()
    if head == "*":
        cur.next()
        return Node("deref", (_reference_unary(cur),))
    if head == "++":
        cur.next()
        return Node("preinc", (_reference_unary(cur),))
    if head == "--":
        cur.next()
        return Node("predec", (_reference_unary(cur),))
    if head == "-":
        cur.next()
        return Node("neg", (_reference_unary(cur),))
    return _reference_postfix(cur)


def _reference_postfix(cur: _ReferenceCursor) -> Term:
    term = _reference_primary(cur)
    while True:
        head = cur.peek()
        if head == "(":
            cur.next()
            args = _reference_arguments(cur)
            if isinstance(term, Node) and not term.children:
                term = Node(term.label, args)  # call through an identifier
            else:
                term = Node("call", (term,) + args)
        elif head == "[":
            cur.next()
            index = _reference_expression(cur)
            cur.expect("]")
            term = Node("index", (term, index))
        elif head == "." and cur.kind() == "punctuator":
            cur.next()
            member = cur.next()
            term = Node("member", (term, Node(member)))
        else:
            return term


def _reference_arguments(cur: _ReferenceCursor) -> tuple[Term, ...]:
    if cur.peek() == ")":
        cur.next()
        return ()
    args = [_reference_expression(cur)]
    while cur.peek() == ",":
        cur.next()
        args.append(_reference_expression(cur))
    cur.expect(")")
    return tuple(args)


def _reference_primary(cur: _ReferenceCursor) -> Term:
    if cur.peek() == "(":
        cur.next()
        term = _reference_expression(cur)
        cur.expect(")")
        return term
    kind = cur.kind()
    if kind in ("identifier", "keyword", "number"):
        return Node(cur.next())
    raise EncodeError(f"unexpected token {cur.peek()!r}")


def _reference_function(cur: _ReferenceCursor) -> Term:
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
        inner = _reference_function(cur)
        return Node("template", (Node("tparams", tuple(tparams)), inner))

    ret = _reference_type(cur)
    name = cur.next()
    cur.expect("(")
    params = []
    if cur.peek() != ")":
        while True:
            ptype = _reference_type(cur)
            pname = cur.next()
            params.append(Node("param", (ptype, Node(pname))))
            if cur.peek() == ",":
                cur.next()
                continue
            break
    cur.expect(")")
    body = _reference_block(cur)
    return Node("fn", (Node(name), ret, Node("params", tuple(params)), body))


def _reference_type(cur: _ReferenceCursor) -> Term:
    if cur.kind() not in ("identifier", "keyword"):
        raise EncodeError(f"expected a type, found {cur.peek()!r}")
    t: Term = Node(cur.next())
    while cur.peek() == "*":
        cur.next()
        t = Node("ptr", (t,))
    return t


def _reference_block(cur: _ReferenceCursor) -> Term:
    cur.expect("{")
    stmts = []
    while cur.peek() != "}":
        stmts.append(_reference_statement(cur))
    cur.next()
    return Node("block", tuple(stmts))


def _reference_statement(cur: _ReferenceCursor) -> Term:
    head = cur.peek()
    if head == "{":
        return _reference_block(cur)
    if head == "return":
        cur.next()
        value = _reference_expression(cur)
        cur.expect(";")
        return Node("return", (value,))
    if head == "for":
        cur.next()
        cur.expect("(")
        init: Term = Node("empty") if cur.peek() == ";" else _reference_simple_statement(cur)
        cur.expect(";")
        cond: Term = Node("empty") if cur.peek() == ";" else _reference_expression(cur)
        cur.expect(";")
        step: Term = Node("empty") if cur.peek() == ")" else _reference_expression(cur)
        cur.expect(")")
        body = _reference_statement(cur)
        return Node("for", (init, cond, step, body))
    stmt = _reference_simple_statement(cur)
    cur.expect(";")
    return stmt


def _reference_simple_statement(cur: _ReferenceCursor) -> Term:
    # A declaration when two identifier-ish tokens stand side by side
    # ("double s", "int i"); otherwise an expression statement.
    if cur.kind() in ("identifier", "keyword") and _reference_looks_like_declarator(cur):
        dtype = _reference_type(cur)
        name = cur.next()
        if cur.peek() == "=":
            cur.next()
            return Node("decl", (dtype, Node(name), _reference_expression(cur)))
        return Node("decl", (dtype, Node(name)))
    return Node("expr", (_reference_expression(cur),))


def _reference_looks_like_declarator(cur: _ReferenceCursor) -> bool:
    ahead = 1
    while cur.peek(ahead) == "*":
        ahead += 1
    nxt = cur.peek(ahead)
    return bool(nxt) and (nxt[0].isalpha() or nxt[0] == "_")
