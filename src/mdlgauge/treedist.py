"""Ordered tree edit distance between terms.

``ted`` is the Zhang-Shasha keyroot algorithm, run on whichever side of the
two trees needs fewer subproblems: as given, or with both trees mirrored
(children reversed).  The left decomposition makes every node that has a
left sibling a keyroot, so a right-spined comb costs it cubic time while
its mirror image is cheap; mirroring both trees leaves the distance
unchanged.  This is the two-strategy case of RTED (Pawlik & Augsten, PVLDB
2011).  Whole-number costs are summed as exact ints, which come out as the
float sums would, bit for bit, and cost less to add; other costs are summed
as floats.  A distance too large for a float raises ValueError.

On whole-number costs, no keyroot pair that holds a leaf is run.  The
forest recurrence reads the distance between two subtrees only in its
branch that matches their roots to each other, so for a leaf ``a`` and a
subtree ``T`` rooted at ``b`` it needs only ``relabel(a, b) + (|T| - 1) *
insert`` (or ``delete`` when the leaf is in the second tree).  Those
entries are filled in directly, once per leaf label, and the keyroot loops
run only over the keyroots that are not leaves: the root alone in a left
or right comb, about half of them in a zig-zag comb.  A single-node input
is a closed form, ``(|T| - 1) * insert + min(delete + insert, min over b
in T of relabel(a, b))``, and does not reach the loops.  Fractional costs
still run every keyroot pair, since float sums taken in another order can
differ in the last bits.

``ted_oracle`` recomputes the same minimum by brute memoized
recursion over forests and exists purely to cross-check ``ted`` on small
inputs.  Both read only the terms' ``label`` and ``children``; a
metavariable is a leaf labelled ``?name``, so both work on patterns too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .term import Term


class SizeLimitExceeded(ValueError):
    pass


@dataclass(frozen=True)
class CostModel:
    """Per-operation costs; relabeling between equal labels is free."""

    insert_cost: float = 1.0
    delete_cost: float = 1.0
    relabel_cost: float = 1.0

    def __post_init__(self):
        # Written so that NaN fails too, and so does an int too large to
        # become a float, which ted would meet as an OverflowError.
        if not all(
            0 <= c <= sys.float_info.max
            for c in (self.insert_cost, self.delete_cost, self.relabel_cost)
        ):
            raise ValueError("edit costs must be finite and nonnegative")

    def relabel(self, a: str, b: str) -> float:
        return 0.0 if a == b else self.relabel_cost


UNIT_COSTS = CostModel()


def _postorder(root: Term, mirrored: bool, ids: dict[str, int]) -> tuple[list[int], list[int]]:
    """Label ids and leftmost-leaf indices of ``root``'s nodes in post-order,
    children taken right to left when ``mirrored``.  ``ids`` numbers the
    labels and grows as new ones appear."""
    labels: list[int] = []
    lmld: list[int] = []
    stack: list[tuple[Term, int]] = [(root, -1)]
    while stack:
        t, first = stack.pop()
        kids = t.children
        if first < 0 and kids:
            # Every node of t's subtree is numbered after this point, and
            # the first of them is its leftmost leaf.
            stack.append((t, len(labels)))
            for kid in kids if mirrored else reversed(kids):
                stack.append((kid, -1))
        else:
            lmld.append(len(labels) if first < 0 else first)
            labels.append(ids.setdefault(t.label, len(ids)))
    return labels, lmld


def _keyroots(lmld: list[int]) -> list[int]:
    """The highest node on each leftmost path, in post-order."""
    last_with_lmld = {leaf: i for i, leaf in enumerate(lmld)}
    return sorted(last_with_lmld.values())


def _decomposition_costs(lmld: list[int], keyroots: list[int]) -> tuple[int, int]:
    """Summed subtree sizes over the keyroots of the left decomposition and
    over those of the mirrored one.  A mirrored keyroot is the root or a
    node that is not its parent's last child; a last child is directly
    followed by its parent in post-order."""
    n = len(lmld)
    left = sum(k - lmld[k] + 1 for k in keyroots)
    right = n + sum(i - lmld[i] + 1 for i in range(n - 1) if lmld[i + 1] > i)
    return left, right


def ted(t1: Term, t2: Term, costs: CostModel = UNIT_COSTS) -> float:
    """Minimal total cost of node inserts, deletes, and relabels turning
    t1 into t2 (children order significant)."""
    ids1: dict[str, int] = {}
    ids2: dict[str, int] = {}
    labels1, lmld1 = _postorder(t1, False, ids1)
    labels2, lmld2 = _postorder(t2, False, ids2)
    n, m = len(labels1), len(labels2)
    dele, ins = costs.delete_cost, costs.insert_cost
    # relabel_by_id[label id of t1][label id of t2]; mirroring renumbers
    # no label.
    relabel_by_id = [[costs.relabel(a, b) for b in ids2] for a in ids1]
    # Whole-number costs are summed as ints: no sum can pass
    # 2 * (n + m + 1) * the dearest cost, and below 2**53 floats hold every
    # such sum exactly, so the result is the float one bit for bit.  Small
    # ints are shared objects, where every float sum allocates a new one.
    read = [dele, ins, *(c for row in relabel_by_id for c in row)]
    zero = 0.0
    exact = all(float(c).is_integer() for c in read) and 2 * (n + m + 1) * max(read) < 2**53
    if exact:
        zero, dele, ins = 0, int(dele), int(ins)
        relabel_by_id = [[int(c) for c in row] for row in relabel_by_id]
        # A lone node a either goes while all of the other tree T comes, or
        # becomes one node b of T while the rest comes, and T holds every
        # label in ids2 (or ids1): (|T| - 1) insert + min(delete + insert,
        # min over b of relabel(a, b)), and the same with insert and delete
        # swapped when the lone node is t2.
        if n == 1:
            return float((m - 1) * ins + min(dele + ins, *relabel_by_id[0]))
        if m == 1:
            return float((n - 1) * dele + min(dele + ins, *(row[0] for row in relabel_by_id)))

    keyroots1, keyroots2 = _keyroots(lmld1), _keyroots(lmld2)
    # Zhang-Shasha fills (sum over keyroots of t1 of their subtree sizes)
    # times (the same sum for t2) forest-distance cells.  Mirroring both
    # trees keeps the distance and turns right paths into left paths, so
    # run on whichever side fills fewer.
    left1, right1 = _decomposition_costs(lmld1, keyroots1)
    left2, right2 = _decomposition_costs(lmld2, keyroots2)
    if right1 * right2 < left1 * left2:
        labels1, lmld1 = _postorder(t1, True, ids1)
        labels2, lmld2 = _postorder(t2, True, ids2)
        keyroots1, keyroots2 = _keyroots(lmld1), _keyroots(lmld2)

    # Columns are t2's post-order indices shifted by one: column c stands
    # for node c - 1, and column lmld2[j] is the empty forest in front of
    # keyroot j's subtree.  Rows do the same for t1.  Then one buffer serves
    # every keyroot pair, and a forest that starts at node k's leftmost leaf
    # sits at row lmld1[k] or column lmld2[k] without any offset.
    lead2 = [0] + lmld2
    # relabel_to[label id of t1][column]
    relabel_to = [[zero] + [by_id[b] for b in labels2] for by_id in relabel_by_id]
    # inserts[y] and deletes[x]: the border costs, summed one at a time
    inserts = [zero] * (m + 1)
    for y in range(1, m + 1):
        inserts[y] = inserts[y - 1] + ins
    deletes = [zero] * (n + 1)
    for x in range(1, n + 1):
        deletes[x] = deletes[x - 1] + dele
    td = [[zero] * (m + 1) for _ in range(n)]
    if exact:
        # The forest recurrence reads td[x][y] only in its branch that
        # matches x to y (deleting x and inserting y are the other two), so
        # td[x][y] may hold the cheapest edit that matches x to y.  With x a
        # leaf, that is relabel(x, y) and inserting the rest of T2[y]; with
        # y a leaf, relabel(x, y) and deleting the rest of T1[x].  Such rows
        # and columns, one per label, stand in for every keyroot pair with a
        # leaf in it, and the loops keep the pairs of inner keyroots, the
        # roots' pair among them, which writes the answer.  No loop writes
        # to a leaf keyroot's row, so leaves with one label share it.
        below1 = [deletes[x - l] for x, l in enumerate(lmld1)]
        leaf_columns: dict[int, list[int]] = {}
        for j in keyroots2:
            if lmld2[j] == j:
                b = labels2[j]
                if b not in leaf_columns:
                    leaf_columns[b] = [d + relabel_by_id[a][b] for d, a in zip(below1, labels1)]
                for row, cost in zip(td, leaf_columns[b]):
                    row[j + 1] = cost
        below2 = [zero] + [inserts[y - l] for y, l in enumerate(lmld2)]
        leaf_rows: dict[int, list[int]] = {}
        for i in keyroots1:
            if lmld1[i] == i:
                a = labels1[i]
                if a not in leaf_rows:
                    leaf_rows[a] = [d + r for d, r in zip(below2, relabel_to[a])]
                td[i] = leaf_rows[a]
        keyroots1 = [i for i in keyroots1 if lmld1[i] < i]
        keyroots2 = [j for j in keyroots2 if lmld2[j] < j]
    fd = [[zero] * (m + 1) for _ in range(n + 1)]

    for i in keyroots1:
        li = lmld1[i]
        # What row ix + 1 reads, the same for every keyroot of t2: the row
        # above, its own row, its td row, its border cost, the row of the
        # forest in front of ix's subtree, and, when ix is on i's leftmost
        # path, its relabel costs (a node pair on both leftmost paths is a
        # subtree distance, kept in td).
        rows = [
            (
                fd[ix],
                fd[ix + 1],
                td[ix],
                deletes[ix - li + 1],
                fd[lmld1[ix]],
                relabel_to[labels1[ix]] if lmld1[ix] == li else None,
            )
            for ix in range(li, i + 1)
        ]
        for j in keyroots2:
            lj = lmld2[j]
            cols = range(lj + 1, j + 2)
            fd[li][lj : j + 2] = inserts[: j - lj + 2]
            for prev, cur, tdrow, border, before, rel in rows:
                best = cur[lj] = border
                if rel is not None:
                    for c in cols:
                        cost = best + ins
                        best = prev[c] + dele
                        if cost < best:
                            best = cost
                        lc = lead2[c]
                        if lc == lj:
                            cost = prev[c - 1] + rel[c]
                            if cost < best:
                                best = cost
                            tdrow[c] = best
                        else:
                            cost = before[lc] + tdrow[c]
                            if cost < best:
                                best = cost
                        cur[c] = best
                else:
                    for c in cols:
                        cost = best + ins
                        best = prev[c] + dele
                        if cost < best:
                            best = cost
                        cost = before[lead2[c]] + tdrow[c]
                        if cost < best:
                            best = cost
                        cur[c] = best
    distance = float(td[n - 1][m])
    if not math.isfinite(distance):
        raise ValueError("the edit distance overflows: the costs are too large")
    return distance


_ORACLE_LIMIT = 10


def ted_oracle(t1: Term, t2: Term, costs: CostModel = UNIT_COSTS) -> float:
    """Reference distance by exhaustive memoized recursion on forests.

    Only accepts trees of up to 10 nodes each; exponential blowup is
    acceptable at that scale and the simplicity is the point.
    """
    if t1.size > _ORACLE_LIMIT or t2.size > _ORACLE_LIMIT:
        raise SizeLimitExceeded(f"ted_oracle accepts at most {_ORACLE_LIMIT} nodes per tree")
    dele, ins = costs.delete_cost, costs.insert_cost
    memo: dict[tuple, float] = {}

    def dist(f1: tuple[Term, ...], f2: tuple[Term, ...]) -> float:
        if not f1 and not f2:
            return 0.0
        key = (f1, f2)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if not f1:
            w = f2[-1]
            value = dist((), f2[:-1] + w.children) + ins
        elif not f2:
            v = f1[-1]
            value = dist(f1[:-1] + v.children, ()) + dele
        else:
            v, w = f1[-1], f2[-1]
            value = min(
                dist(f1[:-1] + v.children, f2) + dele,
                dist(f1, f2[:-1] + w.children) + ins,
                dist(v.children, w.children)
                + dist(f1[:-1], f2[:-1])
                + costs.relabel(v.label, w.label),
            )
        memo[key] = value
        return value

    return dist((t1,), (t2,))
