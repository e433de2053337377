"""Sampling-based Lipschitz estimates for abstractions.

An abstraction is comfortable to evolve when a small change to the desired
instance needs only a small change to the parameters.  We probe that by
perturbing argument tuples and comparing edit distance on the parameter
side (d_in) with edit distance between the instantiations (d_out):
``forward_k`` is the largest observed amplification d_out/d_in, and
``inverse_ok`` records whether d_in <= d_out held on every sample.

With whole-number costs, two exact bounds on d_out settle most samples
without computing it: a parameter that occurs c times in the body moves
the instance by at most c * d_in, and by at least c times a label-count
lower bound on the argument's own distance.  A sample whose d_out cannot
change ``forward_k`` or ``inverse_ok`` is not instantiated or measured;
the estimate is the same as measuring every sample.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .sampling import DEFAULT_ALPHABET, random_ground_term, seeded
from .term import (
    Abstraction,
    Node,
    Term,
    Var,
    instantiate,
    iter_subterms,
    replace_at,
    subterm_at,
)
from .treedist import UNIT_COSTS, CostModel, ted


class ZeroSamples(ValueError):
    pass


@dataclass(frozen=True)
class LipschitzEstimate:
    forward_k: float
    inverse_ok: bool
    samples: int
    seed: int
    all_params_used: bool = True


_LEAF_POOL = ("a", "b", "c", "s", "r", "1", "0")
_WRAP_POOL = ("f", "g", "h", "+", "*")


def perturb(t: Term, seed: int) -> Term:
    """Apply one small seeded edit (relabel, insert, or delete) to a ground
    term; the result always differs from the input."""
    if not t.ground:
        raise ValueError("perturb expects a ground term")
    rng = seeded("perturb", seed)
    nodes = list(iter_subterms(t))
    ops = ["relabel", "insert"]
    if len(nodes) > 1:
        ops.append("delete")
    op = rng.choice(ops)

    if op == "relabel":
        path, node = rng.choice(nodes)
        pool = [lbl for lbl in _WRAP_POOL + _LEAF_POOL if lbl != node.label]
        return replace_at(t, path, Node(rng.choice(pool), node.children))

    if op == "insert":
        style = rng.choice(("wrap", "wrap-pair", "leaf"))
        if style == "leaf":
            path, node = rng.choice(nodes)
            pos = rng.randint(0, len(node.children))
            kids = node.children[:pos] + (Node(rng.choice(_LEAF_POOL)),) + node.children[pos:]
            return replace_at(t, path, Node(node.label, kids))
        path, node = rng.choice(nodes)
        if style == "wrap":
            return replace_at(t, path, Node(rng.choice(_WRAP_POOL), (node,)))
        # wrap-pair turns s into something like (+ s 1)
        return replace_at(t, path, Node(rng.choice(_WRAP_POOL), (node, Node(rng.choice(_LEAF_POOL)))))

    path, node = rng.choice(nodes[1:])  # never the root
    parent_path, pos = path[:-1], path[-1]
    parent = subterm_at(t, parent_path)
    kids = parent.children[:pos] + node.children + parent.children[pos + 1:]
    return replace_at(t, parent_path, Node(parent.label, kids))


def _exact_relabel_floor(
    a: Abstraction, occurrences: dict[str, int], costs: CostModel
) -> Optional[float]:
    """The cheapest way to turn one label into another that a sample's
    terms can carry, ``min(insert + delete, relabel(p, q))`` over distinct
    labels p and q, or None when the distance bounds are not exact in
    floats.  They are exact when every cost is a nonnegative whole number,
    a label relabels to itself for free, and ``ted`` sums the largest
    instance a sample can build in exact ints: an argument has at most 4
    nodes and its perturbation 2 more."""
    labels = {t.label for _, t in iter_subterms(a.body) if not isinstance(t, Var)}
    labels.update(DEFAULT_ALPHABET, _LEAF_POOL, _WRAP_POOL)
    if any(costs.relabel(p, p) != 0 for p in labels):
        return None
    ins, dele = costs.insert_cost, costs.delete_cost
    read = [ins, dele, *(costs.relabel(p, q) for p in labels for q in labels if p != q)]
    if not all(c >= 0 and float(c).is_integer() for c in read):
        return None
    # Each occurrence, a leaf of the body, becomes at most 6 nodes.
    largest = a.body.size + 5 * sum(occurrences.values())
    if 2 * (2 * largest + 1) * max(read) >= 2**53:
        return None
    return min(ins + dele, *read[2:])


def _label_lower_bound(x: Term, y: Term, costs: CostModel, relabel_floor: float) -> float:
    """A lower bound on ``ted(x, y)`` (Kailing et al., EDBT 2004): at most
    min(|x|, |y|) node pairs are mapped, every other node is deleted or
    inserted, and a mapped pair costs nothing only if its labels are
    equal, which no more pairs can be than x and y share labels."""
    m = min(x.size, y.size)
    labels_x, labels_y = (Counter(t.label for _, t in iter_subterms(u)) for u in (x, y))
    common = sum((labels_x & labels_y).values())
    return (
        (x.size - m) * costs.delete_cost
        + (y.size - m) * costs.insert_cost
        + (m - common) * relabel_floor
    )


def estimate_lipschitz(
    a: Abstraction,
    samples: int,
    seed: int = 0,
    costs: CostModel = UNIT_COSTS,
) -> LipschitzEstimate:
    """Estimate the Lipschitz behavior of ``a`` over seeded random samples.

    Each sample draws a random ground argument tuple, perturbs one
    coordinate, and measures d_in (the perturbed coordinate's distance;
    the others are unchanged) against d_out (distance between the two
    instantiations).  Every sample gets its own PRNG stream derived from
    (seed, sample index), so results do not depend on evaluation order.
    Parameters that never occur in the body make the inverse direction
    meaningless; the estimate is still produced but flagged via
    ``all_params_used``.

    Let the perturbed parameter occur c times in the body.  Then
    d_out <= c * d_in: keep the shared context and apply the best edit
    script of the argument at each occurrence.  And d_out >= c * LB, where
    LB is ``_label_lower_bound`` of the argument and its perturbation: the
    context adds the same nodes and labels to both instances, so their
    bound is exactly c times the arguments'.  When both bounds are exact
    (see ``_exact_relabel_floor``), a sample is neither instantiated nor
    measured if c <= forward_k (or d_in == 0) and either inverse_ok is
    already False or c * LB >= d_in, since its d_out could change neither.
    The estimate equals the one that measures every sample, and the first
    sample to reach the final ``forward_k`` is always measured.
    """
    if samples < 1:
        raise ZeroSamples("need at least one sample")
    occurrences = dict.fromkeys(a.params, 0)
    for _, sub in iter_subterms(a.body):
        if isinstance(sub, Var):
            occurrences[sub.name] += 1
    all_used = all(occurrences.values())
    relabel_floor = _exact_relabel_floor(a, occurrences, costs)

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
            # the other coordinates are unchanged and contribute ted(x, x) == 0
            d_in = ted(base[coord], changed, costs)
            c = occurrences[a.params[coord]]
        else:
            perturbed = base
            d_in = 0.0
            c = 0
        # d_in == 0 forces d_out == 0, which changes nothing.
        if relabel_floor is not None and (
            d_in == 0
            or (
                c <= forward_k
                and (
                    not inverse_ok
                    or c * _label_lower_bound(base[coord], changed, costs, relabel_floor) >= d_in
                )
            )
        ):
            continue
        d_out = ted(instantiate(a, base), instantiate(a, perturbed), costs)
        if d_out > 0:
            forward_k = max(forward_k, float("inf") if d_in == 0 else d_out / d_in)
        if d_in > d_out:
            inverse_ok = False
    return LipschitzEstimate(forward_k, inverse_ok, samples, seed, all_used)
