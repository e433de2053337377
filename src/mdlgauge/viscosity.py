"""Sampling-based Lipschitz estimates for abstractions.

An abstraction is comfortable to evolve when a small change to the desired
instance needs only a small change to the parameters.  We probe that by
perturbing argument tuples and comparing edit distance on the parameter
side (d_in) with edit distance between the instantiations (d_out):
``forward_k`` is the largest observed amplification d_out/d_in, and
``inverse_ok`` records whether d_in <= d_out held on every sample.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sampling import DEFAULT_ALPHABET, random_ground_term, seeded
from .term import (
    Abstraction,
    Node,
    Term,
    instantiate,
    iter_subterms,
    replace_at,
    subterm_at,
    term_variables,
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


def estimate_lipschitz(
    a: Abstraction,
    samples: int,
    seed: int = 0,
    costs: CostModel = UNIT_COSTS,
) -> LipschitzEstimate:
    """Estimate the Lipschitz behavior of ``a`` over seeded random samples.

    Each sample draws a random ground argument tuple, perturbs one
    coordinate, and measures d_in (summed parameter distance) against
    d_out (distance between the two instantiations).  Every sample gets
    its own PRNG stream derived from (seed, sample index), so results do
    not depend on evaluation order.  Parameters that never occur in the
    body make the inverse direction meaningless; the estimate is still
    produced but flagged via ``all_params_used``.
    """
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
            # the other coordinates are unchanged and contribute ted(x, x) == 0
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
