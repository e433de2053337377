"""Seeded random generation of ground terms and abstractions.

Shared by the viscosity estimator, the synthetic-corpus generator, and the
test suite.  Everything is a pure function of the supplied Random instance,
so callers control determinism by how they seed.
"""

from __future__ import annotations

import random
from typing import Sequence

from .term import Abstraction, Node, Term, Var, iter_subterms, replace_at

DEFAULT_ALPHABET: tuple[str, ...] = ("a", "b", "c", "f", "g", "h", "p", "q")
_MAX_ARITY = 3


def seeded(*parts: object) -> random.Random:
    """A Random stream keyed by the given parts (string seeding hashes with
    sha512, so streams are stable across processes)."""
    return random.Random(":".join(str(p) for p in parts))


def random_partition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` positive integers, uniformly over cuts."""
    if parts == 1:
        return [total]
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def random_ground_term(
    rng: random.Random, size: int, alphabet: Sequence[str] = DEFAULT_ALPHABET
) -> Term:
    """A uniform-ish random ordered tree with exactly ``size`` nodes, each
    with at most _MAX_ARITY children."""
    if size < 1:
        raise ValueError("size must be positive")
    label = rng.choice(alphabet)
    if size == 1:
        return Node(label)
    arity = rng.randint(1, min(_MAX_ARITY, size - 1))
    parts = random_partition(rng, size - 1, arity)
    return Node(label, tuple(random_ground_term(rng, p, alphabet) for p in parts))


def leaf_paths(t: Term) -> list[tuple[int, ...]]:
    return [path for path, sub in iter_subterms(t) if isinstance(sub, Node) and not sub.children]


def random_abstraction(
    rng: random.Random,
    body_size: int,
    n_params: int,
    max_occurrences: int = 2,
) -> Abstraction:
    """A random abstraction whose every parameter occurs at least once.

    Parameters are placed on leaf positions of a random ground skeleton;
    each may occupy up to ``max_occurrences`` leaves.
    """
    if n_params < 0:
        raise ValueError("n_params must be nonnegative")
    for _ in range(200):
        body = random_ground_term(rng, body_size)
        leaves = leaf_paths(body)
        if len(leaves) >= n_params:
            break
    else:
        raise ValueError(f"could not fit {n_params} parameters in {body_size} nodes")
    rng.shuffle(leaves)
    taken = 0
    for i in range(n_params):
        # leave enough leaves for the parameters still to come
        budget = len(leaves) - taken - (n_params - i - 1)
        occurrences = min(rng.randint(1, max_occurrences), budget)
        for _ in range(occurrences):
            body = replace_at(body, leaves[taken], Var(f"p{i}"))
            taken += 1
    return Abstraction(tuple(f"p{i}" for i in range(n_params)), body)
