"""Description-length scoring of candidate components against use cases.

A use case is its name.  A candidate's cost is the token count of the
component itself plus the token count of all the code written to adapt it
to each named use case (or, where it cannot be applied, to implement that
use case from scratch; both count alike).  The candidate minimizing the
total is the recommended level of generality, and the totals along a
least-to-most-general chain are checked for the expected U shape.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .lexcount import tokenize


class MissingAdaptation(ValueError):
    pass


class EmptyCandidateList(ValueError):
    pass


@dataclass(frozen=True)
class Candidate:
    """One component in a generality chain, with its adaptation source for
    each use case, keyed by the use case's name.

    ``shared_source`` holds scaffolding shared by several adaptations (for
    example a helper functor); it is counted once.  Where the component
    cannot serve a use case at all, its entry in ``adaptations`` is a
    from-scratch implementation, counted like any other adaptation.
    """

    name: str
    chain_index: int
    component_source: str
    adaptations: Mapping[str, str]
    shared_source: str = ""


@dataclass(frozen=True)
class MdlScore:
    component_tokens: int
    adaptation_tokens: int

    @property
    def total(self) -> int:
        return self.component_tokens + self.adaptation_tokens


@dataclass(frozen=True)
class MdlReport:
    """Scores for a candidate chain, keyed by candidate name, with the
    winner and the unimodality verdict over totals in chain order."""

    candidates: tuple[Candidate, ...]  # sorted by chain_index
    scores: Mapping[str, MdlScore]
    winner: str
    u_shaped: bool
    min_index: int


def score_candidate(
    c: Candidate, uses: Iterable[str], dialect: str = "cpp-like"
) -> MdlScore:
    """Token cost of the component plus all adaptation code for the use
    cases named in ``uses``."""
    component = len(tokenize(c.component_source, dialect))
    adaptation = len(tokenize(c.shared_source, dialect))
    for use in uses:
        source = c.adaptations.get(use)
        if source is None:
            raise MissingAdaptation(f"candidate {c.name!r} has no adaptation for use case {use!r}")
        adaptation += len(tokenize(source, dialect))
    return MdlScore(component, adaptation)


def rank_candidates(
    cands: Sequence[Candidate], uses: Iterable[str], dialect: str = "cpp-like"
) -> MdlReport:
    """Score every candidate and pick the minimum-total one.

    Ties break toward the smaller chain_index (the less general candidate).
    The input order is irrelevant; the chain order comes from chain_index.
    """
    if not cands:
        raise EmptyCandidateList("no candidates to rank")
    indices = [c.chain_index for c in cands]
    if len(set(indices)) != len(indices):
        raise ValueError("chain_index values must be distinct")
    uses = tuple(uses)
    chain = tuple(sorted(cands, key=lambda c: c.chain_index))
    scores = {c.name: score_candidate(c, uses, dialect) for c in chain}
    winner = min(chain, key=lambda c: (scores[c.name].total, c.chain_index)).name
    totals = [scores[c.name].total for c in chain]
    u_shaped, min_index = check_unimodal(totals)
    return MdlReport(chain, scores, winner, u_shaped, min_index)


def check_unimodal(totals: Sequence[int]) -> tuple[bool, int]:
    """Whether ``totals`` falls (or stays flat) and then rises (or stays
    flat), plus the index of the first global minimum."""
    if not totals:
        raise ValueError("totals must be non-empty")
    rising = False
    u_shaped = True
    for prev, cur in zip(totals, totals[1:]):
        if cur > prev:
            rising = True
        elif cur < prev and rising:
            u_shaped = False
            break
    return u_shaped, totals.index(min(totals))


def report_csv(report: MdlReport) -> str:
    """Render a report as CSV: one row per candidate in chain order, then a
    summary line with the U-shape verdict."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["name", "chain_index", "component_tokens", "adaptation_tokens", "total", "winner_flag"]
    )
    for c in report.candidates:
        score = report.scores[c.name]
        writer.writerow(
            [
                c.name,
                c.chain_index,
                score.component_tokens,
                score.adaptation_tokens,
                score.total,
                1 if c.name == report.winner else 0,
            ]
        )
    writer.writerow(["u_shaped", "true" if report.u_shaped else "false", "min_index", report.min_index])
    return out.getvalue()
