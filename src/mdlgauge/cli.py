"""Command-line surface: tokenize, mdl, match, unify, lgg, ted, lipschitz,
and tradeoff subcommands.  Wherever a term is read, a ``*.cpp`` file is
encoded as a function by ``mdlgauge.encode``.  Files are read as UTF-8.
Each call parses once, with a parser built from one table of commands for
the named command alone, or for every command when none is named first.
Reports are written as UTF-8, to stdout as to ``--out``.

Exit status is 0 on success, 1 on a domain failure (a failed match or
unification under --strict), and 2 on usage or input errors.  Reports are
CSV with fixed field order and 6-digit decimals, and files are written via
write-then-rename so an error never leaves a partial report behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .encode import encode_function
from .lexcount import DIALECTS, tokenize
from .mdl import Candidate, rank_candidates, report_csv
from .term import (
    lgg,
    match_term,
    parse_abstraction,
    parse_term,
    render_abstraction,
    render_substitution,
    unify,
)
from .tradeoff import DomainSpec, emit_tradeoff_points
from .treedist import CostModel, ted
from .viscosity import estimate_lipschitz

SEED_ENV_VAR = "MDLGAUGE_SEED"


class UsageError(ValueError):
    pass


class InputError(ValueError):
    pass


class ManifestInvalid(ValueError):
    def __init__(self, problems: list[str]):
        super().__init__("invalid manifest:\n  " + "\n  ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class ScenarioManifest:
    tokenizer_dialect: str
    use_cases: tuple[str, ...]
    candidates: tuple[Candidate, ...]


def load_manifest(path: str | Path) -> ScenarioManifest:
    """Load and validate a scenario manifest, reading every referenced
    source file.  All violations are reported together.  A use case's
    ``description`` and a candidate's ``inapplicable`` list are checked
    but not kept: the score reads neither."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read manifest {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 at byte offset {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"manifest {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"manifest {path} is nested too deeply") from exc

    if not isinstance(raw, dict):
        raise ManifestInvalid([f"manifest must be an object, not {_json_kind(raw)}"])
    problems: list[str] = []
    base = path.parent

    def typed(value, kind: type, what: str):
        """``value`` if it is a ``kind``; otherwise None, with the problem
        recorded."""
        if isinstance(value, kind):
            return value
        problems.append(f"{what} must be {_json_kind(kind())}, not {_json_kind(value)}")
        return None

    dialect = raw.get("tokenizer_dialect", "cpp-like")
    if dialect not in DIALECTS:
        problems.append(f"unknown tokenizer_dialect {dialect!r}")

    def named(key: str, what: str):
        """``(name, entry)`` for each object listed under ``key`` whose name
        is a string, with the problems of every entry recorded."""
        seen = set()
        for i, entry in enumerate(typed(raw.get(key, []), list, key) or []):
            if typed(entry, dict, f"{what} {i}") is None:
                continue
            name = typed(entry.get("name", ""), str, f"{what} {i}: name")
            if name is None:
                continue
            if not name:
                problems.append(f"{what} without a name")
            elif name in seen:
                problems.append(f"duplicate {what} {name!r}")
            seen.add(name)
            yield name, entry

    use_cases = []
    for name, entry in named("use_cases", "use case"):
        typed(entry.get("description", ""), str, f"use case {name!r}: description")
        use_cases.append(name)
    known = set(use_cases)

    def read_source(rel: str, owner: str) -> str:
        try:
            return (base / rel).read_text(encoding="utf-8")
        except OSError:
            problems.append(f"{owner}: missing or unreadable file {rel!r}")
        except UnicodeDecodeError as exc:
            problems.append(f"{owner}: {rel}: not valid UTF-8 at byte offset {exc.start}")
        return ""

    candidates = []
    chain_indices = set()
    for name, entry in named("candidates", "candidate"):
        owner = f"candidate {name!r}"
        chain_index = entry.get("chain_index")
        # JSON's true and false load as bools, which are ints to isinstance.
        if type(chain_index) is not int or chain_index < 0:
            problems.append(f"{owner}: chain_index must be a nonnegative integer")
            chain_index = -1
        elif chain_index in chain_indices:
            problems.append(f"{owner}: duplicate chain_index {chain_index}")
        chain_indices.add(chain_index)

        component = typed(entry.get("component", ""), str, f"{owner}: component")
        component = read_source(component, owner) if component is not None else ""
        shared = entry.get("shared")
        if shared is not None:
            shared = typed(shared, str, f"{owner}: shared")
        shared_source = read_source(shared, owner) if shared else ""

        adaptations = {}
        listed = typed(entry.get("adaptations", {}), dict, f"{owner}: adaptations")
        if listed is not None:
            for use in use_cases:
                if use not in listed:
                    problems.append(f"{owner}: no adaptation for use case {use!r}")
            for use_name, rel in listed.items():
                if use_name not in known:
                    problems.append(f"{owner}: adaptation for unknown use case {use_name!r}")
                where = f"{owner} / {use_name!r}"
                rel = typed(rel, str, where)
                adaptations[use_name] = read_source(rel, where) if rel is not None else ""

        inapplicable = typed(entry.get("inapplicable", []), list, f"{owner}: inapplicable") or []
        unknown = {
            u for u in inapplicable if typed(u, str, f"{owner}: inapplicable entry") is not None
        } - known
        for use_name in sorted(unknown):
            problems.append(f"{owner}: inapplicable lists unknown use case {use_name!r}")

        candidates.append(Candidate(name, chain_index, component, adaptations, shared_source))

    if not candidates:
        problems.append("manifest lists no candidates")
    if problems:
        raise ManifestInvalid(problems)
    return ScenarioManifest(dialect, tuple(use_cases), tuple(candidates))


# ---------------------------------------------------------------------------
# Helpers


def _json_kind(value) -> str:
    """The JSON name of a decoded value's type, with its article."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return "a number"
    if isinstance(value, str):
        return "a string"
    if isinstance(value, list):
        return "a list"
    return "an object"


def _parse_file(path: str, parse):
    """``parse`` applied to the file's text, read as UTF-8; an error in
    reading or parsing it names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 at byte offset {exc.start}") from exc
    try:
        return parse(text)
    except ValueError as exc:  # TermSyntaxError, EncodeError or LexError
        raise InputError(f"{path}: {exc}") from exc


def _read_term(path: str):
    """The term in a term file, or the encoding of a ``*.cpp`` function."""
    # Both readers run from an explicit stack, so no nesting is too deep.
    return _parse_file(path, encode_function if path.endswith(".cpp") else parse_term)


def _parse_costs(spec: Optional[str]) -> CostModel:
    if spec is None:
        return CostModel()
    parts = spec.split(",")
    if len(parts) != 3:
        raise UsageError("--costs expects three comma-separated numbers: insert,delete,relabel")
    try:
        i, d, r = (float(p) for p in parts)
        return CostModel(i, d, r)
    except ValueError as exc:
        raise UsageError(f"bad --costs value: {exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    """Write UTF-8 to stdout, or atomically to ``out`` (write-then-rename)."""
    if out is None:
        buffer = getattr(sys.stdout, "buffer", None)
        try:
            if buffer is None:  # an in-memory text sink
                sys.stdout.write(text)
            else:
                sys.stdout.flush()
                buffer.write(text.encode("utf-8"))
                buffer.flush()
        except OSError as exc:
            # A reader that went away (a closed pipe) leaves bytes that the
            # interpreter would fail to flush again at exit; they go to
            # os.devnull instead.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise InputError(f"cannot write to stdout: {exc.strerror or exc}") from exc
        return
    target = Path(out)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _resolve_seed(value: Optional[int], fallback: int) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return fallback


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_tokenize(args) -> int:
    lines = []
    for path in args.files:
        tokens = _parse_file(path, lambda text: tokenize(text, args.dialect))
        lines.append(f"{path}\t{len(tokens)}")
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


def _cmd_mdl(args) -> int:
    manifest = load_manifest(args.scenario)
    report = rank_candidates(
        list(manifest.candidates), manifest.use_cases, manifest.tokenizer_dialect
    )
    _emit(report_csv(report), args.out)
    return 0


def _cmd_solve(args) -> int:
    """match and unify: print the substitution ``args.solve`` finds for the
    two terms, or ``args.failure`` when there is none."""
    result = args.solve(_read_term(args.left), _read_term(args.right))
    if result is None:
        _emit(args.failure + "\n", args.out)
        return 1 if args.strict else 0
    _emit(render_substitution(result) + "\n", args.out)
    return 0


def _cmd_lgg(args) -> int:
    terms = [_read_term(path) for path in args.files]
    _emit(render_abstraction(lgg(terms)), args.out)
    return 0


def _cmd_ted(args) -> int:
    costs = _parse_costs(args.costs)
    distance = ted(_read_term(args.left), _read_term(args.right), costs)
    _emit(f"{distance:.6f}\n", args.out)
    return 0


def _cmd_lipschitz(args) -> int:
    abstraction = _parse_file(args.abstraction, parse_abstraction)
    seed = _resolve_seed(args.seed, 0)
    costs = _parse_costs(args.costs)
    estimate = estimate_lipschitz(abstraction, args.samples, seed, costs)
    if not estimate.all_params_used:
        print(
            "warning: some parameters never occur in the body; "
            "the inverse inequality is not meaningful",
            file=sys.stderr,
        )
    body = (
        "forward_k,inverse_ok,samples,seed\n"
        f"{estimate.forward_k:.6f},{'true' if estimate.inverse_ok else 'false'},"
        f"{estimate.samples},{estimate.seed}\n"
    )
    _emit(body, args.out)
    return 0


def _cmd_tradeoff(args) -> int:
    spec = DomainSpec(
        seed=_resolve_seed(args.seed, 7),
        program_count=args.programs,
        program_size=args.size,
        motif_count=args.motifs,
        motif_size=args.motif_size,
        motif_rate=args.rate,
    )
    points = emit_tradeoff_points(spec)
    lines = ["level,power,compression_ratio,inversion_cost"]
    lines.extend(
        f"{p.level.name},{p.level.power:.6f},{p.compression_ratio:.6f},{p.inversion_cost:.6f}"
        for p in points
    )
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


def _tokenize_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="+")
    p.add_argument("--dialect", choices=DIALECTS, default="cpp-like")
    p.set_defaults(func=_cmd_tokenize)


def _mdl_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_mdl)


def _match_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("left", metavar="pattern")
    p.add_argument("right", metavar="target")
    p.add_argument("--strict", action="store_true", help="exit 1 when no match exists")
    p.set_defaults(func=_cmd_solve, solve=match_term, failure="no match")


def _unify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--strict", action="store_true", help="exit 1 when not unifiable")
    p.set_defaults(func=_cmd_solve, solve=unify, failure="no unifier")


def _lgg_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_lgg)


def _ted_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--costs", metavar="i,d,r")
    p.set_defaults(func=_cmd_ted)


def _lipschitz_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--abstraction", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.add_argument("--costs", metavar="i,d,r")
    p.set_defaults(func=_cmd_lipschitz)


def _tradeoff_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int)
    p.add_argument("--programs", type=int, default=50)
    p.add_argument("--size", type=int, default=200)
    p.add_argument("--motifs", type=int, default=3)
    p.add_argument("--motif-size", type=int, default=12)
    p.add_argument("--rate", type=float, default=0.4)
    p.set_defaults(func=_cmd_tradeoff)


# Each subcommand's help line and the function that declares its arguments
# other than --out, which build_parser adds to every subcommand.
_COMMANDS = {
    "tokenize": ("count tokens in source files", _tokenize_args),
    "mdl": ("rank candidate components for a scenario", _mdl_args),
    "match": ("match a pattern term against a ground term", _match_args),
    "unify": ("most general unifier of two terms", _unify_args),
    "lgg": ("least general generalization of ground terms", _lgg_args),
    "ted": ("tree edit distance between two terms", _ted_args),
    "lipschitz": ("sample the Lipschitz behavior of an abstraction", _lipschitz_args),
    "tradeoff": ("emit compression/inversion tradeoff points", _tradeoff_args),
}


def build_parser(names: Sequence[str] = tuple(_COMMANDS)) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdlgauge",
        description="Gauge component generality by description length and "
        "measure how hard abstractions are to apply.",
    )
    parser.add_argument("--version", action="version", version=f"mdlgauge {__version__}")
    # A one-command parser's usage line still lists every command.  The
    # whole parser's errors name "argument command", so it sets no metavar.
    metavar = None if len(names) == len(_COMMANDS) else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, declare = _COMMANDS[name]
        command = sub.add_parser(name, help=help_text)
        declare(command)
        command.add_argument("--out")  # last in every command's usage line
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    names = (argv[0],) if argv and argv[0] in _COMMANDS else tuple(_COMMANDS)
    args = build_parser(names).parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Every usage and input error, a malformed source or term, an
        # inconsistent spec and a badly encoded file is a ValueError.
        print(f"mdlgauge: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
