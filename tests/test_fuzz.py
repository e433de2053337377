"""The command line under generated input, run in-process through
``cli.main``: whatever the files and flags, a command exits 0, 1 or 2 with
no traceback, and a run that succeeds prints the same bytes again."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

from conftest import CORPUS
from mdlgauge.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def assert_contract(argv):
    status, out, err = run(argv)
    event(f"exit {status}")
    assert status in (0, 1, 2), (argv, status, err)
    assert "Traceback" not in err
    if status == 0:
        assert run(argv) == (status, out, err)


GROUND = st.sampled_from(["a", "b", "f", "+", "*", "1", "x_y", "é"])


def terms(leaves):
    """Term text over the given leaf texts: bushy ones, and chains up to
    150 deep."""
    bushy = st.recursive(
        leaves,
        lambda kids: st.builds(
            lambda head, args: f"({head} {' '.join(args)})",
            GROUND,
            st.lists(kids, min_size=1, max_size=3),
        ),
        max_leaves=12,
    )
    deep = st.builds(
        lambda depth, head, leaf: f"({head} " * depth + leaf + ")" * depth,
        st.integers(1, 150),
        GROUND,
        leaves,
    )
    return st.one_of(bushy, deep)


def mostly(good, bad):
    """``good`` three draws in four, ``bad`` the fourth, so that both
    successful runs and every kind of input error are common."""
    return st.integers(0, 3).flatmap(lambda k: bad if k == 0 else good)


TEXT = st.one_of(terms(GROUND | st.sampled_from(["?a", "?b", "?", "(", ")"])), st.text(max_size=40))
# Ground terms; or any text, raw bytes, or a term followed by bytes that
# are not UTF-8.
FILE_BYTES = mostly(
    terms(GROUND).map(str.encode),
    st.one_of(
        TEXT.map(str.encode),
        st.binary(max_size=40),
        TEXT.map(lambda text: text.encode("utf-8") + b"\xff\xfe"),
    ),
)


def abstraction(names):
    variables = st.sampled_from(["?" + name for name in names]) if names else GROUND
    header = "params:" + "".join(" ?" + name for name in names)
    return terms(GROUND | variables).map(lambda body: f"{header}\n{body}\n".encode())


# Well-formed abstractions, some with unused parameters; headers with odd
# parameter names or separators; and any file at all.
ODD_HEADER = st.builds(
    lambda sep, names, body: ("params:" + sep + " ".join(names) + "\n" + body).encode(),
    st.sampled_from(["", " ", "\t", "  "]),
    st.lists(st.sampled_from(["?a", "?b", "a", "?", "??a", "?1", "?_x", "?é", "?a-b"]), max_size=3),
    TEXT,
)
ABSTRACTION_BYTES = mostly(
    st.lists(st.sampled_from(["a", "b", "x1", "_y", "A9"]), max_size=3, unique=True).flatmap(
        abstraction
    ),
    st.one_of(ODD_HEADER, FILE_BYTES),
)
VALID_COSTS = st.sampled_from(["1,1,1", "2,1,3", "0,0,0", "0,1,1", "0.1,0.3,0.7", "1e15,1e15,1e15"])
INVALID_COSTS = st.sampled_from(
    ["nan", "-1", "1e400", "1,2", "nan,1,1", "1,-1,1", "inf,1,1", "1,,1", "", "1e308,1e308,1e308"]
)
COSTS = mostly(VALID_COSTS, st.one_of(INVALID_COSTS, st.text(max_size=12)))


def option(flag, values):
    return st.one_of(st.just([]), values.map(lambda value: [f"{flag}={value}"]))


def write(directory, name, data):
    path = Path(directory) / name
    path.write_bytes(data)
    return str(path)


@settings(max_examples=300, deadline=None)
@given(
    FILE_BYTES,
    FILE_BYTES,
    mostly(st.just(".term"), st.just(".cpp")),
    option("--costs", COSTS),
)
def test_ted_keeps_the_exit_contract(left, right, suffix, costs):
    with tempfile.TemporaryDirectory() as directory:
        argv = ["ted", write(directory, "left" + suffix, left), write(directory, "right.term", right)]
        assert_contract(argv + costs)


SAMPLES = mostly(st.sampled_from(["1", "2", "7", "007", " 3"]), st.sampled_from(["0", "-3", "x", "", "1e2"]))
SEEDS = mostly(
    st.one_of(st.sampled_from(["-1", "-0", "12345678901234567890"]), st.integers(-(2**70), 2**70).map(str)),
    st.sampled_from(["abc", "0x10", "", "1.5"]),
)


@settings(max_examples=300, deadline=None)
@given(
    ABSTRACTION_BYTES,
    option("--samples", SAMPLES),
    option("--seed", SEEDS),
    option("--costs", COSTS),
)
def test_lipschitz_keeps_the_exit_contract(abstraction, samples, seed, costs):
    with tempfile.TemporaryDirectory() as directory:
        argv = ["lipschitz", "--abstraction", write(directory, "f.abs", abstraction)]
        # At most 7 samples, since the default is 100.
        assert_contract(argv + (samples or ["--samples=5"]) + seed + costs)


# ---------------------------------------------------------------------------
# match and unify: a ground term with a pattern made from it, so that both
# solutions and failures are common; pattern text, which may not be ground;
# any bytes; and the bundled C++ functions as *.cpp terms.

GROUND_TREES = st.recursive(
    GROUND.map(lambda leaf: (leaf, ())),
    lambda kids: st.tuples(GROUND, st.lists(kids, min_size=1, max_size=3).map(tuple)),
    max_leaves=12,
)
VARIABLE = st.sampled_from(["?a", "?b", "?x_1"])


def text_of(tree):
    label, kids = tree
    return f"({label} {' '.join(text_of(kid) for kid in kids)})" if kids else label


@st.composite
def pattern_and_target(draw):
    """A ground term, and a pattern that puts a variable, often a repeated
    one, in place of about one subterm in four."""

    def pattern(tree):
        if draw(st.integers(0, 3)) == 0:
            return draw(VARIABLE)
        label, kids = tree
        return f"({label} {' '.join(pattern(kid) for kid in kids)})" if kids else label

    tree = draw(GROUND_TREES)
    return pattern(tree).encode(), text_of(tree).encode()


PATTERN_BYTES = terms(GROUND | VARIABLE).map(str.encode)
CPP_BYTES = st.sampled_from(
    [(CORPUS / name).read_bytes() for name in ("fig2a.cpp", "adapt_a_int.cpp", "adapt_d_shared.cpp")]
)
# A related pair, or each side on its own: pattern text, any file, or C++.
TERM_PAIRS = mostly(
    pattern_and_target(),
    st.tuples(
        st.one_of(PATTERN_BYTES, FILE_BYTES, CPP_BYTES),
        st.one_of(PATTERN_BYTES, FILE_BYTES, CPP_BYTES),
    ),
)
SUFFIXES = st.tuples(*[mostly(st.just(".term"), st.just(".cpp"))] * 2)


@settings(max_examples=300, deadline=None)
@given(TERM_PAIRS, SUFFIXES, st.sampled_from([[], ["--strict"]]))
def test_match_keeps_the_exit_contract(pair, suffixes, strict):
    with tempfile.TemporaryDirectory() as directory:
        names = ["pattern" + suffixes[0], "target" + suffixes[1]]
        paths = [write(directory, name, data) for name, data in zip(names, pair)]
        assert_contract(["match", *paths, *strict])


@settings(max_examples=300, deadline=None)
@given(TERM_PAIRS, st.booleans(), SUFFIXES, st.sampled_from([[], ["--strict"]]))
def test_unify_keeps_the_exit_contract(pair, swap, suffixes, strict):
    with tempfile.TemporaryDirectory() as directory:
        names = ["left" + suffixes[0], "right" + suffixes[1]]
        sides = reversed(pair) if swap else pair
        paths = [write(directory, name, data) for name, data in zip(names, sides)]
        assert_contract(["unify", *paths, *strict])
