"""The mdlgauge command: subcommand behavior, exit codes, output formats."""

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mdlgauge
from mdlgauge.cli import ManifestInvalid, build_parser, load_manifest, main
from mdlgauge.term import parse_term


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# manifest loading


def test_manifest_loads_bundled_scenario(corpus):
    manifest = load_manifest(corpus / "scenario.json")
    assert manifest.tokenizer_dialect == "cpp-like"
    assert manifest.use_cases == ("double", "int", "float")
    assert len(manifest.candidates) == 4


def test_manifest_missing_adaptation_named(tmp_path, corpus):
    raw = json.loads((corpus / "scenario.json").read_text())
    del raw["candidates"][1]["adaptations"]["int"]
    for name in ("fig2a.cpp", "fig2b.cpp", "fig2c.cpp", "fig2d.cpp"):
        (tmp_path / name).write_text((corpus / name).read_text())
    for p in corpus.glob("adapt_*.cpp"):
        (tmp_path / p.name).write_text(p.read_text())
    (tmp_path / "scenario.json").write_text(json.dumps(raw))
    with pytest.raises(ManifestInvalid) as err:
        load_manifest(tmp_path / "scenario.json")
    assert any("'b'" in p and "'int'" in p for p in err.value.problems)


def test_manifest_duplicate_chain_index(tmp_path, corpus):
    raw = json.loads((corpus / "scenario.json").read_text())
    raw["candidates"][1]["chain_index"] = 0
    for p in corpus.glob("*.cpp"):
        (tmp_path / p.name).write_text(p.read_text())
    (tmp_path / "scenario.json").write_text(json.dumps(raw))
    with pytest.raises(ManifestInvalid) as err:
        load_manifest(tmp_path / "scenario.json")
    assert any("chain_index" in p for p in err.value.problems)


def test_manifest_missing_file_reported(tmp_path):
    (tmp_path / "scenario.json").write_text(
        json.dumps(
            {
                "tokenizer_dialect": "cpp-like",
                "use_cases": [{"name": "u"}],
                "candidates": [
                    {"name": "x", "chain_index": 0, "component": "nowhere.cpp",
                     "adaptations": {"u": "missing.cpp"}}
                ],
            }
        )
    )
    with pytest.raises(ManifestInvalid) as err:
        load_manifest(tmp_path / "scenario.json")
    assert sum("missing or unreadable" in p for p in err.value.problems) == 2


def one_candidate(**fields):
    """A manifest with use case "u" and candidate "x", overriding ``fields``
    of the candidate."""
    candidate = {"name": "x", "chain_index": 0, "component": "x.cpp",
                 "adaptations": {"u": "x_u.cpp"}}
    candidate.update(fields)
    return {"use_cases": [{"name": "u"}], "candidates": [candidate]}


@pytest.mark.parametrize(
    "manifest, problem",
    [
        ([1, 2], "manifest must be an object, not a list"),
        ("scenario", "manifest must be an object, not a string"),
        ({"candidates": 3}, "candidates must be a list, not a number"),
        ({"use_cases": {"name": "u"}}, "use_cases must be a list, not an object"),
        ({"use_cases": ["u"]}, "use case 0 must be an object, not a string"),
        ({"use_cases": [{"name": 5}]}, "use case 0: name must be a string, not a number"),
        ({"use_cases": [{"name": "u", "description": []}]},
         "use case 'u': description must be a string, not a list"),
        ({"candidates": [None]}, "candidate 0 must be an object, not null"),
        ({"candidates": [{"name": ["x"]}]}, "candidate 0: name must be a string, not a list"),
        (one_candidate(component=7), "candidate 'x': component must be a string, not a number"),
        (one_candidate(shared=True), "candidate 'x': shared must be a string, not a boolean"),
        (one_candidate(adaptations=["x_u.cpp"]),
         "candidate 'x': adaptations must be an object, not a list"),
        (one_candidate(adaptations={"u": 1}), "candidate 'x' / 'u' must be a string, not a number"),
        (one_candidate(inapplicable="u"), "candidate 'x': inapplicable must be a list, not a string"),
        (one_candidate(inapplicable=[["u"]]),
         "candidate 'x': inapplicable entry must be a string, not a list"),
        ({**one_candidate(), "tokenizer_dialect": "fortran"},
         "unknown tokenizer_dialect 'fortran'"),
        ({**one_candidate(), "use_cases": [{"name": "u"}, {}]}, "use case without a name"),
        ({**one_candidate(), "use_cases": [{"name": "u"}, {"name": "u"}]},
         "duplicate use case 'u'"),
        ({"candidates": [{"chain_index": 0}]}, "candidate without a name"),
        ({"candidates": [{"name": "x", "chain_index": 0}, {"name": "x", "chain_index": 1}]},
         "duplicate candidate 'x'"),
        (one_candidate(chain_index=-1),
         "candidate 'x': chain_index must be a nonnegative integer"),
        (one_candidate(inapplicable=["v"]),
         "candidate 'x': inapplicable lists unknown use case 'v'"),
        # JSON's true and false are not integers, though Python's bools are.
        (one_candidate(chain_index=True),
         "candidate 'x': chain_index must be a nonnegative integer"),
        (one_candidate(chain_index=False),
         "candidate 'x': chain_index must be a nonnegative integer"),
    ],
)
def test_manifest_shape_error_is_an_input_error(capsys, tmp_path, manifest, problem):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ManifestInvalid) as err:
        load_manifest(path)
    assert problem in err.value.problems
    code, out, stderr = run_cli(capsys, "mdl", str(path))
    assert (code, out) == (2, "")
    assert problem in stderr


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"use_cases": "caf\xe9"}', "{path}: not valid UTF-8 at byte offset 18"),
        (b'{"use_cases": [}',
         "manifest {path} is not valid JSON: Expecting value: line 1 column 16"),
    ],
)
def test_unreadable_manifest_is_an_input_error(capsys, tmp_path, content, message):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "mdl", str(path))
    assert (code, out) == (2, "")
    assert message.format(path=path) in err


def test_deeply_nested_manifest_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "mdl", str(path))
    assert (code, out) == (2, "")
    assert "nested too deeply" in err


def test_manifest_shape_errors_are_reported_together(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"use_cases": 1, "candidates": [one_candidate()["candidates"][0], 3]}))
    with pytest.raises(ManifestInvalid) as err:
        load_manifest(path)
    problems = err.value.problems
    assert "use_cases must be a list, not a number" in problems
    assert "candidate 1 must be an object, not a number" in problems
    assert "candidate 'x': adaptation for unknown use case 'u'" in problems


# ---------------------------------------------------------------------------
# subcommands


def test_tokenize_output(capsys, corpus):
    path = str(corpus / "fig2a.cpp")
    code, out, _ = run_cli(capsys, "tokenize", path)
    assert code == 0
    assert out == f"{path}\t41\n"


def test_mdl_winner_row(capsys, corpus):
    code, out, _ = run_cli(capsys, "mdl", str(corpus / "scenario.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,chain_index,component_tokens,adaptation_tokens,total,winner_flag"
    winners = [l for l in lines[1:-1] if l.endswith(",1")]
    assert winners == ["b,1,46,60,106,1"]
    assert lines[-1] == "u_shaped,true,min_index,1"


def test_mdl_output_is_byte_identical(capsys, corpus, tmp_path):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert run_cli(capsys, "mdl", str(corpus / "scenario.json"), "--out", str(out1))[0] == 0
    assert run_cli(capsys, "mdl", str(corpus / "scenario.json"), "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("name", ["no/such/dir/counts.tsv", "."])
def test_unwritable_out_is_an_input_error(capsys, corpus, tmp_path, name):
    # A missing directory fails before the temporary file exists; a
    # directory as the target fails at the rename, after it exists.
    target = tmp_path / name
    code, out, err = run_cli(
        capsys, "tokenize", str(corpus / "fig2a.cpp"), "--out", str(target)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"mdlgauge: cannot write {target}: ")
    assert list(tmp_path.iterdir()) == []
    assert list(tmp_path.parent.glob(tmp_path.name + ".*")) == []


def test_no_partial_output_on_error(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, _, err = run_cli(capsys, "mdl", str(tmp_path / "absent.json"), "--out", str(target))
    assert code == 2
    assert not target.exists()
    assert "mdlgauge:" in err


def test_unify_identical_terms(capsys, corpus):
    path = str(corpus / "hypot_y.term")
    code, out, _ = run_cli(capsys, "unify", path, path)
    assert code == 0
    assert out == "{}\n"


def test_match_bundled_pair(capsys, corpus):
    code, out, _ = run_cli(
        capsys, "match", str(corpus / "hypot_pattern.term"), str(corpus / "hypot_y.term")
    )
    assert code == 0
    assert out == "{?a -> r, ?b -> (f s)}\n"


def test_match_failure_exit_codes(capsys, tmp_path):
    p = tmp_path / "p.term"
    t = tmp_path / "t.term"
    p.write_text("(* ?a ?a)")
    t.write_text("(* r s)")
    code, out, _ = run_cli(capsys, "match", str(p), str(t))
    assert (code, out) == (0, "no match\n")
    code, out, _ = run_cli(capsys, "match", "--strict", str(p), str(t))
    assert (code, out) == (1, "no match\n")


def test_unify_failure_strict(capsys, tmp_path):
    a = tmp_path / "a.term"
    b = tmp_path / "b.term"
    a.write_text("?x")
    b.write_text("(f ?x)")
    code, out, _ = run_cli(capsys, "unify", "--strict", str(a), str(b))
    assert (code, out) == (1, "no unifier\n")


def test_ted_output_format(capsys, corpus):
    code, out, _ = run_cli(
        capsys, "ted", str(corpus / "hypot_y.term"), str(corpus / "hypot_y_prime.term")
    )
    assert code == 0
    assert out == "4.000000\n"


def test_ted_with_costs(capsys, corpus, tmp_path):
    a = tmp_path / "a.term"
    b = tmp_path / "b.term"
    a.write_text("x")
    b.write_text("(f x)")
    code, out, _ = run_cli(capsys, "ted", str(a), str(b), "--costs", "2.5,1,1")
    assert (code, out) == (0, "2.500000\n")
    code, _, _ = run_cli(capsys, "ted", str(a), str(b), "--costs", "nope")
    assert code == 2


@pytest.mark.parametrize("costs", ["nan,1,1", "inf,1,1", "1,-inf,1", "1,1,NaN", "1,1,infinity"])
def test_ted_rejects_non_finite_costs(capsys, tmp_path, costs):
    a = tmp_path / "a.term"
    a.write_text("(f x)")
    code, out, err = run_cli(capsys, "ted", str(a), str(a), f"--costs={costs}")
    assert (code, out) == (2, "")
    assert "finite" in err


# Finite costs whose sums pass the largest float: the distance would be inf,
# which is no 6-digit decimal.
HUGE_COSTS = "1e308,1e308,1e308"


def test_ted_overflowing_distance_is_exit_2(capsys, corpus):
    code, out, err = run_cli(
        capsys, "ted", str(corpus / "hypot_y.term"), str(corpus / "hypot_y_prime.term"),
        "--costs", HUGE_COSTS,
    )
    assert (code, out) == (2, "")
    assert "overflows" in err and "Traceback" not in err


def test_lipschitz_overflowing_distance_is_exit_2(capsys, corpus):
    code, out, err = run_cli(
        capsys, "lipschitz", "--abstraction", str(corpus / "hypot.abs"), "--samples", "5",
        "--costs", HUGE_COSTS,
    )
    assert (code, out) == (2, "")
    assert "overflows" in err and "Traceback" not in err


def test_lgg_output(capsys, tmp_path):
    t1 = tmp_path / "t1.term"
    t2 = tmp_path / "t2.term"
    t1.write_text("(f a a)")
    t2.write_text("(f b b)")
    code, out, _ = run_cli(capsys, "lgg", str(t1), str(t2))
    assert code == 0
    assert out == "params: ?v0\n(f ?v0 ?v0)\n"


def test_lipschitz_csv(capsys, corpus):
    code, out, _ = run_cli(
        capsys, "lipschitz", "--abstraction", str(corpus / "hypot.abs"),
        "--samples", "20", "--seed", "0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "forward_k,inverse_ok,samples,seed"
    assert lines[1] == "2.000000,true,20,0"


def test_lipschitz_warns_on_unused_param(capsys, tmp_path):
    f = tmp_path / "drop.abs"
    f.write_text("params: ?a ?b\n(f ?a)\n")
    code, _, err = run_cli(capsys, "lipschitz", "--abstraction", str(f), "--samples", "5")
    assert code == 0
    assert "never occur" in err


def test_seed_env_override(capsys, corpus, monkeypatch):
    monkeypatch.setenv("MDLGAUGE_SEED", "5")
    _, with_env, _ = run_cli(
        capsys, "lipschitz", "--abstraction", str(corpus / "hypot.abs"), "--samples", "5"
    )
    monkeypatch.delenv("MDLGAUGE_SEED")
    _, explicit, _ = run_cli(
        capsys, "lipschitz", "--abstraction", str(corpus / "hypot.abs"),
        "--samples", "5", "--seed", "5",
    )
    assert with_env == explicit
    assert ",5" in with_env.splitlines()[1]


@pytest.mark.parametrize(
    "argv",
    [("lipschitz", "--abstraction", "hypot.abs", "--samples", "5"), ("tradeoff",)],
)
def test_a_seed_variable_that_is_not_an_integer_is_exit_2(capsys, corpus, monkeypatch, argv):
    monkeypatch.chdir(corpus)
    monkeypatch.setenv("MDLGAUGE_SEED", "seven")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "mdlgauge: MDLGAUGE_SEED must be an integer, got 'seven'\n")


def test_tradeoff_csv(capsys, tmp_path):
    out_path = tmp_path / "points.csv"
    code, _, _ = run_cli(
        capsys, "tradeoff", "--seed", "3", "--programs", "6", "--size", "60",
        "--motifs", "1", "--motif-size", "8", "--rate", "0.3", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "level,power,compression_ratio,inversion_cost"
    assert [l.split(",")[0] for l in lines[1:]] == ["L0", "L1", "L2"]
    assert lines[1].startswith("L0,0.000000,1.000000,0.000000")


def test_tradeoff_without_motifs_ignores_motif_size(capsys):
    # The default --motif-size exceeds --size, but no motif is planted.
    code, out, err = run_cli(capsys, "tradeoff", "--motifs", "0", "--size", "10")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == ["L0", "L1", "L2"]
    assert [row[2] for row in rows] == ["1.000000"] * 3


def test_tradeoff_rejects_bad_spec(capsys):
    code, _, err = run_cli(capsys, "tradeoff", "--programs", "0")
    assert code == 2
    assert "program_count" in err


def test_input_error_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "tokenize", "no-such-file.cpp")
    assert code == 2
    assert "cannot read" in err


def test_term_syntax_error_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.term"
    bad.write_text("(f")
    code, _, err = run_cli(capsys, "ted", str(bad), str(bad))
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize("source, message", [("int f(", "expected a type")], ids=["encode-error"])
def test_bad_cpp_is_an_input_error(capsys, tmp_path, source, message):
    bad = tmp_path / "bad.cpp"
    bad.write_text(source)
    code, out, err = run_cli(capsys, "lgg", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"mdlgauge: {bad}: {message}")


# C++ functions nested 5000 deep, each with the term it encodes as.
CPP_DEPTH = 5000
DEEP_CPP = {
    "parentheses": (
        "int f() { return " + "(" * CPP_DEPTH + "x" + ")" * CPP_DEPTH + "; }",
        "(fn f int params (block (return x)))",
    ),
    "prefix": (
        "int f() { return " + "- " * CPP_DEPTH + "x; }",
        "(fn f int params (block (return " + "(neg " * CPP_DEPTH + "x" + ")" * CPP_DEPTH + ")))",
    ),
    "calls": (
        "int f() { return " + "g(" * CPP_DEPTH + "x" + ")" * CPP_DEPTH + "; }",
        "(fn f int params (block (return " + "(g " * CPP_DEPTH + "x" + ")" * CPP_DEPTH + ")))",
    ),
    "blocks": (
        "void f() " + "{" * CPP_DEPTH + "}" * CPP_DEPTH,
        "(fn f void params " + "(block " * (CPP_DEPTH - 1) + "block" + ")" * CPP_DEPTH,
    ),
}


@pytest.mark.parametrize("source, term", DEEP_CPP.values(), ids=DEEP_CPP)
def test_deep_cpp(capsys, tmp_path, source, term):
    deep, leaf = tmp_path / "deep.cpp", tmp_path / "a.term"
    deep.write_text(source)
    leaf.write_text("a")
    assert run_cli(capsys, "lgg", str(deep)) == (0, f"params:\n{term}\n", "")
    # No node is labeled a: delete all but one node and relabel that one.
    distance = f"{parse_term(term).size}.000000\n"
    assert run_cli(capsys, "ted", str(deep), str(leaf)) == (0, distance, "")


# A unary chain 100 times deeper than the interpreter's default recursion
# limit; every subcommand that reads terms must handle it.
DEPTH = 100_000
HEAD, TAIL = "(f " * DEPTH, ")" * DEPTH
CHAINS = {
    "fx": HEAD + "?x" + TAIL,
    "fga": HEAD + "(g a)" + TAIL,
    "fa": HEAD + "a" + TAIL,
    "fb": HEAD + "b" + TAIL,
    "x": "?x",
    "y": "?y",
    "a": "a",
}


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    folder = tmp_path_factory.mktemp("chains")
    for name, text in CHAINS.items():
        (folder / f"{name}.term").write_text(text)
    return folder


DEEP_CASES = [
    ("match fx fga", 0, "{?x -> (g a)}\n"),
    ("unify fx fga", 0, "{?x -> (g a)}\n"),
    ("unify fga fx", 0, "{?x -> (g a)}\n"),
    ("unify y fa", 0, "{?y -> " + CHAINS["fa"] + "}\n"),
    ("unify fa y", 0, "{?y -> " + CHAINS["fa"] + "}\n"),
    ("lgg fa fb", 0, "params: ?v0\n" + HEAD + "?v0" + TAIL + "\n"),
    ("ted fa a", 0, f"{DEPTH}.000000\n"),
    ("unify --strict x fx", 1, "no unifier\n"),
]


@pytest.mark.parametrize("words, status, expected", DEEP_CASES, ids=[c[0] for c in DEEP_CASES])
def test_deep_chains(capsys, chains, words, status, expected):
    command, *rest = words.split()
    argv = [word if word.startswith("--") else str(chains / f"{word}.term") for word in rest]
    code, out, err = run_cli(capsys, command, *argv)
    assert (code, out, err) == (status, expected, "")


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def test_module_entry_point(corpus):
    # The child runs from corpus/, where a relative PYTHONPATH entry such as
    # "src" no longer resolves; put the directory holding the package under
    # test first, so the child imports the same copy as this process.
    package_root = str(Path(mdlgauge.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = package_root + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run(
        [sys.executable, "-m", "mdlgauge", "tokenize", "fig2b.cpp"],
        cwd=corpus,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert proc.stdout == "fig2b.cpp\t46\n"


@pytest.mark.parametrize(
    "argv",
    [["tokenize", "fig2b.cpp"], ["tradeoff", "--programs", "4", "--size", "30"]],
    ids=["tokenize", "tradeoff"],
)
def test_a_closed_stdout_pipe_is_an_input_error(corpus, argv):
    # The read end is closed before the child has started, so its one write
    # always meets a pipe with no reader.
    package_root = str(Path(mdlgauge.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "mdlgauge", *argv],
        cwd=corpus,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), stderr) == (2, b"mdlgauge: cannot write to stdout: Broken pipe\n")


def test_tokenize_names_the_file_that_fails_to_lex(capsys, corpus, tmp_path):
    bad = tmp_path / "bad.cpp"
    bad.write_text("int x; /* open")
    code, out, err = run_cli(capsys, "tokenize", str(corpus / "fig2b.cpp"), str(bad))
    assert (code, out) == (2, "")
    assert err == f"mdlgauge: {bad}: unterminated block comment at byte offset 7\n"


def test_input_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "latin1.cpp"
    bad.write_bytes("int café;".encode("latin-1"))
    code, out, err = run_cli(capsys, "tokenize", str(bad))
    assert (code, out, err) == (2, "", f"mdlgauge: {bad}: not valid UTF-8 at byte offset 7\n")


def test_manifest_source_that_is_not_utf8_is_reported(tmp_path):
    (tmp_path / "a.cpp").write_text("int a;")
    (tmp_path / "b.cpp").write_bytes(b"int b; // \xff\n")
    (tmp_path / "scenario.json").write_text(
        json.dumps(
            {
                "use_cases": [{"name": "u"}],
                "candidates": [
                    {"name": "x", "chain_index": 0, "component": "a.cpp",
                     "adaptations": {"u": "b.cpp"}}
                ],
            }
        )
    )
    with pytest.raises(ManifestInvalid) as err:
        load_manifest(tmp_path / "scenario.json")
    assert err.value.problems == [
        "candidate 'x' / 'u': b.cpp: not valid UTF-8 at byte offset 10"
    ]


def test_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    # In the POSIX locale, with neither locale coercion nor UTF-8 mode, the
    # locale's encoding is ASCII.
    (tmp_path / "u.cpp").write_text("int café;\n", encoding="utf-8")
    package_root = str(Path(mdlgauge.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": package_root, "LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0"}
    runs = [
        subprocess.run(
            [sys.executable, "-X", f"utf8={mode}", "-m", "mdlgauge", "tokenize", "u.cpp"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            env=env,
        )
        for mode in (0, 1)
    ]
    assert [(r.returncode, r.stdout, r.stderr) for r in runs] == [(0, "u.cpp\t4\n", "")] * 2


def test_stdout_is_utf8_whatever_the_locale(corpus, tmp_path):
    # In the POSIX locale, with neither locale coercion nor UTF-8 mode,
    # stdout's own encoding is ASCII; the report still goes out as the same
    # UTF-8 bytes that --out writes.
    shutil.copytree(corpus, tmp_path / "corpus")
    scenario = tmp_path / "corpus" / "scenario.json"
    manifest = json.loads(scenario.read_text())
    for candidate in manifest["candidates"]:
        if candidate["name"] == "b":
            candidate["name"] = "café"
    scenario.write_text(json.dumps(manifest))
    package_root = str(Path(mdlgauge.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": package_root, "LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0"}
    argv = [sys.executable, "-X", "utf8=0", "-m", "mdlgauge", "mdl", "corpus/scenario.json"]
    shown, written = (
        subprocess.run(argv + extra, cwd=tmp_path, capture_output=True, env=env)
        for extra in ([], ["--out", "o.csv"])
    )
    assert (shown.returncode, shown.stderr) == (0, b"")
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert shown.stdout == (tmp_path / "o.csv").read_bytes()
    assert b"\ncaf\xc3\xa9,1," in shown.stdout


def test_a_text_sink_gets_the_text_of_the_byte_stream(capsysbinary, tmp_path):
    # A stream with no ``buffer``, such as an io.StringIO, takes text; the
    # same report reaches a real stdout as UTF-8 bytes.
    source = tmp_path / "café.cpp"
    source.write_text("int café;\n", encoding="utf-8")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        assert main(["tokenize", str(source)]) == 0
    assert sink.getvalue() == f"{source}\t4\n"
    assert main(["tokenize", str(source)]) == 0
    assert capsysbinary.readouterr() == (sink.getvalue().encode("utf-8"), b"")


def _outcome(capsys, run, argv):
    try:
        status = run(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _whole_parser_main(argv):
    """``main`` as it reads with the whole parser on every call."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"mdlgauge: {exc}", file=sys.stderr)
        return 2


ROUTE_CASES = [
    [],
    ["--help"],
    ["-h"],
    ["--version"],
    ["--ver"],
    ["frobnicate"],
    ["frobnicate", "fig2a.cpp"],
    ["--version", "tokenize", "fig2a.cpp"],
    ["tokenize"],
    ["tokenize", "-h"],
    ["tokenize", "--h"],
    ["tokenize", "fig2a.cpp", "--frob"],
    ["tokenize", "fig2a.cpp", "--version"],
    ["tokenize", "--dialect", "klingon", "fig2a.cpp"],
    ["tokenize", "--dia", "generic", "fig2a.cpp", "fig2b.cpp"],
    ["tokenize", "--", "fig2a.cpp"],
    ["--", "tokenize", "fig2a.cpp"],
    ["mdl"],
    ["match", "hypot_pattern.term"],
    ["unify", "hypot_y.term", "hypot_y.term", "--strict", "extra"],
    ["ted", "hypot_y.term", "hypot_y_prime.term", "--costs"],
    ["ted", "hypot_y.term", "hypot_y_prime.term", "--costs", "1,1"],
    ["lipschitz"],
    ["lipschitz", "--abstraction", "hypot.abs", "--samples", "many"],
    ["lipschitz", "--abstraction", "hypot.abs", "--samples", "3", "--se", "0"],
    ["tradeoff", "--se", "x"],
    ["tradeoff", "--help"],
    ["match", "--help"],
    ["mdl", "scenario.json", "extra", "--out"],
    ["lgg"],
    ["ted", "-x"],
]


@pytest.mark.parametrize("argv", ROUTE_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_one_command_parser_reports_as_the_whole_parser(capsys, monkeypatch, corpus, argv):
    # main builds only the named command's parser; its status, output and
    # argparse messages must be those of the whole parser.
    monkeypatch.chdir(corpus)
    got = _outcome(capsys, main, argv)
    assert got == _outcome(capsys, _whole_parser_main, argv)


COMMANDS = ("tokenize", "mdl", "match", "unify", "lgg", "ted", "lipschitz", "tradeoff")
WHOLE_USAGE = (
    "usage: mdlgauge [-h] [--version]\n"
    "                {tokenize,mdl,match,unify,lgg,ted,lipschitz,tradeoff} ...\n"
)


def _argparse_passes_double_dash_to_subparsers() -> bool:
    """Whether a "--" before a subcommand reaches the subparsers as the
    command's name; newer argparse releases strip it first."""
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_subparsers(dest="command").add_parser("x")
    try:
        probe.parse_args(["--", "x"])
    except argparse.ArgumentError:
        return True
    return False


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from {})"),
        (["--", "tokenize", "fig2a.cpp"], "argument command: invalid choice: '--' (choose from {})"),
    ],
    ids=["(none)", "frobnicate", "--"],
)
def test_the_whole_parser_names_the_command_argument(capsys, monkeypatch, corpus, argv, message):
    monkeypatch.chdir(corpus)
    monkeypatch.setenv("COLUMNS", "80")
    if argv[0:1] == ["--"] and not _argparse_passes_double_dash_to_subparsers():
        assert _outcome(capsys, main, argv) == (0, "fig2a.cpp\t41\n", "")
        return
    # Newer argparse releases print the choices unquoted.
    expected = {
        WHOLE_USAGE + "mdlgauge: error: " + message.format(choices) + "\n"
        for choices in (", ".join(map(repr, COMMANDS)), ", ".join(COMMANDS))
    }
    status, out, err = _outcome(capsys, main, argv)
    assert (status, out) == (2, "")
    assert err in expected


def test_a_command_call_builds_only_its_own_parser(capsys, monkeypatch, corpus):
    calls = []

    def spy(*args):
        calls.append(args)
        return build_parser(*args)

    monkeypatch.setattr(mdlgauge.cli, "build_parser", spy)
    code, out, err = run_cli(capsys, "tokenize", str(corpus / "fig2b.cpp"))
    assert (code, out, err) == (0, f"{corpus / 'fig2b.cpp'}\t46\n", "")
    assert calls == [(("tokenize",),)]
    calls.clear()
    assert _outcome(capsys, main, ["--version"])[0] == 0
    assert calls == [(COMMANDS,)]
