"""Algebra files, DOT export, and the command-line front end."""

import contextlib
import functools
import io
import json
import multiprocessing
import multiprocessing.pool
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from pbzlat import axioms, catalog, cli, enumeration, fileformat, terms
from pbzlat.cli import main, parse_recipe
from pbzlat.core import (BoundedLattice, FiniteAlgebra, ValidationError,
                         is_isomorphic)
from pbzlat.enumeration import EnumerationSpec, enumerate_all


def test_docstring_example_is_d4():
    text = """\
algebra D4
elements 0 a b 1
covers 0 < a ; a < b ; b < 1
kleene 0:1 a:b b:a 1:0
brouwer 0:1 a:0 b:0 1:0
bounds 0 1
"""
    A = fileformat.loads(text)
    assert A.tables_equal(catalog.get("D4"))
    assert A.name == "D4"


def test_round_trip_catalog():
    for name in catalog.names():
        A = catalog.get(name)
        B = fileformat.loads(fileformat.dumps(A))
        assert B.tables_equal(A), name
        assert B.labels == A.labels and B.name == A.name


def test_round_trip_enumerated_corpus():
    for A in enumerate_all(EnumerationSpec(max_size=5)):
        B = fileformat.loads(fileformat.dumps(A))
        assert B.tables_equal(A)


def test_file_round_trip(tmp_path):
    p = tmp_path / "mo2.alg"
    fileformat.dump(catalog.get("MO2"), str(p))
    assert fileformat.load(str(p)).tables_equal(catalog.get("MO2"))


def test_comments_and_repeated_keywords():
    text = """\
# a chain, described the long way
elements 0 m 1   # three points
covers 0 < m
covers m < 1
kleene 0:1 1:0
kleene m:m
brouwer 0:1 m:0 1:0
bounds 0 1
"""
    A = fileformat.loads(text)
    assert A.n == 3 and A.tables_equal(catalog.get("D3"))
    assert A.name is None


@pytest.mark.parametrize("text,match", [
    ("algebra A\nalgebra B", "line 2: duplicate 'algebra'"),
    ("algebra", "missing algebra name"),
    ("elements", "empty element list"),
    ("elements a b a", "labels repeat"),
    ("elements a b\ncovers a<b", "bad cover clause"),
    ("elements a b\nkleene a", "bad map entry"),
    ("elements a b\nbounds a", "want 'bounds"),
    ("elements a b\nbounds a b\nbounds a b", "duplicate 'bounds'"),
    ("elements a b\nhasse a < b", "unknown keyword 'hasse'"),
    ("bounds a b", "no 'elements' line"),
    ("elements a b", "no 'bounds' line"),
    ("elements 0 1\ncovers 0 < q\nkleene 0:1 1:0\nbrouwer 0:1 1:0\n"
     "bounds 0 1", "unknown element 'q'"),
    ("elements 0 1\ncovers 0 < 1\nkleene 0:1 1:0 0:0\nbrouwer 0:1 1:0\n"
     "bounds 0 1", "kleene maps '0' twice"),
    ("elements 0 1\ncovers 0 < 1\nkleene 0:1\nbrouwer 0:1 1:0\nbounds 0 1",
     "kleene gives no image for '1'"),
    ("elements 0 a 1\ncovers 0 < a ; a < 1\nkleene 0:1 a:a 1:0\n"
     "brouwer 0:1 a:0 1:0\nbounds 0 a", "declared bounds 0 a"),
])
def test_parse_errors(text, match):
    with pytest.raises(fileformat.ParseError, match=match):
        fileformat.loads(text)


def test_parse_error_carries_line_number():
    with pytest.raises(fileformat.ParseError) as err:
        fileformat.loads("elements a b\nwat\n")
    assert err.value.lineno == 2


def test_non_lattice_covers_fail_validation():
    text = ("elements 0 a b\ncovers 0 < a ; 0 < b\n"
            "kleene 0:0 a:a b:b\nbrouwer 0:0 a:a b:b\nbounds 0 a")
    with pytest.raises(ValidationError):
        fileformat.loads(text)


def test_dumps_rejects_unwritable_labels():
    A = catalog.get("D3")
    bad = A.relabel(("0", "x:y", "1"))
    with pytest.raises(ValueError, match="relabel first"):
        fileformat.dumps(bad)
    # whitespace the loader splits on, though no ASCII space
    for label in ("", "a\rb", "\x0b", "a\xa0", "\u2028"):
        with pytest.raises(ValueError, match="relabel first"):
            fileformat.dumps(A.relabel(("0", label, "1")))
    # a name the algebra line would cut short or break
    for name in ("my # algebra", "a\nb", "a\x85b", " a", "a\t"):
        with pytest.raises(ValueError, match="name"):
            fileformat.dumps(A.relabel(A.labels, name=name))


# Text with no control or separator character, or text that mixes what
# the file format splits on or reserves with any other character.
_FILE_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Z")),
            min_size=1, max_size=4),
    st.text(st.one_of(
        st.sampled_from("ab01 \t\r\n\x0b\x0c\x1c\x85\xa0\u2028#;:<"),
        st.characters(blacklist_categories=("Cs",))), max_size=4))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(("D3", "B4", "MO2")), st.data())
def test_dumps_refuses_or_round_trips(name, data):
    A = catalog.get(name)
    A = FiniteAlgebra.from_lattice(
        A.lattice_reduct(), A.kleene, A.brouwer,
        labels=data.draw(st.lists(_FILE_TEXT, min_size=A.n, max_size=A.n,
                                  unique=True)),
        name=data.draw(st.none() | _FILE_TEXT.filter(bool)))
    try:
        text = fileformat.dumps(A)
    except ValueError:
        return
    B = fileformat.loads(text)
    # an algebra with no name is written, and read back, as L
    assert (B.labels, B.name) == (A.labels, "L" if A.name is None
                                  else A.name)
    assert B.tables_equal(A)


def test_long_sections_wrap_and_reload():
    A = catalog.get("B16")
    text = fileformat.dumps(A)
    assert all(len(line) <= 72 for line in text.splitlines())
    assert sum(line.startswith("covers") for line in text.splitlines()) > 1
    assert fileformat.loads(text).tables_equal(A)


# Edits to a catalog file: delete, insert or replace a word or a run of
# whitespace, the inserted words taken from the format's own vocabulary.
_VOCABULARY = ("\n", " ", "", "algebra", "elements", "covers", "kleene",
               "brouwer", "bounds", "#", "<", ";", ":", "0", "1", "a", "b",
               "zz", "0:1", "a:b", "1 < 0", "0 < 0", "-1", "99", "\u00e9")
_EDITS = st.lists(st.tuples(st.sampled_from(("delete", "insert", "replace")),
                            st.integers(0, 1 << 10),
                            st.sampled_from(_VOCABULARY)),
                  min_size=1, max_size=4)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(catalog.names()), _EDITS)
def test_mutated_files_raise_only_format_errors(name, edits):
    pieces = re.split(r"(\s+)", fileformat.dumps(catalog.get(name)))
    for op, i, word in edits:
        i %= len(pieces)
        if op == "delete":
            del pieces[i]
        elif op == "insert":
            pieces.insert(i, word)
        else:
            pieces[i] = word
    try:
        A = fileformat.loads("".join(pieces))
    except (fileformat.ParseError, ValidationError):
        return
    assert fileformat.loads(fileformat.dumps(A)).tables_equal(A)


# Random pseudo-Kleene pairs of sizes 1-8, each with a Brouwer map that
# makes it a BZ-lattice or with any map at all, its elements in a random
# order, with random labels and a random name.
_LABELS = st.text("abxyz019_'~+-()", min_size=1, max_size=3)
_ALGEBRA_NAMES = st.text("ABTxy0129_()-^", min_size=1, max_size=8)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_random_pk_algebras_round_trip(data):
    n = data.draw(st.integers(1, 8))
    pair = data.draw(st.sampled_from(enumeration._pk_pairs(n)))
    order, kleene = pair.order, pair.kleene
    maps = enumeration.bz_brouwer_maps(BoundedLattice._from_order(order),
                                       kleene)
    brouwer = data.draw(st.one_of(
        st.sampled_from(maps),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    ordering = data.draw(st.permutations(range(n)))
    pos = [0] * n
    for i, a in enumerate(ordering):
        pos[a] = i
    A = FiniteAlgebra._from_masks(
        order.permuted(ordering).up,
        [pos[kleene[a]] for a in ordering],
        [pos[brouwer[a]] for a in ordering],
        labels=data.draw(st.lists(_LABELS, min_size=n, max_size=n,
                                  unique=True)),
        name=data.draw(_ALGEBRA_NAMES))
    text = fileformat.dumps(A)
    B = fileformat.loads(text)
    assert B.tables_equal(A)
    assert (B.labels, B.name) == (A.labels, A.name)
    assert fileformat.dumps(B) == text


def test_export_dot_shape_and_stability():
    A = catalog.get("T1(2x2)")
    dot = fileformat.export_dot(A)
    assert dot.startswith('digraph "T1(2x2)" {\n  rankdir=BT;')
    assert 'node [shape=box];' in dot
    assert dot.count("style=dashed") == 3  # f1-1, fa-a, fb-b
    assert '[label="fa\\n~ f1"]' in dot
    assert dot == fileformat.export_dot(A)
    assert dot == fileformat.export_dot(
        fileformat.loads(fileformat.dumps(A)))
    assert fileformat.export_dot(A, title="x").startswith('digraph "x"')


# ---------------------------------------------------------------------------
# command line


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_cli_check_text(capsys):
    code, out, err = run(capsys, "check", "D4")
    assert code == 0 and err == ""
    assert "+pbz-star" in out and "+antiortholattice" in out
    assert "S_K={0,1}" in out
    assert "blocks:" in out


def test_cli_check_failing_identity(capsys):
    code, out, _ = run(capsys, "check", "D4", "--identity", "SK")
    assert code == 1
    assert "identity SK: FAIL at x=b y=a" in out


def test_cli_check_class_gate(capsys):
    code, out, _ = run(capsys, "check", "O6", "--class", "bz-star")
    assert code == 0
    code, out, _ = run(capsys, "check", "O6", "--class", "pbz-star")
    assert code == 1
    assert "class pbz-star: FAIL" in out


def test_cli_check_labels_nested_witness(tmp_path, capsys):
    # a' = a and a~ = a on the 3-chain: is_bz names the failing clause
    # and its elements, and the elements inside come out as labels too
    path = tmp_path / "fixed.pbz"
    path.write_text("elements 0 a 1\ncovers 0 < a ; a < 1\n"
                    "kleene 0:1 a:a 1:0\nbrouwer 0:1 a:a 1:0\nbounds 0 1\n")
    code, out, _ = run(capsys, "check", str(path), "--class", "bz")
    assert code == 1
    assert "class bz: FAIL, witness ('bz:disjoint', ('a',))" in out
    code, out, _ = run(capsys, "check", str(path), "--class", "bz",
                       "--format", "structured")
    assert code == 1
    assert json.loads(out)["checks"][0]["witness"] == ["bz:disjoint", ["a"]]


def test_cli_check_structured(capsys):
    code, out, _ = run(capsys, "check", "B4", "--format", "structured",
                       "--identity", "DIST")
    assert code == 0
    doc = json.loads(out)
    assert doc["algebra"] == "B4" and doc["n"] == 4
    assert doc["flags"]["orthomodular"] is True
    assert doc["sharp"]["kleene"] == ["0", "1", "a", "b"]
    assert doc["blocks"] == [["0", "1", "a", "b"]]
    assert doc["checks"][0]["ok"] is True and doc["ok"] is True


def test_cli_eval(capsys):
    code, out, _ = run(capsys, "eval", "D4", "PK")
    assert code == 0 and out.startswith("holds on D4")
    code, out, _ = run(capsys, "eval", "D4", "SK")
    assert code == 1
    assert "fails on D4" in out and "x=b y=a" in out
    code, out, _ = run(capsys, "eval", "B4", "x ^ x' = 0")
    assert code == 0


def test_cli_eval_structured(capsys):
    code, out, _ = run(capsys, "eval", "D4", "SK", "--format", "structured")
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False
    assert doc["witness"] == {"x": "b", "y": "a"}


def test_cli_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO(fileformat.dumps(catalog.get("D5"))))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0 and "n=5" in out


def test_recipe_language():
    assert parse_recipe("twist1(chain3)").n == 5
    assert is_isomorphic(parse_recipe("twist1(chain3)"), catalog.get("D5"))
    assert is_isomorphic(parse_recipe("hsum(B4, D3)"), catalog.get("B4+D3"))
    assert is_isomorphic(parse_recipe("hsum(b4, b4, b4)"),
                         parse_recipe("hsum(MO2, B4)"))
    assert is_isomorphic(parse_recipe("prod(D2, D2)"), catalog.get("B4"))
    assert parse_recipe("twist2(osum(bool4, chain2))").n == 12
    assert parse_recipe("T1(N5+1)").n == 11


def test_cli_construct(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "twist1(chain3)")
    assert code == 0
    assert fileformat.loads(out).n == 5

    dest = tmp_path / "made.alg"
    code, out, _ = run(capsys, "construct", "hsum(B4,D4)",
                       "-o", str(dest), "--name", "my-sum")
    assert code == 0
    A = fileformat.load(str(dest))
    assert A.name == "my-sum" and is_isomorphic(A, catalog.get("B4+D4"))


def test_cli_construct_errors(capsys):
    code, _, err = run(capsys, "construct", "chain4")
    assert code == 2 and "wrap it in twist1" in err
    code, _, err = run(capsys, "construct", "hsum(chain2,chain2)")
    assert code == 2 and "wrap bare lattices" in err
    code, _, err = run(capsys, "construct", "twist3(chain2)")
    assert code == 2 and "recipe error" in err
    code, _, err = run(capsys, "construct", "twist1(chain3")
    assert code == 2 and "expected ',' or ')'" in err
    code, _, err = run(capsys, "construct", "hsum(D3,D3)")
    assert code == 2 and "at most one" in err
    # a name the algebra line cannot hold is refused, not cut short
    code, out, err = run(capsys, "construct", "D4", "--name", "my # algebra")
    assert code == 2 and out == "" and "cannot appear" in err
    # the ordinal sum's l:/u: labels cannot be written to a file
    code, _, err = run(capsys, "construct", "twist1(osum(chain2,chain2))")
    assert code == 2 and err.startswith("error: label 'f(l:1)' cannot")
    # so no recipe with osum makes a file, and the help shows none
    code, _, err = run(capsys, "construct", "osum(chain2,B4)")
    assert code == 2 and "the recipe yields a bare lattice" in err
    code, _, err = run(capsys, "construct", "twist1(osum(chain2,B4))")
    assert code == 2 and err.startswith("error: label 'f(l:1)' cannot")
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert "twist1(chain3)" in out and "osum" not in out


def test_cli_enumerate(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, out, _ = run(capsys, "enumerate", "--max", "5",
                       "--class", "pbz-star", "-o", str(out_dir))
    assert code == 0
    assert "n=5: 2" in out and "total 7" in out
    files = sorted(p.name for p in out_dir.iterdir())
    assert files[0] == "n1-000.alg" and "n5-001.alg" in files
    A = fileformat.load(str(out_dir / "n5-001.alg"))
    assert A.n == 5 and A.name == "n5-001"


def test_cli_enumerate_structured(capsys):
    code, out, _ = run(capsys, "enumerate", "--max", "4",
                       "--structure", "antiortholattice",
                       "--format", "structured")
    doc = json.loads(out)
    assert code == 0
    assert doc["counts"] == {"1": 1, "2": 1, "3": 1, "4": 1}
    assert doc["spec"]["structure"] == "antiortholattice"


def _no_level(order):
    raise AssertionError("a lattice level was generated")


def test_cli_enumerate_cap_error(capsys, tmp_path, monkeypatch):
    code, _, err = run(capsys, "enumerate", "--max", "9")
    assert code == 2 and "general cap" in err
    # the cap is checked before any level is generated or written
    for stage in ("_lattices", "_bz_level"):
        monkeypatch.setattr(enumeration, stage, functools.cache(
            getattr(enumeration, stage).__wrapped__))
    monkeypatch.setattr(enumeration, "_atom_extensions", _no_level)
    out = tmp_path / "out"
    code, _, err = run(capsys, "enumerate", "--max", "9", "-o", str(out))
    assert code == 2 and "general cap" in err
    assert not out.exists()


def test_cli_search_found(tmp_path, capsys):
    code, out, _ = run(capsys, "search", "J", "--max", "7",
                       "--class", "pbz-star")
    assert code == 0
    assert "counterexample at n=7 (examined 18)" in out
    assert "fails at x=d y=b" in out
    assert "algebra cex-n7" in out

    dest = tmp_path / "cex.alg"
    code, out, _ = run(capsys, "search", "J", "--max", "7",
                       "--class", "pbz-star", "-o", str(dest))
    assert code == 0 and f"written to {dest}" in out
    assert fileformat.load(str(dest)).n == 7

    # a clause: the four-element Boolean algebra, whose atoms are
    # swapped by ' and each incomparable to its image
    code, out, _ = run(capsys, "search", "CONES", "--max", "8",
                       "--class", "pbz-star")
    assert code == 0
    assert "counterexample at n=4 (examined 5): fails at x=a" in out
    found = fileformat.loads(out.split("\n\n", 1)[1])
    assert is_isomorphic(found, catalog.get("B4"))


def test_cli_search_structured(capsys):
    code, out, _ = run(capsys, "search", "SDM", "--max", "7",
                       "--structure", "distributive",
                       "--class", "antiortholattice",
                       "--format", "structured", "--jobs", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["examined"] == 9 and doc["exhausted"] is False
    found = fileformat.loads(doc["found"]["file"])
    assert is_isomorphic(found, catalog.get("T1(2x2)"))


def test_cli_search_exhausted(capsys):
    code, out, _ = run(capsys, "search", "DIST", "--max", "6",
                       "--structure", "chain")
    assert code == 1
    assert "exhausted: no counterexample up to n=6" in out


def test_cli_export_dot(tmp_path, capsys):
    code, out, _ = run(capsys, "export-dot", "B4")
    assert code == 0 and out.startswith('digraph "B4"')
    dest = tmp_path / "b4.dot"
    code, _, _ = run(capsys, "export-dot", "B4", "-o", str(dest))
    assert dest.read_text(encoding="utf-8") == out


def test_cli_bad_inputs(tmp_path, capsys):
    code, _, err = run(capsys, "check", "Q17")
    assert code == 2 and "neither a file nor a catalog name" in err
    code, _, err = run(capsys, "eval", "D4", "x ^^ y = x")
    assert code == 2
    # a missing token is named by what the user would type
    code, _, err = run(capsys, "eval", "D4", "x = y & y = x")
    assert (code, err) == (2, "error: expected '=>', found end of input "
                              "(at position 13)\n")
    code, _, err = run(capsys, "eval", "D4", "(x v y = x")
    assert (code, err) == (2, "error: expected ')', found '=' "
                              "(at position 7)\n")
    # malformed disjunctions: a missing disjunct, disjuncts that are
    # terms, and a disjunction among the premises
    for text in ("x = y |", "x | y", "| x = y", "x = y | y = x => x = 1",
                 "x = y & y = 1 | x = 1 => x = 0"):
        code, out, err = run(capsys, "eval", "D4", text)
        assert code == 2 and out == "", text
        assert err.startswith("error: ") and "Traceback" not in err, text
    bad = tmp_path / "bad.alg"
    bad.write_text("elements a b\nwat\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2 and "line 2" in err
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["check", "D4", "--class", "magic"])
    assert exc.value.code == 2


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.out"
    plain = tmp_path / "plain"
    plain.write_text("", encoding="utf-8")
    for argv in (
            ("export-dot", "D4", "-o", str(missing)),
            ("construct", "twist1(chain3)", "-o", str(missing)),
            ("search", "J", "--max", "7", "--class", "pbz-star",
             "-o", str(missing)),
            ("enumerate", "--max", "3", "-o", str(plain / "x"))):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: "), argv
    assert not missing.parent.exists()


def test_cli_enumerate_makes_directory_first(tmp_path, capsys, monkeypatch):
    out = tmp_path / "corpus"
    seen = []
    generate = enumeration.enumerate_pbz

    def watched(n, spec):
        seen.append(out.is_dir())
        return generate(n, spec)

    monkeypatch.setattr(enumeration, "enumerate_pbz", watched)
    code, _, _ = run(capsys, "enumerate", "--max", "3", "-o", str(out))
    assert code == 0 and seen == [True, True, True]


def test_cli_refuses_nonpositive_jobs(capsys):
    for jobs in ("0", "-1", "two"):
        for argv in (["enumerate", "--max", "3"],
                     ["search", "J", "--max", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--jobs", jobs])
            assert exc.value.code == 2
            assert "positive integer" in capsys.readouterr().err


def test_cli_enumerate_bytes_independent_of_jobs(tmp_path, capsys,
                                                 monkeypatch):
    # --jobs is accepted and ignored: no process pool is started or
    # used, and the levels are built afresh for each jobs count
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was used")

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    monkeypatch.setattr(multiprocessing.pool.Pool, "map", refuse)
    trees, searches = [], []
    for jobs in ("1", "2"):
        monkeypatch.setattr(enumeration, "_bz_level", functools.cache(
            enumeration._bz_level.__wrapped__))
        out = tmp_path / f"jobs{jobs}"
        code, _, _ = run(capsys, "enumerate", "--max", "6", "-o", str(out),
                         "--jobs", jobs)
        assert code == 0
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        code, out, _ = run(capsys, "search", "J", "--max", "8", "--class",
                           "pbz-star", "--format", "structured",
                           "--jobs", jobs)
        assert code == 0
        searches.append(out)
    assert trees[0] == trees[1] and len(trees[0]) == 21
    assert searches[0] == searches[1]
    assert json.loads(searches[0])["found"] is not None


# ---------------------------------------------------------------------------
# one parser per process


def _parsed(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as e:
        return ("exit", e.code)


def test_cli_reused_parser_matches_a_fresh_one(capsys):
    assert cli.build_parser() is cli.build_parser()
    # repeatable options given, then the same command without them, and
    # a usage error followed by a good call
    sequence = (
        ["check", "D4", "--class", "bz", "--class", "pbz-star",
         "--identity", "SDM", "--identity", "x = x", "--format",
         "structured"],
        ["check", "D4"],
        ["eval", "D4", "SDM", "--format", "structured"],
        ["eval", "D4", "SDM"],
        ["construct", "twist1(chain3)", "-o", "t.alg", "--name", "T"],
        ["construct", "twist1(chain3)"],
        ["enumerate", "--max", "5", "--class", "pbz-star", "--require",
         "SDM", "--require", "J", "--structure", "chain", "--jobs", "2",
         "-o", "corpus"],
        ["enumerate", "--max", "5"],
        ["search", "J", "--max", "6", "--class", "pbz-star", "--class",
         "bz", "--require", "SDM", "--format", "structured", "-o", "x"],
        ["search", "J", "--max", "6"],
        ["export-dot", "B4", "-o", "b4.dot"],
        ["export-dot", "B4"],
        ["check", "D4", "--class", "magic"],
        ["check", "D4", "--class", "bz"],
        ["search", "J", "--class", "bz"],
        ["search", "J", "--max", "6"],
        ["enumerate", "--max", "3", "--jobs", "0"],
        ["enumerate", "--max", "3"],
    )
    seen = []
    for argv in sequence:
        seen.append(_parsed(cli.build_parser(), argv))
        assert seen[-1] == _parsed(cli.build_parser.__wrapped__(), argv), argv
    assert seen.count(("exit", 2)) == 3


def test_cli_output_after_a_call_matches_a_fresh_process(capsys):
    argv = ["search", "J", "--max", "6", "--format", "structured"]
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    fresh = subprocess.run([sys.executable, "-m", "pbzlat", *argv],
                           capture_output=True, text=True, env=env)
    assert main(argv[:4] + ["--class", "pbz-star"] + argv[4:]) in (0, 1)
    for _ in range(2):
        capsys.readouterr()
        code = main(argv)
        assert (code, capsys.readouterr().out) == \
            (fresh.returncode, fresh.stdout)
    # the commands left nothing behind in the parser's defaults
    assert _parsed(cli.build_parser(), argv) == \
        _parsed(cli.build_parser.__wrapped__(), argv)


# Run in a fresh process: the import, reporting which of dataclasses,
# inspect and numpy it loaded, then the commands that scan no statement
# and read no .leq, then one probe that does, each reporting whether
# numpy has been imported by then.
_NUMPY_PROBE = """
import contextlib, io, json, sys
import pbzlat, pbzlat.cli
from pbzlat import catalog, terms
argvs, probe = json.loads(sys.argv[1]), sys.argv[2]
report = {"import": [name for name in ("dataclasses", "inspect", "numpy")
                     if name in sys.modules]}
for argv in argvs:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = pbzlat.cli.main(argv)
    report[argv[0]] = [code, text.getvalue(), "numpy" in sys.modules]
A = catalog.get("T1(2x2)")
if probe == "search":
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        value = [pbzlat.cli.main(["search", "SDM", "--max", "6"]),
                 text.getvalue()]
elif probe == "holds":
    value = list(terms.holds(A, terms.THEORY["SDM"]))
else:
    leq = A.leq
    value = [type(leq).__module__, leq.flags.writeable, leq.tolist()]
report[probe] = [value, "numpy" in sys.modules]
print(json.dumps(report))
"""


@pytest.mark.parametrize("probe", ["search", "holds", "leq"])
def test_numpy_is_imported_on_first_use(probe, tmp_path, capsys):
    out, path = tmp_path / "out", tmp_path / "t1.pbz"
    argvs = [["enumerate", "--structure", "antiortholattice", "--max", "8",
              "-o", str(out)],
             ["construct", "twist1(chain3)", "-o", str(path)],
             ["check", str(path)], ["export-dot", str(path)]]
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    fresh = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(argvs), probe],
        capture_output=True, text=True, env=env, check=True)
    report = json.loads(fresh.stdout)
    assert report["import"] == []
    for argv in argvs:
        assert report[argv[0]][2] is False, argv[0]
    value, loaded = report[probe]
    assert loaded is True
    # the fresh process printed and wrote what this one does
    written = {p.name: p.read_bytes() for p in [path, *out.iterdir()]}
    for argv in argvs:
        assert list(run(capsys, *argv)[:2]) == report[argv[0]][:2]
    assert {p.name: p.read_bytes() for p in [path, *out.iterdir()]} == \
        written
    A = catalog.get("T1(2x2)")
    if probe == "search":
        assert value == list(run(capsys, "search", "SDM", "--max", "6")[:2])
    elif probe == "holds":
        assert value == list(terms.holds(A, terms.THEORY["SDM"]))
    else:
        assert value == ["numpy", False, A.leq.tolist()]


def test_a_small_scan_leaves_numpy_unloaded():
    # PK on D3 scans 9 assignments, which run on Python ints, so a fresh
    # process that decides it has not imported numpy
    code = ("import sys\n"
            "from pbzlat import catalog, terms\n"
            "print(terms.holds(catalog.get('D3'), terms.THEORY['PK']))\n"
            "print('numpy' in sys.modules)\n")
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env, check=True)
    assert fresh.stdout.splitlines() == ["(True, None)", "False"]


# Arguments for check, construct and search: real names and junk.
_JUNK = st.sampled_from(("", "magic", "-", "x", "Q17", "b4 ", "--max",
                         "\u00e9", "x = y", "x ^^ y"))
_CLASSES = st.one_of(st.sampled_from(axioms.CLASS_FLAGS), _JUNK)
_NAMES = st.one_of(st.sampled_from(sorted(terms.THEORY)), _JUNK,
                   st.sampled_from(("x = x", "x <= y | y <= x",
                                    "x ^ y = 0 => x = 0 | y = 0")))
_ALGEBRAS = st.one_of(st.sampled_from(catalog.names()), _JUNK)
_RECIPE_ATOMS = st.sampled_from(
    [name for name in catalog.names() if catalog.get(name).n <= 6]
    + ["chain0", "chain1", "chain3", "bool0", "bool2", "bool3", "foo",
       "twist1", "prod"])
_RECIPES = st.one_of(
    st.recursive(
        _RECIPE_ATOMS,
        lambda sub: st.tuples(
            st.sampled_from(("twist1", "twist2", "osum", "prod", "hsum")),
            st.lists(sub, min_size=1, max_size=3)).map(
                lambda p: f"{p[0]}({','.join(p[1])})"),
        max_leaves=3),
    st.lists(st.sampled_from(("twist1", "prod", "hsum", "(", ")", ",",
                              "D3", "B4", "chain2", "7")),
             max_size=8).map("".join))


def _repeated(flag, values):
    return st.lists(values, max_size=2).map(
        lambda vs: [a for v in vs for a in (flag, v)])


def _options(*choices):
    return st.lists(st.one_of(*choices), max_size=3).map(
        lambda parts: [a for part in parts for a in part])


_ARGVS = st.one_of(
    st.tuples(st.just(["check"]), _ALGEBRAS.map(lambda a: [a]),
              _options(_repeated("--class", _CLASSES),
                       _repeated("--identity", _NAMES),
                       st.just(["--format", "structured"]))),
    st.tuples(st.just(["construct"]), _RECIPES.map(lambda r: [r]),
              _options(st.tuples(st.just("--name"), _JUNK).map(list))),
    st.tuples(st.just(["search"]), _NAMES.map(lambda i: [i]),
              st.integers(1, 4).map(lambda m: ["--max", str(m)]),
              _options(_repeated("--class", _CLASSES),
                       _repeated("--require", _NAMES),
                       st.sampled_from(("chain", "distributive",
                                        "antiortholattice", "lattice")).map(
                           lambda s: ["--structure", s]),
                       st.just(["--format", "structured"]))),
).map(lambda parts: [a for part in parts for a in part])


def _exits_by_contract(argv):
    """Run one command: it returns 0, 1 or 2, writing ``error: `` to
    stderr exactly when 2, or argparse exits with 2."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO("")  # the algebra "-"
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:
        assert e.code == 2, argv
        return
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2), argv
    assert (code == 2) == err.getvalue().startswith("error: "), argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_ARGVS)
def test_cli_arguments_exit_by_contract(argv):
    _exits_by_contract(argv)


# Arguments for enumerate and export-dot.  Paths name places in a fresh
# temporary directory: nothing yet, an empty file, a directory, a path
# below a missing directory, and for export-dot a valid algebra file.
_PATHS = st.sampled_from(("new", "empty", "dir", "missing/new")).map(
    lambda p: "@tmp/" + p)
_ENUMERATE_ARGVS = st.tuples(
    st.just(["enumerate"]),
    st.one_of(st.integers(-1, 4).map(str), st.sampled_from(("13", "99")),
              _JUNK).map(lambda m: ["--max", m]),
    _options(_repeated("--class", _CLASSES),
             _repeated("--require", _NAMES),
             st.sampled_from(("chain", "distributive", "antiortholattice",
                              "lattice")).map(lambda s: ["--structure", s]),
             st.sampled_from(("1", "0", "x", "")).map(
                 lambda j: ["--jobs", j]),
             _PATHS.map(lambda p: ["-o", p]),
             st.just(["--format", "structured"])))
_EXPORT_DOT_ARGVS = st.tuples(
    st.just(["export-dot"]),
    st.one_of(_ALGEBRAS, _PATHS, st.just("@tmp/alg")).map(lambda a: [a]),
    _options(_PATHS.map(lambda p: ["-o", p])))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(_ENUMERATE_ARGVS, _EXPORT_DOT_ARGVS).map(
    lambda parts: [a for part in parts for a in part]))
def test_enumerate_and_export_dot_arguments_exit_by_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "empty").write_text("")
        (root / "dir").mkdir()
        fileformat.dump(catalog.get("D4"), root / "alg")
        _exits_by_contract([a.replace("@tmp", tmp, 1) for a in argv])
