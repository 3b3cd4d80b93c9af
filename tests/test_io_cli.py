"""Algebra files, DOT export, and the command-line front end."""

import io
import json
import sys

import pytest

from pbzlat import catalog, enumeration, fileformat
from pbzlat.cli import main, parse_recipe
from pbzlat.core import FiniteAlgebra, ValidationError, is_isomorphic
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


def test_long_sections_wrap_and_reload():
    A = catalog.get("B16")
    text = fileformat.dumps(A)
    assert all(len(line) <= 72 for line in text.splitlines())
    assert sum(line.startswith("covers") for line in text.splitlines()) > 1
    assert fileformat.loads(text).tables_equal(A)


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
    # the ordinal sum's l:/u: labels cannot be written to a file
    code, _, err = run(capsys, "construct", "twist1(osum(chain2,chain2))")
    assert code == 2 and err.startswith("error: label 'f(l:1)' cannot")


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
    monkeypatch.setattr(enumeration, "_LATTICE_MEMO", {})
    monkeypatch.setattr(enumeration, "_LEVEL_MEMO", {})
    monkeypatch.setattr(enumeration, "_CORPUS_MEMO", {})
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

    def watched(n, spec, jobs=1):
        seen.append(out.is_dir())
        return generate(n, spec, jobs=jobs)

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


def test_cli_enumerate_bytes_independent_of_jobs(tmp_path, capsys):
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        code, _, _ = run(capsys, "enumerate", "--max", "6", "-o", str(out),
                         "--jobs", jobs)
        assert code == 0
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert trees[0] == trees[1] and len(trees[0]) == 21
