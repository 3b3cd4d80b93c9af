"""Each checker accepts a right output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py

The fixtures are hand-written algebra files, so these tests need
neither pbzlat nor a benchmark run.
"""

import json

import checks
import tables

D3 = """algebra D3
elements 0 a 1
covers 0 < a ; a < 1
kleene 0:1 a:a 1:0
brouwer 0:1 a:0 1:0
bounds 0 1
"""

D4 = """algebra D4
elements 0 a b 1
covers 0 < a ; a < b ; b < 1
kleene 0:1 a:b b:a 1:0
brouwer 0:1 a:0 b:0 1:0
bounds 0 1
"""

# the four-element Boolean algebra with ~ = ' : an ortholattice
B4 = """algebra B4
elements 0 a b 1
covers 0 < a ; 0 < b ; a < 1 ; b < 1
kleene 0:1 a:b b:a 1:0
brouwer 0:1 a:b b:a 1:0
bounds 0 1
"""

# the diamond M3 with a new bottom and top; a and its involute b are
# incomparable, and the algebra is subdirectly irreducible
M3_PADDED = """algebra M3pad
elements 0 p a b c q 1
covers 0 < p ; p < a ; p < b ; p < c ; a < q ; b < q ; c < q ; q < 1
kleene 0:1 p:q a:b b:a c:c q:p 1:0
brouwer 0:1 p:0 a:0 b:0 c:0 q:0 1:0
bounds 0 1
"""


def relabel(text, mapping):
    out = []
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        if key != "algebra":
            for old, new in mapping.items():
                rest = " ".join(
                    ":".join(new if part == old else part
                             for part in tok.split(":"))
                    for tok in rest.split(" "))
        out.append(f"{key} {rest}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# tables


def test_tables_read_the_file_format():
    A = tables.parse_algebra(D4)
    assert (A.n, A.zero, A.one) == (4, 0, 3)
    assert A.leq[0][3] and not A.leq[2][1]
    assert A.meet[1][2] == 1 and A.join[1][2] == 2
    assert tables.is_lattice(A) and tables.in_class(A, "pbz-star")


def test_tables_subdirect_irreducibility():
    assert tables.is_subdirectly_irreducible(tables.parse_algebra(M3_PADDED))
    assert tables.is_subdirectly_irreducible(tables.parse_algebra(D3))
    # B4 is the square of the two-element chain
    assert not tables.is_subdirectly_irreducible(tables.parse_algebra(B4))


def test_tables_isomorphism():
    A = tables.parse_algebra(D4)
    B = tables.parse_algebra(relabel(relabel(D4, {"a": "t"}), {"b": "a"}))
    assert tables.isomorphic(A, B)
    assert not tables.isomorphic(A, tables.parse_algebra(B4))


def test_evaluator_agrees_with_hand_values():
    A = tables.parse_algebra(D4)
    ev = tables.Evaluator(A)
    sk = tables.parse_statement("x ^ <>y <= []x v y")
    assert not ev.holds(sk)
    assert not ev.holds_at(sk, {"x": 2, "y": 1})
    assert ev.holds_at(sk, {"x": 0, "y": 0})
    assert ev.holds(tables.parse_statement("x <= y => y~ <= x~"))
    assert ev.holds(tables.parse_statement("x'' = x"))


# ---------------------------------------------------------------------------
# aol-enumerate-10


def test_aol_level_accepts_the_right_level():
    assert checks.check_aol_level(3, 1, [D3], 1) is None
    assert checks.check_aol_level(4, 1, [D4], 2) is None


def test_aol_level_rejects_a_wrong_level_count():
    assert checks.check_aol_level(4, 2, [D4], 2) is not None


def test_aol_level_rejects_a_wrong_lattice_count():
    assert "A006966" in checks.check_aol_level(4, 1, [D4], 3)


def test_aol_level_rejects_isomorphic_files():
    twin = relabel(relabel(D4, {"a": "t"}), {"b": "a"})
    assert "isomorphic" in checks.check_aol_level(4, 2, [D4, twin], 2)


def test_aol_level_rejects_a_non_antiortholattice():
    assert checks.check_aol_level(4, 1, [B4], 2) is not None


def test_aol_level_rejects_a_missing_covering_member():
    # size 7 needs two algebras with covering cones; M3pad has none
    assert "covering" in checks.check_aol_level(7, 1, [M3_PADDED], 53)


# ---------------------------------------------------------------------------
# corpora


def test_corpus_accepts_the_right_corpus():
    algs = [tables.parse_algebra(t) for t in (D3, D4)]
    assert checks.check_corpus("pbz-star", algs, (0, 0, 1, 1)) is None
    assert checks.check_corpus("aol", algs, (0, 0, 1, 1)) is None


def test_corpus_rejects_a_missing_algebra():
    algs = [tables.parse_algebra(D3)]
    assert "sizes" in checks.check_corpus("pbz-star", algs, (0, 0, 1, 1))


def test_corpus_rejects_isomorphic_members():
    twin = relabel(relabel(D4, {"a": "t"}), {"b": "a"})
    algs = [tables.parse_algebra(t) for t in (D3, D4, twin)]
    assert "isomorphic" in checks.check_corpus("pbz-star", algs,
                                               (0, 0, 1, 2))


def test_corpus_rejects_a_member_outside_the_class():
    not_bz = D4.replace("brouwer 0:1 a:0 b:0 1:0", "brouwer 0:1 a:1 b:0 1:0")
    algs = [tables.parse_algebra(t) for t in (D3, not_bz)]
    assert "class" in checks.check_corpus(None, algs, (0, 0, 1, 1))
    algs = [tables.parse_algebra(t) for t in (D3, B4)]
    assert checks.check_corpus("aol", algs, (0, 0, 1, 1)) is not None


def test_corpus_sizes_are_the_fixed_ones_by_default():
    assert "sizes" in checks.check_corpus(None, [tables.parse_algebra(D3)])


# ---------------------------------------------------------------------------
# search-battery-8


def search_output(found_text, witness, n, examined):
    return json.dumps({"examined": examined, "exhausted": False,
                       "found": {"file": found_text, "n": n,
                                 "witness": witness}})


def corpus(*texts):
    algs = [tables.parse_algebra(t) for t in texts]
    return [(A, tables.Evaluator(A)) for A in algs]


SK = "x ^ <>y <= []x v y"


def test_search_accepts_a_true_counterexample():
    out = search_output(D4, {"x": "b", "y": "a"}, 4, 3)
    assert checks.check_search(None, SK, 0, out, corpus(D3, D3, D4)) is None


def test_search_rejects_a_witness_that_satisfies_the_identity():
    out = search_output(D4, {"x": "0", "y": "0"}, 4, 3)
    assert "satisfies" in checks.check_search(None, SK, 0, out,
                                              corpus(D3, D3, D4))


def test_search_rejects_a_counterexample_outside_the_class():
    not_bz = D4.replace("brouwer 0:1 a:0 b:0 1:0", "brouwer 0:1 a:1 b:0 1:0")
    out = search_output(not_bz, {"x": "b", "y": "a"}, 4, 3)
    assert "class" in checks.check_search(None, SK, 0, out,
                                          corpus(D3, D3, not_bz))


def test_search_rejects_a_counterexample_that_is_not_smallest():
    # x <= x' already fails on D3 (x = 1)
    out = search_output(D4, {"x": "1"}, 4, 2)
    assert "already fails" in checks.check_search(None, "x <= x'", 0, out,
                                                  corpus(D3, D4))


def test_search_rejects_a_wrong_examined_count():
    out = search_output(D4, {"x": "b", "y": "a"}, 4, 3)
    assert "examined" in checks.check_search(None, SK, 0, out,
                                             corpus(D3, D4))


def test_search_rejects_an_exhausted_search_with_a_failing_member():
    out = json.dumps({"examined": 2, "exhausted": True, "found": None})
    assert "fails" in checks.check_search(None, SK, 1, out, corpus(D3, D4))
    assert checks.check_search(None, "x'' = x", 1, out,
                               corpus(D3, D4)) is None


def test_search_reports_an_error_exit():
    assert checks.check_search(None, SK, 2, "", corpus(D3)).startswith(
        "error:")


# ---------------------------------------------------------------------------
# claim-sweep-10


def test_claim_accepts_the_confirmed_failure():
    algs = [tables.parse_algebra(t) for t in (D3, D4, M3_PADDED)]
    expected = checks.expected_cone_failures("si-aol-basis-cones", algs)
    assert expected == ({2}, 3)
    assert checks.check_claim("si-aol-basis-cones", 3, 3, (M3_PADDED,),
                              algs, expected) is None


def test_claim_rejects_a_failure_with_comparable_involutes():
    algs = [tables.parse_algebra(t) for t in (D3, D4, M3_PADDED)]
    expected = checks.expected_cone_failures("si-aol-basis-cones", algs)
    why = checks.check_claim("si-aol-basis-cones", 3, 3, (D4,), algs,
                             expected)
    assert "comparable" in why


def test_claim_rejects_a_missed_failure_and_a_wrong_examined_count():
    algs = [tables.parse_algebra(t) for t in (D3, D4, M3_PADDED)]
    expected = checks.expected_cone_failures("si-aol-basis-cones", algs)
    assert "tables give" in checks.check_claim(
        "si-aol-basis-cones", 3, 3, (), algs, expected)
    assert "examined" in checks.check_claim(
        "si-aol-basis-cones", 2, 3, (M3_PADDED,), algs, expected)


def test_claim_rejects_failures_no_check_can_confirm():
    algs = [tables.parse_algebra(t) for t in (D3, D4)]
    assert checks.check_claim("aol-sk-collapse", 2, 2, (), algs,
                              None) is None
    assert "confirm" in checks.check_claim("aol-sk-collapse", 2, 2, (D4,),
                                           algs, None)
