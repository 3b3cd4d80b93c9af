"""Acceptance gate: fifteen criteria, one test and one report line each.

Run with ``python3 -m pytest tests/test_acceptance.py -v`` to get the
per-criterion pass/fail lines.  Expected values marked here as frozen
were produced by the independent oracles in _oracles.py or by hand
calculation before being asserted against the implementation.
"""

import hashlib
import subprocess
import sys
import time

from pbzlat import axioms, catalog, fileformat, terms
from pbzlat.congruences import (
    agreement_below, all_congruences, is_subdirectly_irreducible,
    tilde_family_report, tilde_join_relation, tilde_meet_relation,
)
from pbzlat.constructions import (
    cones, horizontal_sum, is_horizontal_sum_of_blocks, twist1, twist2,
    twist_represent,
)
from pbzlat.core import canonical_form, chain_lattice, is_isomorphic
from pbzlat.enumeration import (
    EnumerationSpec, enumerate_all, enumerate_pbz, search_counterexample,
    verify_over_corpus,
)

import _oracles


def _ok(num, label):
    print(f"criterion {num:02d} PASS: {label}")


def _aols(max_size):
    return list(enumerate_all(
        EnumerationSpec(max_size=max_size, structure="antiortholattice")))


def _bz_stars_to_6():
    return list(enumerate_all(EnumerationSpec(max_size=6,
                                              classes=("bz-star",))))


def test_c01_catalog_soundness_and_sk_witness():
    t0 = time.perf_counter()
    expected_flags = {
        "D2": {"antiortholattice": True, "orthomodular": True},
        "D3": {"antiortholattice": True, "orthomodular": False},
        "D4": {"antiortholattice": True, "orthomodular": False},
        "D5": {"antiortholattice": True, "orthomodular": False},
        "D6": {"antiortholattice": True, "orthomodular": False},
        "D7": {"antiortholattice": True, "orthomodular": False},
        "D8": {"antiortholattice": True, "orthomodular": False},
        "MO2": {"antiortholattice": False, "orthomodular": True},
        "O6": {"antiortholattice": False, "orthomodular": False,
               "pbz-star": False, "bz-star": True},
    }
    for name, want in expected_flags.items():
        flags = axioms.classify(catalog.get(name)).flags()
        assert flags["bounded-involution"] and flags["pseudo-kleene"]
        if "pbz-star" not in want:
            assert flags["pbz-star"], name
        for key, val in want.items():
            assert flags[key] == val, (name, key)

    D4 = catalog.get("D4")  # elements 0 a b 1
    a, b = 1, 2
    ok, witness = terms.holds(D4, terms.THEORY["SK"])
    assert not ok
    assert witness == {"x": b, "y": a}  # first failure in odometer order
    # the one-variable reading of the same failure: x = a violates
    # x' ^ <>x <= []x' v x
    lhs = terms.evaluate(D4, terms.parse_term("x' ^ <>x"), {"x": a})
    rhs = terms.evaluate(D4, terms.parse_term("[]x' v x"), {"x": a})
    assert lhs == b and rhs == a and not D4.le(lhs, rhs)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _ok(1, "catalog classifies as documented; D4 fails SK at x=a")


def test_c02_sharp_set_collapse():
    t0 = time.perf_counter()
    checked = 0
    for A in _bz_stars_to_6():
        if not axioms.classify(A).paraorthomodular:
            continue
        sharp = axioms.sharp_sets(A)
        assert sharp.s_k == sharp.s_diamond == sharp.s_b, A
        checked += 1
    assert checked > 0
    rep = verify_over_corpus("sharp-sets-collapse",
                             EnumerationSpec(max_size=6,
                                             classes=("bz-star",)))
    assert rep.ok and rep.checked == checked
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"criterion 2 took {elapsed:.1f}s"
    _ok(2, f"three sharp sets coincide on {checked} paraorthomodular "
           "BZ* algebras, n <= 6")


def test_c03_paraorthomodular_iff_diamond_orthomodular():
    corpus = _bz_stars_to_6()
    for A in corpus:
        rep = axioms.classify(A)
        assert rep.paraorthomodular == rep.diamond_orthomodular, A
    rep = verify_over_corpus("paraorthomodular-equivalence",
                             EnumerationSpec(max_size=6,
                                             classes=("bz-star",)))
    assert rep.ok and rep.checked == len(corpus) == 13
    _ok(3, "paraorthomodularity and diamond-orthomodularity agree on "
           "all 13 BZ* algebras, n <= 6")


def test_c04_aol_axioms_hold_on_antiortholattices():
    corpus = _aols(8)
    assert len(corpus) == 17
    for A in corpus:
        for name in ("AOL1", "AOL2", "AOL3"):
            assert terms.holds(A, terms.THEORY[name])[0], (A, name)
    _ok(4, "AOL1-3 hold on all 17 antiortholattices, n <= 8")


def test_c05_j_separates_pbz_star():
    for A in _aols(8):
        assert terms.holds(A, terms.THEORY["J"])[0]
    omls = [e.algebra for e in map(catalog.entry, catalog.names())
            if axioms.classify(e.algebra).orthomodular]
    assert {A.name for A in omls} >= {"B4", "B8", "B16", "MO2", "D2"}
    for A in omls:
        assert terms.holds(A, terms.THEORY["J"])[0], A.name
    res = search_counterexample(
        terms.THEORY["J"], EnumerationSpec(max_size=8,
                                           classes=("pbz-star",)))
    assert res and not res.exhausted
    assert res.found.n == 7 and res.examined == 18  # frozen
    assert not terms.holds(res.found, terms.THEORY["J"])[0]
    _ok(5, "J holds on antiortholattices and catalog OMLs; smallest "
           "PBZ* failure found at n=7")


def test_c06_variety_separation_searches():
    res = search_counterexample(
        terms.THEORY["DIST"],
        EnumerationSpec(max_size=8, classes=("antiortholattice",),
                        identities=("SDM",)))
    assert res and res.found.n <= 8
    A = res.found
    assert axioms.classify(A).antiortholattice
    assert terms.holds(A, terms.THEORY["SDM"])[0]
    assert not terms.holds(A, terms.THEORY["DIST"])[0]

    res = search_counterexample(
        terms.THEORY["SDM"],
        EnumerationSpec(max_size=8, structure="distributive",
                        classes=("antiortholattice",)))
    assert res and res.found.n <= 8
    B = res.found
    assert axioms.classify(B).antiortholattice
    assert terms.holds(B, terms.THEORY["DIST"])[0]
    assert not terms.holds(B, terms.THEORY["SDM"])[0]
    _ok(6, "searches exhibit SDM-not-DIST and DIST-not-SDM "
           "antiortholattices at n=7")


def test_c07_twist_round_trip():
    covered = skipped = 0
    for A in _aols(10):
        if A.n < 2:
            continue
        cn = cones(A)
        if cn.negative | cn.positive != frozenset(range(A.n)):
            rep = twist_represent(A)
            assert not rep.ok and rep.witness is not None
            skipped += 1
            continue
        rep = twist_represent(A)
        assert rep.ok, A
        covered += 1
        # re-verify the isomorphism here rather than trusting the
        # constructor's own audit
        for x in range(A.n):
            assert rep.rebuilt.kleene[rep.iso[x]] == rep.iso[A.kleene[x]]
            assert rep.rebuilt.brouwer[rep.iso[x]] == rep.iso[A.brouwer[x]]
            for y in range(A.n):
                assert A.le(x, y) == rep.rebuilt.le(rep.iso[x], rep.iso[y])
    # an antiortholattice with covering cones is T1 or T2 of its
    # positive cone, so the covered counts per size must reproduce the
    # lattice counts 1,1,2,5 through sizes 2m-1 and 2m: total 19
    assert covered == 19 and skipped == 38
    _ok(7, f"twist doubling round-trips on {covered} antiortholattices "
           f"with covering cones, n <= 10 ({skipped} without)")


def test_c08_pbz_chains_are_kleene_chains():
    spec = EnumerationSpec(max_size=12, structure="chain")
    expected = {}
    for k in range(1, 7):
        expected[2 * k - 1] = twist1(chain_lattice(k)) if k > 1 else None
        expected[2 * k] = twist2(chain_lattice(k))
    for n in range(1, 13):
        level = list(enumerate_pbz(n, spec))
        assert len(level) == 1
        A = level[0]
        flags = axioms.classify(A).flags()
        assert flags["antiortholattice"] and flags["pbz-star"]
        assert terms.holds(A, terms.THEORY["DIST"])[0]
        assert terms.holds(A, terms.THEORY["SDM"])[0]
        if expected[n] is not None:
            assert is_isomorphic(A, expected[n]), n
        if 2 <= n <= 8:
            assert is_isomorphic(A, catalog.get(f"D{n}")), n
    _ok(8, "every PBZ* chain with n <= 12 is the Kleene chain D_n "
           "with DIST and SDM")


def test_c09_si_distributive_sdm_antiortholattices():
    si_reps = []
    for A in _aols(7):
        if not (terms.holds(A, terms.THEORY["DIST"])[0]
                and terms.holds(A, terms.THEORY["SDM"])[0]):
            continue
        si, _ = is_subdirectly_irreducible(A)
        if si:
            si_reps.append(canonical_form(A))
    want = {canonical_form(catalog.get(f"D{n}")) for n in (2, 3, 4, 5)}
    assert set(si_reps) == want and len(si_reps) == 4
    D6 = catalog.get("D6")
    assert terms.holds(D6, terms.THEORY["DIST"])[0]
    assert terms.holds(D6, terms.THEORY["SDM"])[0]
    assert not is_subdirectly_irreducible(D6)[0]
    _ok(9, "s.i. DIST+SDM antiortholattices with n <= 7 are exactly "
           "D2-D5; D6 is not s.i.")


def test_c10_aol_basis_reduction_and_pinned_refutation():
    spec = EnumerationSpec(max_size=8, classes=("pbz-star",))
    hit = 0
    for A in enumerate_all(spec):
        if not all(terms.holds(A, terms.THEORY[n])[0]
                   for n in ("AOL1", "AOL2", "AOL3", "SK")):
            continue
        hit += 1
        assert terms.holds(A, terms.THEORY["DIST"])[0], A
        assert terms.holds(A, terms.THEORY["SDM"])[0], A

    # the further disjointness reading (a ^ b = 0 forces a = 0 or
    # b = 0) is false for general PBZ* algebras in this scope: B4
    # satisfies AOL1-3 and SK yet its atoms meet at 0.  Pinned here on
    # purpose; the property needs the antiortholattice hypothesis.
    B4 = catalog.get("B4")
    assert all(terms.holds(B4, terms.THEORY[n])[0]
               for n in ("AOL1", "AOL2", "AOL3", "SK"))
    assert B4.meet(1, 2) == B4.zero and 1 != B4.zero and 2 != B4.zero

    for A in _aols(8):
        if not terms.holds(A, terms.THEORY["SK"])[0]:
            continue
        for x in range(A.n):
            for y in range(A.n):
                if A.meet(x, y) == A.zero:
                    assert x == A.zero or y == A.zero, A
    rep = verify_over_corpus("sk-implies-distributive-sdm", spec)
    assert rep.ok and rep.checked == hit > 0
    rep = verify_over_corpus(
        "aol-sk-collapse",
        EnumerationSpec(max_size=8, structure="antiortholattice"))
    assert rep.ok
    _ok(10, f"AOL1-3 + SK forces DIST+SDM on {hit} PBZ* algebras n <= 8; "
            "disjointness pinned to antiortholattices (B4 refutes the "
            "literal reading)")


def test_c11_horizontal_sum_subdirect_irreducibility():
    for j in (3, 4, 5):
        A = catalog.get(f"B4+D{j}")
        assert is_subdirectly_irreducible(A)[0], j
    loose = horizontal_sum([catalog.get("B4"), catalog.get("D6")])
    assert not is_subdirectly_irreducible(loose)[0]
    assert is_subdirectly_irreducible(catalog.get("MO2+D3"))[0]
    _ok(11, "B4 (+) D_j s.i. exactly for j in {3,4,5}; MO2 (+) D3 s.i.")


def test_c12_horizontal_sum_conditions_equivalence():
    corpus = list(enumerate_all(EnumerationSpec(max_size=7,
                                                classes=("pbz-star",))))
    assert len(corpus) == 18
    for A in corpus:
        rep = is_horizontal_sum_of_blocks(A)
        assert rep.agree, A
    claim = verify_over_corpus("horizontal-sum-conditions",
                               EnumerationSpec(max_size=7,
                                               classes=("pbz-star",)))
    assert claim.ok and claim.checked == 18
    _ok(12, "pairwise conditions match horizontal-sum-of-blocks on all "
            "18 PBZ* algebras, n <= 7")


def test_c13_congruences_against_bruteforce():
    small = [name for name in catalog.names()
             if catalog.get(name).n <= 6]
    assert sorted(small) == ["B4", "B4+D3", "B4+D4", "D2", "D3", "D4",
                             "D5", "D6", "MO2", "O6-benzene"]
    for name in small:
        A = catalog.get(name)
        got = sorted(tuple(t.blocks()) for t in all_congruences(A))
        want = [tuple(p) for p in _oracles.brute_congruences(A)]
        assert got == want, name
    _ok(13, "all_congruences matches brute-force partition filtering "
            "on the 10 catalog algebras with n <= 6")


def test_c14_coset_relation_lemmas():
    targets = []
    for A in _aols(7):
        if not (terms.holds(A, terms.THEORY["DIST"])[0]
                and terms.holds(A, terms.THEORY["SDM"])[0]):
            continue
        if is_subdirectly_irreducible(A)[0]:
            targets.append(A)
    assert len(targets) == 4  # D2-D5 by criterion 9
    for A in targets:
        for p in range(A.n):
            c = agreement_below(A, p)
            d = tilde_meet_relation(A, p)
            e = tilde_join_relation(A, p)
            assert c.is_congruence and d.is_congruence and e.is_congruence
            assert d.partition.is_identity() or e.partition.is_identity()
        fam = tilde_family_report(A)
        assert fam.precondition_ok and fam.tilde_is_congruence
        assert fam.meet_relations_ok and fam.join_relations_ok
        assert fam.one_of_each_trivial
    claim = verify_over_corpus(
        "si-agreement-relations",
        EnumerationSpec(max_size=7, structure="antiortholattice"))
    assert claim.ok and claim.checked == 4
    _ok(14, "agreement and tilde-coset relations behave as stated on "
            "the four s.i. DIST+SDM antiortholattices, n <= 7")


def test_c15_round_trip_and_stable_dot():
    algebras = [catalog.get(name) for name in catalog.names()]
    algebras += list(enumerate_all(EnumerationSpec(max_size=6)))
    for A in algebras:
        B = fileformat.loads(fileformat.dumps(A))
        assert B.tables_equal(A)
        assert fileformat.dumps(B) == fileformat.dumps(A)
        assert fileformat.export_dot(B, title="t") == \
            fileformat.export_dot(A, title="t")

    names = ("D5", "B16", "T1(N5+1)", "MO2+D3")
    digest = hashlib.sha256("".join(
        fileformat.export_dot(catalog.get(n)) for n in names)
        .encode()).hexdigest()
    script = (
        "import hashlib\n"
        "from pbzlat import catalog, fileformat\n"
        f"names = {names!r}\n"
        "blob = ''.join(fileformat.export_dot(catalog.get(n)) "
        "for n in names)\n"
        "print(hashlib.sha256(blob.encode()).hexdigest())\n")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True).stdout.strip()
    assert out == digest
    _ok(15, "file format round-trips and DOT output is byte-stable "
            "across processes")
