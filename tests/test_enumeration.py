"""Corpus generation, counterexample search, registered claims."""

import hashlib
import multiprocessing
import pickle

import pytest

from pbzlat import catalog, core, enumeration, terms
from pbzlat.core import (
    FiniteAlgebra, boolean_lattice, chain_lattice, canonical_form,
    is_isomorphic,
)
from pbzlat.enumeration import (
    CAPS, EnumerationSpec, bz_brouwer_maps, claim_names, enumerate_all,
    enumerate_lattices, enumerate_pbz, order_reversing_involutions,
    search_counterexample, verify_over_corpus,
)

import _oracles


def padded_m3():
    return FiniteAlgebra.from_covers(
        7, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5), (5, 6)],
        kleene=[6, 5, 3, 2, 4, 1, 0],
        brouwer=[6, 0, 0, 0, 0, 0, 0])


def test_lattice_counts_match_bruteforce():
    for n in range(1, 6):
        assert len(list(enumerate_lattices(n))) == \
            _oracles.brute_lattice_count(n)


def test_enumerated_lattices_against_nested_loops():
    for n in range(1, 8):
        for L in enumerate_lattices(n):
            leq = L.leq.tolist()
            assert _oracles._lattice_ok(leq)
            for a in range(n):
                for b in range(n):
                    lower = [c for c in range(n) if leq[c][a] and leq[c][b]]
                    upper = [c for c in range(n) if leq[a][c] and leq[b][c]]
                    assert L.meet(a, b) == next(
                        c for c in lower if all(leq[d][c] for d in lower))
                    assert L.join(a, b) == next(
                        c for c in upper if all(leq[c][d] for d in upper))


def test_shared_instances_are_frozen():
    L = next(enumerate_lattices(4))
    A = next(enumerate_pbz(4, EnumerationSpec(max_size=4)))
    for obj in (L, A):
        with pytest.raises(AttributeError):
            obj.name = "renamed"
        with pytest.raises(AttributeError):
            obj.labels = tuple("abcd")
    # the maps cannot change under a cached canonical form either
    cf = canonical_form(A)
    for attr in ("kleene", "brouwer"):
        with pytest.raises(AttributeError):
            setattr(A, attr, tuple(range(4)))
    assert canonical_form(A) == cf == core._canon_bytes(
        4, A._ord.up, (A.kleene, A.brouwer))
    # worker processes still get whole copies
    B = pickle.loads(pickle.dumps(A))
    assert B.tables_equal(A) and (B.labels, B.name) == (A.labels, A.name)
    assert A.relabel(A.labels, name="renamed").name == "renamed"
    assert A.name is None and next(enumerate_lattices(4)) is L


def test_lattice_counts_frozen():
    got = [len(list(enumerate_lattices(n))) for n in range(1, 8)]
    assert got == [1, 1, 1, 2, 5, 15, 53]


AOL10 = EnumerationSpec(max_size=10, structure="antiortholattice")
BZ8 = EnumerationSpec(max_size=8)


def test_canonical_search_matches_unpruned_on_extensions():
    for n in range(2, 10):
        for L in enumerate_lattices(n - 1):
            for up in enumeration._atom_extensions(L._ord):
                assert core._canonical_search(n, up, ()) == \
                    _oracles.unpruned_canonical_search(n, up, ())


def test_canonical_search_matches_unpruned_on_corpora():
    for spec in (BZ8, AOL10):
        for A in enumerate_all(spec):
            args = (A.n, A._ord.up, (A.kleene, A.brouwer))
            assert core._canonical_search(*args) == \
                _oracles.unpruned_canonical_search(*args)


def _sha256(forms):
    h = hashlib.sha256()
    for cf in forms:
        h.update(cf)
    return h.hexdigest()


def test_canonical_bytes_frozen():
    assert _sha256(canonical_form(L) for n in range(1, 10)
                   for L in enumerate_lattices(n)) == \
        "bb2b209e63ca1835f1878f7f9d1e8a01b03b1fe935b1791f4c95ab7347780a20"
    assert _sha256(map(canonical_form, enumerate_all(AOL10))) == \
        "903c5e5e00d22393ac67d22a8c38c76f370884c798b2fcf6ee44eb4cc72d2ab2"
    assert _sha256(map(canonical_form, enumerate_all(BZ8))) == \
        "cbb99ffae3c765d39b54a5e5de666bd35aa9ef4415b39bb9b532cd3b52deebd5"


def test_levels_are_sorted_canonical_copies():
    for spec in (AOL10, BZ8):
        for n in range(1, spec.max_size + 1):
            level = list(enumerate_pbz(n, spec))
            forms = [canonical_form(A) for A in level]
            assert forms == sorted(forms)
            for A in level:
                # each algebra is its own canonical copy, and the form
                # cached on it is the true one
                assert core._canonical_search(
                    n, A._ord.up, (A.kleene, A.brouwer))[0] == \
                    tuple(range(n))
                C = core.canonical_copy(A)
                assert C.tables_equal(A) and C.labels == A.labels
                assert A._canon == core._canon_bytes(
                    n, A._ord.up, (A.kleene, A.brouwer))
                # worker processes hand the cached form back with the copy
                assert pickle.loads(pickle.dumps(A))._canon == A._canon


AOL_SPECS = (
    EnumerationSpec(max_size=10, structure="antiortholattice"),
    EnumerationSpec(max_size=10, classes=("antiortholattice",)),
    EnumerationSpec(max_size=8, structure="distributive",
                    classes=("antiortholattice",)),
)


GENERAL_SPECS = (
    BZ8,
    EnumerationSpec(max_size=8, classes=("bz-star",)),
    EnumerationSpec(max_size=8, classes=("pbz-star",)),
    EnumerationSpec(max_size=8, structure="distributive"),
    EnumerationSpec(max_size=8, identities=("SDM",)),
    EnumerationSpec(max_size=8, classes=("orthomodular",)),
    EnumerationSpec(max_size=12, structure="chain"),
)


def test_pk_route_matches_lattice_first_decoration():
    for spec in AOL_SPECS + GENERAL_SPECS:
        for n in range(1, spec.max_size + 1):
            assert [canonical_form(A) for A in enumerate_pbz(n, spec)] == \
                _oracles.lattice_first_corpus(n, spec), (spec, n)


def test_brouwer_maps_match_backtracking():
    pairs = maps = 0
    for n in range(1, 9):
        for L in enumerate_lattices(n):
            for kleene in order_reversing_involutions(L):
                found = bz_brouwer_maps(L, kleene)
                assert found == _oracles.backtrack_brouwer_maps(L, kleene)
                pairs += 1
                maps += len(found)
    assert (pairs, maps) == (238, 328)


def test_pk_pairs_against_involutions():
    got = []
    for n in range(1, 11):
        keys = [core._canon_bytes(n, order.up, (kleene,))
                for order, kleene in enumeration._pk_pairs(n)]
        assert len(set(keys)) == len(keys)
        assert set(keys) == _oracles.lattice_first_pk_pairs(n)
        got.append(len(keys))
    assert got == [1, 1, 1, 2, 2, 6, 7, 24, 31, 120]


def test_involutions_against_brute_force():
    for n in range(1, 9):
        for L in enumerate_lattices(n):
            assert order_reversing_involutions(L) == \
                _oracles.brute_involutions(L)


def test_involution_counts_frozen():
    got = []
    gated = 0
    for n in range(1, 11):
        lattices = list(enumerate_lattices(n))
        found = [order_reversing_involutions(L) for L in lattices]
        got.append((sum(1 for f in found if f), sum(map(len, found))))
        gated += sum(enumeration._self_dual_degrees(L._ord)
                     for L in lattices)
    # (lattices carrying ', involutions) per size
    assert got == [(1, 1), (1, 1), (1, 1), (2, 3), (3, 6), (7, 19),
                   (13, 48), (36, 159), (76, 452), (232, 1544)]
    # the degree test lets 394 of the 7372 lattices through to the search
    assert gated == 394


def test_involution_and_brouwer_helpers():
    assert len(order_reversing_involutions(boolean_lattice(4))) == 2
    assert len(order_reversing_involutions(chain_lattice(4))) == 1
    # the square carries two BZ Brouwer maps over its complement, the
    # 4-chain only the trivial one, and a non-pseudo-Kleene involution
    # admits none at all
    sq = boolean_lattice(4)
    assert len(bz_brouwer_maps(sq, (3, 2, 1, 0))) == 2
    assert len(bz_brouwer_maps(chain_lattice(4), (3, 2, 1, 0))) == 1
    assert bz_brouwer_maps(sq, (3, 1, 2, 0)) == []


def test_pbz_counts_frozen():
    spec = EnumerationSpec(max_size=8, classes=("pbz-star",))
    got = [len(list(enumerate_pbz(n, spec))) for n in range(1, 9)]
    assert got == [1, 1, 1, 2, 2, 5, 6, 16]


def test_antiortholattice_counts_frozen():
    spec = EnumerationSpec(max_size=8, structure="antiortholattice")
    got = [len(list(enumerate_pbz(n, spec))) for n in range(1, 9)]
    assert got == [1, 1, 1, 1, 1, 2, 3, 7]
    # the class-flag route must agree with the structural strategy
    flagged = EnumerationSpec(max_size=8, classes=("antiortholattice",))
    for n in (6, 7):
        a = {canonical_form(A) for A in enumerate_pbz(n, spec)}
        b = {canonical_form(A) for A in enumerate_pbz(n, flagged)}
        assert a == b


def test_bz_star_count_frozen():
    spec = EnumerationSpec(max_size=6, classes=("bz-star",))
    assert sum(1 for _ in enumerate_all(spec)) == 13


def test_chain_corpus_is_the_kleene_chains():
    spec = EnumerationSpec(max_size=12, structure="chain")
    for n in range(2, 13):
        level = list(enumerate_pbz(n, spec))
        assert len(level) == 1
        A = level[0]
        if n <= 8:
            assert is_isomorphic(A, catalog.get(f"D{n}"))
        assert all(A.le(a, b) or A.le(b, a)
                   for a in range(n) for b in range(n))
        for name in ("DIST", "SDM"):
            assert terms.holds(A, terms.THEORY[name])[0]


def test_distributive_structure_filter():
    gen = list(enumerate_pbz(5, EnumerationSpec(max_size=5)))
    dist = list(enumerate_pbz(
        5, EnumerationSpec(max_size=5, structure="distributive")))
    assert all(terms.holds(A, terms.THEORY["DIST"])[0] for A in dist)
    assert any(not terms.holds(A, terms.THEORY["DIST"])[0] for A in gen)
    assert {canonical_form(A) for A in dist} < \
        {canonical_form(A) for A in gen}


def test_distributive_counts_frozen():
    spec = EnumerationSpec(max_size=8, structure="distributive")
    got = [len(list(enumerate_pbz(n, spec))) for n in range(1, 9)]
    assert got == [1, 1, 1, 3, 1, 4, 2, 9]


def test_levels_pairwise_nonisomorphic():
    spec = EnumerationSpec(max_size=6, classes=("pbz-star",))
    level = list(enumerate_pbz(6, spec))
    for i, A in enumerate(level):
        for B in level[i + 1:]:
            assert not is_isomorphic(A, B)


def test_spec_validation():
    with pytest.raises(ValueError, match="max_size"):
        EnumerationSpec(max_size=0)
    with pytest.raises(ValueError, match="class"):
        EnumerationSpec(max_size=4, classes=("shiny",))
    with pytest.raises(ValueError, match="structure"):
        EnumerationSpec(max_size=4, structure="modular")
    with pytest.raises(ValueError, match="identities"):
        EnumerationSpec(max_size=4, identities=("ZORN",))
    assert EnumerationSpec(max_size=9, structure="chain").cap() == \
        CAPS["chain"]


def _no_level(order):
    raise AssertionError("a lattice level was generated")


def test_size_caps_enforced(monkeypatch):
    # sizes outside 1..cap are refused on the call, before any level
    for n in (0, -1):
        with pytest.raises(ValueError, match="below 1"):
            enumerate_lattices(n)
    with pytest.raises(ValueError, match="above cap"):
        enumerate_lattices(11)
    spec = EnumerationSpec(max_size=9)
    with pytest.raises(ValueError, match="general cap"):
        list(enumerate_pbz(9, spec))
    # an above-cap spec is refused before level 1
    monkeypatch.setattr(enumeration, "_LATTICE_MEMO", {})
    monkeypatch.setattr(enumeration, "_CORPUS_MEMO", {})
    monkeypatch.setattr(enumeration, "_atom_extensions", _no_level)
    with pytest.raises(ValueError, match="general cap"):
        search_counterexample(terms.THEORY["J"], spec)
    with pytest.raises(ValueError, match="general cap"):
        next(enumerate_all(spec))


def test_search_finds_smallest_j_failure():
    spec = EnumerationSpec(max_size=8, classes=("pbz-star",))
    res = search_counterexample(terms.THEORY["J"], spec)
    assert res and not res.exhausted
    assert res.found.n == 7
    assert res.examined == 18
    assert res.assignment == {"x": 4, "y": 2}


def test_search_separates_the_two_varieties():
    res = search_counterexample(
        terms.THEORY["SDM"],
        EnumerationSpec(max_size=8, structure="distributive",
                        classes=("antiortholattice",)))
    assert res.found.n == 7 and res.examined == 9
    assert is_isomorphic(res.found, catalog.get("T1(2x2)"))

    res = search_counterexample(
        terms.THEORY["DIST"],
        EnumerationSpec(max_size=8, classes=("antiortholattice",),
                        identities=("SDM",)))
    assert res.found.n == 7 and res.examined == 9
    assert is_isomorphic(res.found, padded_m3())


def test_search_exhausted():
    res = search_counterexample(
        terms.THEORY["DIST"],
        EnumerationSpec(max_size=6, structure="chain"))
    assert not res
    assert res.exhausted and res.found is None and res.examined == 6


def test_search_accepts_raw_text():
    res = search_counterexample(
        "x ^ x' = 0", EnumerationSpec(max_size=4, classes=("pbz-star",)))
    assert res.found.n == 3  # the three-element chain has a fixpoint
    assert res.identity == "x ^ x' = 0"


def test_jobs_do_not_change_results(monkeypatch):
    # each jobs count builds its levels afresh instead of reading the
    # levels the other one memoized
    spec = EnumerationSpec(max_size=7, classes=("pbz-star",))
    solo = search_counterexample(terms.THEORY["J"], spec, jobs=1)
    monkeypatch.setattr(enumeration, "_CORPUS_MEMO", {})
    multi = search_counterexample(terms.THEORY["J"], spec, jobs=3)
    assert solo.examined == multi.examined
    assert solo.assignment == multi.assignment
    assert canonical_form(solo.found) == canonical_form(multi.found)
    for spec in (EnumerationSpec(max_size=6),
                 EnumerationSpec(max_size=8, structure="antiortholattice")):
        a = [canonical_form(A) for A in enumerate_pbz(
            spec.max_size, spec, jobs=1)]
        monkeypatch.setattr(enumeration, "_CORPUS_MEMO", {})
        b = [canonical_form(A) for A in enumerate_pbz(
            spec.max_size, spec, jobs=2)]
        assert a == b


def test_one_pool_per_jobs_count(monkeypatch):
    # the CLI maps every level through the jobs' pool, so a search or an
    # enumeration starts one pool, not one per level and step
    real, made = multiprocessing.Pool, []

    def counting_pool(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    def pools_started(run):
        monkeypatch.setattr(enumeration, "_CORPUS_MEMO", {})
        monkeypatch.setattr(enumeration, "_POOLS", {})
        before = len(made)
        run()
        return len(made) - before

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    try:
        assert pools_started(lambda: search_counterexample(
            terms.THEORY["J"],
            EnumerationSpec(max_size=8, classes=("pbz-star",)), jobs=2)) == 1
        assert pools_started(lambda: list(enumerate_all(
            EnumerationSpec(max_size=8), jobs=2))) == 1
    finally:
        for pool in made:
            pool.terminate()


def test_claim_registry():
    assert claim_names() == [
        "aol-sk-collapse",
        "horizontal-sum-conditions",
        "paraorthomodular-equivalence",
        "pbz-chains-are-kleene-chains",
        "sdm-meet-distributivity",
        "sharp-sets-collapse",
        "si-agreement-relations",
        "si-aol-basis-cones",
        "si-aol-basis-cones-distributive",
        "si-aol-basis-structure",
        "si-distributive-sdm-chains",
        "sk-implies-distributive-sdm",
    ]
    with pytest.raises(KeyError, match="unknown claim"):
        verify_over_corpus("flat-earth", EnumerationSpec(max_size=3))


def test_claims_over_small_corpus():
    spec = EnumerationSpec(max_size=6)
    for claim in claim_names():
        rep = verify_over_corpus(claim, spec)
        assert rep.ok, (claim, rep.failures[:1])
        assert rep.examined >= rep.checked > 0


def test_cone_claim_fails_at_seven_and_repair_holds():
    spec = EnumerationSpec(max_size=7, classes=("pbz-star",))
    rep = verify_over_corpus("si-aol-basis-cones", spec)
    assert not rep.ok
    assert len(rep.failures) == 1
    bad, detail = rep.failures[0]
    assert bad.n == 7
    assert is_isomorphic(bad, padded_m3())
    fixed = verify_over_corpus("si-aol-basis-cones-distributive", spec)
    assert fixed.ok and fixed.checked > 0


def test_distributive_cone_claim_fails_at_ten():
    claim = "si-aol-basis-cones-distributive"
    assert verify_over_corpus(claim, EnumerationSpec(
        max_size=9, structure="antiortholattice")).ok
    rep = verify_over_corpus(claim, EnumerationSpec(
        max_size=10, structure="antiortholattice"))
    assert len(rep.failures) == 1
    bad, _ = rep.failures[0]
    assert bad.n == 10
    assert any(not bad.le(a, bad.kleene[a]) and not bad.le(bad.kleene[a], a)
               for a in range(bad.n))
    # the algebra the claim's docstring describes
    labels = ["0", "a", "b", "c", "d", "e", "f", "g", "h", "1"]
    ix = labels.index
    covers = [(ix(x), ix(y)) for x, y in (
        "0g 0h a1 b1 cb da db ed fc fd gf he hf".split())]
    swaps = {"0": "1", "a": "g", "b": "h", "c": "e", "d": "f"}
    swaps.update({v: k for k, v in swaps.items()})
    kleene = [ix(swaps[x]) for x in labels]
    brouwer = [9] + [0] * 9
    assert is_isomorphic(bad, FiniteAlgebra.from_covers(
        10, covers, kleene, brouwer, labels=labels))


def test_vacuous_corpus_report():
    rep = verify_over_corpus("si-agreement-relations",
                             EnumerationSpec(max_size=1))
    assert rep.vacuous and not rep.ok
    assert rep.examined == 1 and rep.checked == 0
