"""Corpus generation, counterexample search, registered claims."""

import functools
import gc
import hashlib
import pickle
import weakref
from collections import Counter

import pytest

from pbzlat import axioms, catalog, core, enumeration, terms
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
                # kept on it is the true one
                assert core._canonical_search(
                    n, A._ord.up, (A.kleene, A.brouwer))[0] == \
                    tuple(range(n))
                C = core.canonical_copy(A)
                assert C.tables_equal(A) and C.labels == A.labels
                assert A._kept["canon"] == core._canon_bytes(
                    n, A._ord.up, (A.kleene, A.brouwer))
                # worker processes hand the kept form back with the copy
                assert pickle.loads(pickle.dumps(A))._kept["canon"] == \
                    A._kept["canon"]


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
        keys = _pk_keys(n, enumeration._pk_pairs(n))
        assert len(set(keys)) == len(keys)
        assert set(keys) == _oracles.lattice_first_pk_pairs(n)
        got.append(len(keys))
    assert got == [1, 1, 1, 2, 2, 6, 7, 24, 31, 120]


def _pk_keys(n, pairs):
    return [core._canon_bytes(n, pair.order.up, (pair.kleene,))
            for pair in pairs]


def test_pk_pairs_against_seen_set_generator():
    for n in range(1, 12):
        keys = _pk_keys(n, enumeration._pk_pairs(n))
        assert len(set(keys)) == len(keys)
        assert set(keys) == set(_pk_keys(n, _oracles.seen_set_pk_pairs(n)))


def test_search_generators_give_every_orbit():
    # the canonical search's recorded automorphisms generate the whole
    # group: their orbits are those of every automorphism
    structures = [(pair.order, (pair.kleene,)) for n in range(1, 11)
                  for pair in enumeration._pk_pairs(n)]
    structures += [(L._ord, ()) for n in range(1, 9)
                   for L in enumerate_lattices(n)]
    for order, unaries in structures:
        n, up = order.n, order.up
        gens = core._canonical_search_group(n, up, unaries)[2]
        assert [core._orbit(a, gens) for a in range(n)] == \
            _oracles.brute_orbits(n, up, unaries)


def test_seeded_search_equals_unseeded():
    # a decoration's search seeded with its pair's automorphisms that fix
    # its sharp set finds the ordering and encoding of the search from
    # scratch, and its seeds and recorded automorphisms still generate
    # the whole group: on every decoration of every PK pair to n=10
    seeded = Counter()
    for n in range(1, 11):
        for order, unaries, seed in _oracles.seeded_decorations(n):
            ordering, enc, gens = core._canonical_search_group(
                n, order.up, unaries, None, seed)
            assert (ordering, enc) == \
                core._canonical_search_group(n, order.up, unaries)[:2]
            assert [core._orbit(a, gens) for a in range(n)] == \
                _oracles.brute_orbits(n, order.up, unaries)
            seeded[bool(seed)] += 1
    # 395 of the 670 decorations start from a nontrivial seed
    assert seeded == {True: 395, False: 275}


def test_pk_generator_work_pinned(monkeypatch):
    # a change in the candidates or the pruning shows up as a changed count
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def generated(fn):
        def wrapper(n):
            for candidate in fn(n):
                calls["candidate"] += 1
                yield candidate
        return wrapper

    search = counted("search", core._canonical_search_group)
    monkeypatch.setattr(core, "_canonical_search_group", search)
    monkeypatch.setattr(enumeration, "_canonical_search_group", search)
    refine = counted("refine", core._refine_colors)
    monkeypatch.setattr(core, "_refine_colors", refine)
    monkeypatch.setattr(enumeration, "_refine_colors", refine)
    monkeypatch.setattr(enumeration, "_check_order",
                        counted("check", enumeration._check_order))
    monkeypatch.setattr(enumeration, "_pk_candidates",
                        generated(enumeration._pk_candidates))
    monkeypatch.setattr(enumeration, "_pk_pairs", functools.cache(
        enumeration._pk_pairs.__wrapped__))
    assert len(enumeration._pk_pairs(10)) == 120
    # the atom-degree pre-test leaves 300 of the 615 candidates to check;
    # 57 candidates with tied atoms are refined, and 45 of them searched
    # to break a tie between atoms of the largest color; the 43 pair
    # parents of sizes 2-8 are refined, and the 28 whose insertions tie
    # on their signatures searched for their automorphisms.  Colors and
    # searches are kept per pair, so the 14 parents refined and the 13
    # parents searched as candidates before are not refined or searched
    # again: 86 refinements and 60 searches
    assert calls == {"candidate": 615, "check": 300, "search": 60,
                     "refine": 86}


def test_pk_pairs_frozen_in_order():
    # the generator's pairs and their order, sizes 1-12
    h = hashlib.sha256()
    for n in range(1, 13):
        for pair in enumeration._pk_pairs(n):
            h.update(repr((tuple(pair.order.up), pair.kleene)).encode())
    assert h.hexdigest() == \
        "24c3a00b4b1ec5c05bad0dfc6a931f02bd5d85da5950f2008376629ff5444bba"


def test_pk_pretest_agrees_with_the_canonical_orbit():
    # on every candidate that is a PK lattice, an inserted atom with fewer
    # upper bounds than another atom is never kept, and one with more than
    # every other atom always is, by the test with no pre-test
    kinds = Counter()
    for n in range(3, 11):
        for up, kleene in enumeration._pk_candidates(n):
            order, _ = core._check_order(up)
            if order is None or not axioms._pseudo_kleene(order, kleene):
                continue
            x = kleene[-1]
            top = enumeration._top_degree_atoms(up, x)
            kept = _oracles.in_canonical_orbit(order, kleene)
            if top:
                assert enumeration._in_canonical_orbit(
                    enumeration._Pair(order, kleene), top) == kept
            kind = ("rejected" if not top else
                    "alone" if top == 1 << x else "tied")
            assert kind != ("rejected" if kept else "alone")
            kinds[kind, kept] += 1
    # 193 kept, the pairs of sizes 3-10; only 57 ties need refinement
    assert kinds == {("alone", True): 148, ("rejected", False): 157,
                     ("tied", True): 45, ("tied", False): 12}


def test_aol_pairs_are_the_narrowed_pk_pairs():
    for n in range(1, 12):
        got = enumeration._aol_pairs(n)
        want = [pair for pair in enumeration._pk_pairs(n)
                if not enumeration._sharp_interior(pair.order, pair.kleene)]
        keys = _pk_keys(n, got)
        assert len(set(keys)) == len(keys)
        assert set(keys) == set(_pk_keys(n, want))
        # the same pairs in the same order, as the docstring says
        assert [(pair.order.up, pair.kleene) for pair in got] == \
            [(pair.order.up, pair.kleene) for pair in want]


def _meets_aol_requirement(up, kleene):
    """Whether an insertion meets the requirement of ``_aol_pairs``'s
    lemma, read off its parent: a fixed insertion's parent has no sharp
    element but 0 and 1; a pair insertion has x < x' and U holds every
    sharp element of its parent."""
    n, x = len(up), kleene[-1]
    size = x if x == n - 1 else n - 2
    mask = (1 << size) - 1
    parent, _ = core._check_order([m & mask for m in up[:size]])
    sharp = enumeration._sharp_interior(parent, kleene[:size])
    if x == n - 1:
        return not sharp
    U = up[x] & mask
    return bool(up[x] >> (n - 1) & 1) and all(U >> a & 1 for a in sharp)


def test_aol_insertion_lemma():
    # an insertion meets the requirement iff its child has no sharp
    # element but 0 and 1, on every candidate that is a PK lattice; and
    # the antiortholattice candidates are exactly those meeting it
    kinds = Counter()
    for n in range(3, 11):
        candidates = list(enumeration._pk_candidates(n))
        assert list(enumeration._pk_candidates(n, True)) == \
            [c for c in candidates if _meets_aol_requirement(*c)]
        for up, kleene in candidates:
            order, _ = core._check_order(up)
            if order is None or not axioms._pseudo_kleene(order, kleene):
                continue
            meets = _meets_aol_requirement(up, kleene)
            assert meets == (not enumeration._sharp_interior(order, kleene))
            kinds[meets] += 1
    assert kinds == {True: 61, False: 301}


def test_aol_generator_work_pinned(monkeypatch):
    # a cold build of the antiortholattice pairs to n=10 grows them from
    # the PK pairs to n=8 and no further; a change in the candidates or
    # the pruning shows up as a changed count
    calls = Counter()
    pk_sizes = []

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def generated(fn):
        def wrapper(n, aol=False):
            for candidate in fn(n, aol):
                calls["aol candidate" if aol else "pk candidate"] += 1
                yield candidate
        return wrapper

    def recorded(fn):
        def wrapper(n):
            pk_sizes.append(n)
            return fn(n)
        return wrapper

    search = counted("search", core._canonical_search_group)
    monkeypatch.setattr(core, "_canonical_search_group", search)
    monkeypatch.setattr(enumeration, "_canonical_search_group", search)
    monkeypatch.setattr(enumeration, "_check_order",
                        counted("check", enumeration._check_order))
    monkeypatch.setattr(enumeration, "_pk_candidates",
                        generated(enumeration._pk_candidates))
    monkeypatch.setattr(enumeration, "_pk_pairs", functools.cache(
        recorded(enumeration._pk_pairs.__wrapped__)))
    monkeypatch.setattr(enumeration, "_aol_pairs", functools.cache(
        enumeration._aol_pairs.__wrapped__))
    assert [len(enumeration._aol_pairs(n)) for n in range(1, 11)] == \
        [1, 1, 1, 1, 1, 2, 3, 7, 11, 30]
    assert sorted(pk_sizes) == list(range(2, 9))
    # 105 candidates grow the PK pairs of sizes 3-8 and 150 the
    # antiortholattice pairs of sizes 3-10, where the PK pairs to n=10
    # take 615; 141 are left to check after the atom-degree pre-test;
    # 23 searches break ties between atoms, and 14 parents, whose
    # insertions tie on their signatures, are searched once for both
    # routes, where searching every parent on each route took 55; 6 of
    # those parents were searched as candidates, and their kept search
    # serves, so 31 searches
    assert calls == {"pk candidate": 105, "aol candidate": 150,
                     "check": 141, "search": 31}


def test_aol_level_work_pinned(monkeypatch):
    # a cold decorated build of the antiortholattice levels to n=10, from
    # fresh pair and level caches
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    search = counted("search", core._canonical_search_group)
    monkeypatch.setattr(core, "_canonical_search_group", search)
    monkeypatch.setattr(enumeration, "_canonical_search_group", search)
    refine = counted("refine", core._refine_colors)
    monkeypatch.setattr(core, "_refine_colors", refine)
    monkeypatch.setattr(enumeration, "_refine_colors", refine)
    for name in ("_pk_pairs", "_aol_pairs", "_bz_level"):
        monkeypatch.setattr(enumeration, name, functools.cache(
            getattr(enumeration, name).__wrapped__))
    assert [len(enumeration._bz_level(n, "antiortholattice"))
            for n in range(1, 11)] == [1, 1, 1, 1, 1, 2, 3, 7, 11, 30]
    # generation searches 31 pairs (test_aol_generator_work_pinned) and
    # refines 54, the 25 candidates with tied atoms and the 43 parents,
    # 14 of them both; each of the 58 antiortholattice pairs is copied
    # along its Kleene-only search, which 7 of them had as candidates,
    # so 51 more of each.  A search with both maps per copy, after 68
    # refinements and 37 searches in generation, made 95 searches and
    # 126 refinements
    assert calls == {"search": 82, "refine": 105}


def test_general_level_decoration_work_pinned(monkeypatch):
    # a cold decorated build of the general levels to n=8, from fresh
    # pair and level caches
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            if name == "search" and len(args[2]) == 2:
                calls["decoration search"] += 1
            return fn(*args)
        return wrapper

    def mapped(L, kleene):
        maps = bz_brouwer_maps(L, kleene)
        calls["brouwer"] += 1
        calls["map"] += len(maps)
        return maps

    search = counted("search", core._canonical_search_group)
    monkeypatch.setattr(core, "_canonical_search_group", search)
    monkeypatch.setattr(enumeration, "_canonical_search_group", search)
    refine = counted("refine", core._refine_colors)
    monkeypatch.setattr(core, "_refine_colors", refine)
    monkeypatch.setattr(enumeration, "_refine_colors", refine)
    monkeypatch.setattr(enumeration, "bz_brouwer_maps", mapped)
    for name in ("_pk_pairs", "_aol_pairs", "_bz_level"):
        monkeypatch.setattr(enumeration, name, functools.cache(
            getattr(enumeration, name).__wrapped__))
    assert [len(enumeration._bz_level(n, "general"))
            for n in range(1, 9)] == [1, 1, 1, 3, 3, 12, 13, 63]
    # the 27 pairs with a sharp interior take 99 Brouwer maps, 19 of
    # them conjugate under their pair's automorphisms to one before, so
    # 80 decorations are searched, one per class.  Each of the 27 pairs
    # is refined once, 13 of them here and the rest as candidates or
    # parents; 7 give every element a color of its own, so their group
    # is trivial, and the other 20 read theirs off a search with '
    # alone, 8 of them run here.  Generation and the copies of the pairs
    # with no sharp interior take 32 searches and 35 refinements.  A
    # search from scratch per map made 131 searches and 134 refinements
    assert calls == {"brouwer": 27, "map": 99, "decoration search": 80,
                     "search": 120, "refine": 128}


def test_cold_builds_make_one_algebra_per_kept_copy(monkeypatch):
    # from fresh pair and level caches, a cold build makes one algebra
    # per canonical copy it keeps: the Brouwer search reads the pair's
    # order, and a copy is built from the order and the maps.  With a
    # carrier for each Brouwer search and each copy renumbered, the
    # antiortholattices to n=10 made 116 and the BZ-lattices to n=8 221
    made = Counter()
    from_order = core.FiniteAlgebra.__dict__["_from_order"].__func__

    def counted(cls, *args, **kwargs):
        made["algebra"] += 1
        return from_order(cls, *args, **kwargs)

    monkeypatch.setattr(core.FiniteAlgebra, "_from_order",
                        classmethod(counted))
    for cap_key, top, copies in (("antiortholattice", 10, 58),
                                 ("general", 8, 97)):
        for name in ("_pk_pairs", "_aol_pairs", "_bz_level"):
            monkeypatch.setattr(enumeration, name, functools.cache(
                getattr(enumeration, name).__wrapped__))
        made.clear()
        kept = sum(len(enumeration._bz_level(n, cap_key))
                   for n in range(1, top + 1))
        assert made["algebra"] == kept == copies, cap_key


def test_rejected_candidates_keep_nothing(monkeypatch):
    # a candidate's record is made before its orbit test and holds what
    # the test finds, so once a cold build of the PK pairs to n=12 is
    # done the only records alive are the kept pairs, though rejected
    # candidates were refined
    made, refined = [], []

    class Counted(enumeration._Pair):
        __slots__ = ("__weakref__",)

        def __init__(self, order, kleene):
            super().__init__(order, kleene)
            made.append(weakref.ref(self))

        @property
        def colors(self):
            if self._colors is None:
                refined.append(weakref.ref(self))
            return super().colors

    monkeypatch.setattr(enumeration, "_Pair", Counted)
    monkeypatch.setattr(enumeration, "_pk_pairs", functools.cache(
        enumeration._pk_pairs.__wrapped__))
    kept = [pair for n in range(1, 13) for pair in enumeration._pk_pairs(n)]
    gc.collect()
    live = [ref() for ref in made if ref() is not None]
    assert sorted(map(id, live)) == sorted(map(id, kept))
    # 1182 records for 1112 pairs; 407 records were refined, among them
    # the 70 rejected ones, whose colors went with them
    dropped = sum(ref() is None for ref in refined)
    assert (len(made), len(kept), len(refined), dropped) == \
        (1182, 1112, 407, 70)


def _fresh_search(order, unaries):
    """The colors and canonical search of a structure, from scratch, in
    the form a pair keeps them."""
    n, up = order.n, order.up
    ordering, _, gens = core._canonical_search_group(n, up, unaries)
    return (bytes(core._refine_colors(n, up, order.down, unaries)),
            (bytes(ordering), tuple(map(bytes, gens))))


def test_antiortholattice_copies_take_the_kleene_only_search():
    # every pair keeps the colors and the search with ' alone that a
    # fresh refinement and search give
    for n in range(1, 11):
        for pair in enumeration._pk_pairs(n):
            assert (pair.colors, pair.search) == \
                _fresh_search(pair.order, (pair.kleene,))
    # the trivial ~ changes neither the colors nor anything the canonical
    # search does on an antiortholattice pair (see _decorations), so the
    # copy built along the pair's Kleene-only search is the one the
    # search with both maps gives
    for n in range(1, 13):
        for pair in enumeration._aol_pairs(n):
            order, kleene = pair.order, pair.kleene
            assert (pair.colors, pair.search) == _fresh_search(
                order, (kleene, enumeration._trivial_brouwer(order)))
            [C] = enumeration._decorations(pair)
            assert _oracles.copy_contents(C) == _oracles.copy_contents(
                _oracles.searched_aol_copy(order, kleene))


def test_parent_signatures_keep_one_insertion_per_orbit():
    # every pair parent to size 10, on both routes: the insertions tried,
    # with the parent's automorphisms searched only on a signature tie,
    # are those one per orbit of the full group keeps, in the same order
    for n in range(3, 13):
        for aol in (False, True):
            assert list(enumeration._pk_candidates(n, aol)) == \
                _oracles.group_searched_candidates(n, aol), (n, aol)


def test_antiortholattice_levels_take_the_trivial_map():
    # on every antiortholattice pair the Brouwer search finds the trivial
    # map alone, and so does the backtracking oracle on every PK pair
    # with no sharp element but 0 and 1
    for n in range(1, 12):
        for pair in enumeration._aol_pairs(n):
            order, kleene = pair.order, pair.kleene
            L = FiniteAlgebra._from_order(
                order, kleene, enumeration._trivial_brouwer(order))
            assert bz_brouwer_maps(L, kleene) == \
                [enumeration._trivial_brouwer(order)]
    for n in range(1, 11):
        for pair in enumeration._pk_pairs(n):
            order, kleene = pair.order, pair.kleene
            if not enumeration._sharp_interior(order, kleene):
                L = FiniteAlgebra._from_order(
                    order, kleene, enumeration._trivial_brouwer(order))
                assert _oracles.backtrack_brouwer_maps(L, kleene) == \
                    [enumeration._trivial_brouwer(order)]
    # so the levels, which give those pairs that map with no search, are
    # the levels the search decorates on every pair: the same algebras,
    # labels and kept forms, in the same order
    for cap_key, top in (("antiortholattice", 10), ("general", 8),
                         ("chain", 12)):
        for n in range(1, top + 1):
            level = enumeration._bz_level(n, cap_key)
            searched = _oracles.searched_level(n, cap_key)
            assert len(level) == len(searched), (cap_key, n)
            for A, B in zip(level, searched):
                assert A.tables_equal(B) and A.labels == B.labels
                assert A._kept["canon"] == B._kept["canon"]
    # the sharp interior is tested without 0 and 1, which are always
    # sharp: S_K against nested loops on both sweep corpora and on every
    # order-reversing involution of every lattice to n=8, PK or not
    algebras = [A for spec in (
        EnumerationSpec(max_size=10, structure="antiortholattice"),
        EnumerationSpec(max_size=8)) for A in enumerate_all(spec)]
    algebras += [A for n in range(1, 9) for L in enumerate_lattices(n)
                 for A in _oracles._trivially_decorated(L)]
    for A in algebras:
        assert axioms.kleene_sharp(A) == _oracles.kleene_sharp(A)


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
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"size {n} below 1"):
            list(enumerate_pbz(n, EnumerationSpec(max_size=5)))
    # an above-cap spec is refused when it is built, before level 1
    for stage in ("_lattices", "_pk_pairs", "_bz_level"):
        monkeypatch.setattr(enumeration, stage, functools.cache(
            getattr(enumeration, stage).__wrapped__))
    monkeypatch.setattr(enumeration, "_atom_extensions", _no_level)
    with pytest.raises(ValueError, match="general cap"):
        EnumerationSpec(max_size=9)
    with pytest.raises(ValueError, match="antiortholattice cap"):
        EnumerationSpec(max_size=11, classes=("antiortholattice",))
    with pytest.raises(ValueError, match="chain cap"):
        EnumerationSpec(max_size=13, structure="chain")
    # a direct call for a size above the spec's cap still raises
    with pytest.raises(ValueError, match="general cap"):
        list(enumerate_pbz(9, EnumerationSpec(max_size=5)))
    # raising CAPS first lets the spec be built
    monkeypatch.setitem(CAPS, "general", 9)
    assert EnumerationSpec(max_size=9).cap() == 9


def test_lattice_cap_is_its_own(monkeypatch):
    # bare lattices have their own cap, so raising the antiortholattice
    # cap does not let enumerate_lattices start on a larger level
    monkeypatch.setattr(enumeration, "_atom_extensions", _no_level)
    monkeypatch.setitem(CAPS, "antiortholattice", 14)
    with pytest.raises(ValueError, match="above cap 10"):
        enumerate_lattices(11)
    monkeypatch.setitem(CAPS, "lattice", 11)
    with pytest.raises(AssertionError, match="generated"):
        enumerate_lattices(11)


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


def test_spec_levels_narrow_the_shared_level():
    # a spec's level is the sublist of the decorated level for its cap
    # key that its filters keep, structure "distributive" narrowing by
    # DIST: the same objects, in the same order, so reports and
    # verdicts are computed once for all
    for spec, identities in (
            (EnumerationSpec(max_size=8, classes=("bz-star",)), ()),
            (EnumerationSpec(max_size=8, classes=("pbz-star",)), ()),
            (EnumerationSpec(max_size=8, identities=("SDM",)), ("SDM",)),
            (EnumerationSpec(max_size=8, classes=("antiortholattice",)), ()),
            (EnumerationSpec(max_size=8, structure="distributive"),
             ("DIST",)),
            (EnumerationSpec(max_size=10, structure="antiortholattice"), ()),
            (EnumerationSpec(max_size=12, structure="chain"), ()),
            (EnumerationSpec(max_size=10, structure="distributive",
                             classes=("antiortholattice",)), ("DIST",))):
        for n in range(1, spec.max_size + 1):
            level = list(enumerate_pbz(n, spec))
            shared = enumeration._bz_level(n, spec.cap_key())
            kept = shared.members(enumeration._admit(
                shared, (*spec.classes, *identities), shared.full))
            assert len(kept) == len(level)
            assert all(A is B for A, B in zip(kept, level)), (spec, n)
    # the structural and the class-flag antiortholattice specs hand out
    # the same algebras, with the same kept results
    by_structure = EnumerationSpec(max_size=10, structure="antiortholattice")
    by_class = EnumerationSpec(max_size=10, classes=("antiortholattice",))
    for n in range(6, 11):
        a = list(enumerate_pbz(n, by_structure))
        b = list(enumerate_pbz(n, by_class))
        assert a and len(a) == len(b)
        assert all(A is B for A, B in zip(a, b)), n


def test_identity_filters_scan_a_level_at_once(monkeypatch):
    # a spec's identities are checked over each level in one scan, not
    # one algebra at a time: structure "distributive" narrows the 97
    # BZ-lattices up to n=8 by DIST in one scan per size
    monkeypatch.setattr(enumeration, "_bz_level", functools.cache(
        enumeration._bz_level.__wrapped__))
    bz = list(enumerate_all(EnumerationSpec(max_size=8)))
    assert len(bz) == 97
    scan, scanned = terms._scan, []

    def counting(algebras, statement):
        scanned.append(len(algebras))
        return scan(algebras, statement)

    monkeypatch.setattr(terms, "_scan", counting)
    dist = list(enumerate_all(EnumerationSpec(max_size=8,
                                              structure="distributive")))
    assert len(scanned) <= 8 and sum(scanned) == 97
    kept = [A for A in bz if terms.holds(A, terms.THEORY["DIST"])[0]]
    assert len(dist) == len(kept) and all(A is B for A, B in zip(dist, kept))


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


# (examined, checked, failures) of every claim over the antiortholattices
# to n=10 and the BZ-lattices to n=8; a declared hypothesis that admits
# more or fewer algebras than the claim's text changes a count
CLAIM_COUNTS = {
    "aol-sk-collapse": ((58, 3, 0), (97, 3, 0)),
    "horizontal-sum-conditions": ((58, 58, 0), (97, 34, 0)),
    "paraorthomodular-equivalence": ((58, 58, 0), (97, 43, 0)),
    "pbz-chains-are-kleene-chains": ((58, 10, 0), (97, 8, 0)),
    "sdm-meet-distributivity": ((58, 3, 0), (97, 6, 0)),
    "sharp-sets-collapse": ((58, 58, 0), (97, 34, 0)),
    "si-agreement-relations": ((58, 4, 0), (97, 4, 0)),
    "si-aol-basis-cones": ((58, 32, 22), (97, 10, 4)),
    "si-aol-basis-cones-distributive": ((58, 8, 1), (97, 6, 0)),
    "si-aol-basis-structure": ((58, 32, 0), (97, 10, 0)),
    "si-distributive-sdm-chains": ((58, 4, 0), (97, 4, 0)),
    "sk-implies-distributive-sdm": ((58, 3, 0), (97, 6, 0)),
}


def test_claim_counts_frozen_on_sweep_corpora():
    assert sorted(CLAIM_COUNTS) == claim_names()
    for claim, counts in CLAIM_COUNTS.items():
        for spec, want in zip((AOL10, BZ8), counts):
            rep = verify_over_corpus(claim, spec)
            assert (rep.examined, rep.checked, len(rep.failures)) == want, \
                (claim, spec)
            # failures come in corpus order: by size, then canonical bytes
            forms = [canonical_form(A) for A, _ in rep.failures]
            assert forms == sorted(forms)
            assert all(type(detail) is tuple for _, detail in rep.failures)


def test_conclusions_are_read_by_name(monkeypatch):
    # without its SK hypothesis the claim's conclusions DIST and SDM
    # fail, and each failure names every conclusion it misses
    claim = "sk-implies-distributive-sdm"
    monkeypatch.setitem(enumeration._CLAIMS, claim, _oracles.replaced(
        enumeration._CLAIMS[claim], identities=("AOL1", "AOL2", "AOL3")))
    dist, sdm = ("fails DIST",), ("fails SDM",)
    for spec, counts, details in (
            (AOL10, (58, 58, 39), {dist: 27, sdm: 6, dist + sdm: 6}),
            (BZ8, (97, 21, 6), {dist: 4, sdm: 2})):
        rep = verify_over_corpus(claim, spec)
        assert (rep.examined, rep.checked, len(rep.failures)) == counts
        assert Counter(detail for _, detail in rep.failures) == details


def test_declarations_agree_with_the_old_checks():
    # algebra by algebra over both sweep corpora, inside each claim's
    # hypotheses and out of them, where every verdict occurs
    seen = {claim: set() for claim in _oracles.CLAIM_CHECKS}
    for claim in seen:
        entry = enumeration._CLAIMS[claim]
        clauses = _oracles.CLAIM_CHECKS[claim][1]
        assert set(clauses) <= {*entry.identities, *entry.conclusions}
        for A in [*enumerate_all(AOL10), *enumerate_all(BZ8)]:
            old, new = _oracles.claim_verdicts(claim, A)
            assert old == new, (claim, A)
            seen[claim].add(new)
    assert all(s == {True, False} for s in seen.values())


def test_mutants_fail_the_declarations_and_the_old_checks():
    # one mutant per clause; off BZ for SHARP_DB and SHARP_BK, which
    # every BZ-lattice satisfies.  The 3-chain 0 < m < 1 has m' = m.
    def chain(n, brouwer):
        return FiniteAlgebra.from_covers(
            n, [(a, a + 1) for a in range(n - 1)],
            list(range(n))[::-1], brouwer)

    mutants = {
        # a 4-chain with an interior a~ = a
        "DENSE": (chain(4, [3, 1, 0, 0]), "pbz-chains-are-kleene-chains"),
        # B4 with the trivial ~: its atoms are Kleene-sharp, not modal
        "SHARP_KD": (FiniteAlgebra.from_covers(
            4, [(0, 1), (0, 2), (1, 3), (2, 3)], [3, 2, 1, 0],
            [3, 0, 0, 0]), "sharp-sets-collapse"),
        # m~ = m: modal-sharp, but m v m~ = m
        "SHARP_DB": (chain(3, [2, 1, 0]), "sharp-sets-collapse"),
        # m~ = 1: m v m~ = 1, but m ^ m' = m
        "SHARP_BK": (chain(3, [2, 2, 0]), "sharp-sets-collapse"),
    }
    for name, (A, claim) in mutants.items():
        assert not terms.holds(A, terms.THEORY[name])[0], name
        assert _oracles.CLAIM_CHECKS[claim][0](A) != (), name
    # the first is a chain the smaller chain check rejects as well
    assert _oracles.small_kleene_chain(mutants["DENSE"][0]) != ()


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


def test_distributive_cone_claim_fails_again_at_thirteen(monkeypatch):
    # over the antiortholattices to 13 the claim checks 10 algebras and
    # fails at sizes 10 and 13 only
    monkeypatch.setitem(CAPS, "antiortholattice", 13)
    rep = verify_over_corpus("si-aol-basis-cones-distributive",
                             EnumerationSpec(max_size=13,
                                             structure="antiortholattice"))
    assert (rep.examined, rep.checked) == (569, 10)
    assert [(A.n, detail) for A, detail in rep.failures] == \
        [(10, ("fails CONES",)), (13, ("fails CONES",))]
    bad, _ = rep.failures[1]
    # the algebra the claim's comment describes: d and d' = f are
    # incomparable
    labels = "0 a b c d e f g h i j k 1".split()
    ix = labels.index
    covers = [(ix(x), ix(y)) for x, y in (
        "0a 0b ae bc be cd cg di ef eg fh gh gi hk ij ik j1 k1".split())]
    swaps = {"0": "1", "a": "j", "b": "k", "c": "h", "d": "f", "e": "i",
             "g": "g"}
    swaps.update({v: k for k, v in swaps.items()})
    kleene = [ix(swaps[x]) for x in labels]
    brouwer = [12] + [0] * 12
    pinned = FiniteAlgebra.from_covers(13, covers, kleene, brouwer,
                                       labels=labels)
    assert not pinned.le(ix("d"), ix("f")) and not pinned.le(ix("f"), ix("d"))
    assert is_isomorphic(bad, pinned)


def test_vacuous_corpus_report():
    rep = verify_over_corpus("si-agreement-relations",
                             EnumerationSpec(max_size=1))
    assert rep.vacuous and not rep.ok
    assert rep.examined == 1 and rep.checked == 0
