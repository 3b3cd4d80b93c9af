"""Carrier objects, validation and canonical forms."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbzlat import core, enumeration, fileformat
from pbzlat.core import (BoundedLattice, FiniteAlgebra, ValidationError,
                         boolean_lattice, canonical_form, chain_lattice,
                         is_isomorphic, is_order_isomorphic, validate_tables)

import _oracles


def d4_tables():
    leq = [[i <= j for j in range(4)] for i in range(4)]
    return leq, [3, 2, 1, 0], [3, 0, 0, 0]


def test_validate_accepts_d4():
    leq, kle, bro = d4_tables()
    rep = validate_tables(leq, kle, bro)
    assert rep.ok and rep.rules() == []


def test_validate_rule_names():
    leq, kle, bro = d4_tables()
    bad = [row[:] for row in leq]
    bad[2][1] = True  # 1 <= 2 <= 1 with 1 != 2
    assert "order:antisymmetric" in validate_tables(bad, kle, bro).rules()
    assert "kleene:involution" in validate_tables(leq, [3, 2, 0, 1],
                                                  bro).rules()
    assert "kleene:antitone" in validate_tables(leq, [3, 1, 2, 0],
                                                bro).rules()
    assert "format:map-length" in validate_tables(leq, kle[:3], bro).rules()
    # M-shaped poset: two maximal elements, no join
    m = [[a == b for b in range(4)] for a in range(4)]
    m[0][2] = m[0][3] = m[1][2] = m[1][3] = True
    assert any(r.startswith("lattice:") for r in
               validate_tables(m, [1, 0, 3, 2], [1, 0, 3, 2]).rules())


def test_order_witnesses_are_lex_least():
    # 0 < 1 < 4 and 0 < 2 < 3 without 0 <= 4 or 0 <= 3, and 3 <= 2
    leq = [[a == b for b in range(5)] for a in range(5)]
    for a, b in ((0, 1), (1, 4), (0, 2), (2, 3), (3, 2)):
        leq[a][b] = True
    ident = list(range(5))
    assert validate_tables(leq, ident, ident).violations == (
        ("order:antisymmetric", (2, 3)), ("order:transitive", (0, 1, 4)))


def test_antitone_witness_is_lex_least():
    leq, _, bro = d4_tables()
    # an involution fixing 1 and 2 on the chain 0 < 1 < 2 < 3
    assert validate_tables(leq, [3, 1, 2, 0], bro).violations == (
        ("kleene:antitone", (1, 2)),)


def test_order_checked_once_per_construction(monkeypatch):
    from pbzlat.enumeration import enumerate_lattices
    calls = []
    check = core._check_order
    monkeypatch.setattr(core, "_check_order",
                        lambda up: calls.append(up) or check(up))
    leq, kle, bro = d4_tables()
    FiniteAlgebra(leq, kle, bro)
    assert len(calls) == 1
    L = BoundedLattice(leq)
    FiniteAlgebra.from_lattice(L, kle, bro)
    assert len(calls) == 2
    list(enumerate_lattices(6))
    calls.clear()
    list(enumerate_lattices(6))
    assert calls == []


def test_constructor_raises_with_report():
    leq, kle, bro = d4_tables()
    with pytest.raises(ValidationError) as exc:
        FiniteAlgebra(leq, [0, 1, 2, 3], bro)  # identity is not antitone
    assert exc.value.report.rules()


def test_lattice_ops_on_b4():
    B = boolean_lattice(4)
    assert B.n == 4 and B.zero == 0 and B.one == 3
    a, b = 1, 2
    assert B.meet(a, b) == B.zero and B.join(a, b) == B.one
    assert sorted(B.covers()) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert B.le(0, 3) and not B.le(1, 2)


def test_from_covers_closure():
    L = BoundedLattice.from_covers(4, [(0, 1), (1, 2), (2, 3)])
    assert L.le(0, 3)  # transitive closure applied
    A = FiniteAlgebra.from_covers(4, [(0, 1), (1, 2), (2, 3)],
                                  [3, 2, 1, 0], [3, 0, 0, 0])
    assert A.box(1) == 0 and A.diamond(1) == 3
    # a cover index outside 0..n-1 or not an integer, or a cover that is
    # no pair, is a format problem, the first bad cover its witness: it
    # never wraps around and never escapes as a bare TypeError or
    # ValueError
    for bad in ((1, -1), (1, 4), (1, 2.0), (1.0, 2), ("1", 2), (0, 1, 2),
                (0,)):
        covers = [(0, 1), bad, (2, -3)]
        for build in (lambda: BoundedLattice.from_covers(4, covers),
                      lambda: FiniteAlgebra.from_covers(
                          4, covers, [3, 2, 1, 0], [3, 0, 0, 0])):
            with pytest.raises(ValidationError) as info:
                build()
            assert info.value.report.violations == (("format:covers", bad),)
    with pytest.raises(ValidationError) as info:
        BoundedLattice.from_covers(3, [5, (1, 2)])
    assert info.value.report.violations == (("format:covers", (5,)),)
    # numpy integers are integers
    covers = [(np.int64(0), np.int64(1)), (np.int32(1), 2)]
    assert BoundedLattice.from_covers(3, covers).covers() == [(0, 1), (1, 2)]


def test_map_entries_must_be_integers():
    # a float or a string is no index: it is neither truncated nor let
    # through to a bare TypeError, but reported as a format problem
    leq, kle, bro = d4_tables()
    L = BoundedLattice(leq)
    chain = [(0, 1), (1, 2), (2, 3)]
    want = (("format:map-range", (0,)),)
    for k, b in ((kle, [3.5, 0, 0, 0]), ([3.0, 2, 1, 0], bro), ("3210", bro)):
        assert validate_tables(leq, k, b).violations == want
        for build in (lambda: FiniteAlgebra(leq, k, b),
                      lambda: FiniteAlgebra.from_lattice(L, k, b),
                      lambda: FiniteAlgebra.from_covers(4, chain, k, b)):
            with pytest.raises(ValidationError) as info:
                build()
            assert info.value.report.violations == want


def test_maps_must_be_sequences():
    # an algebra needs both maps: a missing one is not read as "bare
    # lattice", and a map that is no sequence is no TypeError
    leq, kle, bro = d4_tables()
    L = BoundedLattice(leq)
    chain = [(0, 1), (1, 2), (2, 3)]
    for k, b, lengths in ((None, bro, (None, 4)), (kle, None, (4, None)),
                          (5, bro, (None, 4)), (kle, 5, (4, None))):
        want = (("format:map-length", lengths),)
        assert validate_tables(leq, k, b).violations == want
        for build in (lambda: FiniteAlgebra(leq, k, b),
                      lambda: FiniteAlgebra.from_lattice(L, k, b),
                      lambda: FiniteAlgebra.from_covers(4, chain, k, b)):
            with pytest.raises(ValidationError) as info:
                build()
            assert info.value.report.violations == want


def test_maps_stored_as_ints():
    leq, kle, bro = d4_tables()
    kle, bro = np.array(kle), np.array(bro)
    covers = [(0, 1), (1, 2), (2, 3)]
    for A in (FiniteAlgebra(leq, kle, bro),
              FiniteAlgebra.from_lattice(BoundedLattice(leq), kle, bro),
              FiniteAlgebra.from_covers(4, covers, kle, bro)):
        assert A.kleene == (3, 2, 1, 0) and A.brouwer == (3, 0, 0, 0)
        assert all(type(x) is int for x in A.kleene + A.brouwer)


def test_chain_and_boolean_builders():
    for n in (1, 2, 5, 9):
        C = chain_lattice(n)
        assert C.n == n and all(C.le(i, j) == (i <= j)
                                for i in range(n) for j in range(n))
    with pytest.raises(ValueError):
        boolean_lattice(6)  # not a power of two
    B8 = boolean_lattice(8)
    assert sum(B8.le(B8.zero, a) for a in range(8)) == 8


def test_relabel_and_tables_equal():
    A = FiniteAlgebra.from_covers(3, [(0, 1), (1, 2)], [2, 1, 0],
                                  [2, 0, 0], labels=["0", "a", "1"])
    B = A.relabel(["bot", "mid", "top"], name="renamed")
    assert B.labels == ("bot", "mid", "top") and B.name == "renamed"
    assert A.tables_equal(B)
    with pytest.raises(ValueError):
        A.relabel(["x", "x", "y"])


def test_labels_checked_as_kept_strings():
    # 0 and "0" are the same label once kept as strings, and an empty
    # list names no element, on every path
    leq, kle, bro = d4_tables()
    L = BoundedLattice(leq)
    A = FiniteAlgebra(leq, kle, bro)
    for bad in ([0, "0", "x", "y"], []):
        for build in (lambda: BoundedLattice(leq, labels=bad),
                      lambda: FiniteAlgebra(leq, kle, bro, labels=bad),
                      lambda: FiniteAlgebra.from_lattice(L, kle, bro,
                                                         labels=bad),
                      lambda: A.relabel(bad)):
            with pytest.raises(ValidationError) as info:
                build()
            assert info.value.report.rules() == ["format:labels"]
        assert validate_tables(leq, kle, bro, labels=bad).rules() == \
            ["format:labels"]
    # format problems come first: bad labels on a table that is no
    # lattice (0 and 2 have no meet) report the labels alone
    table, covers = [[1, 1, 0], [0, 1, 0], [0, 1, 1]], [(0, 1), (2, 1)]
    bad, kle3, bro3 = ["x", "x", "y"], [2, 1, 0], [2, 0, 0]
    for build in (
            lambda: BoundedLattice(table, labels=bad),
            lambda: BoundedLattice.from_covers(3, covers, labels=bad),
            lambda: FiniteAlgebra(table, kle3, bro3, labels=bad),
            lambda: FiniteAlgebra.from_covers(3, covers, kle3, bro3,
                                              labels=bad)):
        with pytest.raises(ValidationError) as info:
            build()
        assert info.value.report.rules() == ["format:labels"]
    assert validate_tables(table, kle3, bro3, labels=bad).rules() == \
        ["format:labels"]
    # labels that are not strings are kept as strings, and reload
    for B in (FiniteAlgebra(leq, kle, bro, labels=[7, 8, 9, 10]),
              FiniteAlgebra.from_lattice(L, kle, bro, labels=[7, 8, 9, 10]),
              A.relabel([7, 8, 9, 10])):
        assert B.labels == ("7", "8", "9", "10")
        C = fileformat.loads(fileformat.dumps(B))
        assert C.labels == B.labels and C.tables_equal(B)
    assert BoundedLattice(leq, labels=[7, 8, 9, 10]).labels == \
        ("7", "8", "9", "10")


def test_lattice_reduct_drops_maps():
    A = FiniteAlgebra.from_covers(3, [(0, 1), (1, 2)], [2, 1, 0], [2, 0, 0])
    L = A.lattice_reduct()
    assert isinstance(L, BoundedLattice) and L.n == 3
    assert not hasattr(L, "kleene")


# ---------------------------------------------------------------------------
# isomorphism and canonical bytes


def permuted(A, perm):
    """A with element a renamed perm[a], through the validating
    constructor."""
    inv = [0] * A.n
    for i, p in enumerate(perm):
        inv[p] = i
    leq = [[bool(A.leq[inv[a]][inv[b]]) for b in range(A.n)]
           for a in range(A.n)]
    kle = [perm[A.kleene[inv[a]]] for a in range(A.n)]
    bro = [perm[A.brouwer[inv[a]]] for a in range(A.n)]
    return FiniteAlgebra(leq, kle, bro)


def label_shuffle(A, rng):
    perm = list(range(A.n))
    rng.shuffle(perm)
    return permuted(A, perm)


def test_isomorphic_to_own_shuffle():
    rng = random.Random(7)
    for name in ("D5", "B4", "MO2", "T1(2x2)"):
        from pbzlat import catalog
        A = catalog.get(name)
        for _ in range(3):
            B = label_shuffle(A, rng)
            assert is_isomorphic(A, B)
            assert canonical_form(A) == canonical_form(B)
            assert _oracles.brute_is_isomorphic(A, B)


def test_non_isomorphic_pairs():
    from pbzlat import catalog
    pairs = [("D4", "B4"), ("MO2", "O6-benzene"), ("B4+D5", "T1(2x2)"),
             ("MO2+D3", "B4+D5")]
    for x, y in pairs:
        A, B = catalog.get(x), catalog.get(y)
        assert not is_isomorphic(A, B)
        assert canonical_form(A) != canonical_form(B)
        assert not _oracles.brute_is_isomorphic(A, B)


def test_order_isomorphism_ignores_maps():
    from pbzlat import catalog
    D4 = catalog.get("D4")
    C = chain_lattice(4)
    assert is_order_isomorphic(D4, C)


def all_labelled_algebras(n):
    """Every decorated algebra on an upper-triangular order, size n."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    out = []
    for bits in itertools.product((False, True), repeat=len(pairs)):
        leq = [[a == b for b in range(n)] for a in range(n)]
        for (a, b), keep in zip(pairs, bits):
            if keep:
                leq[a][b] = True
        if not _oracles._lattice_ok(leq):
            continue
        for kle in itertools.permutations(range(n)):
            for bro in itertools.product(range(n), repeat=n):
                if validate_tables(leq, list(kle), list(bro)).ok:
                    out.append(FiniteAlgebra(leq, list(kle), list(bro)))
    return out


def test_canonical_form_matches_isomorphism_exhaustively_at_4():
    algs = all_labelled_algebras(4)
    assert len(algs) == 768  # every labelled size-4 algebra

    groups = {}
    for A in algs:
        groups.setdefault(canonical_form(A), []).append(A)
    assert len(groups) == 528

    # same bytes really means isomorphic
    for members in groups.values():
        rep = members[0]
        for other in members[1:]:
            assert _oracles.brute_is_isomorphic(rep, other)

    # different bytes really means non-isomorphic; bucket by a cheap
    # invariant so the permutation search only runs on plausible pairs
    def invariant(A):
        below = [int(A.leq[:, a].sum()) for a in range(A.n)]
        return tuple(sorted((below[a], below[A.kleene[a]],
                             below[A.brouwer[a]]) for a in range(A.n)))

    buckets = {}
    for cf, members in groups.items():
        buckets.setdefault(invariant(members[0]), []).append(members[0])
    for reps in buckets.values():
        for A, B in itertools.combinations(reps, 2):
            assert not _oracles.brute_is_isomorphic(A, B)


def test_canonical_form_is_bytes_and_stable():
    A = boolean_lattice(4)
    F = FiniteAlgebra.from_lattice(A, [3, 2, 1, 0], [3, 2, 1, 0])
    cf = canonical_form(F)
    assert isinstance(cf, bytes)
    assert cf == canonical_form(F)


def test_leq_is_readonly_numpy():
    A = chain_lattice(3)
    assert isinstance(A.leq, np.ndarray)
    with pytest.raises(ValueError):
        A.leq[0, 1] = False


# ---------------------------------------------------------------------------
# canonical copies and isomorphisms, property-based over the corpora

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
_CORPUS = []


def corpus():
    """The antiortholattices up to n=10 and the BZ-lattices up to n=8."""
    if not _CORPUS:
        for spec in (enumeration.EnumerationSpec(
                         max_size=10, structure="antiortholattice"),
                     enumeration.EnumerationSpec(max_size=8)):
            _CORPUS.extend(enumeration.enumerate_all(spec))
    return _CORPUS


@PROPERTY
@given(st.data())
def test_canonical_copy_ignores_relabelling(data):
    A = data.draw(st.sampled_from(corpus()))
    B = permuted(A, data.draw(st.permutations(range(A.n))))
    C = core.canonical_copy(B)
    # corpus members are canonical copies already
    assert C.tables_equal(A) and C.labels == A.labels
    assert canonical_form(B) == canonical_form(C) == canonical_form(A)
    D = core.canonical_copy(C)
    assert D.tables_equal(C) and D.labels == C.labels


def is_isomorphism(A, B, img):
    n = A.n
    return sorted(img) == list(range(n)) and all(
        A.le(a, b) == B.le(img[a], img[b])
        for a in range(n) for b in range(n)) and all(
        img[A.kleene[a]] == B.kleene[img[a]]
        and img[A.brouwer[a]] == B.brouwer[img[a]] for a in range(n))


@PROPERTY
@given(st.data())
def test_isomorphism_agrees_with_brute_force(data):
    small = [A for A in corpus() if A.n <= 7]
    A = data.draw(st.sampled_from(small))
    B = data.draw(st.one_of(
        st.just(A), st.sampled_from([B for B in small if B.n == A.n])))
    B = permuted(B, data.draw(st.permutations(range(B.n))))
    img = is_isomorphic(A, B)
    assert (img is not None) == _oracles.brute_is_isomorphic(A, B)
    assert img is None or is_isomorphism(A, B, img)
    (leqA, _), (leqB, _) = _oracles.tables_of(A), _oracles.tables_of(B)
    assert (is_order_isomorphic(A, B) is not None) == \
        _oracles.brute_iso(leqA, (), leqB, ())
