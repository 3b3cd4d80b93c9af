"""Congruence lattices, subdirect irreducibility, coset relations."""

import pickle

import pytest

from pbzlat import catalog
from pbzlat.congruences import (
    Congruence, agreement_below, all_congruences, congruence_generated,
    is_congruence, is_directly_indecomposable, is_subdirectly_irreducible,
    join_congruences, meet_congruences, principal_congruence,
    tilde_family_report, tilde_join_relation, tilde_meet_relation,
    tilde_partition,
)
from pbzlat.constructions import horizontal_sum, product
from pbzlat.enumeration import EnumerationSpec, enumerate_all

import _oracles


def test_partition_container():
    t = Congruence([5, 5, 2, 2, 9])
    assert t.block_of == (0, 0, 1, 1, 2)
    assert t == Congruence.from_blocks(5, [(0, 1), (2, 3), (4,)])
    assert t.blocks() == [(0, 1), (2, 3), (4,)]
    assert t.pairs() == [(0, 1), (2, 3)]
    assert t.num_blocks() == 3
    assert t.related(0, 1) and not t.related(1, 2)
    assert Congruence.identity(4).is_identity()
    assert Congruence.total(4).is_total()
    assert t.refines(Congruence.total(5))
    assert Congruence.identity(5).refines(t)
    assert not t.refines(Congruence.identity(5))
    with pytest.raises(ValueError):
        Congruence.from_blocks(3, [(0, 2)])


def test_congruences_are_immutable():
    # cached congruence lattices hand the same instances to every caller
    t = Congruence([5, 5, 2, 2, 9])
    for attr, value in (("block_of", (0, 0, 0, 0, 0)), ("n", 4),
                        ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(t, attr, value)
    assert t.block_of == (0, 0, 1, 1, 2) and t.n == 5
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and hash(copy) == hash(t)


def test_is_congruence_witness():
    D5 = catalog.get("D5")
    ok, w = is_congruence(D5, Congruence.from_blocks(
        5, [(0, 1), (2,), (3,), (4,)]))
    assert not ok
    assert w == ((0, 1), "kleene")
    ok, w = is_congruence(D5, Congruence.from_blocks(
        5, [(0,), (1, 2, 3), (4,)]))
    assert ok and w is None
    # size mismatch is reported, not an exception
    ok, w = is_congruence(D5, Congruence.identity(4))
    assert not ok and w[0] == "size"


def test_principal_congruences():
    D5 = catalog.get("D5")
    # identifying a with b drags c in through the involution
    t = principal_congruence(D5, 1, 2)
    assert t.blocks() == [(0,), (1, 2, 3), (4,)]
    assert t == congruence_generated(D5, [(1, 2)])
    assert principal_congruence(D5, 0, 4).is_total()

    B4 = catalog.get("B4")
    t = principal_congruence(B4, 0, 1)
    assert t.blocks() == [(0, 1), (2, 3)]


def test_join_and_meet_of_congruences():
    D6 = catalog.get("D6")
    t1 = principal_congruence(D6, 1, 2)
    t2 = principal_congruence(D6, 3, 4)
    assert t1.blocks() == [(0,), (1, 2), (3, 4), (5,)]
    assert t1 == t2  # the involution mirrors the two collapses
    up = join_congruences(D6, t1, principal_congruence(D6, 2, 3))
    assert up.is_total() or up.num_blocks() < t1.num_blocks()
    assert meet_congruences(t1, t2) == t1


def test_all_congruences_against_bruteforce():
    names = ["D2", "D3", "D4", "D5", "D6", "B4", "MO2", "O6",
             "B4+D3", "B4+D4", "MO2+D3", "T1(2x2)"]
    for name in names:
        A = catalog.get(name)
        got = sorted(tuple(t.blocks()) for t in all_congruences(A))
        want = [tuple(p) for p in _oracles.brute_congruences(A)]
        assert got == want, name


AOL10 = EnumerationSpec(max_size=10, structure="antiortholattice")
BZ8 = EnumerationSpec(max_size=8)


def test_all_congruences_match_pairwise_oracle():
    """Cover generators and equivalence joins give the list the
    all-pairs generators with generated joins give, order included."""
    for spec in (AOL10, BZ8):
        for A in enumerate_all(spec):
            assert all_congruences(A) == _oracles.pairwise_congruences(A), A


def test_all_congruences_against_bruteforce_on_corpora():
    for spec in (AOL10, BZ8):
        for A in enumerate_all(spec):
            if A.n > 7:
                break
            got = sorted(tuple(t.blocks()) for t in all_congruences(A))
            want = [tuple(p) for p in _oracles.brute_congruences(A)]
            assert got == want, A


def test_principal_congruences_match_full_passes():
    for spec in (AOL10, BZ8):
        for A in enumerate_all(spec):
            if A.n > 8:
                break
            for a in range(A.n):
                for b in range(A.n):
                    assert principal_congruence(A, a, b) == \
                        _oracles.congruence_generated(A, [(a, b)]), \
                        (A, a, b)


def test_all_congruences_capped():
    with pytest.raises(ValueError, match="capped"):
        all_congruences(catalog.get("B16"))


def test_chains_subdirectly_irreducible_up_to_five():
    for name in ("D2", "D3", "D4", "D5"):
        si, mono = is_subdirectly_irreducible(catalog.get(name))
        assert si, name
        assert not mono.is_identity()
    si, mono = is_subdirectly_irreducible(catalog.get("D5"))
    assert mono.blocks() == [(0,), (1, 2, 3), (4,)]
    for name in ("D6", "D7", "D8"):
        si, mono = is_subdirectly_irreducible(catalog.get(name))
        assert not si and mono is None, name


def test_horizontal_sums_subdirectly_irreducible():
    for name in ("B4+D3", "B4+D4", "B4+D5", "MO2+D3"):
        si, _ = is_subdirectly_irreducible(catalog.get(name))
        assert si, name
    loose = horizontal_sum([catalog.get("B4"), catalog.get("D6")])
    si, _ = is_subdirectly_irreducible(loose)
    assert not si


def test_direct_indecomposability():
    for name in ("D2", "D3", "D4", "D5", "D6", "D7", "D8",
                 "T1(2x2)", "T2(2x2)", "T1(N5+1)", "MO2"):
        assert is_directly_indecomposable(catalog.get(name)), name
    assert not is_directly_indecomposable(catalog.get("B4"))
    assert not is_directly_indecomposable(
        product(catalog.get("D2"), catalog.get("D3")))


def test_tilde_partition_shapes():
    D5 = catalog.get("D5")
    assert tilde_partition(D5).is_identity()
    D6 = catalog.get("D6")
    t = tilde_partition(D6)
    assert t.blocks() == [(0,), (1, 2), (3, 4), (5,)]
    assert is_congruence(D6, t)[0]
    T = catalog.get("T1(2x2)")
    t = tilde_partition(T)
    assert t.blocks() == [(0,), (1, 2), (3,), (4, 5), (6,)]
    assert not is_congruence(T, t)[0]


def test_agreement_below_bounds():
    D5 = catalog.get("D5")
    rep = agreement_below(D5, D5.zero)
    assert rep.is_congruence and rep.partition.is_total()
    rep = agreement_below(D5, D5.one)
    assert rep.is_congruence and rep.partition.is_identity()


def test_coset_relations_on_small_chains():
    for name in ("D2", "D3", "D4", "D5"):
        A = catalog.get(name)
        for p in range(A.n):
            c = agreement_below(A, p)
            d = tilde_meet_relation(A, p)
            e = tilde_join_relation(A, p)
            assert c.is_congruence, (name, p, c.witness)
            assert d.is_congruence, (name, p, d.witness)
            assert e.is_congruence, (name, p, e.witness)
            assert d.partition.is_identity() or e.partition.is_identity()


def test_tilde_family_report():
    rep = tilde_family_report(catalog.get("D5"))
    assert rep.precondition_ok and rep.failed_preconditions == ()
    assert rep.tilde_is_congruence
    assert rep.meet_relations_ok and rep.join_relations_ok
    assert rep.one_of_each_trivial
    assert rep.witness is None

    rep = tilde_family_report(catalog.get("T1(2x2)"))
    assert not rep.precondition_ok
    assert "SDM" in rep.failed_preconditions

    rep = tilde_family_report(catalog.get("D6"))
    assert not rep.precondition_ok
    assert "subdirectly-irreducible" in rep.failed_preconditions

    rep = tilde_family_report(catalog.get("B4"))
    assert "antiortholattice" in rep.failed_preconditions
