"""Twists, sums, products, subalgebras, quotients."""

import hashlib
import itertools

import pytest

from pbzlat import axioms, catalog, terms
from pbzlat.congruences import Congruence, all_congruences
from pbzlat.constructions import (
    blocks, commutes, cones, gamma, horizontal_sum,
    is_horizontal_sum_of_blocks, ordinal_sum, product, quotient,
    subalgebra_generated, subuniverse_generated, twist1, twist2,
    twist_represent,
)
from pbzlat.core import (
    BoundedLattice, FiniteAlgebra, boolean_lattice, chain_lattice,
    is_isomorphic, is_order_isomorphic,
)
from pbzlat.enumeration import (EnumerationSpec, enumerate_all,
                                enumerate_lattices)

import _oracles


def n5_plus_top():
    # pentagon 0 < a < c < 1, 0 < b < 1, with a fresh top stacked on
    n5 = BoundedLattice.from_covers(
        5, [(0, 1), (1, 3), (0, 2), (3, 4), (2, 4)],
        labels=["0", "a", "b", "c", "1"])
    return ordinal_sum(n5, chain_lattice(1), name="N5+1")


def padded_m3():
    # antiortholattice whose cones miss the swapped antichain pair
    return FiniteAlgebra.from_covers(
        7, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5), (5, 6)],
        kleene=[6, 5, 3, 2, 4, 1, 0],
        brouwer=[6, 0, 0, 0, 0, 0, 0],
        labels=["0", "p", "a", "b", "c", "q", "1"])


def test_twist_sizes_and_labels():
    for m in (2, 3, 4, 5):
        L = chain_lattice(m)
        t1, t2 = twist1(L), twist2(L)
        assert t1.n == 2 * m - 1
        assert t2.n == 2 * m
        # original labels survive on top, dual copy is f(...) below
        assert list(t1.labels[-m:]) == list(L.labels)
        assert all(lab.startswith("f(") for lab in t1.labels[:m - 1])
        assert all(lab.startswith("f(") for lab in t2.labels[:m])
    named = twist1(chain_lattice(2, name="D2"))
    assert named.name == "T1(D2)"
    assert twist2(chain_lattice(2)).name == "T2(chain2)"


def test_twist_small_chains_give_catalog_chains():
    assert is_isomorphic(twist1(chain_lattice(2)), catalog.get("D3"))
    assert is_isomorphic(twist2(chain_lattice(2)), catalog.get("D4"))
    assert is_isomorphic(twist1(chain_lattice(3)), catalog.get("D5"))
    assert is_isomorphic(twist2(chain_lattice(1)), catalog.get("D2"))


def test_twist_of_square_matches_catalog():
    sq = boolean_lattice(4)
    assert is_isomorphic(twist1(sq), catalog.get("T1(2x2)"))
    assert is_isomorphic(twist2(sq), catalog.get("T2(2x2)"))
    assert is_isomorphic(twist1(n5_plus_top()), catalog.get("T1(N5+1)"))


def test_twists_are_antiortholattices():
    inputs = [chain_lattice(2), chain_lattice(4), boolean_lattice(4),
              boolean_lattice(8), n5_plus_top()]
    for L in inputs:
        for T in (twist1(L), twist2(L)):
            rep = axioms.classify(T)
            assert rep.antiortholattice and rep.pbz_star
        fix1 = [a for a in range(twist1(L).n)
                if twist1(L).kleene[a] == a]
        fix2 = [a for a in range(twist2(L).n)
                if twist2(L).kleene[a] == a]
        assert len(fix1) == 1 and fix2 == []


def test_twist1_needs_two_elements():
    with pytest.raises(ValueError):
        twist1(chain_lattice(1))


def test_cones_on_twist():
    A = catalog.get("T1(2x2)")
    cn = cones(A)
    # indices: f1 fa fb o a b 1
    assert cn.negative == frozenset({0, 1, 2, 3})
    assert cn.positive == frozenset({3, 4, 5, 6})
    assert cn.strictly_positive == frozenset({4, 5, 6})
    assert cn.strictly_negative == frozenset({0, 1, 2})
    assert cn.negative | cn.positive == frozenset(range(A.n))


def test_cones_do_not_always_cover():
    cn = cones(catalog.get("MO2"))
    assert cn.negative == frozenset({0})
    assert cn.positive == frozenset({5})


def test_twist_represent_round_trip():
    aols = ["D2", "D3", "D4", "D5", "D6", "D7", "D8",
            "T1(2x2)", "T2(2x2)", "T1(N5+1)"]
    for name in aols:
        A = catalog.get(name)
        rep = twist_represent(A)
        assert rep.ok, name
        fixpoints = [a for a in range(A.n) if A.kleene[a] == a]
        assert rep.index == (1 if fixpoints else 2)
        assert rep.rebuilt.n == A.n
        assert is_isomorphic(rep.rebuilt, A)
        assert sorted(rep.iso) == list(range(A.n))
        want_core = (A.n + 1) // 2 if rep.index == 1 else A.n // 2
        assert rep.core.n == want_core
        # iso really maps A onto the rebuilt twist
        for a in range(A.n):
            for b in range(A.n):
                assert A.le(a, b) == rep.rebuilt.le(rep.iso[a], rep.iso[b])


def test_twist_represent_rejects_non_antiortholattices():
    with pytest.raises(ValueError):
        twist_represent(catalog.get("MO2"))
    with pytest.raises(ValueError):
        twist_represent(catalog.get("B4"))


def test_twist_represent_witness_when_cones_fall_short():
    A = padded_m3()
    assert axioms.classify(A).antiortholattice
    rep = twist_represent(A)
    assert not rep.ok
    assert rep.witness == 2  # a, incomparable with a' = b
    assert rep.rebuilt is None


def test_ordinal_sum_of_chains_is_chain():
    S = ordinal_sum(chain_lattice(2), chain_lattice(2))
    assert S.n == 4
    assert is_order_isomorphic(S, chain_lattice(4))
    assert S.labels[0].startswith("l:") and S.labels[-1].startswith("u:")


def test_ordinal_sum_keeps_summand_order():
    m3 = BoundedLattice.from_covers(
        5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    S = ordinal_sum(m3, chain_lattice(2))
    assert isinstance(S, BoundedLattice)
    assert S.n == 7
    # the pentagon's incomparabilities survive, everything sits below
    # the upper chain
    assert not S.le(1, 2) and not S.le(2, 1)
    for a in range(5):
        assert S.le(a, 5) and S.le(a, 6)


def test_horizontal_sum_matches_catalog():
    pairs = [("B4+D3", ["B4", "D3"]), ("B4+D4", ["B4", "D4"]),
             ("B4+D5", ["B4", "D5"]), ("MO2+D3", ["MO2", "D3"])]
    for target, parts in pairs:
        H = horizontal_sum([catalog.get(p) for p in parts])
        assert is_isomorphic(H, catalog.get(target)), target


def test_horizontal_sum_of_two_squares_is_mo2():
    H = horizontal_sum([catalog.get("B4"), catalog.get("B4")])
    assert H.n == 6
    assert is_isomorphic(H, catalog.get("MO2"))
    # clashing interior labels get a suffix
    assert sorted(H.labels) == ["0", "1", "a", "a.1", "b", "b.1"]


def _summand_places(summands, i, n):
    """Where horizontal_sum puts the elements of summand i in a sum of n
    elements: the bounds at 0 and n - 1, the interiors of the summands
    one after another, each in its own index order."""
    S = summands[i]
    interior = [a for a in range(S.n) if a not in (S.zero, S.one)]
    start = 1 + sum(R.n - 2 for R in summands[:i])
    return {S.zero: 0, S.one: n - 1,
            **{a: start + k for k, a in enumerate(interior)}}


def test_twists_and_sums_of_every_lattice_to_n7():
    # every builder result passes the validator; beyond that, each twist
    # of a lattice up to n=7 is a PBZ* antiortholattice twist_represent
    # rebuilds, each ordinal sum stacks its summands, and each horizontal
    # sum with B4 restricts to both summands, whose interiors it keeps
    # apart
    lattices = [L for n in range(1, 8) for L in enumerate_lattices(n)]
    twists = [twist(L) for L in lattices for twist in (twist1, twist2)
              if L.n >= 2 or twist is twist2]
    assert (len(lattices), len(twists)) == (78, 155)
    for T in twists:
        assert axioms.satisfies(T, "pbz-star")
        assert axioms.satisfies(T, "antiortholattice")
        rep = twist_represent(T)
        assert rep.ok and is_isomorphic(rep.rebuilt, T)
    for M in (L for L in lattices if L.n <= 3):
        for L in lattices:
            S = ordinal_sum(M, L)
            m = M.n
            assert S.n == m + L.n
            for a, b in itertools.product(range(S.n), repeat=2):
                if a < m and b < m:
                    assert S.le(a, b) == M.le(a, b)
                elif a >= m and b >= m:
                    assert S.le(a, b) == L.le(a - m, b - m)
                else:
                    assert S.le(a, b) == (a < m)
    B4 = catalog.get("B4")
    for T in twists:
        summands = [T, B4]
        H = horizontal_sum(summands)
        assert H.n == 2 + (T.n - 2) + 2
        places = [_summand_places(summands, i, H.n) for i in range(2)]
        for S, t in zip(summands, places):
            for a, b in itertools.product(range(S.n), repeat=2):
                assert H.le(t[a], t[b]) == S.le(a, b)
            assert all(H.kleene[t[a]] == t[S.kleene[a]] and
                       H.brouwer[t[a]] == t[S.brouwer[a]]
                       for a in range(S.n))
        inner = [set(t.values()) - {0, H.n - 1} for t in places]
        assert all(not H.le(a, b) and not H.le(b, a)
                   for a in inner[0] for b in inner[1])


def test_horizontal_sum_errors():
    D3 = catalog.get("D3")
    with pytest.raises(ValueError, match="at least one"):
        horizontal_sum([])
    with pytest.raises(ValueError, match="at most one"):
        horizontal_sum([D3, D3])
    one = FiniteAlgebra([[True]], [0], [0])
    with pytest.raises(ValueError, match="nontrivial"):
        horizontal_sum([catalog.get("B4"), one])
    loose = FiniteAlgebra(chain_lattice(3).leq, [2, 1, 0], [0, 0, 0])
    with pytest.raises(ValueError, match="bounds"):
        horizontal_sum([loose, catalog.get("B4")])


def test_horizontal_sum_single_summand():
    B4 = catalog.get("B4")
    H = horizontal_sum([B4])
    assert H.n == B4.n and is_isomorphic(H, B4)


def test_blocks():
    B4 = catalog.get("B4")
    assert blocks(B4) == [frozenset(range(4))]
    assert blocks(catalog.get("D5")) == [frozenset(range(5))]
    assert blocks(catalog.get("MO2")) == [frozenset({0, 1, 3, 5}),
                                          frozenset({0, 2, 4, 5})]
    assert blocks(catalog.get("B4+D3")) == [frozenset({0, 1, 2, 4}),
                                            frozenset({0, 3, 4})]
    O6 = catalog.get("O6")  # BZ* yet not PBZ*
    for _ in range(2):  # a refused algebra keeps nothing, so raises again
        with pytest.raises(ValueError, match="PBZ"):
            blocks(O6)


def test_blocks_of_boolean_algebra_is_itself():
    for name in ("B8", "B16"):
        A = catalog.get(name)
        assert blocks(A) == [frozenset(range(A.n))]


def test_horizontal_sum_recognition():
    for name in ("B4", "MO2", "D4", "B4+D3", "B4+D5", "MO2+D3", "B8"):
        rep = is_horizontal_sum_of_blocks(catalog.get(name))
        assert rep.holds and rep.by_conditions and rep.agree, name
    rep = is_horizontal_sum_of_blocks(catalog.get("T1(2x2)"))
    assert not rep.holds and not rep.by_conditions and rep.agree
    failed = [k for k, (ok, _) in rep.conditions if not ok]
    assert "dense-comparable" in failed


def test_horizontal_sum_reports_match_the_oracle():
    # the table scans and the blocks grown from their closed parents
    # against method calls and blocks closed anew from the bounds
    algebras = [A for spec in (
        EnumerationSpec(max_size=10, structure="antiortholattice"),
        EnumerationSpec(max_size=8)) for A in enumerate_all(spec)]
    algebras += [catalog.get(name) for name in catalog.names()]
    pbz = refused = 0
    for A in algebras:
        for x in range(A.n):
            assert subuniverse_generated(A, [x]) == \
                _oracles.subuniverse_generated(A, [x]), (A, x)
        if axioms.classify(A).pbz_star:
            assert repr(is_horizontal_sum_of_blocks(A)) == \
                repr(_oracles.is_horizontal_sum_of_blocks(A)), A
            pbz += 1
        else:
            with pytest.raises(ValueError, match="PBZ"):
                blocks(A)
            refused += 1
    assert pbz and refused


def test_gamma_and_commutes():
    B8 = catalog.get("B8")
    assert all(commutes(B8, a, b)
               for a in range(B8.n) for b in range(B8.n))
    MO2 = catalog.get("MO2")  # 0 a b A B 1
    assert not commutes(MO2, 1, 2)
    assert gamma(MO2, 1, 2) == MO2.one
    assert commutes(MO2, 1, 3)  # a with its own complement
    assert all(commutes(MO2, 0, x) and commutes(MO2, x, 5)
               for x in range(6))


def test_product():
    P = product(catalog.get("D2"), catalog.get("D2"))
    assert is_isomorphic(P, catalog.get("B4"))
    Q = product(catalog.get("D3"), catalog.get("D3"))
    rep = axioms.classify(Q)
    assert Q.n == 9 and rep.pbz_star and not rep.antiortholattice
    assert len(axioms.sharp_sets(Q).s_k) == 4
    assert Q.labels[0] == "(0,0)"


def test_subalgebra_generated():
    B8 = catalog.get("B8")
    atom = B8.labels.index("a")
    S = subuniverse_generated(B8, [atom])
    assert len(S) == 4
    sub = subalgebra_generated(B8, [atom])
    assert is_isomorphic(sub, catalog.get("B4"))

    D5 = catalog.get("D5")
    assert subuniverse_generated(D5, []) == frozenset({0, 4})
    assert is_isomorphic(subalgebra_generated(D5, []), catalog.get("D2"))

    T = catalog.get("T1(2x2)")
    sub = subalgebra_generated(T, [1])  # fa
    assert is_isomorphic(sub, catalog.get("D4"))


def test_quotient_by_monolith():
    D5 = catalog.get("D5")
    theta = Congruence.from_blocks(5, [(0,), (1, 2, 3), (4,)])
    Q = quotient(D5, theta)
    assert Q.labels == ("{0}", "{a,b,c}", "{1}")
    assert is_isomorphic(Q, catalog.get("D3"))


def test_quotient_rejects_non_congruence():
    D5 = catalog.get("D5")
    bad = Congruence.from_blocks(5, [(0, 1), (2,), (3,), (4,)])
    with pytest.raises(ValueError, match="congruence"):
        quotient(D5, bad)


def _builder_outputs():
    """Every builder's output on a fixed list of inputs, by group: the
    file text of each algebra, and covers, labels and name of each bare
    lattice, so element numbering and labels are pinned, not only the
    isomorphism type."""
    from pbzlat import fileformat
    from pbzlat.congruences import all_congruences

    def show(X):
        if isinstance(X, BoundedLattice):
            return repr((X.covers(), X.labels, X.name))
        return fileformat.dumps(X)

    bare = ([chain_lattice(n) for n in range(1, 7)]
            + [boolean_lattice(n) for n in (1, 2, 4, 8)])
    algebras = [catalog.get(name) for name in catalog.names()]
    out = {
        "stock": [show(L) for L in bare],
        "twists": [show(t(L)) for L in bare for t in (twist1, twist2)
                   if L.n > 1 or t is twist2],
        "ordinal": [show(ordinal_sum(M, L)) for M in bare for L in bare],
        "product": [show(product(A, B)) for A in algebras for B in algebras
                    if A.n * B.n <= 40],
        # all_congruences is capped at 12 elements, which leaves out B16
        "quotient": [show(quotient(A, theta)) for A in algebras
                     if A.n <= 12 for theta in all_congruences(A)],
        "subalgebra": [show(subalgebra_generated(A, [a])) for A in algebras
                       for a in range(A.n)],
    }
    hsum_names = ("B4", "D3", "D4", "D5", "B8", "MO2")
    out["horizontal"] = [
        show(horizontal_sum([catalog.get(x) for x in combo]))
        for r in (1, 2, 3) for combo in itertools.combinations(hsum_names, r)
        if sum(x.startswith("D") for x in combo) <= 1]
    out["represent"] = []
    for A in algebras:
        if axioms.classify(A).antiortholattice and A.n > 1:
            rep = twist_represent(A)
            out["represent"].append(repr((rep.ok, rep.index, rep.iso,
                                          rep.witness)))
            if rep.ok:
                out["represent"] += [show(rep.core), show(rep.rebuilt)]
    return out


# (count, sha256 of the outputs joined by newlines) per group, frozen
# before the builders moved from boolean tables to up-set masks
PINNED_BUILDER_OUTPUTS = {
    "stock": (10, "01845abddecf685c97ba0e2b84ec5a66"
                  "34bc0d86e7c2b76a4801ce3c4208e659"),
    "twists": (18, "10fc08c0bfa3ead1e48620aa111386ff"
                   "24dcbe6bab21a47ce6ab7149e2b8b11d"),
    "ordinal": (100, "0bffc73c7a7470d957a4f6a216d8be1d"
                     "e7177082027c6d5e08008a40ee828038"),
    "product": (190, "e4c68a89b95d6e7e9ba0d8d362ae1cd9"
                     "8f7d188f4e99556d7843df0406933ac5"),
    "quotient": (69, "cca14f573db8bebb7efcb943bfbc27d8"
                     "df6fded3b716826b7f0c848223072de5"),
    "subalgebra": (126, "b39e0782be1a80cb236d5b2b876324ea"
                        "51e5df8de10e8bf2d811937d4801255b"),
    "horizontal": (28, "aaa84cff15283820d815dda5841ed619"
                       "76fad6152d64974d60cdbb041390d034"),
    "represent": (30, "7b6d03e00123c93d3c93740d52adbb9c"
                      "fd904c541df8ef2b51c326f2d4f93b0b"),
}


def test_builder_outputs_pinned():
    digests = {group: (len(texts), hashlib.sha256(
                   "\n".join(texts).encode()).hexdigest())
               for group, texts in _builder_outputs().items()}
    assert digests == PINNED_BUILDER_OUTPUTS


def test_identities_pass_to_images_subalgebras_and_products():
    # H, S and P over the BZ-lattices up to n=6: an identity that holds
    # on an algebra holds on its quotients and subalgebras, and holds on
    # a product of two nontrivial factors (up to 12 elements) exactly
    # when it holds on both; PBZ* is a variety, so it passes to
    # quotients too
    corpus = list(enumerate_all(EnumerationSpec(max_size=6)))
    identities = [(name, stmt) for name, stmt in terms.THEORY.items()
                  if isinstance(stmt, terms.Identity)]

    def verdicts(A):
        return {name: terms.holds(A, stmt)[0] for name, stmt in identities}

    quotients = subalgebras = products = 0
    for i, A in enumerate(corpus):
        held = {name for name, ok in verdicts(A).items() if ok}
        pbz_star = axioms.satisfies(A, "pbz-star")
        for theta in all_congruences(A):
            Q = quotient(A, theta)
            got = verdicts(Q)
            assert all(got[name] for name in held), (i, theta)
            assert axioms.satisfies(Q, "pbz-star") or not pbz_star, i
            quotients += 1
        for a in range(A.n):
            got = verdicts(subalgebra_generated(A, [a]))
            assert all(got[name] for name in held), (i, a)
            subalgebras += 1
    for (i, A), (j, B) in itertools.product(enumerate(corpus), repeat=2):
        if A.n == 1 or B.n == 1 or A.n * B.n > 12:
            continue
        va, vb = verdicts(A), verdicts(B)
        assert verdicts(product(A, B)) == {
            name: va[name] and vb[name] for name in va}, (i, j)
        products += 1
    assert (len(corpus), quotients, subalgebras, products) == (21, 60, 105, 46)
