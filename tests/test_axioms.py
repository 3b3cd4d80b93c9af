"""Class predicates: pseudo-Kleene through PBZ* and the sharp sets."""

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from pbzlat import axioms, catalog, cli, constructions, core, enumeration, terms
from pbzlat.core import FiniteAlgebra, chain_lattice


def decorate(n, covers, kleene, brouwer):
    return FiniteAlgebra.from_covers(n, covers, kleene, brouwer)


def by_levels(algebras):
    """The class flags of each algebra, in order, as a dict by flag name,
    each flag read over each size's algebras at once (``axioms._held``).
    The flags are read last to first, so the first read of a level
    reads the statements of the flags it needs, and the later reads
    widen what it decided."""
    levels = {}
    for i, A in enumerate(algebras):
        levels.setdefault(A.n, []).append(i)
    flags = [{} for _ in algebras]
    for order in levels.values():
        level = core._Level([algebras[i] for i in order])
        for name in reversed(axioms.CLASS_FLAGS):
            held = axioms._held(level, name, level.full)
            for bit, i in enumerate(order):
                flags[i][name] = held >> bit & 1 == 1
    return flags


def test_pseudo_kleene_witness():
    # B4 with ' fixing both atoms is an involution but not pseudo-Kleene
    A = decorate(4, [(0, 1), (0, 2), (1, 3), (2, 3)],
                 [3, 1, 2, 0], [3, 0, 0, 0])
    report = axioms.classify(A)
    witness = dict(report.witnesses).get("pseudo-kleene")
    assert not report.pseudo_kleene and witness is not None
    a, b = witness[:2]
    assert not A.le(A.meet(a, A.kleene[a]), A.join(b, A.kleene[b]))


def test_pseudo_kleene_against_nested_loops():
    # both sweep corpora, all pseudo-Kleene, and every order-reversing
    # involution of every lattice to n=8, many of them not
    algebras = [A for spec in (
        enumeration.EnumerationSpec(max_size=10,
                                    structure="antiortholattice"),
        enumeration.EnumerationSpec(max_size=8))
        for A in enumeration.enumerate_all(spec)]
    algebras += [A for n in range(1, 9)
                 for L in enumeration.enumerate_lattices(n)
                 for A in _oracles._trivially_decorated(L)]
    reports = [axioms.classify(A) for A in algebras]
    verdicts = [(r.pseudo_kleene, dict(r.witnesses).get("pseudo-kleene"))
                for r in reports]
    assert verdicts == [_oracles.is_pseudo_kleene(A) for A in algebras]
    assert [axioms._pseudo_kleene(A._ord, A.kleene) for A in algebras] == \
        [ok for ok, _ in verdicts]
    # the witness path is taken too: 150 involutions are not PK
    assert sum(not ok for ok, _ in verdicts) == 150


def test_bz_and_bz_star_against_nested_loops():
    # both sweep corpora, all BZ, and mutants of the BZ corpus, most of
    # them not BZ: up to n=5 with every map as ~, beyond it with one
    # image of ~ changed; the same verdicts, clause names and least
    # witnesses as the nested loops
    corpora = [list(enumeration.enumerate_all(spec)) for spec in (
        enumeration.EnumerationSpec(max_size=10,
                                    structure="antiortholattice"),
        enumeration.EnumerationSpec(max_size=8))]
    maps = [(A, tilde) for A in corpora[1] if A.n <= 5
            for tilde in itertools.product(range(A.n), repeat=A.n)]
    maps += [(A, A.brouwer[:a] + (v,) + A.brouwer[a + 1:])
             for A in corpora[1] if A.n > 5
             for a in range(A.n) for v in range(A.n) if v != A.brouwer[a]]
    mutants = [FiniteAlgebra._from_order(A._ord, A.kleene, tilde)
               for A, tilde in maps]
    algebras = corpora[0] + corpora[1] + mutants
    want = [_oracles.classify(A) for A in algebras]
    assert by_levels(algebras) == [r.flags() for r in want]
    reports = [axioms.classify(A) for A in algebras]
    assert reports == want
    bz = [(r.bz, dict(r.witnesses).get("bz")) for r in reports]
    assert bz == [_oracles.is_bz(A) for A in algebras]
    # BZ* as a statement, read on every algebra, BZ or not
    star = [terms.holds(A, terms.THEORY["STAR"]) for A in algebras]
    assert [(ok, w and (w["x"],)) for ok, w in star] == \
        [_oracles.is_bz_star(A) for A in algebras]
    assert all(ok for ok, _ in bz[:len(algebras) - len(mutants)])
    # every clause fails somewhere, and so does BZ* on a BZ mutant
    failed = {w[0] for ok, w in bz if not ok}
    assert failed == {"bz:disjoint", "bz:expanding", "bz:antitone",
                      "bz:link"}
    assert any(r.bz and not r.bz_star for r in reports)


def test_class_reports_equal_the_oracles():
    # every report, witnesses included, equals the nested loops' over
    # both sweep corpora and 10000 mutants with random ~ maps (the map
    # of a corpus algebra with some images redrawn, or all of them),
    # each flag read a level at a time, and each report built one
    # algebra at a time; a level read builds no report
    corpora = [list(enumeration.enumerate_all(spec)) for spec in (
        enumeration.EnumerationSpec(max_size=10,
                                    structure="antiortholattice"),
        enumeration.EnumerationSpec(max_size=8))]
    rng = random.Random(3701)
    maps = []
    for _ in range(10000):
        A = rng.choice(corpora[rng.randrange(2)])
        tilde = list(A.brouwer)
        for a in rng.sample(range(A.n), rng.randint(1, A.n)):
            tilde[a] = rng.randrange(A.n)
        maps.append((A, tilde))
    want = [_oracles.classify(A) for corpus in corpora for A in corpus]
    want += [_oracles.classify(FiniteAlgebra._from_order(
        A._ord, A.kleene, tilde)) for A, tilde in maps]
    # copies keep no results, so each route classifies its own
    levelwise, apart = ([*(pickle.loads(pickle.dumps(A))
                           for corpus in corpora for A in corpus),
                         *(FiniteAlgebra._from_order(A._ord, A.kleene, tilde)
                           for A, tilde in maps)] for _ in range(2))
    assert by_levels(levelwise) == [r.flags() for r in want]
    assert all(set(A._kept) <= {"canon"} for A in levelwise)
    assert [axioms.classify(A) for A in apart] == want
    # every flag fails somewhere but the two the mutants cannot fail
    # (they keep the corpus's pseudo-Kleene pairs; the involutions that
    # are not are in test_pseudo_kleene_against_nested_loops), each with
    # its witnesses, and each BZ clause fails first somewhere
    for name in axioms.CLASS_FLAGS[2:]:
        assert any(not r.flags()[name] for r in want), name
    named = {name for r in want for name, _ in r.witnesses}
    assert named == {"ortholattice", "orthomodular", "paraorthomodular",
                     "bz", "bz-star", "diamond-orthomodular"}
    assert {w[0] for r in want for name, w in r.witnesses
            if name == "bz"} == {"bz:disjoint", "bz:expanding",
                                 "bz:antitone", "bz:link"}


def test_ortholattice_vs_pseudo_kleene():
    D4 = catalog.get("D4")
    assert axioms.classify(D4).pseudo_kleene
    assert not axioms.classify(D4).ortholattice  # a ^ a' = a in the chain
    assert axioms.classify(catalog.get("B8")).ortholattice


def test_orthomodular_examples():
    assert axioms.classify(catalog.get("MO2")).orthomodular
    report = axioms.classify(catalog.get("O6-benzene"))
    assert not report.orthomodular
    a, b = dict(report.witnesses)["orthomodular"][:2]
    A = catalog.get("O6-benzene")
    assert A.le(a, b) and b != A.join(A.meet(b, A.kleene[a]), a)


def test_paraorthomodular_examples():
    assert axioms.classify(catalog.get("D5")).paraorthomodular
    assert not axioms.classify(catalog.get("O6-benzene")).paraorthomodular


def test_non_bz_brouwer_detected():
    # on the chain, ~ = ' breaks a ^ a~ = 0
    A = decorate(4, [(0, 1), (1, 2), (2, 3)], [3, 2, 1, 0], [3, 2, 1, 0])
    report = axioms.classify(A)
    assert not report.bz
    assert dict(report.witnesses)["bz"] == ("bz:disjoint", (1,))
    with pytest.raises(ValueError) as err:
        axioms.sharp_sets(A)
    assert str(err.value) == \
        "sharp_sets needs a BZ-lattice, violated ('bz:disjoint', (1,))"


def test_trivial_brouwer_is_always_bz_on_pseudo_kleene():
    for name in ("D6", "B4", "O6-benzene", "MO2"):
        A = catalog.get(name)
        triv = [A.one if x == A.zero else A.zero for x in range(A.n)]
        B = FiniteAlgebra(A.leq.tolist(), list(A.kleene), triv)
        assert axioms.classify(B).bz


def test_benzene_is_bz_star_but_not_pbz():
    flags = axioms.classify(catalog.get("O6-benzene")).flags()
    assert flags["ortholattice"] and flags["bz"] and flags["bz-star"]
    assert not flags["orthomodular"]
    assert not flags["paraorthomodular"]
    assert not flags["diamond-orthomodular"]
    assert not flags["pbz-star"]


def test_one_list_of_class_flags(capsys):
    # the report's flags, in the order check prints them
    assert len(axioms.CLASS_FLAGS) == 11
    A = catalog.get("O6-benzene")
    assert tuple(axioms.classify(A).flags()) == axioms.CLASS_FLAGS
    assert cli.main(["check", "O6-benzene"]) == 0
    printed = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("flags:"))
    assert tuple(f[1:] for f in printed.split()[1:]) == axioms.CLASS_FLAGS
    # exactly the names check --class and a spec accept
    for name in axioms.CLASS_FLAGS:
        assert cli.main(["check", "D4", "--class", name]) in (0, 1)
        enumeration.EnumerationSpec(max_size=3, classes=(name,))
    for name in ("bz_star", "PBZ-STAR", "DIST", "magic"):
        with pytest.raises(SystemExit):
            cli.main(["check", "D4", "--class", name])
        with pytest.raises(ValueError, match="unknown class flags"):
            enumeration.EnumerationSpec(max_size=3, classes=(name,))
        assert cli.main(["enumerate", "--max", "3", "--class", name]) == 2
    capsys.readouterr()


def test_satisfies_reads_flags_and_theory_by_name():
    assert len(terms.THEORY) == 33
    for spec in (enumeration.EnumerationSpec(max_size=10,
                                             structure="antiortholattice"),
                 enumeration.EnumerationSpec(max_size=8)):
        for A in enumeration.enumerate_all(spec):
            flags = axioms.classify(A).flags()
            for name in axioms.CLASS_FLAGS:
                assert axioms.satisfies(A, name) == flags[name], name
            for name, statement in terms.THEORY.items():
                assert axioms.satisfies(A, name) == \
                    terms.holds(A, statement)[0], name


def test_clauses_agree_with_the_readings_they_state():
    # the antiortholattice flags against the clause S_K = {0, 1}, the
    # sharp-set inclusions against axioms.sharp_sets, and the other
    # clauses against the sets, loops and maps they state, on the
    # catalog and both sweep corpora, all of them BZ-lattices
    algebras = [catalog.get(name) for name in catalog.names()]
    for spec in (enumeration.EnumerationSpec(max_size=10,
                                             structure="antiortholattice"),
                 enumeration.EnumerationSpec(max_size=8)):
        algebras += enumeration.enumerate_all(spec)
    seen = {name: set() for name in ("ANTIORTHO", "CONES", "NODISJ",
                                     "CHAIN", "DENSE", "SHARP_KD",
                                     "SHARP_DB", "SHARP_BK")}
    for A in algebras:
        verdict = {name: terms.holds(A, terms.THEORY[name])[0]
                   for name in seen}
        for name, ok in verdict.items():
            seen[name].add(ok)
        report = axioms.classify(A)
        assert report.kleene_sharp_trivial == verdict["ANTIORTHO"], A
        assert report.antiortholattice == \
            (report.pbz_star and verdict["ANTIORTHO"]), A
        cones = constructions.cones(A)
        assert (cones.negative | cones.positive == set(range(A.n))) == \
            verdict["CONES"], A
        pairs = [(a, b) for a in range(A.n) for b in range(A.n)]
        assert all(A.meet(a, b) != A.zero or A.zero in (a, b)
                   for a, b in pairs) == verdict["NODISJ"], A
        assert all(A.le(a, b) or A.le(b, a) for a, b in pairs) == \
            verdict["CHAIN"], A
        assert all(a == A.zero or A.brouwer[a] == A.zero
                   for a in range(A.n)) == verdict["DENSE"], A
        sharp = axioms.sharp_sets(A)
        assert (sharp.s_k <= sharp.s_diamond) == verdict["SHARP_KD"], A
        assert (sharp.s_diamond <= sharp.s_b) == verdict["SHARP_DB"], A
        assert (sharp.s_b <= sharp.s_k) == verdict["SHARP_BK"], A
    # every BZ-lattice has S_<> inside S_B inside S_K; the mutants off
    # BZ in test_enumeration fail these two clauses
    assert seen.pop("SHARP_DB") == seen.pop("SHARP_BK") == {True}
    assert all(s == {True, False} for s in seen.values())


def test_sharp_sets_on_chain_and_boolean():
    D4 = catalog.get("D4")
    s = axioms.sharp_sets(D4)
    assert s.s_k == s.s_diamond == s.s_b == {D4.zero, D4.one}
    B4 = catalog.get("B4")
    s = axioms.sharp_sets(B4)
    assert s.s_k == s.s_diamond == s.s_b == frozenset(range(4))


def test_sharp_sets_can_differ_off_paraorthomodular():
    # benzene with ~ = ': every element is Kleene-sharp, but the middle
    # rungs are not Brouwer-sharp the modal way round
    s = axioms.sharp_sets(catalog.get("O6-benzene"))
    assert s.s_k == frozenset(range(6))
    assert s.s_diamond == s.s_b == frozenset(range(6))
    # the collapse theorem needs paraorthomodularity; benzene keeps all
    # three equal anyway, the separation lives on mixed Brouwer maps
    A = decorate(6, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)],
                 [5, 4, 3, 2, 1, 0], [5, 0, 0, 0, 0, 0])
    s = axioms.sharp_sets(A)
    assert s.s_k == frozenset(range(6))
    assert s.s_diamond == {0, 5} and s.s_b == {0, 5}


def test_kleene_sharp_trivial_without_bz():
    # D3 with ~ = ' is not BZ, yet S_K = {0, 1}
    A = decorate(3, [(0, 1), (1, 2)], [2, 1, 0], [2, 1, 0])
    rep = axioms.classify(A)
    assert rep.kleene_sharp_trivial and not rep.bz
    assert not rep.antiortholattice  # the class flag needs PBZ*


def test_antiortholattice_flag_on_catalog():
    for name in ("D3", "D8", "T1(2x2)", "T2(2x2)", "T1(N5+1)"):
        rep = axioms.classify(catalog.get(name))
        assert rep.antiortholattice, name
    for name in ("B4", "MO2+D3", "O6-benzene"):
        assert not axioms.classify(catalog.get(name)).antiortholattice, name


def test_antiortholattices_carry_the_trivial_brouwer():
    for name in ("D5", "T1(2x2)", "T2(2x2)", "T1(N5+1)"):
        A = catalog.get(name)
        triv = tuple(A.one if x == A.zero else A.zero for x in range(A.n))
        assert tuple(A.brouwer) == triv, name


def test_check_basics_clean_on_catalog():
    for name in catalog.names():
        A = catalog.get(name)
        if axioms.classify(A).bz:
            assert _oracles.basic_failures(A) == [], name


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_check_basics_agrees_with_nested_loops(data):
    # pseudo-Kleene pairs with arbitrary ~ maps, BZ or not, so that every
    # clause fails somewhere and the witnesses are compared too
    n = data.draw(st.integers(1, 8))
    pair = data.draw(st.sampled_from(enumeration._pk_pairs(n)))
    order, kleene = pair.order, pair.kleene
    brouwer = data.draw(st.lists(st.integers(0, n - 1), min_size=n,
                                 max_size=n))
    A = FiniteAlgebra._from_order(order, kleene, brouwer)
    assert _oracles.basic_failures(A) == _oracles.check_basics(A)


def test_paraorthomodular_iff_diamond_om_on_catalog_bz_star():
    for name in catalog.names():
        A = catalog.get(name)
        rep = axioms.classify(A)
        if rep.bz_star:
            assert rep.paraorthomodular == rep.diamond_orthomodular, name


def test_classify_witnesses_name_failures():
    rep = axioms.classify(catalog.get("O6-benzene"))
    names = dict(rep.witnesses)
    assert "orthomodular" in names and "paraorthomodular" in names


def test_pbz_star_containments():
    # by definition PBZ* sits inside BZ* inside BZ
    for name in catalog.names():
        rep = axioms.classify(catalog.get(name))
        if rep.pbz_star:
            assert rep.bz_star and rep.bz and rep.paraorthomodular
        if rep.bz_star:
            assert rep.bz
