"""The class report and the congruence lattice an algebra keeps after
their first computation."""

import pickle

from pbzlat import axioms, catalog, congruences, enumeration
from pbzlat.congruences import all_congruences
from pbzlat.core import canonical_copy
from pbzlat.enumeration import (EnumerationSpec, claim_names, enumerate_all,
                                verify_over_corpus)

# the two corpora of the benchmark's claim sweep
SWEEP_SPECS = (EnumerationSpec(max_size=10, structure="antiortholattice"),
               EnumerationSpec(max_size=8))


def test_cached_results_equal_fresh_ones_on_sweep_corpora():
    for spec in SWEEP_SPECS:
        for A in enumerate_all(spec):
            report = axioms.classify(A)
            assert axioms.classify(A) is report
            assert report == axioms._classify(A), A
            cons = all_congruences(A)
            assert all_congruences(A) == cons
            assert cons == congruences._all_congruences(A), A


def test_all_congruences_returns_a_new_list():
    A = catalog.get("D5")
    first = all_congruences(A)
    want = list(first)
    first.reverse()
    first.pop()
    second = all_congruences(A)
    assert second is not first
    assert second == want == congruences._all_congruences(A)


def test_copies_carry_their_own_results():
    # benzene fails PBZ*, and its canonical ordering is not the identity,
    # so its witnesses and congruences are renumbered on the copy
    A = catalog.get("O6-benzene")
    report, cons = axioms.classify(A), all_congruences(A)
    assert report.witnesses
    copy = canonical_copy(A)
    assert not copy.tables_equal(A)
    relabelled = A.relabel([f"x{a}" for a in range(A.n)])
    pickled = pickle.loads(pickle.dumps(A))
    for B in (copy, relabelled, pickled):
        assert axioms.classify(B) == axioms._classify(B)
        assert all_congruences(B) == congruences._all_congruences(B)
    assert axioms.classify(copy).witnesses != report.witnesses
    assert all_congruences(copy) != cons
    for B in (relabelled, pickled):
        assert axioms.classify(B) == report
        assert all_congruences(B) == cons


def test_claim_sweep_computes_each_result_once(monkeypatch):
    monkeypatch.setattr(enumeration, "_CORPUS_MEMO", {})
    corpora = [list(enumerate_all(spec)) for spec in SWEEP_SPECS]
    classified, lattices = [], []

    def counted(fn, seen):
        def wrapper(A):
            seen.append(A)  # a live reference keeps every id distinct
            return fn(A)
        return wrapper

    monkeypatch.setattr(axioms, "_classify",
                        counted(axioms._classify, classified))
    monkeypatch.setattr(congruences, "_all_congruences",
                        counted(congruences._all_congruences, lattices))
    for spec in SWEEP_SPECS:
        for claim in claim_names():
            verify_over_corpus(claim, spec)
    for seen in (classified, lattices):
        assert len({id(A) for A in seen}) == len(seen)
    members = {id(A) for corpus in corpora for A in corpus}
    # every member is classified, on the first claim of its sweep
    assert members <= {id(A) for A in classified}
    assert members & {id(A) for A in lattices}
