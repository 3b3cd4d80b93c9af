"""The canonical form, the class report, the cover reach sets behind
every congruence question, the blocks and the identity verdicts a
carrier keeps after their first computation, and the stage results a
process keeps, which a benchmark round empties."""

import functools
import pickle
from collections import Counter

from pbzlat import (axioms, catalog, cli, congruences, constructions, core,
                    enumeration, fileformat, terms)
from pbzlat.congruences import all_congruences
from pbzlat.constructions import blocks
from pbzlat.core import canonical_copy, canonical_form
from pbzlat.enumeration import (EnumerationSpec, claim_names, enumerate_all,
                                verify_over_corpus)

import _oracles

# the two corpora of the benchmark's claim sweep
SWEEP_SPECS = (EnumerationSpec(max_size=10, structure="antiortholattice"),
               EnumerationSpec(max_size=8))


def scanned(A, statement):
    """A fresh scan of one algebra, whatever it keeps."""
    return terms._scan([A], statement)[0]


def test_cached_results_equal_fresh_ones_on_sweep_corpora():
    for spec in SWEEP_SPECS:
        for A in enumerate_all(spec):
            report = axioms.classify(A)
            assert axioms.classify(A) is report
            assert report == axioms._classify(A), A
            kept = congruences._reach(A)
            assert congruences._reach(A) is kept
            assert kept.reach == congruences._CoverReach(A).reach, A
            for statement in terms.THEORY.values():
                verdict = terms.holds(A, statement)
                assert terms.holds(A, statement) == verdict
                assert verdict == scanned(A, statement), (A, statement)
            if report.pbz_star:
                blks = blocks(A)
                assert blocks(A) == blks
                assert blks == constructions._blocks(A), A


def test_all_congruences_returns_a_new_list():
    A = catalog.get("D5")
    first = all_congruences(A)
    want = list(first)
    first.reverse()
    first.pop()
    second = all_congruences(A)
    assert second is not first
    assert second == want == _oracles.pairwise_congruences(A)
    # the same for the witness of a kept verdict
    om = terms.THEORY["OM"]
    ok, witness = terms.holds(A, om)
    assert not ok and witness == {"x": 1, "y": 4}
    witness["x"] = 0
    del witness["y"]
    again = terms.holds(A, om)
    assert again[1] is not witness
    assert again == (False, {"x": 1, "y": 4}) == scanned(A, om)
    # and for the blocks
    first = blocks(A)
    want = list(first)
    first.pop()
    second = blocks(A)
    assert second is not first
    assert second == want == constructions._blocks(A)


def test_copies_carry_their_own_results():
    # benzene fails PBZ*, and its canonical ordering is not the identity,
    # so its witnesses and congruences are renumbered on the copy
    A = catalog.get("O6-benzene")
    report, cons = axioms.classify(A), all_congruences(A)
    assert report.witnesses
    verdicts = {name: terms.holds(A, statement)
                for name, statement in terms.THEORY.items()}
    assert not verdicts["J"][0]
    copy = canonical_copy(A)
    assert not copy.tables_equal(A)
    relabelled = A.relabel([f"x{a}" for a in range(A.n)])
    pickled = pickle.loads(pickle.dumps(A))
    for B in (copy, relabelled, pickled):
        assert set(B._kept) <= {"canon"}
        assert axioms.classify(B) == axioms._classify(B)
        assert all_congruences(B) == _oracles.pairwise_congruences(B)
        for statement in terms.THEORY.values():
            assert terms.holds(B, statement) == scanned(B, statement)
    assert axioms.classify(copy).witnesses != report.witnesses
    assert all_congruences(copy) != cons
    assert terms.holds(copy, terms.THEORY["J"]) != verdicts["J"]
    for B in (relabelled, pickled):
        assert axioms.classify(B) == report
        assert all_congruences(B) == cons
        assert {name: terms.holds(B, statement)
                for name, statement in terms.THEORY.items()} == verdicts


def test_claim_sweep_computes_each_result_once(monkeypatch):
    # members are classified while the corpora are built, so counting
    # starts before the build
    monkeypatch.setattr(enumeration, "_bz_level", functools.cache(
        enumeration._bz_level.__wrapped__))
    classified, reached, scans, blocked = [], [], [], []

    def counted(fn, seen):
        def wrapper(*args):
            seen.append(args)  # live references keep every id distinct
            return fn(*args)
        return wrapper

    monkeypatch.setattr(axioms, "_classify",
                        counted(axioms._classify, classified))
    monkeypatch.setattr(congruences, "_CoverReach",
                        counted(congruences._CoverReach, reached))
    scan = terms._scan

    def scanned_each(algebras, statement):
        scans.extend((A, statement) for A in algebras)
        return scan(algebras, statement)

    monkeypatch.setattr(terms, "_scan", scanned_each)
    monkeypatch.setattr(constructions, "_blocks",
                        counted(constructions._blocks, blocked))
    corpora = [list(enumerate_all(spec)) for spec in SWEEP_SPECS]
    for spec in SWEEP_SPECS:
        for claim in claim_names():
            verify_over_corpus(claim, spec)
    # no algebra is classified or given its reach sets or its blocks
    # twice, and no (algebra, statement) pair is scanned twice
    assert scans and blocked
    for seen in (classified, reached, scans, blocked):
        keys = [(id(A), *rest) for A, *rest in seen]
        assert len(set(keys)) == len(keys)
    members = {id(A) for corpus in corpora for A in corpus}
    # so every member is classified exactly once over build and sweep
    assert members <= {id(A) for A, in classified}
    assert members & {id(A) for A, in reached}


def test_warm_chain_claims_run_no_canonical_search(monkeypatch):
    # both chain claims compare kept canonical forms, the corpus
    # member's and the cached Kleene chain's, so after one pass they
    # search nothing
    claims = ("pbz-chains-are-kleene-chains", "si-distributive-sdm-chains")
    first = [verify_over_corpus(claim, spec)
             for spec in SWEEP_SPECS for claim in claims]
    searches = []
    search = core._canonical_search_group

    def counted(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(core, "_canonical_search_group", counted)
    monkeypatch.setattr(enumeration, "_canonical_search_group", counted)
    again = [verify_over_corpus(claim, spec)
             for spec in SWEEP_SPECS for claim in claims]
    assert all(r.checked and r.ok for r in first)
    assert again == first
    assert searches == []


def test_bare_lattices_keep_their_results(monkeypatch):
    # a memoized lattice, as every caller of enumerate_lattices gets it
    dist = terms.THEORY["DIST"]
    L = next(L for L in enumeration.enumerate_lattices(6)
             if not scanned(L, dist)[0])
    form = canonical_form(L)
    assert canonical_form(L) is form
    assert form == core._canon_bytes(L.n, L._ord.up, ())
    want = scanned(L, dist)
    assert not want[0]
    scans = []
    monkeypatch.setattr(terms, "_scan",
                        lambda *args: scans.append(args) or [want])
    first = terms.holds(L, dist)
    assert first == want
    first[1].clear()
    again = terms.holds(L, dist)
    assert again[1] is not first[1] and again[1] is not want[1]
    assert again == want
    assert len(scans) <= 1


def test_statements_built_apart_read_the_kept_verdict(monkeypatch):
    A = catalog.get("D5")
    kept = {name: terms.holds(A, s) for name, s in terms.THEORY.items()}
    scans = []
    monkeypatch.setattr(terms, "_scan",
                        lambda *args: scans.append(args) or [(True, None)])
    for name, statement in terms.THEORY.items():
        parsed = terms.parse_statement(terms._THEORY_SOURCE[name])
        pickled = pickle.loads(pickle.dumps(statement))
        for twin in (parsed, pickled):
            assert twin is not statement and twin == statement
            assert hash(twin) == hash(statement)
            assert terms.holds(A, twin) == kept[name]
    assert scans == []
    # a node keeps its hash: hashing it again reads none of its fields
    monkeypatch.setattr(terms._Node, "_fields", None)
    for statement in terms.THEORY.values():
        assert hash(statement) == hash(statement)


# What a benchmark round empties before it starts, so that it begins in
# the state of a fresh process: every functools cache, and every dict
# whose name holds MEMO or CACHE, in these modules of the package.
_ROUND_MODULES = (core, axioms, terms, congruences, constructions,
                  enumeration, fileformat, cli)


def _round_state():
    for mod in _ROUND_MODULES:
        for attr, value in vars(mod).items():
            if hasattr(value, "cache_clear") or (
                    ("MEMO" in attr or "CACHE" in attr)
                    and isinstance(value, dict)):
                yield mod, attr, value


def _cold_start():
    for _, _, value in _round_state():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
        else:
            value.clear()


def test_benchmark_rounds_start_cold(tmp_path, capsys, monkeypatch):
    # a stage result kept where the rule does not empty it would make
    # the second run do less work than the first; fresh copies stand in
    # for the warm caches, which come back after the test
    for mod, attr, value in list(_round_state()):
        monkeypatch.setattr(mod, attr, functools.cache(value.__wrapped__)
                            if hasattr(value, "cache_clear") else {})
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(enumeration, "_check_order",
                        counted("check", enumeration._check_order))
    monkeypatch.setattr(enumeration, "_pk_candidates",
                        counted("candidates", enumeration._pk_candidates))
    runs = []
    for run in ("first", "second"):
        _cold_start()
        calls.clear()
        out = tmp_path / run
        assert cli.main(["enumerate", "--structure", "antiortholattice",
                         "--max", "10", "-o", str(out)]) == 0
        runs.append((dict(calls),
                     {p.name: p.read_bytes() for p in out.iterdir()}))
    capsys.readouterr()
    (first_calls, first_files), (second_calls, second_files) = runs
    assert first_calls["check"] and first_calls["candidates"]
    assert first_calls == second_calls
    assert first_files and first_files == second_files
