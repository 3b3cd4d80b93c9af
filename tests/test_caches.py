"""The canonical form and the class report a carrier keeps after
their first computation, the cover reach sets and blocks it computes
anew, the masks a level keeps over its members, the one store of what
its reads decide, and the stage results a process keeps, which a
benchmark round empties."""

import functools
import pickle
from collections import Counter

import pytest

from pbzlat import (axioms, catalog, cli, congruences, constructions, core,
                    enumeration, fileformat, terms)
from pbzlat.congruences import all_congruences
from pbzlat.constructions import blocks
from pbzlat.core import canonical_copy, canonical_form
from pbzlat.enumeration import (EnumerationSpec, claim_names, enumerate_all,
                                search_counterexample, verify_over_corpus)

import _oracles

# the two corpora of the benchmark's claim sweep
SWEEP_SPECS = (EnumerationSpec(max_size=10, structure="antiortholattice"),
               EnumerationSpec(max_size=8))


def as_sets(masks):
    """Block masks as the frozensets ``blocks`` returns."""
    return [frozenset(core._bits(m)) for m in masks]


def scanned(A, statement):
    """A fresh scan of one algebra, whatever it keeps, with its witness
    tuple read by sorted variable name, as ``holds`` returns it."""
    ok, witness = terms._scan([A], statement)[0]
    return ok, None if witness is None else dict(
        zip(terms.term_vars(statement), witness))


def test_cached_results_equal_fresh_ones_on_sweep_corpora():
    for spec in SWEEP_SPECS:
        for A in enumerate_all(spec):
            report = axioms.classify(A)
            assert axioms.classify(A) is report
            assert report == _oracles.classify(A), A
            reach = congruences._CoverReach(A).reach
            assert reach == congruences._CoverReach(A).reach, A
            for statement in terms.THEORY.values():
                verdict = terms.holds(A, statement)
                assert terms.holds(A, statement) == verdict
                assert verdict == scanned(A, statement), (A, statement)
            if report.pbz_star:
                blks = blocks(A)
                assert blocks(A) == blks
                assert blks == as_sets(constructions._blocks(A)), A


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
    assert second == want == as_sets(constructions._blocks(A))


def test_a_lone_algebras_flags_are_read_off_its_class_report(monkeypatch):
    # once an algebra of the sweep corpora has its class report, every
    # flag read on it alone, its sharp sets' BZ gate and the PBZ* guard
    # of its blocks read the kept report and scan nothing
    monkeypatch.setattr(enumeration, "_bz_level", functools.cache(
        enumeration._bz_level.__wrapped__))
    algebras = [A for spec in SWEEP_SPECS for A in enumerate_all(spec)]
    reports = [axioms.classify(A) for A in algebras]
    scans = []
    scan = terms._scan
    monkeypatch.setattr(terms, "_scan",
                        lambda *args: scans.append(args) or scan(*args))
    for A, report in zip(algebras, reports):
        flags = report.flags()
        assert {flag: axioms.satisfies(A, flag)
                for flag in axioms.CLASS_FLAGS} == flags, A
        if flags["bz"]:
            assert axioms.sharp_sets(A).s_k == axioms.kleene_sharp(A)
        else:
            with pytest.raises(ValueError, match="needs a BZ-lattice"):
                axioms.sharp_sets(A)
        if flags["pbz-star"]:
            assert blocks(A) == as_sets(constructions._blocks(A))
        else:
            with pytest.raises(ValueError, match="needs a PBZ\\* algebra"):
                blocks(A)
    assert scans == []
    assert all(set(A._kept) == {"canon", "classes"} for A in algebras)


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
        assert axioms.classify(B) == _oracles.classify(B)
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
    # members are read while the corpora are built, so counting starts
    # before the build
    monkeypatch.setattr(enumeration, "_bz_level", functools.cache(
        enumeration._bz_level.__wrapped__))
    reached, scans, blocked = [], [], []

    def counted(fn, seen):
        def wrapper(*args):
            seen.append(args)  # live references keep every id distinct
            return fn(*args)
        return wrapper

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
    # no algebra is given its reach sets or its blocks twice, and no
    # (algebra, statement) pair is scanned twice
    assert scans and blocked
    for seen in (reached, scans, blocked):
        keys = [(id(A), *rest) for A, *rest in seen]
        assert len(set(keys)) == len(keys)
    members = [A for corpus in corpora for A in corpus]
    # the class flags are read off the verdicts alone: no member keeps
    # a class report over build and sweep
    assert not any("classes" in A._kept for A in members)
    assert {id(A) for A in members} & {id(A) for A, in reached}


def test_claims_read_each_statement_a_level_at_a_time(monkeypatch):
    # a cold sweep of every claim over both sweep corpora: within one
    # claim's pass over a corpus, each statement is scanned at most once
    # per size, since hypotheses, checks and conclusions are each read
    # over a whole level, and never where the level's construction
    # settled it
    monkeypatch.setattr(enumeration, "_bz_level", functools.cache(
        enumeration._bz_level.__wrapped__))
    scans, current = [], []
    scan = terms._scan

    def spied(algebras, statement):
        scans.append((*current, statement, algebras[0].n))
        return scan(algebras, statement)

    monkeypatch.setattr(terms, "_scan", spied)
    for spec in SWEEP_SPECS:
        for claim in claim_names():
            current[:] = claim, spec
            verify_over_corpus(claim, spec)
    assert len(set(scans)) == len(scans)
    assert len(scans) == 394


def test_level_members_keep_no_verdict_or_check_outcome(monkeypatch):
    # from fresh stage caches: both sweep corpora built, every claim
    # swept over them twice, and every THEORY statement searched at
    # --max 8 over the BZ corpus and its PBZ* members.  The levels'
    # masks are the one store of what their reads decide, so a member
    # keeps only its canonical form; the cold sweep builds each gated
    # member's reach sets and blocks once, the warm one none; a search
    # rescans its failing member alone only where an earlier read
    # decided it, to find its witness, and that member is the one it
    # returns
    monkeypatch.setattr(enumeration, "_bz_level", functools.cache(
        enumeration._bz_level.__wrapped__))
    built = Counter()

    def counted(name, fn):
        def wrapper(*args):
            built[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(congruences, "_CoverReach",
                        counted("reach", congruences._CoverReach))
    monkeypatch.setattr(constructions, "_blocks",
                        counted("blocks", constructions._blocks))

    def sweep():
        for spec in SWEEP_SPECS:
            list(enumerate_all(spec))
            for claim in claim_names():
                verify_over_corpus(claim, spec)

    sweep()
    assert built == {"reach": 79, "blocks": 92}
    built.clear()
    sweep()
    assert built == Counter()
    members = [A for spec in SWEEP_SPECS for n in range(1, spec.max_size + 1)
               for A in enumeration._bz_level(n, spec.cap_key())]
    assert all(set(A._kept) == {"canon"} for A in members)
    rescans, depth = [], []
    scan, level_held = terms._scan, terms._level_held

    def scanned(algebras, statement):
        found = scan(algebras, statement)
        if not depth:
            rescans.append((algebras, found))
        return found

    def held(*args):
        depth.append(True)
        try:
            return level_held(*args)
        finally:
            depth.pop()

    monkeypatch.setattr(terms, "_scan", scanned)
    monkeypatch.setattr(terms, "_level_held", held)
    searched = 0
    for classes in ((), ("pbz-star",)):
        spec = EnumerationSpec(max_size=8, classes=classes)
        for statement in terms.THEORY.values():
            before = len(rescans)
            result = search_counterexample(statement, spec)
            if len(rescans) > before:
                [(algebras, [(ok, _)])] = rescans[before:]
                assert not ok and algebras == [result.found]
            searched += 1
    assert (searched, len(rescans)) == (66, 25)
    assert all(set(A._kept) == {"canon"} for A in members)
    assert built == Counter()


def test_a_level_read_of_a_flag_scans_only_its_statements(monkeypatch):
    # from fresh stage caches, reading bz-star over the BZ <= 8 levels
    # scans its own statement once per level: those of the flag it needs
    # (PK, BZ1-BZ4) hold by construction, and OL, OM, POM, DIAMOND_OM
    # and ANTIORTHO are never read; no member keeps a class report or a
    # verdict
    monkeypatch.setattr(enumeration, "_bz_level", functools.cache(
        enumeration._bz_level.__wrapped__))
    key = EnumerationSpec(max_size=8).cap_key()
    levels = [enumeration._bz_level(n, key) for n in range(1, 9)]
    assert all(set(A._kept) <= {"canon"} for level in levels for A in level)
    names = {statement: name for name, statement in terms.THEORY.items()}
    scans = []
    scan = terms._scan

    def spied(algebras, statement):
        scans.append((algebras[0].n, names[statement]))
        return scan(algebras, statement)

    monkeypatch.setattr(terms, "_scan", spied)
    for level in levels:
        enumeration._admit(level, ("bz-star",), level.full)
    assert sorted(scans) == [(n, "STAR") for n in range(1, 9)]
    assert all(set(A._kept) <= {"canon"} for level in levels for A in level)
    # and every flag read over every level of both sweep corpora is the
    # nested loops' flag
    for spec in SWEEP_SPECS:
        for n in range(1, spec.max_size + 1):
            level = enumeration._bz_level(n, spec.cap_key())
            want = [_oracles.classify(A).flags() for A in level]
            for name in axioms.CLASS_FLAGS:
                assert axioms._held(level, name, level.full) == sum(
                    1 << i for i, flags in enumerate(want) if flags[name]), \
                    (n, name)


def test_levels_start_with_what_their_construction_proves(monkeypatch):
    # every level of both sweep corpora and the chain levels to 12
    # starts with one mask per statement of the flag its construction
    # proves, bz on a general level and antiortholattice on the other
    # two, each decided and held for every member; each equals a fresh
    # scan of the members, so reading that flag scans nothing
    monkeypatch.setattr(enumeration, "_bz_level", functools.cache(
        enumeration._bz_level.__wrapped__))
    scans = []
    scan = terms._scan

    def spied(algebras, statement):
        scans.append(statement)
        return scan(algebras, statement)

    levels = 0
    for spec in (*SWEEP_SPECS, EnumerationSpec(max_size=12,
                                               structure="chain")):
        key = spec.cap_key()
        flag = "bz" if key == "general" else "antiortholattice"
        for n in range(1, spec.max_size + 1):
            level = enumeration._bz_level(n, key)
            full = level.full
            assert level._masks == dict.fromkeys(axioms._READS[flag],
                                                 (full, full))
            for statement in axioms._READS[flag]:
                assert core._select(full, (
                    ok for ok, _ in terms.holds_each(level, statement))) \
                    == full, (key, n, statement)
            monkeypatch.setattr(terms, "_scan", spied)
            assert axioms._held(level, flag, full) == full
            assert enumeration._admit(level, (flag,), full) == full
            monkeypatch.setattr(terms, "_scan", scan)
            if key == "chain":
                assert _oracles.classify(level[0]).flags()[flag]
            levels += 1
    assert scans == []
    assert levels == 10 + 8 + 12


def test_claim_checks_run_once_per_algebra(monkeypatch):
    # a claim check takes a level and a mask of its members; each member
    # is checked once, for the level's mask, which a second sweep reads,
    # and a failing member once more, alone, for its detail (the
    # replaced check below).  No check fails on the sweep corpora, so
    # the second sweep checks nothing and reports the same
    monkeypatch.setattr(enumeration, "_bz_level", functools.cache(
        enumeration._bz_level.__wrapped__))
    calls = []

    def counted(check):
        def wrapper(level, within):
            calls.extend((level, i, wrapper, check)
                         for i in core._bits(within))
            return check(level, within)
        return wrapper

    for claim, entry in enumeration._CLAIMS.items():
        if entry.check is not None:
            monkeypatch.setitem(
                enumeration._CLAIMS, claim,
                _oracles.replaced(entry, check=counted(entry.check)))

    def sweep():
        return [verify_over_corpus(claim, spec)
                for spec in SWEEP_SPECS for claim in claim_names()]

    first = sweep()
    ran = list(calls)
    second = sweep()
    assert ran and calls == ran
    keys = [(id(level[i]), wrapper) for level, i, wrapper, _ in ran]
    assert len(set(keys)) == len(keys)
    assert any(r.failures for r in first)
    for a, b in zip(first, second, strict=True):
        assert (a.claim, a.spec, a.examined, a.checked) == \
            (b.claim, b.spec, b.examined, b.checked)
        assert [(id(A), d) for A, d in a.failures] == \
            [(id(A), d) for A, d in b.failures]
    # the level's mask for each check says what the check gives each
    # member alone, on a level of its own, as a failure detail reads it
    for level, i, wrapper, check in ran:
        alone = check(core._Level([level[i]]), 1)[0]
        assert enumeration._passing(level, wrapper, 1 << i) == \
            (alone == ()) << i, level[i]
    assert calls == ran

    # a replaced check is a new key: the next sweep runs it, once per
    # member for the mask and once more per failing member for its
    # detail, and reports what it returns
    claim = "horizontal-sum-conditions"
    swapped = []
    monkeypatch.setitem(enumeration._CLAIMS, claim, _oracles.replaced(
        enumeration._CLAIMS[claim],
        check=lambda level, within: swapped.extend(level.members(within))
        or [("swapped",)] * within.bit_count()))
    old = first[claim_names().index(claim)]
    new = verify_over_corpus(claim, SWEEP_SPECS[0])
    assert new.checked == old.checked == len(new.failures) > 0
    assert [A for A, _ in new.failures] == \
        list({id(A): A for A in swapped}.values())
    assert Counter(map(id, swapped)) == {id(A): 2 for A, _ in new.failures}
    assert all(detail == ("swapped",) for _, detail in new.failures)
    assert calls == ran

    # no checked member keeps an outcome, and its copies keep nothing
    # but their canonical forms
    for level, i, _, _ in ran:
        assert set(level[i]._kept) == {"canon"}
    level, i, _, _ = ran[0]
    A = level[i]
    for B in (canonical_copy(A), A.relabel([f"x{a}" for a in range(A.n)]),
              pickle.loads(pickle.dumps(A))):
        assert set(B._kept) <= {"canon"}


def sweep_reports():
    """Every claim over both sweep corpora, each report as (examined,
    checked, failure dumps, details)."""
    return [(r.examined, r.checked,
             [(fileformat.dumps(A), detail) for A, detail in r.failures])
            for r in (verify_over_corpus(claim, spec)
                      for spec in SWEEP_SPECS for claim in claim_names())]


def test_a_warm_claim_sweep_reads_only_level_masks(monkeypatch):
    # once every claim has read both sweep corpora, the levels' masks
    # decide every hypothesis, SI gate, check and conclusion, so a
    # second sweep reads names, scans and checks nothing (no check
    # fails on the sweep corpora, so no failure detail reruns one)
    monkeypatch.setattr(enumeration, "_bz_level", functools.cache(
        enumeration._bz_level.__wrapped__))
    calls = Counter()

    def spied(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # a check's mask is kept under the check, so the checks are counted
    # from the first sweep on
    for claim, entry in enumeration._CLAIMS.items():
        if entry.check is not None:
            monkeypatch.setitem(enumeration._CLAIMS, claim, _oracles.replaced(
                entry, check=spied(claim, entry.check)))
    first = sweep_reports()
    assert calls
    calls.clear()
    monkeypatch.setattr(terms, "_scan", spied("_scan", terms._scan))
    monkeypatch.setattr(axioms, "_held", spied("_held", axioms._held))
    for name in ("is_subdirectly_irreducible", "_is_si"):
        monkeypatch.setattr(congruences, name,
                            spied(name, getattr(congruences, name)))
    second = sweep_reports()
    assert calls == Counter()
    assert second == first
    assert any(failures for _, _, failures in first)


def test_level_masks_match_the_per_algebra_readers(monkeypatch):
    # on every level of both sweep corpora, each mask the claims and
    # specs read equals the per-algebra reader's answer on fresh copies,
    # which keep nothing of what the level's members keep; each mask is
    # read first over every other member, then over the whole level (or
    # the claim's members), so a mask filled for part of a level must
    # still read right when widened
    monkeypatch.setattr(enumeration, "_bz_level", functools.cache(
        enumeration._bz_level.__wrapped__))
    claims = enumeration._CLAIMS.values()
    names = {*axioms.CLASS_FLAGS, "DIST"}
    for entry in claims:
        names.update(entry.classes, entry.identities, entry.conclusions)
    names = sorted(names)

    def read_twice(level, within, read, want):
        # want[i]: the per-algebra answer for member i, where it is read
        narrow = sum(1 << i for i in core._bits(within)[::2])
        assert read(narrow) == sum(1 << i for i in core._bits(narrow)
                                   if want[i])
        mask = read(within)
        assert mask == sum(1 << i for i in core._bits(within) if want[i])
        return mask

    levels = 0
    for spec in SWEEP_SPECS:
        for n in range(1, spec.max_size + 1):
            level = enumeration._bz_level(n, spec.cap_key())
            copies = [pickle.loads(pickle.dumps(A)) for A in level]
            assert all(set(B._kept) <= {"canon"} for B in copies)
            for name in names:
                read_twice(
                    level, level.full,
                    lambda within: enumeration._admit(level, (name,), within),
                    [axioms.satisfies(B, name) for B in copies])
            si = read_twice(
                level, level.full,
                lambda within: enumeration._irreducible(level, within),
                [congruences.is_subdirectly_irreducible(B)[0]
                 for B in copies])
            for entry in claims:
                if entry.check is None:
                    continue
                members = enumeration._admit(
                    level, (*entry.classes, *entry.identities), level.full)
                if entry.si:
                    members &= si
                want = {i: not entry.check(core._Level([copies[i]]), 1)[0]
                        for i in core._bits(members)}
                read_twice(
                    level, members,
                    lambda within: enumeration._passing(level, entry.check,
                                                        within), want)
            levels += 1
    assert levels == sum(spec.max_size for spec in SWEEP_SPECS)


def test_warm_chain_claims_run_no_canonical_search(monkeypatch):
    # both chain claims read clauses (CHAIN, DENSE) and class flags,
    # which the corpus members keep, so after one pass they search
    # nothing
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
    want, raw = scanned(L, dist), terms._scan([L], dist)[0]
    assert not want[0]
    scans = []
    monkeypatch.setattr(terms, "_scan",
                        lambda *args: scans.append(args) or [raw])
    first = terms.holds(L, dist)
    assert first == want
    first[1].clear()
    again = terms.holds(L, dist)
    assert again[1] is not first[1] and again[1] is not want[1]
    assert again == want
    # a verdict is kept by a level alone, so each read scans
    assert len(scans) == 2 and set(L._kept) == {"canon"}


def test_statements_built_apart_read_the_kept_verdict(monkeypatch):
    # a statement parsed anew or unpickled reads the verdict its twin
    # gives, and the mask a level keeps for its twin with no scan
    A = catalog.get("D5")
    level = core._Level([A])
    want = {name: terms.holds(A, s) for name, s in terms.THEORY.items()}
    kept = {name: terms._level_held(level, s, 1)
            for name, s in terms.THEORY.items()}
    assert kept == {name: int(ok) for name, (ok, _) in want.items()}
    twins = {name: (terms.parse_statement(terms._THEORY_SOURCE[name]),
                    pickle.loads(pickle.dumps(statement)))
             for name, statement in terms.THEORY.items()}
    for name, statement in terms.THEORY.items():
        for twin in twins[name]:
            assert twin is not statement and twin == statement
            assert hash(twin) == hash(statement)
            assert terms.holds(A, twin) == want[name]
    scans = []
    monkeypatch.setattr(terms, "_scan",
                        lambda *args: scans.append(args) or [(True, None)])
    for name in terms.THEORY:
        for twin in twins[name]:
            assert terms._level_held(level, twin, 1) == kept[name]
    assert scans == []
    # a node keeps its hash: hashing it again reads none of its fields
    monkeypatch.setattr(terms._Node, "_fields", None)
    for statement in terms.THEORY.values():
        assert hash(statement) == hash(statement)


def test_a_search_compares_its_statement_with_the_kept_one_once(
        monkeypatch):
    # a statement parsed anew is interned once per search, so the lookup
    # of each of the six levels finds it by identity; BZ1 holds on every
    # BZ-lattice, so the search runs through all six
    spec = EnumerationSpec(max_size=6)
    kept = terms._interned(terms.THEORY["BZ1"])
    twin = terms.parse_statement(terms._THEORY_SOURCE["BZ1"])
    compared = []
    eq = terms._Node.__eq__

    def counted(self, other):
        if self is twin or other is twin:
            compared.append((self, other))
        return eq(self, other)

    monkeypatch.setattr(terms._Node, "__eq__", counted)
    result = search_counterexample(twin, spec)
    assert compared == [(kept, twin)]
    assert result.exhausted and result == search_counterexample(kept, spec)


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
