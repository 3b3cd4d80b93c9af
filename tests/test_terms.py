"""Identity parsing, evaluation and the built-in theory table."""

import contextlib
import functools
import io
import itertools
import pathlib
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbzlat import catalog, cli, terms
from pbzlat.core import FiniteAlgebra, canonical_form
from pbzlat import enumeration
from pbzlat.enumeration import (EnumerationSpec, enumerate_all, enumerate_pbz,
                                search_counterexample)
from pbzlat.terms import (Brouwer, Identity, Join, Kleene, Meet,
                         QuasiIdentity, Var, evaluate, holds, holds_quasi,
                         parse_statement, parse_term, pretty, term_vars,
                         THEORY)

import _oracles

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def idx(A, label):
    return A.labels.index(label)


def test_parse_shapes():
    t = parse_term("x ^ x'")
    assert t == Meet(Var("x"), Kleene(Var("x")))
    i = parse_statement("(x ^ y)~ = x~ v y~")
    assert i == Identity(Brouwer(Meet(Var("x"), Var("y"))),
                         Join(Brouwer(Var("x")), Brouwer(Var("y"))), "eq")
    assert i == THEORY["SDM"]
    s = parse_statement("x <= y & x' ^ y = 0 => x = y")
    assert isinstance(s, QuasiIdentity) and len(s.premises) == 2
    assert s == THEORY["POM"]
    # a quasi-identity's conclusion is a tuple of one identity, and a
    # bare clause has no premises
    assert s.conclusion == (parse_statement("x = y"),)
    x, y = Var("x"), Var("y")
    chain = parse_statement("x <= y | y <= x")
    assert chain == QuasiIdentity((), (Identity(x, y, "le"),
                                       Identity(y, x, "le")))
    assert chain == THEORY["CHAIN"]
    # & binds the premises, | the disjuncts of the conclusion
    nodisj = parse_statement("x ^ y = 0 => x = 0 | y = 0")
    assert nodisj.premises == (Identity(Meet(x, y), terms.Zero(), "eq"),)
    assert nodisj.conclusion == (Identity(x, terms.Zero(), "eq"),
                                 Identity(y, terms.Zero(), "eq"))
    assert pretty(chain) == "x <= y | y <= x"
    assert pretty(nodisj) == "x ^ y = 0 => x = 0 | y = 0"
    with pytest.raises(ValueError, match="disjunct"):
        QuasiIdentity(THEORY["POM"].premises, ())
    # one disjunct and no premises is the bare identity, which has its
    # own AST; the parser returns that one
    with pytest.raises(ValueError, match="two disjuncts"):
        QuasiIdentity((), (THEORY["SDM"],))
    assert isinstance(parse_statement("x <= y"), Identity)


def test_parse_precedence_and_unaries():
    # postfix unaries bind tightest, ^ over v
    assert parse_term("x ^ y v z") == Join(Meet(Var("x"), Var("y")), Var("z"))
    assert parse_term("x v y ^ z") == Join(Var("x"), Meet(Var("y"), Var("z")))
    assert parse_term("x v y~") == Join(Var("x"), Brouwer(Var("y")))
    assert parse_term("(x v y)~") == Brouwer(Join(Var("x"), Var("y")))
    assert parse_term("x''") == Kleene(Kleene(Var("x")))
    # box and diamond are sugar over the two base maps
    assert parse_term("[]x") == Brouwer(Kleene(Var("x")))
    assert parse_term("<>x") == Brouwer(Brouwer(Var("x")))


def test_parse_errors_carry_position():
    for text in ("x ^", "x = ", "(x v y", "x @ y", "x = y = z",
                 "x = y |", "x | y", "| x = y", "x = y | y = x => x = 1",
                 "x = y & y = 1 | x = 1 => x = 0", "x = y & y = x",
                 "x = y => x = 1 |", "x = y => x = 1 | 0"):
        with pytest.raises(terms.ParseError) as exc:
            parse_statement(text)
        assert 0 <= exc.value.pos <= len(text), text


def test_pretty_reparses_to_equal_ast():
    for name, stmt in THEORY.items():
        again = parse_statement(pretty(stmt))
        assert again == stmt, name


# Statement texts: strings of tokens from the statement alphabet, most
# of them malformed, and texts built by the grammar, which all parse.
_TOKENS = ("x", "y", "z", "0", "1", "v", "^", "'", "~", "[]", "<>", "(",
           ")", "=", "<=", "&", "|", "=>")
_TOKEN_TEXTS = st.lists(st.sampled_from(_TOKENS), max_size=16).map(" ".join)
_TERMS = st.recursive(
    st.sampled_from(("x", "y", "z", "0", "1")),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from(("v", "^")), sub).map(
            lambda p: "({} {} {})".format(*p)),
        st.tuples(sub, st.sampled_from(("'", "~"))).map("".join),
        st.tuples(st.sampled_from(("[]", "<>")), sub).map("".join)),
    max_leaves=5)
_IDENTITIES = st.tuples(_TERMS, st.sampled_from(("=", "<=")), _TERMS).map(
    " ".join)
_WELL_FORMED = st.one_of(
    _IDENTITIES,
    st.lists(_IDENTITIES, min_size=2, max_size=3).map(" | ".join),
    st.tuples(st.lists(_IDENTITIES, min_size=1, max_size=2).map(" & ".join),
              st.lists(_IDENTITIES, min_size=1, max_size=3).map(" | ".join))
    .map(" => ".join))
_TEXTS = st.one_of(_TOKEN_TEXTS.map(lambda text: (text, False)),
                   _WELL_FORMED.map(lambda text: (text, True)))
_PROPERTY = settings(max_examples=250, deadline=None, derandomize=True,
                     database=None)


@_PROPERTY
@given(_TEXTS)
def test_statement_text_parses_or_raises_parse_error(case):
    text, well_formed = case
    try:
        stmt = parse_statement(text)
    except terms.ParseError as e:
        assert not well_formed and 0 <= e.pos <= len(text)
        return
    assert parse_statement(pretty(stmt)) == stmt
    # premises or disjuncts make a clause, and nothing else does
    assert isinstance(stmt, QuasiIdentity) == ("|" in text or "=>" in text)


@_PROPERTY
@given(_TEXTS)
def test_cli_eval_exits_by_contract(case):
    text, _ = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["eval", "D4", text])
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")


def test_term_vars_sorted():
    assert term_vars(parse_term("y v x ^ z'")) == ["x", "y", "z"]
    assert term_vars(THEORY["POM"]) == ["x", "y"]


def test_evaluate_spec_examples():
    D3 = catalog.get("D3")
    a = idx(D3, "a")
    assert evaluate(D3, parse_term("x v x'"), {"x": a}) == a
    D4 = catalog.get("D4")
    a = idx(D4, "a")
    assert evaluate(D4, parse_term("[]x' v x"), {"x": a}) == a
    assert evaluate(D4, parse_term("x' ^ <>x"), {"x": a}) == D4.kleene[a]
    assert evaluate(D4, parse_term("0~"), {}) == D4.one


def test_evaluate_unbound_variable():
    with pytest.raises(ValueError, match="unbound"):
        evaluate(catalog.get("D3"), parse_term("x v y"), {"x": 0})


def test_evaluate_refuses_values_that_are_not_element_indices():
    # numpy would read -1 as the last element and answer 0
    D4 = catalog.get("D4")
    for bad in (-1, D4.n, 2.0):
        with pytest.raises(ValueError, match="variable 'x'"):
            evaluate(D4, parse_term("x'"), {"x": bad})
    a = idx(D4, "a")
    assert evaluate(D4, parse_term("x'"), {"x": np.int64(a)}) == \
        D4.kleene[a]


def _theory_terms():
    for stmt in THEORY.values():
        idents = ((*stmt.premises, *stmt.conclusion)
                  if isinstance(stmt, QuasiIdentity) else (stmt,))
        for ident in idents:
            yield ident.lhs
            yield ident.rhs


def test_evaluate_matches_recursive_oracle():
    # the compiled steps behind evaluate against the recursive evaluator,
    # on every side of every THEORY statement and every assignment
    for name in ("D3", "D4", "B4", "MO2", "T1(2x2)"):
        A = catalog.get(name)
        for t in _theory_terms():
            names = term_vars(t)
            for values in itertools.product(range(A.n), repeat=len(names)):
                env = dict(zip(names, values))
                got = evaluate(A, t, env)
                assert type(got) is int
                assert got == _oracles.evaluate(A, t, env), (name, t, env)


def test_sk_on_chains():
    assert holds(catalog.get("D3"), THEORY["SK"])[0]
    ok, witness = holds(catalog.get("D4"), THEORY["SK"])
    assert not ok
    # lexicographically first (and only) failing assignment; the classic
    # presentation of the same violation substitutes x |-> a into
    # x' ^ <>x <= []x' v x, which is this witness with x = y' = b
    D4 = catalog.get("D4")
    assert witness == {"x": idx(D4, "b"), "y": idx(D4, "a")}


def test_j_identity_examples():
    assert holds(catalog.get("MO2"), THEORY["J"])[0]
    assert holds(catalog.get("D5"), THEORY["J"])[0]
    assert holds(catalog.get("B4+D3"), THEORY["J"])[0]


def test_inequality_encoding():
    D4 = catalog.get("D4")
    ok, _ = holds(D4, parse_statement("x ^ y <= x"))
    assert ok
    ok, w = holds(D4, parse_statement("x <= x ^ y"))
    assert not ok and w == {"x": 1, "y": 0}


def test_quasi_identity_examples():
    assert holds_quasi(catalog.get("D5"), THEORY["POM"])[0]
    ok, w = holds_quasi(catalog.get("O6-benzene"), THEORY["POM"])
    assert not ok and w is not None
    trivial = parse_statement("x = x => x = x")
    assert holds_quasi(catalog.get("B4"), trivial)[0]


def test_holds_takes_quasi_identities():
    quasi = [k for k, stmt in THEORY.items()
             if isinstance(stmt, QuasiIdentity)]
    assert quasi == ["BZ3", "OM", "POM", "ANTIORTHO", "CONES", "NODISJ",
                     "CHAIN", "DENSE", "SHARP_KD", "SHARP_DB", "SHARP_BK",
                     "HS_COMMUTE", "HS_DENSE_SHARP", "HS_DENSE_CHAIN",
                     "HS_DENSE_OR_SHARP"]
    for name in ("D5", "O6-benzene"):
        A = catalog.get(name)
        for key in quasi:
            assert holds(A, THEORY[key]) == holds_quasi(A, THEORY[key]), \
                (name, key)
    assert holds(catalog.get("D5"), THEORY["POM"]) == (True, None)
    assert not holds(catalog.get("O6-benzene"), THEORY["POM"])[0]
    # premises given as a list are kept as a tuple
    listed = QuasiIdentity(list(THEORY["POM"].premises),
                           THEORY["POM"].conclusion)
    assert listed == THEORY["POM"]
    assert holds(catalog.get("O6-benzene"), listed) == \
        holds(catalog.get("O6-benzene"), THEORY["POM"])


def test_term_engine_agrees_with_handcoded_axioms():
    probes = {
        "PK": lambda A: _oracles.is_pseudo_kleene(A)[0],
        "STAR": lambda A: _oracles.is_bz_star(A)[0],
        "DIAMOND_OM": lambda A: _oracles.is_diamond_orthomodular(A)[0],
        "OL": lambda A: _oracles.is_ortholattice(A)[0],
        "OM": lambda A: _oracles.is_orthomodular(A)[0],
        "POM": lambda A: _oracles.is_paraorthomodular(A)[0],
    }
    bz_probe = ("BZ1", "BZ2", "BZ3", "BZ4")
    for name in catalog.names():
        A = catalog.get(name)
        for key, fn in probes.items():
            assert holds(A, THEORY[key])[0] == fn(A), (name, key)
        assert all(holds(A, THEORY[k])[0] for k in bz_probe) == \
            _oracles.is_bz(A)[0], name


def test_dn_chains_satisfy_dist_and_sdm():
    for n in range(2, 9):
        A = catalog.get(f"D{n}")
        assert holds(A, THEORY["DIST"])[0]
        assert holds(A, THEORY["SDM"])[0]


def test_aol_identities_on_catalog_antiortholattices():
    for name in ("D2", "D5", "T1(2x2)", "T2(2x2)", "T1(N5+1)"):
        A = catalog.get(name)
        for key in ("AOL1", "AOL2", "AOL3"):
            assert holds(A, THEORY[key])[0], (name, key)


def test_twist_catalog_identity_profile():
    # the two seven-element stars of the search examples
    T1 = catalog.get("T1(2x2)")
    assert holds(T1, THEORY["DIST"])[0]
    assert not holds(T1, THEORY["SDM"])[0]
    N = catalog.get("T1(N5+1)")
    assert not holds(N, THEORY["DIST"])[0]
    assert holds(N, THEORY["SDM"])[0]


# The BZ*- and PBZ*-corpora are the BZ corpus narrowed by class, so the
# union of the four, each algebra once, costs no more than two of them.
CORPORA = (
    EnumerationSpec(max_size=10, structure="antiortholattice"),
    EnumerationSpec(max_size=8),
    EnumerationSpec(max_size=8, classes=("bz-star",)),
    EnumerationSpec(max_size=8, classes=("pbz-star",)),
)


def _corpus():
    seen = {}
    for spec in CORPORA:
        for A in enumerate_all(spec):
            seen.setdefault(canonical_form(A), A)
    return list(seen.values())


def _random_statements(monkeypatch, seeds):
    # the benchmark's seeded generator of random identities, and clauses
    # made of them: disjunctions with and without premises
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from statements import random_identities
    texts = []
    for seed in seeds:
        idents = random_identities(seed)
        a, b, c, d, e, f, g, h = idents[:8]
        texts += [*idents, f"{a} | {b}", f"{c} | {d} | {e}",
                  f"{f} => {g} | {h}", f"{a} & {c} => {b} | {d}"]
    return [parse_statement(text) for text in texts]


_ORACLE = {}


def _oracle(A, stmt):
    """``_oracles.holds``, run once per corpus member and statement in
    this module.  Members are canonical copies, so their canonical
    bytes fix their tables and key the verdict for fresh copies too."""
    key = (canonical_form(A), stmt)
    if key not in _ORACLE:
        _ORACLE[key] = _oracles.holds(A, stmt)
    return _ORACLE[key]


def _scanned(A, stmt):
    # a fresh scan, its witness tuple read by sorted variable name
    ok, witness = terms._scan([A], stmt)[0]
    return ok, None if witness is None else dict(
        zip(term_vars(stmt), witness))


def _assert_matches_interpreter(A, stmt):
    # the scan itself as well as the verdict an earlier test may have kept
    got = holds(A, stmt)
    assert got == _scanned(A, stmt) == _oracle(A, stmt), \
        (A, pretty(stmt))
    if not got[0]:
        assert list(got[1]) == term_vars(stmt)
        assert all(type(v) is int for v in got[1].values())


def test_holds_matches_interpreter_on_corpora(monkeypatch):
    statements = list(THEORY.values()) + \
        _random_statements(monkeypatch, (1, 2, 3))
    clauses = [s for s in statements
               if isinstance(s, QuasiIdentity) and len(s.conclusion) > 1]
    assert len(clauses) == 9 + 3 * 4  # the THEORY clauses and 4 per seed
    corpus = _corpus()
    assert len(corpus) == 138  # antiortholattices to 8 are in the BZ corpus
    verdicts = set()
    for A in corpus:
        for stmt in statements:
            _assert_matches_interpreter(A, stmt)
        verdicts.update(holds(A, c)[0] for c in clauses)
    assert verdicts == {True, False}


def _edge_statements():
    return [parse_statement(text) for text in (
        "0 <= 1", "1 = 0", "1 <= 0 => 0 = 1",   # no variables
        "x ^ 0 = 0", "x v 0 = 0", "0 <= x'",      # one side only
        "x ^ x~ = 1 & x' = x => x = y",           # premises never hold
        "x <= y & y <= x => x = y", "x <= y => y' <= x'",
        "1 = 0 | 0 <= 1", "0 = 1 | 1 <= 0",     # clauses, no variables
        "x = 0 | x = 1", "x ^ x~ = 1 => x = y | y' = x",
    )]


def test_holds_edge_cases():
    edge = _edge_statements()
    for A in _corpus():
        for stmt in edge:
            _assert_matches_interpreter(A, stmt)
    D3 = catalog.get("D3")
    assert holds(D3, parse_statement("0 <= 1")) == (True, None)
    assert holds(D3, parse_statement("1 = 0")) == (False, {})
    assert holds(D3, parse_statement("x ^ 0 = 0")) == (True, None)
    assert holds(D3, parse_statement("x ^ x~ = 1 & x' = x => x = y")) == \
        (True, None)
    assert holds(D3, parse_statement("1 = 0 | 0 <= 1")) == (True, None)
    assert holds(D3, parse_statement("0 = 1 | 1 <= 0")) == (False, {})
    assert holds(D3, parse_statement("x = 0 | x = 1")) == (False, {"x": 1})


def _levels_match_oracle(statements):
    levels = {}
    for A in _corpus():
        levels.setdefault(A.n, []).append(A)
    for n, level in levels.items():
        # fresh copies keep no verdict, so every one of them is scanned
        fresh = pickle.loads(pickle.dumps(level))
        for stmt in statements:
            want = [_oracle(A, stmt) for A in level]
            assert terms.holds_each(fresh, stmt) == want, (n, pretty(stmt))
            # a second call reads back the verdicts the copies keep
            assert terms.holds_each(fresh, stmt) == want
    return levels


def test_holds_each_matches_oracle_level_by_level(monkeypatch):
    statements = [*THEORY.values(),
                  *_random_statements(monkeypatch, (1, 2, 3)),
                  *_edge_statements()]
    _levels_match_oracle(statements)
    # Small blocks: from n=6 on, three variables take more than 200
    # assignments, so a block fixes the leading variable and holds at
    # most 200 // n**2 algebras, fewer than each level has.
    monkeypatch.setattr(terms, "_BLOCK", 200)
    levels = _levels_match_oracle(statements)
    assert all(len(levels[n]) > 200 // n ** 2 for n in (6, 7, 8, 10))


def _shuffled(A, rng):
    # A with its elements renamed at random, bounds included
    perm = list(range(A.n))
    rng.shuffle(perm)
    inv = sorted(range(A.n), key=perm.__getitem__)
    leq = [[bool(A.leq[inv[a], inv[b]]) for b in range(A.n)]
           for a in range(A.n)]
    return FiniteAlgebra(leq, [perm[A.kleene[i]] for i in inv],
                         [perm[A.brouwer[i]] for i in inv])


def test_holds_each_on_shuffled_levels(monkeypatch):
    # canonical copies put 0 first and 1 last; shuffled copies put the
    # bounds anywhere, so each algebra of a stack must read its own
    rng = random.Random(5)
    for n in (6, 7):
        level = [_shuffled(A, rng) for A in enumerate_pbz(n, CORPORA[1])]
        assert len({(A.zero, A.one) for A in level}) > 2
        want = {name: [_oracles.holds(A, s) for A in level]
                for name, s in THEORY.items()}
        for block in (terms._BLOCK, 200):
            monkeypatch.setattr(terms, "_BLOCK", block)
            fresh = pickle.loads(pickle.dumps(level))
            for name, s in THEORY.items():
                assert terms.holds_each(fresh, s) == want[name], (n, name)


# statements with fibred variables (every occurrence directly under ~),
# by name, and their fibred variables
_FIBRED = {"AOL1": ["x"], "AOL2": ["y"], "AOL3": ["y"],
           "DIAMOND_OM": ["x", "y"], "BZ4": ["x"]}

# clauses that put a fibred variable where a scan is easiest to get
# wrong: the leading, outer-loop variable of a four-variable clause,
# and a premise
_FIBRED_CLAUSES = [parse_statement(text) for text in (
    "a~ ^ b <= c v d' | <>a = d | b ^ c <= d~",
    "a~ <= b & b <= <>a => a~ = b | b = 1",
)]


def _fibred_names(stmt):
    plan = terms._plan(terms._interned(stmt))
    return [v for v, f in zip(plan.names, plan.fibred) if f]


def test_plan_fibred_variables_and_shared_steps():
    for name, stmt in THEORY.items():
        assert _fibred_names(stmt) == _FIBRED.get(name, []), name
    assert [_fibred_names(s) for s in _FIBRED_CLAUSES] == [["a"], ["a"]]
    # a subterm shared by the sides is one step, x ^ y and y ^ x are
    # one, <= is a meet, and a fibred variable's slot is its image: 144
    # table reads over THEORY where reading each subterm anew takes 177
    reads = sum(op not in ("zero", "one")
                for s in THEORY.values()
                for _, op, _ in terms._plan(terms._interned(s)).steps)
    assert reads == 144
    plan = terms._plan(terms._interned(THEORY["CHAIN"]))
    assert [op for _, op, _ in plan.steps] == ["meet"]
    # every step reads lower slots only, so the plan runs in order
    for stmt in [*THEORY.values(), *_FIBRED_CLAUSES]:
        plan = terms._plan(terms._interned(stmt))
        for s, _, args in plan.steps:
            assert all(a < s for a in args)


def _fibre_counts(level):
    return {len(terms._fibres(A.brouwer)[0]) for A in level}


def test_compiled_scan_on_sweep_corpora(monkeypatch):
    # the fibred statements over both sweep corpora, level by level on
    # fresh copies, then with blocks of 64 assignments, so that BZ
    # blocks hold algebras with different numbers of fibres and the
    # four-variable clause runs its fibred variable in the outer loop
    statements = [THEORY[name] for name in _FIBRED] + _FIBRED_CLAUSES
    levels = {}
    for spec in (CORPORA[0], CORPORA[1]):
        for A in enumerate_all(spec):
            levels.setdefault((spec.structure, A.n), []).append(A)
    assert max(len(_fibre_counts(level)) for level in levels.values()) > 2
    want = {key: {s: [_oracles.holds(A, s) for A in level]
                  for s in statements} for key, level in levels.items()}
    outcomes, mixed = set(), set()
    stacked = terms._stacked

    def recorded(block, op):
        if op == "brouwer":
            mixed.add(len(_fibre_counts(block)) > 1)
        return stacked(block, op)

    monkeypatch.setattr(terms, "_stacked", recorded)
    # the default, numpy alone with small blocks, and Python ints alone
    for small, block in ((terms._SMALL, terms._BLOCK), (0, 64), (1e9, 64)):
        monkeypatch.setattr(terms, "_SMALL", small)
        monkeypatch.setattr(terms, "_BLOCK", block)
        for key, level in levels.items():
            fresh = pickle.loads(pickle.dumps(level))
            for s in statements:
                got = terms.holds_each(fresh, s)
                assert got == want[key][s], (key, pretty(s))
                outcomes.update(ok for ok, _ in got)
    assert outcomes == mixed == {True, False}
    plan = terms._plan(terms._interned(_FIBRED_CLAUSES[0]))
    assert plan.layout(8, 8)[0] == 2  # a and b lead at 64
    monkeypatch.setattr(terms, "_BLOCK", 1 << 12)
    assert plan.layout(8, 8)[0] == 0  # all four inner at 4096
    assert plan.layout(9, 9)[0] == 1  # a leads from n=9


def test_compiled_scan_on_shuffled_fibres(monkeypatch):
    # renamed at random, a fibre's least element is not where a
    # canonical copy puts it, so the scan must put in each algebra's own
    rng = random.Random(36)
    statements = [THEORY[name] for name in _FIBRED] + _FIBRED_CLAUSES
    for n in (6, 7, 8):
        level = [_shuffled(A, rng) for A in enumerate_pbz(n, CORPORA[1])]
        canonical = list(enumerate_pbz(n, CORPORA[1]))
        assert {tuple(terms._fibres(A.brouwer)[0]) for A in level} - \
            {tuple(terms._fibres(A.brouwer)[0]) for A in canonical}
        want = {s: [_oracles.holds(A, s) for A in level]
                for s in statements}
        for small, block in ((terms._SMALL, terms._BLOCK), (0, 64),
                             (1e9, 64)):
            monkeypatch.setattr(terms, "_SMALL", small)
            monkeypatch.setattr(terms, "_BLOCK", block)
            fresh = pickle.loads(pickle.dumps(level))
            for s in statements:
                assert terms.holds_each(fresh, s) == want[s], (n, pretty(s))


def test_fibred_statement_on_a_bare_lattice():
    # a fibred variable reads ~ even where no step does
    L = catalog.get("B4").lattice_reduct()
    for text in ("x~ = 0", "x~ <= y"):
        stmt = parse_statement(text)
        assert _fibred_names(stmt) == ["x"]
        with pytest.raises(TypeError, match="no brouwer map"):
            holds(L, stmt)
        assert stmt not in L._kept
    D4 = catalog.get("D4")
    for x in range(D4.n):
        for t in (parse_term("x~"), parse_term("<>x ^ x~'")):
            assert evaluate(D4, t, {"x": np.int64(x)}) == \
                _oracles.evaluate(D4, t, {"x": x})


def test_kept_verdicts_hold_witness_tuples():
    # a scan's verdict holds its witness as a tuple in the order of the
    # sorted variable names, and every read returns a fresh dict; the
    # algebra keeps no verdict
    A = pickle.loads(pickle.dumps(catalog.get("O6-benzene")))
    stmt = terms._interned(THEORY["J"])
    got = holds(A, stmt)
    assert not got[0]
    scanned = terms._scan([A], stmt)[0]
    assert scanned == (False, tuple(got[1][v] for v in term_vars(stmt)))
    assert holds(A, stmt) == got and holds(A, stmt)[1] is not got[1]
    assert terms.holds_each([A], stmt) == [got]
    assert holds(A, terms._interned(THEORY["BZ1"])) == (True, None)
    assert terms._scan([A], terms._interned(THEORY["BZ1"]))[0] == \
        (True, None)
    assert set(A._kept) <= {"canon"}


def test_holds_each_arguments():
    assert terms.holds_each([], THEORY["SK"]) == []
    chains = (catalog.get(name) for name in ("D4", "B4"))
    assert terms.holds_each(chains, THEORY["CHAIN"]) == \
        [(True, None), (False, {"x": 1, "y": 2})]
    with pytest.raises(ValueError, match="one size"):
        terms.holds_each([catalog.get("D3"), catalog.get("D4")], THEORY["SK"])
    B4 = catalog.get("B4")
    L = B4.lattice_reduct()
    stmt = parse_statement("x' <= x")
    for stack in ([L], [B4, L]):
        with pytest.raises(TypeError, match="no kleene map"):
            terms.holds_each(stack, stmt)
        assert stmt not in L._kept
    with pytest.raises(TypeError, match="not an identity"):
        terms.holds_each([B4], parse_term("x ^ y"))


def _reference_search(stmt, spec):
    # search_counterexample as a loop over algebras and the oracle
    examined = 0
    for n in range(1, spec.max_size + 1):
        level = list(enumerate_pbz(n, spec))
        examined += len(level)
        for A in level:
            ok, witness = _oracle(A, stmt)
            if not ok:
                return canonical_form(A), witness, examined, False
    return None, None, examined, True


def test_search_matches_per_algebra_oracle_loop(monkeypatch):
    # fresh levels, so the search scans them itself
    monkeypatch.setattr(enumeration, "_bz_level", functools.cache(
        enumeration._bz_level.__wrapped__))
    statements = [*THEORY.values(),
                  *_random_statements(monkeypatch, (1, 2, 3))]
    outcomes = set()
    for spec in CORPORA[1:]:
        for stmt in statements:
            res = search_counterexample(stmt, spec)
            got = (res.found and canonical_form(res.found), res.assignment,
                   res.examined, res.exhausted)
            assert got == _reference_search(stmt, spec), \
                (spec.classes, pretty(stmt))
            outcomes.add(res.exhausted)
    assert outcomes == {True, False}


def test_holds_reads_only_the_tables_it_uses():
    L = catalog.get("B4").lattice_reduct()
    assert holds(L, THEORY["DIST"]) == (True, None)
    assert holds(L, parse_statement("x v y <= x => y <= x")) == (True, None)
    # a statement that needs ' or ~ is refused by name, and no verdict
    # is kept for it
    for text, op in (("x' <= x", "kleene"), ("x <= y => x~ = y", "brouwer")):
        stmt = parse_statement(text)
        with pytest.raises(TypeError, match=f"no {op} map"):
            holds(L, stmt)
        assert stmt not in L._kept
    with pytest.raises(TypeError, match="no brouwer map"):
        evaluate(L, parse_term("x~ ^ y"), {"x": 0, "y": 1})


def test_holds_blocks_bound_memory():
    """Seven variables over ten elements are 10**7 assignments; a block
    holds at most ``terms._BLOCK`` (2**12) of them, so no array of the
    whole scan is built, and the scan still stops at the first failing
    block."""
    A = next(enumerate_pbz(10, CORPORA[0]))
    law = parse_statement("a ^ (b v c v d v e v f v g) <= a")
    import numpy  # noqa: F401  (loaded before tracing, so not counted)
    tracemalloc.start()
    try:
        assert holds(A, law) == (True, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # one int64 array of 10**7 entries is 80 MB
    # first failure at the 110001st assignment, in block 111 of 1000
    # assignments each
    late = parse_statement("b ^ c <= a v d v e v f v g")
    ok, w = holds(A, late)
    assert not ok and list(w.values()) == [0, 1, 1, 0, 0, 0, 0]
    assert (ok, w) == _oracles.holds(A, late)
