"""Checkers for the three workloads' outputs.

Each checker takes what the program printed or returned, turned into
plain text and numbers, and judges it over raw tables (``tables``),
never through pbzlat's own algorithms.  A checker returns None when the
output is right and a one-line reason when it is not.
"""

import json

import tables
from statements import THEORY_TEXT


def cli_error(rc, output):
    """Reason for an operation that raised (rc None, ``output`` its
    traceback) or exited with a code that is not a verdict.  Reasons
    that start with 'error:' mark operations that failed outright; any
    other reason marks a wrong output."""
    if rc is None:
        return "error: raised " + output.strip().splitlines()[-1]
    return f"error: exit code {rc}"


A006966 = (1, 1, 1, 2, 5, 15, 53, 222, 1078, 5994)
"""Lattices with n = 1..10 elements up to isomorphism (Heitzig and
Reinhold, "Counting finite lattices", Algebra Universalis 48, 2002)."""


def half_size_lattices(n):
    """Antiortholattices of size n whose cones cover the universe are the
    twists of their positive cone, a lattice with ceil(n/2) elements; so
    there are as many as there are lattices of that size."""
    return A006966[(n + 1) // 2 - 1]


CORPUS_SIZES = {
    "aol": (1, 1, 1, 1, 1, 2, 3, 7, 11, 30),
    None: (1, 1, 1, 3, 3, 12, 13, 63),
    "bz-star": (1, 1, 1, 2, 2, 6, 7, 23),
    "pbz-star": (1, 1, 1, 2, 2, 5, 6, 16),
}
"""Algebras of each size 1, 2, ... up to isomorphism in the corpora the
workloads use: antiortholattices, BZ-lattices (None) and the BZ* and
PBZ* classes.  ``confirm.py`` derives them anew by a nested-loop
decoration search."""


def check_corpus(cls, corpus, sizes=None):
    """A corpus the program built, as tables: the right number of
    algebras per size (``sizes``, by default ``CORPUS_SIZES[cls]``),
    each in its class, none isomorphic to another."""
    sizes = CORPUS_SIZES[cls] if sizes is None else sizes
    counts = [sum(A.n == n for A in corpus) for n in range(1, len(sizes) + 1)]
    name = cls or "bz"
    if len(corpus) != sum(counts) or tuple(counts) != sizes:
        return f"corpus {name} has sizes {counts}, expected {list(sizes)}"
    for i, A in enumerate(corpus):
        why = (check_antiortholattice(A) if cls == "aol"
               else None if tables.in_class(A, cls) else "not in the class")
        if why:
            return f"corpus {name}: {A.name}: {why}"
        for B in corpus[i + 1:]:
            if tables.isomorphic(A, B):
                return f"corpus {name}: {A.name} and {B.name} are isomorphic"
    return None


# ---------------------------------------------------------------------------
# aol-enumerate-10


def check_antiortholattice(A):
    """Nested-loop checks on one emitted file."""
    if not tables.is_lattice(A):
        return "not a lattice"
    if not tables.is_order_reversing_involution(A):
        return "' is not an order-reversing involution"
    if tables.kleene_sharp(A) != {A.zero, A.one}:
        return "S_K is not {0, 1}"
    if not tables.is_trivial_brouwer(A):
        return "~ is not the trivial Brouwer map"
    if not (tables.is_bz(A) and tables.is_bz_star(A)):
        return "not BZ*"
    if not tables.is_diamond_orthomodular(A):
        return "not diamond-orthomodular"
    return None


def check_aol_level(n, reported, texts, lattice_count):
    """One size level of ``enumerate --structure antiortholattice``.

    ``reported`` is the level's count in the structured output, ``texts``
    the algebra files written for that level, ``lattice_count`` the
    number of size-n lattices the program's generator produces.
    """
    if lattice_count != A006966[n - 1]:
        return f"n={n}: {lattice_count} lattices, A006966 has {A006966[n - 1]}"
    if reported != len(texts):
        return f"n={n}: count {reported} but {len(texts)} files"
    algs = []
    for text in texts:
        try:
            A = tables.parse_algebra(text)
        except tables.TableError as e:
            return f"n={n}: unreadable file: {e}"
        if A.n != n:
            return f"n={n}: file {A.name} has {A.n} elements"
        why = check_antiortholattice(A)
        if why:
            return f"n={n}: {A.name}: {why}"
        algs.append(A)
    for i, A in enumerate(algs):
        for B in algs[i + 1:]:
            if tables.isomorphic(A, B):
                return f"n={n}: {A.name} and {B.name} are isomorphic"
    covering = sum(tables.incomparable_to_involute(A) is None for A in algs)
    if covering != half_size_lattices(n):
        return (f"n={n}: {covering} with covering cones, expected "
                f"{half_size_lattices(n)}")
    return None


# ---------------------------------------------------------------------------
# search-battery-8


def check_search(cls, statement, rc, stdout, corpus):
    """One ``pbzlat search`` answer.

    ``statement`` is the statement text, ``corpus`` the class's
    algebras up to the size cap as (Alg, Evaluator) pairs, from which
    the smaller algebras must all satisfy the statement.
    """
    if rc not in (0, 1):
        return cli_error(rc, stdout)
    try:
        doc = json.loads(stdout)
        stmt = tables.parse_statement(statement)
    except (ValueError, tables.TableError) as e:
        return f"unreadable: {e}"
    found = doc.get("found")
    if rc == 1:
        if found is not None or not doc.get("exhausted"):
            return "exit 1 without an exhausted search"
        limit = None
    else:
        if found is None or doc.get("exhausted"):
            return "exit 0 without a counterexample"
        try:
            A = tables.parse_algebra(found["file"])
            witness = {v: A.index(lab) for v, lab in found["witness"].items()}
        except (KeyError, AttributeError, tables.TableError) as e:
            return f"unreadable counterexample: {e}"
        if A.n != found.get("n"):
            return "counterexample size disagrees with its file"
        if not tables.in_class(A, cls):
            return f"counterexample is not in class {cls or 'bz'}"
        if set(witness) != tables.variables(stmt):
            return "witness does not bind exactly the statement's variables"
        if tables.Evaluator(A).holds_at(stmt, witness):
            return "witness satisfies the statement"
        limit = A.n
    below = [(A, ev) for A, ev in corpus if limit is None or A.n < limit]
    upto = sum(A.n <= (limit or A.n) for A, _ in corpus)
    if doc.get("examined") != upto:
        return f"examined {doc.get('examined')}, corpus has {upto}"
    for A, ev in below:
        if not ev.holds(stmt):
            return f"smaller algebra {A.name} (n={A.n}) already fails"
    return None


# ---------------------------------------------------------------------------
# claim-sweep-10

_AOL_BASIS = [tables.parse_statement(THEORY_TEXT[k])
              for k in ("AOL1", "AOL2", "AOL3")]
_DIST = tables.parse_statement(THEORY_TEXT["DIST"])


def cones_premises(A, distributive):
    """PBZ* algebra satisfying AOL1-3 (and DIST when asked): the
    hypotheses of the covering-cones claims short of s.i."""
    if not tables.in_class(A, "pbz-star"):
        return False
    ev = tables.Evaluator(A)
    if not all(ev.holds(s) for s in _AOL_BASIS):
        return False
    return not distributive or ev.holds(_DIST)


CONE_CLAIMS = {
    "si-aol-basis-cones": False,
    "si-aol-basis-cones-distributive": True,
}
"""Claims whose verdicts the checker makes anew: every algebra that meets
the hypotheses must have each element comparable to its involute."""


def expected_cone_failures(claim, corpus):
    """Indices of corpus algebras that refute a covering-cones claim,
    and how many meet its hypotheses."""
    distributive = CONE_CLAIMS[claim]
    gated = [i for i, A in enumerate(corpus)
             if cones_premises(A, distributive)
             and tables.is_subdirectly_irreducible(A)]
    failing = {i for i in gated
               if tables.incomparable_to_involute(corpus[i]) is not None}
    return failing, len(gated)


def check_claim(claim, examined, checked, failure_texts, corpus, expected):
    """One ``verify_over_corpus`` report.

    ``corpus`` is the list of corpus tables (read from the program's
    files of the same algebras), ``failure_texts`` the files of the
    reported failures, and ``expected`` the (failing indices, gated
    count) pair made anew for the covering-cones claims, or None.
    """
    if examined != len(corpus):
        return f"examined {examined}, corpus has {len(corpus)}"
    if failure_texts and expected is None:
        return f"{len(failure_texts)} failures no check can confirm"
    if expected is None:
        return None
    index = {}
    for i, A in enumerate(corpus):
        index.setdefault(A.text, i)
    reported = set()
    for text in failure_texts:
        i = index.get(text)
        if i is None:
            return "reported failure is not a corpus member"
        if tables.incomparable_to_involute(corpus[i]) is None:
            return (f"failure {corpus[i].name} has every element comparable "
                    "to its involute")
        reported.add(i)
    failing, gated = expected
    if reported != failing:
        return (f"failures {sorted(reported)} but the tables give "
                f"{sorted(failing)}")
    if checked != gated:
        return f"checked {checked}, {gated} algebras meet the hypotheses"
    return None
