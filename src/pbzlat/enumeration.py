"""Exhaustive model generation at desk scale.

Every class the workbench decorates lies inside the pseudo-Kleene
lattices, so every corpus is grown from pseudo-Kleene pairs (a lattice
with its involution), built directly by inserting an atom together
with its coatom image; a chain corpus starts from the chain and its
reversal.  Each pair is decorated with the Brouwer complements read
off its sharp sets.  The decorated level of a size is built once per
cap key, as canonical copies (every algebra renumbered along its
canonical ordering) sorted by canonical bytes, and each spec's level
is the sublist its class flags and identities keep, a distributive
structure counting as the identity DIST.  So the specs share algebra
objects and what those keep.  What a level holds, in which copy and
in what order, depends only on its isomorphism classes and not on the
generator or the jobs count.  Bare lattices are grown by atom
insertion with canonical-form deduplication.  On top of that sit a
smallest counterexample search and a registry of corpus-wide claims.
Each claim declares its hypotheses and conclusions as class flags and
THEORY identities, read by name through ``axioms.satisfies``; a check
function is left only for what no flag or identity states.  The jobs
count spreads only the decoration of the pairs over worker processes;
the class and identity filters, identity checks and claim checks run
in the main process, over each level in its canonical order.

Size caps are checked when a spec is built, so ``CAPS`` must be
raised before building a spec that goes beyond them.
"""

import atexit
import os
from dataclasses import dataclass

from . import axioms, congruences, constructions, terms
from .core import (BoundedLattice, FiniteAlgebra, _bits, _canon_bytes,
                   _check_order, _set_index, canonical_copy, canonical_form,
                   chain_lattice, is_isomorphic)

__all__ = [
    "CAPS", "EnumerationSpec", "SearchResult", "CorpusReport",
    "enumerate_lattices", "order_reversing_involutions", "bz_brouwer_maps",
    "enumerate_pbz", "enumerate_all", "search_counterexample",
    "verify_over_corpus", "claim_names",
]

# Size ceilings per generation strategy.  Configuration, not constants:
# raise them if a search must go further and you can wait.
CAPS = {"general": 8, "antiortholattice": 10, "chain": 12}

_STRUCTURES = (None, "chain", "distributive", "antiortholattice")


@dataclass(frozen=True)
class EnumerationSpec:
    """What to generate: size bound, required class flags, an optional
    structural restriction, and identities from the built-in theory
    that must hold.  The structure "chain" or "antiortholattice" (or
    the class flag "antiortholattice") picks the cap key, and with it
    the decorated level the spec narrows; "distributive" narrows as the
    identity DIST does.  A spec above its cap is refused when it is
    built, so raise ``CAPS`` first to go further."""

    max_size: int
    classes: tuple = ()
    structure: str = None
    identities: tuple = ()

    def __post_init__(self):
        if self.max_size < 1:
            raise ValueError("max_size must be positive")
        unknown = [c for c in self.classes if c not in axioms.CLASS_FLAGS]
        if unknown:
            raise ValueError(f"unknown class flags: {unknown}")
        if self.structure not in _STRUCTURES:
            raise ValueError(f"unknown structure: {self.structure!r}")
        unknown = [i for i in self.identities if i not in terms.THEORY]
        if unknown:
            raise ValueError(f"unknown theory identities: {unknown}")
        self.check_size(self.max_size)

    def cap_key(self):
        if self.structure == "chain":
            return "chain"
        if self.structure == "antiortholattice" or \
                "antiortholattice" in self.classes:
            return "antiortholattice"
        return "general"

    def cap(self):
        return CAPS[self.cap_key()]

    def check_size(self, n):
        """Raise ValueError when size n is outside 1..cap."""
        if n < 1:
            raise ValueError(f"size {n} below 1")
        if n > self.cap():
            raise ValueError(
                f"size {n} above {self.cap_key()} cap {self.cap()}; "
                "raise CAPS to override")


# ---------------------------------------------------------------------------
# bounded lattices


def _atom_extensions(order):
    """All ways to insert a new atom into a validated lattice order.

    The new element sits just above 0 and strictly below an up-closed
    set U.  The result is a lattice iff for every old a outside U the
    common upper bounds U & up(a) have a least element, that is, are
    the up-set of some element; meets never break because the only
    things under the atom are itself and 0.
    Returns each extension's up-set masks, the new atom last.  The list
    order decides which isomorphic copy is kept, so U runs over its
    membership vectors on the nonzero elements in lexicographic order.
    """
    n, up, down, zero = order.n, order.up, order.down, order.zero
    by_up = _set_index(up)
    interior = [a for a in range(n) if a != zero]
    atom = 1 << n
    out = []

    def grow(i, U, left_out):
        if i == len(interior):
            if all(U & up[a] in by_up
                   for a in interior if not U >> a & 1):
                ext = list(up)
                ext[zero] |= atom
                ext.append(U | atom)
                out.append(ext)
            return
        a = interior[i]
        if not down[a] & U:  # nothing put in lies below a
            grow(i + 1, U, left_out | 1 << a)
        if not up[a] & left_out:  # nothing left out lies above a
            grow(i + 1, U | 1 << a, left_out)

    grow(0, 0, 0)
    return out


_LATTICE_MEMO = {}


def _lattices(n):
    """All lattices of size n, one per isomorphism class, memoized.
    Extensions are deduplicated on the canonical bytes of their masks,
    so only the kept ones are built and validated."""
    if n in _LATTICE_MEMO:
        return _LATTICE_MEMO[n]
    if n == 1:
        kept = [[1]]
    else:
        kept = []
        seen = set()
        for L in _lattices(n - 1):
            for up in _atom_extensions(L._ord):
                key = _canon_bytes(n, up, ())
                if key not in seen:
                    seen.add(key)
                    kept.append(up)
    # the one dense table outside core: the benchmark's tracer times order
    # validation by wrapping this module's BoundedLattice in a plain
    # function, which has no _from_masks to call
    lattices = [BoundedLattice([[u >> b & 1 for b in range(n)] for u in up])
                for up in kept]
    _LATTICE_MEMO[n] = lattices
    return lattices


def enumerate_lattices(n, cap=None):
    """An iterator over all bounded lattices of size n up to isomorphism.
    The size is checked on the call, before any lattice is built."""
    cap = CAPS["antiortholattice"] if cap is None else cap
    if n < 1:
        raise ValueError(f"size {n} below 1")
    if n > cap:
        raise ValueError(f"size {n} above cap {cap}; raise CAPS to override")
    return iter(_lattices(n))


# ---------------------------------------------------------------------------
# decorations


def _self_dual_degrees(order):
    """Whether the multiset of (|up a|, |down a|) equals that of
    (|down a|, |up a|)."""
    degrees = sorted((u.bit_count(), d.bit_count())
                     for u, d in zip(order.up, order.down))
    return degrees == sorted((d, u) for u, d in degrees)


def order_reversing_involutions(L):
    """All maps with f(f(a)) = a and a <= b iff f(b) <= f(a).

    Such an f maps up(a) onto down(f(a)) and down(a) onto up(f(a)), so
    it pairs each element of degrees (|up a|, |down a|) with one of
    degrees (|down a|, |up a|).  A lattice whose degree multiset is not
    self-dual therefore has none, and the backtracking is skipped; on
    the others it runs unchanged, so the list keeps its order.
    """
    if not _self_dual_degrees(L._ord):
        return []
    n, up, down = L.n, L._ord.up, L._ord.down
    out = []
    f = [None] * n

    def place(a, b):
        # a <= c iff f(c) <= b, and c <= a iff b <= f(c)
        ua, da, ub, db = up[a], down[a], up[b], down[b]
        for c in range(n):
            fc = f[c]
            if fc is None or c == a:
                continue
            if ua >> c & 1 != db >> fc & 1 or da >> c & 1 != ub >> fc & 1:
                return False
        return True

    def rec():
        try:
            a = f.index(None)
        except ValueError:
            out.append(tuple(f))
            return
        for b in range(n):
            if f[b] is not None and f[b] != a:
                continue
            if b == a and not place(a, b):
                continue
            if b != a and not (place(a, b) and place(b, a)):
                continue
            f[a], f[b] = b, a
            rec()
            f[a] = None
            if b != a:
                f[b] = None

    rec()
    return out


def bz_brouwer_maps(L, kleene):
    """All Brouwer complements making (L, kleene, ~) a BZ-lattice,
    sorted by their values along a descending linear extension.  Only
    the order of L is read, so L may also be an algebra.

    In a BZ-lattice, a~ is the largest element of the modal-sharp set
    S = {s : s~ = s'} below a'.  With BZ1-BZ4 the clauses of
    axioms.is_bz (disjoint, expanding, antitone, link): a <= a~~ = a~'
    gives a~ <= a', and a~' = a~~ puts a~ in S; if s is in S and
    s <= a', then a <= s' = s~, so s <= s~~ <= a~.  Further, 1 ^ 1~ = 0
    gives 1~ = 0 and then 0~ = 1~~ = 1, so 0 and 1 are in S; s ^ s' =
    s ^ s~ = 0, so S lies in the Kleene-sharp set S_K; and by the rule
    just shown s'~ = s, so S is closed under '.  Hence every such ~ is
    the map a~ = the join of the elements of S below a', for one
    '-closed S with {0, 1} <= S <= S_K that holds every such join.
    Those sets are the unions of {0, 1} with '-orbits of S_K; each gives
    at most one map, kept when it passes is_bz.
    """
    order = L._ord
    n, zero, one, join = order.n, order.zero, order.one, order.join
    orbits = [a for a in _sharp_interior(order, kleene) if a < kleene[a]]
    maps = set()
    for chosen in range(1 << len(orbits)):
        S = 1 << zero | 1 << one
        for i, a in enumerate(orbits):
            if chosen >> i & 1:
                S |= 1 << a | 1 << kleene[a]
        tilde = []
        for a in range(n):
            t = zero
            for s in _bits(S & order.down[kleene[a]]):
                t = join[t][s]
            tilde.append(t)
        tilde = tuple(tilde)
        if all(S >> t & 1 for t in tilde) and axioms.is_bz(
                FiniteAlgebra._from_order(order, kleene, tilde))[0]:
            maps.add(tilde)
    ext = sorted(range(n), key=lambda a: (-order.down[a].bit_count(), a))
    return sorted(maps, key=lambda tilde: [tilde[a] for a in ext])


def _sharp_interior(order, kleene):
    """The Kleene-sharp elements (a ^ a' = 0) other than 0 and 1."""
    return [a for a in range(order.n) if a not in (order.zero, order.one)
            and order.meet[a][kleene[a]] == order.zero]


def _trivial_brouwer(order):
    """0~ = 1 and a~ = 0 otherwise; takes a lattice or its order."""
    return tuple(order.one if a == order.zero else order.zero
                 for a in range(order.n))


# ---------------------------------------------------------------------------
# pseudo-Kleene pairs


def _chain_pair(n):
    """The n-chain's order with its reversal, the Kleene chain's pair."""
    return chain_lattice(n)._ord, tuple(range(n))[::-1]


def _fixed_insertion(order, kleene):
    """Up-set masks and involution after adding x = x', an element that
    is both an atom and a coatom; always a lattice when n >= 2."""
    x = order.n
    up = list(order.up)
    up[order.zero] |= 1 << x
    up.append(1 << x | 1 << order.one)
    return up, kleene + (x,)


def _pair_insertions(order, kleene):
    """Up-set masks and involutions after adding an atom x and a coatom
    x', the image of x.

    x sits above 0 and strictly below an up-closed set U that holds 1.
    Without x' that must already be a lattice (removing a coatom keeps
    one), so U runs over the atom extensions of the order.  x' sits
    below 1 and strictly above U' = {u' : u in U}.  x < x' is forced
    when U and U' meet, and is tried both ways when they do not."""
    x, xc, one = order.n, order.n + 1, order.one
    for ext in _atom_extensions(order):
        U = ext[x] & ~(1 << x)
        Uc = sum(1 << kleene[u] for u in _bits(U))
        base = [m | 1 << xc if Uc >> a & 1 else m for a, m in enumerate(ext)]
        base.append(1 << xc | 1 << one)
        for below in ((True,) if U & Uc else (False, True)):
            up = list(base)
            if below:
                up[x] |= 1 << xc
            yield up, kleene + (xc, x)


def _pk_candidates(n):
    """Every insertion into the pairs of size n-1 and n-2, for n >= 3."""
    for order, kleene in _pk_pairs(n - 1):
        yield _fixed_insertion(order, kleene)
    if n >= 4:
        for order, kleene in _pk_pairs(n - 2):
            yield from _pair_insertions(order, kleene)


_PK_MEMO = {}


def _pk_pairs(n):
    """Pseudo-Kleene pairs (order, kleene) of size n, one per isomorphism
    class, memoized.

    PK is hereditary: removing an atom x of a PK pair together with the
    coatom x' (only x when x' = x) leaves a PK pair, since meets can
    only fall and joins only rise.  So every pair of size n >= 3 is an
    insertion into a pair of size n-1 or n-2, and keeping the inserted
    lattices that are PK, deduplicated on canonical bytes, is complete.
    """
    if n in _PK_MEMO:
        return _PK_MEMO[n]
    if n <= 2:
        pairs = [_chain_pair(n)]
    else:
        pairs = []
        seen = set()
        for up, kleene in _pk_candidates(n):
            order, _ = _check_order(up)
            if order is None or not axioms.is_pseudo_kleene(
                    FiniteAlgebra._from_order(order, kleene,
                                              _trivial_brouwer(order)))[0]:
                continue
            key = _canon_bytes(n, up, (kleene,))
            if key not in seen:
                seen.add(key)
                pairs.append((order, kleene))
    _PK_MEMO[n] = pairs
    return pairs


# ---------------------------------------------------------------------------
# corpora


_CORPUS_MEMO = {}


def _admitted(A, classes, identities):
    """Whether a BZ-lattice has every class flag and satisfies every
    THEORY identity named: a spec's filters or a claim's hypotheses."""
    return all(axioms.satisfies(A, x) for x in (*classes, *identities))


def _decorations(pair):
    """Canonical copies of the BZ decorations of one pseudo-Kleene pair
    (order, kleene).  Module-level so worker processes can import it."""
    order, kleene = pair
    # the Brouwer search reads only the order of the pair with trivial ~
    A = FiniteAlgebra._from_order(order, kleene, _trivial_brouwer(order))
    return [canonical_copy(FiniteAlgebra._from_order(order, kleene, brouwer))
            for brouwer in bz_brouwer_maps(A, kleene)]


# Worker pools by (process id, jobs).  Not a memo: the benchmark's cold
# start empties dicts named that way, which would orphan live pools.
_POOLS = {}


def _pool(jobs):
    """The process's pool of jobs workers, started on first use and
    terminated at exit, so an enumeration or search starts one pool
    however many levels it maps.  Keyed by process id too: a forked
    child must not use its parent's workers."""
    key = (os.getpid(), jobs)
    if key not in _POOLS:
        import multiprocessing
        _POOLS[key] = pool = multiprocessing.Pool(jobs)
        atexit.register(pool.terminate)
    return _POOLS[key]


def _map_jobs(fn, items, jobs):
    """Order-preserving map, fanned out over processes when jobs > 1.
    Results do not depend on jobs; it only changes wall-clock time."""
    if jobs > 1 and len(items) > 1:
        return _pool(jobs).map(fn, items)
    return [fn(x) for x in items]


_LEVEL_MEMO = {}


def _bz_level(n, cap_key, jobs):
    """Every BZ decoration of size n under a cap key, one canonical copy
    per isomorphism class in the order of canonical bytes, memoized: the
    level every spec with that cap key narrows.  The cap key picks the
    pairs decorated: the Kleene chain for "chain", every pseudo-Kleene
    pair for "general", and for "antiortholattice" the pairs with
    S_K = {0, 1}, which are exactly the antiortholattices: on such a
    pair the only Brouwer map is the trivial one, and with it the pair
    is a PBZ*-lattice."""
    key = (n, cap_key)
    if key not in _LEVEL_MEMO:
        if cap_key == "chain":
            pairs = [_chain_pair(n)]
        elif cap_key == "antiortholattice":
            pairs = [(order, kleene) for order, kleene in _pk_pairs(n)
                     if not _sharp_interior(order, kleene)]
        else:
            pairs = _pk_pairs(n)
        copies = {}
        for level in _map_jobs(_decorations, pairs, jobs):
            for A in level:
                copies.setdefault(canonical_form(A), A)
        _LEVEL_MEMO[key] = [copies[cf] for cf in sorted(copies)]
    return _LEVEL_MEMO[key]


def enumerate_pbz(n, spec, jobs=1):
    """All algebras of size n matching the spec, up to isomorphism, each
    as its canonical copy, in the order of their canonical bytes.

    The base corpus is BZ-lattices (every class the workbench cares
    about lives inside BZ), and every BZ-lattice is a pseudo-Kleene pair
    with a Brouwer map.  So each pair of size n (the n-chain with its
    reversal for structure "chain") is decorated with each Brouwer map
    bz_brouwer_maps reads off its sharp sets, spread over the jobs.
    That decorated level is built once per size and cap key, and every
    spec sharing them narrows the same algebras by its class flags and
    identities, in this process; structure "distributive" narrows by
    DIST, as ``--require DIST`` does.  Flags and verdicts do not change
    under isomorphism, so a spec's level is what decorating for it
    alone would give, and the class reports and identity verdicts the
    algebras keep serve every spec.  The spec's cap was checked when it
    was built; n is checked against it here, for sizes above max_size.
    """
    spec.check_size(n)
    key = (n, spec.classes, spec.structure, spec.identities)
    if key not in _CORPUS_MEMO:
        identities = spec.identities
        if spec.structure == "distributive":
            identities = (*identities, "DIST")
        _CORPUS_MEMO[key] = [
            A for A in _bz_level(n, spec.cap_key(), jobs)
            if _admitted(A, spec.classes, identities)]
    yield from _CORPUS_MEMO[key]


def enumerate_all(spec, jobs=1):
    """Every size from 1 to spec.max_size, ascending."""
    for n in range(1, spec.max_size + 1):
        yield from enumerate_pbz(n, spec, jobs=jobs)


# ---------------------------------------------------------------------------
# search


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a smallest-counterexample search."""

    identity: str
    spec: EnumerationSpec
    found: object
    assignment: dict
    examined: int
    exhausted: bool

    def __bool__(self):
        return self.found is not None


def search_counterexample(identity, spec, jobs=1):
    """Smallest algebra in the spec's class failing the identity.

    Size is the primary order; within a size the corpus comes in the
    order of canonical bytes, and the first failing algebra is returned,
    so reruns return the identical algebra whatever the jobs count.  The
    jobs only spread the decoration of each level; the identity is
    checked in this process.  When nothing fails up to spec.max_size the
    result says exhausted rather than claiming the identity holds
    everywhere.
    """
    if isinstance(identity, str):
        identity = terms.parse_statement(identity)
    examined = 0
    for n in range(1, spec.max_size + 1):
        level = list(enumerate_pbz(n, spec, jobs=jobs))
        examined += len(level)
        for A in level:
            ok, witness = terms.holds(A, identity)
            if not ok:
                return SearchResult(terms.pretty(identity), spec, A, witness,
                                    examined, False)
    return SearchResult(terms.pretty(identity), spec, None, None,
                        examined, True)


# ---------------------------------------------------------------------------
# corpus claims


@dataclass(frozen=True)
class CorpusReport:
    claim: str
    spec: EnumerationSpec
    examined: int
    checked: int
    failures: tuple

    @property
    def ok(self):
        return self.checked > 0 and not self.failures

    @property
    def vacuous(self):
        return self.checked == 0


@dataclass(frozen=True)
class _Claim:
    """A registered claim: its text, its hypotheses (class flags, THEORY
    identities and subdirect irreducibility) and its conclusions (class
    flags and THEORY identities), each read by ``axioms.satisfies``.
    The optional check covers the rest of the conclusion: it returns a
    tuple saying what fails, empty when nothing does, or None for an
    algebra outside a hypothesis the declaration cannot state."""

    text: str
    check: object = None
    classes: tuple = ()
    identities: tuple = ()
    si: bool = False
    conclusions: tuple = ()


def _sharp_sets_collapse(A):
    s = axioms.sharp_sets(A)
    if s.s_diamond == s.s_b == s.s_k:
        return ()
    return (sorted(s.s_k), sorted(s.s_diamond), sorted(s.s_b))


def _paraorthomodular_equivalence(A):
    report = axioms.classify(A)
    if report.paraorthomodular == report.diamond_orthomodular:
        return ()
    return (report.paraorthomodular, report.diamond_orthomodular)


def _small_kleene_chain(A):
    if A.n > 5:
        return (f"unexpected size {A.n}",)
    if is_isomorphic(A, _kleene_chain(A.n)):
        return ()
    return ("not a Kleene chain",)


def _kleene_chain(n):
    order, kleene = _chain_pair(n)
    return FiniteAlgebra._from_order(order, kleene, _trivial_brouwer(order),
                                     name=f"D{n}")


def _chain_is_kleene_chain(A):
    if any(not A.le(a, b) and not A.le(b, a)
           for a in range(A.n) for b in range(a + 1, A.n)):
        return None
    if is_isomorphic(A, _kleene_chain(A.n)):
        return ()
    return ("not the Kleene chain of its size",)


def _cones_cover(A):
    c = constructions.cones(A)
    if c.negative | c.positive == frozenset(range(A.n)):
        return ()
    return ("cones do not cover the universe",)


def _no_disjoint_nonzero_pair(A):
    for a in range(A.n):
        for b in range(A.n):
            if A.meet(a, b) == A.zero and A.zero not in (a, b):
                return (f"disjoint nonzero pair {(a, b)}",)
    return ()


def _horizontal_sum_agreement(A):
    rep = constructions.is_horizontal_sum_of_blocks(A)
    if rep.agree:
        return ()
    return (rep.by_conditions, rep.by_blocks, rep.conditions)


def _agreement_relations(A):
    probs = []
    pos = constructions.cones(A).positive
    crel = {}
    for p in range(A.n):
        r = congruences.agreement_below(A, p)
        crel[p] = r.partition
        if not r.is_congruence:
            probs.append(("not-congruence", p, r.witness))
        if (r.partition.is_identity()) != (p in pos):
            probs.append(("trivial-iff-positive", p))
        both = congruences.meet_congruences(r.partition,
                                            congruences.agreement_below(
                                                A, A.kleene[p]).partition)
        if not both.is_identity():
            probs.append(("p-meet-kleene-p", p))
    for p in range(A.n):
        for q in range(A.n):
            lhs = congruences.meet_congruences(crel[p], crel[q])
            if lhs != crel[A.join(p, q)]:
                probs.append(("meet-vs-join", p, q))
    fam = congruences.tilde_family_report(A)
    if not (fam.precondition_ok and fam.tilde_is_congruence
            and fam.meet_relations_ok and fam.join_relations_ok
            and fam.one_of_each_trivial):
        probs.append(("tilde-family", fam.witness))
    return tuple(probs)


_AOL_BASIS = ("AOL1", "AOL2", "AOL3")

_CLAIMS = {
    "sharp-sets-collapse": _Claim(
        "on paraorthomodular BZ*-algebras the Kleene, Brouwer and "
        "join-complement sharp sets coincide", _sharp_sets_collapse,
        classes=("bz-star", "paraorthomodular")),
    "paraorthomodular-equivalence": _Claim(
        "on BZ*-algebras paraorthomodularity and diamond-orthomodularity "
        "agree", _paraorthomodular_equivalence, classes=("bz-star",)),
    "si-distributive-sdm-chains": _Claim(
        "subdirectly irreducible distributive strong-De-Morgan "
        "antiortholattices are the Kleene chains with 2..5 elements",
        _small_kleene_chain, classes=("antiortholattice",),
        identities=("DIST", "SDM"), si=True),
    # "A is a chain" is neither a flag nor an identity, so the check
    # skips the other PBZ*-lattices itself
    "pbz-chains-are-kleene-chains": _Claim(
        "every PBZ* chain is the Kleene chain of its size and satisfies "
        "DIST and SDM", _chain_is_kleene_chain, classes=("pbz-star",),
        conclusions=("antiortholattice", "DIST", "SDM")),
    # Direct indecomposability needs no check of its own: a subdirectly
    # irreducible algebra is directly indecomposable.  If A were B x C
    # with B and C nontrivial, the kernels of the two projections would
    # be nonzero congruences meeting in the identity, and A would have
    # no monolith.
    "si-aol-basis-structure": _Claim(
        "s.i. PBZ* algebras satisfying AOL1-3 are antiortholattices and "
        "directly indecomposable", classes=("pbz-star",),
        identities=_AOL_BASIS, si=True, conclusions=("antiortholattice",)),
    # The literal covering claim.  Known to fail: the 7-element
    # antiortholattice obtained by padding the diamond M3 with a new
    # bottom and top is subdirectly irreducible (its congruences form a
    # 3-chain) yet its swapped coatoms are incomparable to their
    # involutes.  Kept verbatim so the refutation stays visible;
    # si-aol-basis-cones-distributive adds distributivity to the
    # hypotheses, which only pushes the first failure to size 10.
    "si-aol-basis-cones": _Claim(
        "s.i. PBZ* algebras satisfying AOL1-3 have every element "
        "comparable to its involute (literal claim; refuted at size 7)",
        _cones_cover, classes=("pbz-star",), identities=_AOL_BASIS,
        si=True),
    # The covering claim for distributive algebras.  It holds on every
    # antiortholattice up to size 9 and fails on one of size 10, whose
    # covers are 0<g 0<h a<1 b<1 c<b d<a d<b e<d f<c f<d g<f h<e h<f
    # and whose ' swaps a<->g, b<->h, c<->e and d<->f: it is distributive
    # and subdirectly irreducible, yet c and c' = e are incomparable.
    "si-aol-basis-cones-distributive": _Claim(
        "s.i. distributive PBZ* algebras satisfying AOL1-3 have every "
        "element comparable to its involute (holds up to size 9; "
        "refuted at size 10)",
        _cones_cover, classes=("pbz-star",),
        identities=_AOL_BASIS + ("DIST",), si=True),
    # Identities only.  Disjointness of nonzero pairs is NOT implied
    # under these hypotheses: the four-element Boolean algebra is a
    # product of two 2-chains, hence satisfies every antiortholattice
    # identity plus SK, yet its atoms meet to 0.  See aol-sk-collapse
    # for the version with the honest antiortholattice hypothesis.
    "sk-implies-distributive-sdm": _Claim(
        "PBZ* + AOL1-3 + SK forces DIST and SDM", classes=("pbz-star",),
        identities=_AOL_BASIS + ("SK",), conclusions=("DIST", "SDM")),
    "aol-sk-collapse": _Claim(
        "an antiortholattice satisfying SK has no disjoint nonzero pair "
        "and satisfies SDM", _no_disjoint_nonzero_pair,
        classes=("antiortholattice",), identities=("SK",),
        conclusions=("SDM",)),
    "sdm-meet-distributivity": _Claim(
        "PBZ* + AOL1-3 + SK + SDM forces the stepwise meet-distributivity "
        "chain and full DIST", classes=("pbz-star",),
        identities=_AOL_BASIS + ("SK", "SDM"),
        conclusions=("DCHAIN1", "DCHAIN2", "DCHAIN3", "DCHAIN4", "DIST")),
    "horizontal-sum-conditions": _Claim(
        "the four pairwise conditions hold iff the algebra is the "
        "horizontal sum of its blocks", _horizontal_sum_agreement,
        classes=("pbz-star",)),
    "si-agreement-relations": _Claim(
        "agreement-below-p relations on s.i. distributive strong-De-"
        "Morgan antiortholattices: congruences, trivial exactly at "
        "positive p, intersections multiplicative, tilde family behaves",
        _agreement_relations, classes=("antiortholattice",),
        identities=("DIST", "SDM"), si=True),
}


def claim_names():
    return sorted(_CLAIMS)


def verify_over_corpus(claim, spec):
    """Evaluate a registered claim on every algebra the spec reaches.

    Algebras outside the claim's hypotheses are skipped (counted as
    examined, not checked); a report with zero checked algebras says
    vacuous rather than ok.  A failure's detail is the tuple of the
    check's problems followed by ``fails NAME`` for each conclusion not
    met.  Failures come in corpus order: by size, then by canonical
    bytes.
    """
    if claim not in _CLAIMS:
        raise KeyError(f"unknown claim {claim!r}; see claim_names()")
    entry = _CLAIMS[claim]
    examined = 0
    checked = 0
    failures = []
    for A in enumerate_all(spec):
        examined += 1
        if not _admitted(A, entry.classes, entry.identities) or (
                entry.si and not congruences.is_subdirectly_irreducible(A)[0]):
            continue
        problems = () if entry.check is None else entry.check(A)
        if problems is None:
            continue
        checked += 1
        problems += tuple(f"fails {name}" for name in entry.conclusions
                          if not axioms.satisfies(A, name))
        if problems:
            failures.append((A, problems))
    return CorpusReport(claim, spec, examined, checked, tuple(failures))
