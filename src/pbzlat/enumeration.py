"""Exhaustive model generation at desk scale.

Every class the workbench decorates lies inside the pseudo-Kleene
lattices, so every corpus is grown from pseudo-Kleene pairs (a lattice
with its involution), built directly by inserting an atom together
with its coatom image; a chain corpus starts from the chain and its
reversal.  Each pair is decorated with the Brouwer complements read
off its sharp sets, and classify and the spec's filters keep what
belongs to the corpus.  Each level is emitted as canonical copies
(every algebra renumbered along its canonical ordering) sorted by
canonical bytes, so what a level holds, in which copy and in what
order, depends only on its isomorphism classes and not on the
generator or the jobs count.  Bare lattices are grown by atom
insertion with canonical-form deduplication.  On top of that sit a
smallest counterexample search and a registry of corpus-wide claims.
"""

import atexit
import os
from dataclasses import dataclass

from . import axioms, congruences, terms
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

_CLASS_FLAGS = frozenset((
    "bounded-involution", "pseudo-kleene", "ortholattice", "orthomodular",
    "paraorthomodular", "bz", "bz-star", "diamond-orthomodular", "pbz-star",
    "kleene-sharp-trivial", "antiortholattice",
))
_STRUCTURES = (None, "chain", "distributive", "antiortholattice")


@dataclass(frozen=True)
class EnumerationSpec:
    """What to generate: size bound, required class flags, an optional
    structural restriction that changes the strategy, and identities
    from the built-in theory that must hold."""

    max_size: int
    classes: tuple = ()
    structure: str = None
    identities: tuple = ()

    def __post_init__(self):
        if self.max_size < 1:
            raise ValueError("max_size must be positive")
        unknown = [c for c in self.classes if c not in _CLASS_FLAGS]
        if unknown:
            raise ValueError(f"unknown class flags: {unknown}")
        if self.structure not in _STRUCTURES:
            raise ValueError(f"unknown structure: {self.structure!r}")
        unknown = [i for i in self.identities if i not in terms.THEORY]
        if unknown:
            raise ValueError(f"unknown theory identities: {unknown}")

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
        """Raise ValueError when size n is above this spec's cap."""
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
        pairs = [(chain_lattice(n)._ord, tuple(range(n))[::-1])]
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


def _admitted(A, spec):
    """Whether a BZ-lattice passes the spec's class and identity
    filters."""
    flags = axioms.classify(A).flags()
    return (all(flags[c] for c in spec.classes)
            and all(terms.holds(A, terms.THEORY[i])[0]
                    for i in spec.identities))


def _decorations(args):
    """Canonical copies of the admitted BZ decorations of one
    pseudo-Kleene pair.  Module-level so worker processes can import it."""
    order, kleene, spec = args
    # the pair with the trivial ~; DIST and the Brouwer search read
    # only its order
    pair = FiniteAlgebra._from_order(order, kleene, _trivial_brouwer(order))
    if spec.structure == "distributive" and \
            not terms.holds(pair, terms.THEORY["DIST"])[0]:
        return []
    out = []
    for brouwer in bz_brouwer_maps(pair, kleene):
        A = FiniteAlgebra._from_order(order, kleene, brouwer)
        if _admitted(A, spec):
            out.append(canonical_copy(A))
    return out


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


def _candidates(n, spec, jobs):
    """Canonical copies of every admitted algebra of size n, possibly
    with repeats.  The antiortholattices are exactly the pairs with
    S_K = {0, 1}: on such a pair the only Brouwer map is the trivial
    one, and with it the pair is a PBZ*-lattice."""
    if spec.structure == "chain":
        pairs = [(chain_lattice(n)._ord, tuple(range(n))[::-1])]
    else:
        pairs = _pk_pairs(n)
    if spec.cap_key() == "antiortholattice":
        pairs = [(order, kleene) for order, kleene in pairs
                 if not _sharp_interior(order, kleene)]
    levels = _map_jobs(_decorations, [(order, kleene, spec)
                                      for order, kleene in pairs], jobs)
    return [A for level in levels for A in level]


def enumerate_pbz(n, spec, jobs=1):
    """All algebras of size n matching the spec, up to isomorphism, each
    as its canonical copy, in the order of their canonical bytes.

    The base corpus is BZ-lattices (every class the workbench cares
    about lives inside BZ), and every BZ-lattice is a pseudo-Kleene pair
    with a Brouwer map.  So each pair of size n (the n-chain with its
    reversal for structure "chain") is decorated with each Brouwer map
    bz_brouwer_maps reads off its sharp sets, and spec.classes, the
    identities and the structure narrow the result.  The pairs are
    spread over the jobs.
    """
    spec.check_size(n)
    key = (n, spec.classes, spec.structure, spec.identities)
    if key not in _CORPUS_MEMO:
        copies = {}
        for A in _candidates(n, spec, jobs):
            copies.setdefault(canonical_form(A), A)
        _CORPUS_MEMO[key] = [copies[cf] for cf in sorted(copies)]
    yield from _CORPUS_MEMO[key]


def enumerate_all(spec, jobs=1):
    """Every size from 1 to spec.max_size, ascending."""
    spec.check_size(spec.max_size)
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


def _check_identity(args):
    A, identity = args
    return terms.holds(A, identity)


def search_counterexample(identity, spec, jobs=1):
    """Smallest algebra in the spec's class failing the identity.

    Size is the primary order; canonical form bytes break ties, so
    reruns return the identical algebra whatever the jobs count.  When
    nothing fails up to spec.max_size the result says exhausted rather
    than claiming the identity holds everywhere.
    """
    spec.check_size(spec.max_size)
    if isinstance(identity, str):
        identity = terms.parse_statement(identity)
    examined = 0
    for n in range(1, spec.max_size + 1):
        level = list(enumerate_pbz(n, spec, jobs=jobs))
        examined += len(level)
        verdicts = _map_jobs(_check_identity,
                             [(A, identity) for A in level], jobs)
        failures = [(canonical_form(A), A, witness)
                    for A, (ok, witness) in zip(level, verdicts) if not ok]
        if failures:
            failures.sort(key=lambda t: t[0])
            _, A, witness = failures[0]
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


def _sharp_sets_collapse(A, flags):
    if not (flags["bz-star"] and flags["paraorthomodular"]):
        return None
    s = axioms.sharp_sets(A)
    if s.s_diamond == s.s_b == s.s_k:
        return True, None
    return False, (sorted(s.s_k), sorted(s.s_diamond), sorted(s.s_b))


def _paraorthomodular_equivalence(A, flags):
    if not flags["bz-star"]:
        return None
    if flags["paraorthomodular"] == flags["diamond-orthomodular"]:
        return True, None
    return False, (flags["paraorthomodular"], flags["diamond-orthomodular"])


def _si_distributive_sdm(A, flags):
    if not flags["antiortholattice"]:
        return None
    for name in ("DIST", "SDM"):
        if not terms.holds(A, terms.THEORY[name])[0]:
            return None
    si, _ = congruences.is_subdirectly_irreducible(A)
    if not si:
        return None
    if A.n > 5:
        return False, f"unexpected size {A.n}"
    if is_isomorphic(A, _kleene_chain(A.n)):
        return True, None
    return False, "not a Kleene chain"


def _kleene_chain(n):
    L = chain_lattice(n)
    kleene = tuple(n - 1 - i for i in range(n))
    return FiniteAlgebra._from_order(L._ord, kleene, _trivial_brouwer(L),
                                     L.labels, f"D{n}")


def _chain_structure(A, flags):
    if not flags["pbz-star"]:
        return None
    if any(not A.le(a, b) and not A.le(b, a)
           for a in range(A.n) for b in range(a + 1, A.n)):
        return None
    probs = []
    if not flags["antiortholattice"]:
        probs.append("not an antiortholattice")
    for name in ("DIST", "SDM"):
        if not terms.holds(A, terms.THEORY[name])[0]:
            probs.append(f"fails {name}")
    if not is_isomorphic(A, _kleene_chain(A.n)):
        probs.append("not the Kleene chain of its size")
    return (True, None) if not probs else (False, tuple(probs))


def _satisfies_aol_basis(A):
    return all(terms.holds(A, terms.THEORY[k])[0]
               for k in ("AOL1", "AOL2", "AOL3"))


def _gate_si_aol_basis(A, flags):
    if not (flags["pbz-star"] and _satisfies_aol_basis(A)):
        return False
    si, _ = congruences.is_subdirectly_irreducible(A)
    return si


def _cones_cover(A):
    from .constructions import cones
    c = cones(A)
    return c.negative | c.positive == frozenset(range(A.n))


def _si_aol_basis_structure(A, flags):
    if not _gate_si_aol_basis(A, flags):
        return None
    probs = []
    if not flags["antiortholattice"]:
        probs.append("s.i. member is not an antiortholattice")
    if not congruences.is_directly_indecomposable(A):
        probs.append("not directly indecomposable")
    return (True, None) if not probs else (False, tuple(probs))


def _si_aol_basis_cones(A, flags):
    """The literal covering claim.  Known to fail: the 7-element
    antiortholattice obtained by padding the diamond M3 with a new
    bottom and top is subdirectly irreducible (its congruences form a
    3-chain) yet its swapped coatoms are incomparable to their
    involutes.  Kept verbatim so the refutation stays visible;
    si-aol-basis-cones-distributive adds distributivity to the
    hypotheses, which only pushes the first failure to size 10."""
    if not _gate_si_aol_basis(A, flags):
        return None
    if _cones_cover(A):
        return True, None
    return False, "cones do not cover the universe"


def _si_aol_basis_cones_distributive(A, flags):
    """The covering claim for distributive algebras.  It holds on every
    antiortholattice up to size 9 and fails on one of size 10, whose
    covers are 0<g 0<h a<1 b<1 c<b d<a d<b e<d f<c f<d g<f h<e h<f
    and whose ' swaps a<->g, b<->h, c<->e and d<->f: it is distributive
    and subdirectly irreducible, yet c and c' = e are incomparable."""
    if not (_gate_si_aol_basis(A, flags)
            and terms.holds(A, terms.THEORY["DIST"])[0]):
        return None
    if _cones_cover(A):
        return True, None
    return False, "cones do not cover the universe"


def _no_disjoint_nonzero_pair(A):
    for a in range(A.n):
        for b in range(A.n):
            if A.meet(a, b) == A.zero and A.zero not in (a, b):
                return (a, b)
    return None


def _sk_implies_distributive_sdm(A, flags):
    """Identities only.  Disjointness of nonzero pairs is NOT implied
    at this gate: the four-element Boolean algebra is a product of two
    2-chains, hence satisfies every antiortholattice identity plus SK,
    yet its atoms meet to 0.  See aol-sk-collapse for the version with
    the honest antiortholattice hypothesis."""
    if not (flags["pbz-star"] and _satisfies_aol_basis(A)
            and terms.holds(A, terms.THEORY["SK"])[0]):
        return None
    probs = []
    for name in ("DIST", "SDM"):
        if not terms.holds(A, terms.THEORY[name])[0]:
            probs.append(f"fails {name}")
    return (True, None) if not probs else (False, tuple(probs))


def _aol_sk_collapse(A, flags):
    if not (flags["antiortholattice"]
            and terms.holds(A, terms.THEORY["SK"])[0]):
        return None
    probs = []
    pair = _no_disjoint_nonzero_pair(A)
    if pair is not None:
        probs.append(f"disjoint nonzero pair {pair}")
    if not terms.holds(A, terms.THEORY["SDM"])[0]:
        probs.append("fails SDM")
    return (True, None) if not probs else (False, tuple(probs))


def _sdm_meet_distributivity(A, flags):
    if not (flags["pbz-star"] and _satisfies_aol_basis(A)
            and terms.holds(A, terms.THEORY["SK"])[0]
            and terms.holds(A, terms.THEORY["SDM"])[0]):
        return None
    probs = []
    for name in ("DCHAIN1", "DCHAIN2", "DCHAIN3", "DCHAIN4", "DIST"):
        ok, w = terms.holds(A, terms.THEORY[name])
        if not ok:
            probs.append((name, w))
    return (True, None) if not probs else (False, tuple(probs))


def _horizontal_sum_agreement(A, flags):
    if not flags["pbz-star"]:
        return None
    from .constructions import is_horizontal_sum_of_blocks
    rep = is_horizontal_sum_of_blocks(A)
    if rep.agree:
        return True, None
    return False, (rep.by_conditions, rep.by_blocks, rep.conditions)


def _si_agreement_relations(A, flags):
    if not flags["antiortholattice"]:
        return None
    for name in ("DIST", "SDM"):
        if not terms.holds(A, terms.THEORY[name])[0]:
            return None
    si, _ = congruences.is_subdirectly_irreducible(A)
    if not si:
        return None
    probs = []
    from .constructions import cones
    pos = cones(A).positive
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
    return (True, None) if not probs else (False, tuple(probs))


_CLAIMS = {
    "sharp-sets-collapse": (
        "on paraorthomodular BZ*-algebras the Kleene, Brouwer and "
        "join-complement sharp sets coincide", _sharp_sets_collapse),
    "paraorthomodular-equivalence": (
        "on BZ*-algebras paraorthomodularity and diamond-orthomodularity "
        "agree", _paraorthomodular_equivalence),
    "si-distributive-sdm-chains": (
        "subdirectly irreducible distributive strong-De-Morgan "
        "antiortholattices are the Kleene chains with 2..5 elements",
        _si_distributive_sdm),
    "pbz-chains-are-kleene-chains": (
        "every PBZ* chain is the Kleene chain of its size and satisfies "
        "DIST and SDM", _chain_structure),
    "si-aol-basis-structure": (
        "s.i. PBZ* algebras satisfying AOL1-3 are antiortholattices and "
        "directly indecomposable", _si_aol_basis_structure),
    "si-aol-basis-cones": (
        "s.i. PBZ* algebras satisfying AOL1-3 have every element "
        "comparable to its involute (literal claim; refuted at size 7)",
        _si_aol_basis_cones),
    "si-aol-basis-cones-distributive": (
        "s.i. distributive PBZ* algebras satisfying AOL1-3 have every "
        "element comparable to its involute (holds up to size 9; "
        "refuted at size 10)",
        _si_aol_basis_cones_distributive),
    "sk-implies-distributive-sdm": (
        "PBZ* + AOL1-3 + SK forces DIST and SDM",
        _sk_implies_distributive_sdm),
    "aol-sk-collapse": (
        "an antiortholattice satisfying SK has no disjoint nonzero pair "
        "and satisfies SDM", _aol_sk_collapse),
    "sdm-meet-distributivity": (
        "PBZ* + AOL1-3 + SK + SDM forces the stepwise meet-distributivity "
        "chain and full DIST", _sdm_meet_distributivity),
    "horizontal-sum-conditions": (
        "the four pairwise conditions hold iff the algebra is the "
        "horizontal sum of its blocks", _horizontal_sum_agreement),
    "si-agreement-relations": (
        "agreement-below-p relations on s.i. distributive strong-De-"
        "Morgan antiortholattices: congruences, trivial exactly at "
        "positive p, intersections multiplicative, tilde family behaves",
        _si_agreement_relations),
}


def claim_names():
    return sorted(_CLAIMS)


def verify_over_corpus(claim, spec):
    """Evaluate a registered claim on every algebra the spec reaches.

    Algebras outside the claim's hypotheses are skipped (counted as
    examined, not checked); a report with zero checked algebras says
    vacuous rather than ok.
    """
    if claim not in _CLAIMS:
        raise KeyError(f"unknown claim {claim!r}; see claim_names()")
    _, fn = _CLAIMS[claim]
    examined = 0
    checked = 0
    failures = []
    for A in enumerate_all(spec):
        examined += 1
        flags = axioms.classify(A).flags()
        res = fn(A, flags)
        if res is None:
            continue
        checked += 1
        ok, detail = res
        if not ok:
            failures.append((canonical_form(A), A, detail))
    failures.sort(key=lambda t: t[0])
    return CorpusReport(claim, spec, examined, checked,
                        tuple((A, d) for _, A, d in failures))
