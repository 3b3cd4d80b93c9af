"""Exhaustive model generation at desk scale.

Every class the workbench decorates lies inside the pseudo-Kleene
lattices, so every corpus is grown from pseudo-Kleene pairs (a lattice
with its involution), built directly by inserting an atom together
with its coatom image; a chain corpus starts from the chain and its
reversal.  The pairs are grown by canonical augmentation: each
isomorphism class comes out once, with no set of the classes seen
and no canonical form computed only to find a duplicate.  Each pair
is decorated with the Brouwer complements read off its sharp sets.
The decorated level of a size is built once per cap key, as
canonical copies (every algebra renumbered along its canonical
ordering) sorted by canonical bytes, and each spec's level is the
sublist its class flags and identities keep, a distributive structure
counting as the identity DIST.  So the specs share algebra
objects and what those keep.  What a level holds, in which copy and
in what order, depends only on its isomorphism classes and not on the
generator.  Bare lattices are grown by atom insertion with
canonical-form deduplication.  On top of that sit a smallest
counterexample search and a registry of corpus-wide claims.  Each
claim declares its hypotheses and conclusions as class flags and
THEORY statements, read by name through ``axioms.satisfies``; a check
function is left only for what no flag or statement states.
Decoration, filters, identity checks and claim checks all run in the
calling process, over each level in its canonical order.

Results are kept per carrier, through ``_Carrier._keep`` (class
reports, verdicts, canonical forms, blocks, reach sets), and per
process, in the functools caches on ``_lattices``, ``_pk_pairs``,
``_bz_level``, ``_kleene_chain`` and ``cli.build_parser``; nothing is
kept per spec.  Statements are interned in ``terms._STATEMENT_MEMO``.

Size caps are checked when a spec is built, so ``CAPS`` must be
raised before building a spec that goes beyond them.
"""

import functools
from dataclasses import dataclass

from . import axioms, congruences, constructions, terms
from .core import (BoundedLattice, FiniteAlgebra, _bits, _canon_bytes,
                   _canonical_search_group, _check_order, _orbit,
                   _refine_colors, _set_index, canonical_copy, canonical_form,
                   chain_lattice)
# The benchmark's tracer (perfbench/spans.py) looks up
# enumeration.canonical_form and enumeration.is_isomorphic by name when
# it installs, so both stay importable from here, though no code in this
# module calls is_isomorphic any more.
from .core import is_isomorphic  # noqa: F401

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


@functools.cache
def _lattices(n):
    """All lattices of size n, one per isomorphism class.
    Extensions are deduplicated on the canonical bytes of their masks,
    so only the kept ones are built and validated."""
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
    return [BoundedLattice([[u >> b & 1 for b in range(n)] for u in up])
            for up in kept]


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
    Those sets are the unions of {0, 1} with '-orbits of S_K.  When the
    pair is pseudo-Kleene, each S holding its joins gives a BZ-lattice.
    For s = a~ in S: s <= a', so a <= s' and a ^ a~ <= s' ^ s = 0 (BZ1,
    and BZ2 with BZ4); a <= b gives b' <= a', so b~ <= a~ (BZ3); s' is
    in S, so a~~ = s~ = s' (BZ4).  S is the image of its map (s'~ = s),
    so distinct sets give distinct maps.
    """
    order = L._ord
    if not axioms.is_pseudo_kleene(FiniteAlgebra._from_order(
            order, kleene, _trivial_brouwer(order)))[0]:
        return []
    n, zero, one, join = order.n, order.zero, order.one, order.join
    orbits = [a for a in _sharp_interior(order, kleene) if a < kleene[a]]
    maps = []
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
        if all(S >> t & 1 for t in tilde):
            maps.append(tuple(tilde))
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


def _byte_images(g, x):
    """Images of subsets of 0..x-1 under the permutation g, one table
    per byte of the mask: entry v of table k is the mask of the images
    of the elements 8k + b for the bits b set in v."""
    tables = []
    for start in range(0, x, 8):
        table = [0]
        for b in range(start, min(start + 8, x)):
            table += [v | 1 << g[b] for v in table]
        tables.append(table)
    return tables


def _orbit_representatives(insertions, gens, x):
    """The first of each orbit of pair insertions under the parent's
    automorphisms, given as generators.  An insertion is fixed by the
    up-set of its atom x, on which an automorphism acts through the
    parent's elements; following the generators from each kept one
    marks its orbit without closing the group.  Each generator maps a
    mask a byte at a time, through tables built once per parent."""
    parent = (1 << x) - 1
    images = [_byte_images(g, x) for g in gens]
    covered = set()
    for up, kleene in insertions:
        if up[x] in covered:
            continue
        yield up, kleene
        covered.add(up[x])
        stack = [up[x]]
        while stack:
            mask = stack.pop()
            for tables in images:
                img, low = mask & ~parent, mask & parent
                for table in tables:
                    img |= table[low & 255]
                    low >>= 8
                if img not in covered:
                    covered.add(img)
                    stack.append(img)


def _pk_candidates(n):
    """The insertion into each pair of size n-1, and one insertion per
    orbit of its automorphism group into each pair of size n-2, for
    n >= 3.  The inserted atom is the image of the last element."""
    for order, kleene in _pk_pairs(n - 1):
        yield _fixed_insertion(order, kleene)
    if n >= 4:
        for order, kleene in _pk_pairs(n - 2):
            gens = _canonical_search_group(n - 2, order.up, (kleene,))[2]
            yield from _orbit_representatives(
                _pair_insertions(order, kleene), gens, n - 2)


def _top_degree_atoms(up, x):
    """The atoms with the most strict upper bounds, as a mask, when the
    inserted atom x is one of them, and 0 when another atom has more.

    That is the top class among the atoms after the first round of
    ``_refine_colors``, which ranks an element by its numbers of strict
    lower bounds, strict upper bounds and preimages: an atom has one
    strict lower bound, 0, and one preimage under the involution.  Only
    the up-set masks are read, so a candidate can be tested before it is
    checked: its zero is the element below all, and its atoms are the
    other elements above no element but 0 and themselves."""
    full = (1 << len(up)) - 1
    zero = above = 0
    for a, m in enumerate(up):
        if m == full:
            zero = 1 << a
        else:
            above |= m & ~(1 << a)
    degree = up[x].bit_count()
    top = 0
    for a in _bits(full & ~above & ~zero):
        d = up[a].bit_count()
        if d > degree:
            return 0
        if d == degree:
            top |= 1 << a
    return top


def _in_canonical_orbit(order, kleene, tied):
    """Whether the inserted atom x = kleene[-1] of a pseudo-Kleene pair
    lies in its canonical orbit: the orbit, under the pair's
    automorphisms, of the first atom of largest color in its canonical
    ordering.  ``tied`` is the first round's top class among the atoms,
    which holds x (``_top_degree_atoms``); the atoms of largest color lie
    in it.  Colors are invariants, so an atom of a smaller color is not
    in the orbit and the only atom of the largest color is the whole of
    it; only a tie after refinement needs the canonical search."""
    n, up = order.n, order.up
    x = kleene[-1]
    if tied == 1 << x:
        return True
    col = _refine_colors(n, up, order.down, (kleene,))
    top = max(col[a] for a in _bits(tied))
    if col[x] != top:
        return False
    tied = [a for a in _bits(tied) if col[a] == top]
    if len(tied) == 1:
        return True
    ordering, _, gens = _canonical_search_group(n, up, (kleene,), col)
    first = next(a for a in ordering if a in tied)
    return bool(_orbit(first, gens) >> x & 1)


@functools.cache
def _pk_pairs(n):
    """Pseudo-Kleene pairs (order, kleene) of size n, one per isomorphism
    class.

    PK is hereditary: removing an atom x of a PK pair together with the
    coatom x' (only x when x' = x) leaves a PK pair, since meets can
    only fall and joins only rise.  So every pair of size n >= 3 is an
    insertion of an atom, with its image, into a pair of size n-1
    (x = x') or n-2.  The pairs are grown by canonical augmentation
    (McKay, J. Algorithms 26, 1998): a child is kept only when it is a
    lattice, is PK and has its inserted atom in its canonical orbit
    (``_in_canonical_orbit``), with no set of the classes seen.  The
    orbit is an invariant: an isomorphism carries one pair's canonical
    orbit onto the other's.

    The cheapest test runs first, on the candidate's masks.  Refinement
    only splits color classes and keeps their order, since every
    round's signature leads with the element's last color; so the atoms
    of largest final color are among the atoms with the most strict
    upper bounds, the first round's top class among the atoms.  A
    candidate whose atom is not among those (``_top_degree_atoms``) is
    not kept whatever its checks would say, so it is dropped before
    them; an atom alone among them has the largest color alone, and its
    child is kept with no refinement.

    - Complete.  Remove from a pair C an atom m of its canonical orbit,
      with m'.  What is left is a PK pair, isomorphic to a parent P in
      the list, and the insertion into P that gives C back lies in an
      orbit of P's automorphisms whose first member is inserted.  That
      child is isomorphic to C by a map taking its atom into m's orbit,
      so it is kept.
    - Unique.  Two kept children that are isomorphic have their inserted
      atoms in their canonical orbits, so some isomorphism takes the
      one atom to the other, and, preserving ', the one image to the
      other.  The parents are then isomorphic, hence the same pair of
      the list, and the isomorphism restricts to an automorphism of it
      carrying one insertion onto the other: the same orbit, only one
      of whose members is inserted.
    """
    if n <= 2:
        return [_chain_pair(n)]
    pairs = []
    for up, kleene in _pk_candidates(n):
        tied = _top_degree_atoms(up, kleene[-1])
        if not tied:
            continue
        order, _ = _check_order(up)
        if order is None or not axioms.is_pseudo_kleene(
                FiniteAlgebra._from_order(order, kleene,
                                          _trivial_brouwer(order)))[0]:
            continue
        if _in_canonical_orbit(order, kleene, tied):
            pairs.append((order, kleene))
    return pairs


# ---------------------------------------------------------------------------
# corpora


def _admit(level, classes, identities):
    """The algebras of one level that have every class flag and satisfy
    every THEORY identity named, in order: a spec's filters or a claim's
    hypotheses.  Each filter narrows the survivors of the one before:
    a class flag is read per algebra, an identity is checked over them
    all at once (``terms.holds_each``)."""
    kept = level
    for name in classes:
        kept = [A for A in kept if axioms.satisfies(A, name)]
    for name in identities:
        kept = [A for A, (ok, _) in
                zip(kept, terms.holds_each(kept, terms.THEORY[name])) if ok]
    return kept


def _decorations(order, kleene):
    """Canonical copies of the BZ decorations of one pseudo-Kleene pair."""
    # the Brouwer search reads only the order of the pair with trivial ~
    A = FiniteAlgebra._from_order(order, kleene, _trivial_brouwer(order))
    return [canonical_copy(FiniteAlgebra._from_order(order, kleene, brouwer))
            for brouwer in bz_brouwer_maps(A, kleene)]


@functools.cache
def _bz_level(n, cap_key):
    """Every BZ decoration of size n under a cap key, one canonical copy
    per isomorphism class in the order of canonical bytes: the level
    every spec with that cap key narrows.  The cap key picks the
    pairs decorated: the Kleene chain for "chain", every pseudo-Kleene
    pair for "general", and for "antiortholattice" the pairs with
    S_K = {0, 1}, which are exactly the antiortholattices: on such a
    pair the only Brouwer map is the trivial one, and with it the pair
    is a PBZ*-lattice."""
    if cap_key == "chain":
        pairs = [_chain_pair(n)]
    elif cap_key == "antiortholattice":
        pairs = [(order, kleene) for order, kleene in _pk_pairs(n)
                 if not _sharp_interior(order, kleene)]
    else:
        pairs = _pk_pairs(n)
    copies = {}
    for order, kleene in pairs:
        for A in _decorations(order, kleene):
            copies.setdefault(canonical_form(A), A)
    return [copies[cf] for cf in sorted(copies)]


def enumerate_pbz(n, spec):
    """All algebras of size n matching the spec, up to isomorphism, each
    as its canonical copy, in the order of their canonical bytes.

    The base corpus is BZ-lattices (every class the workbench cares
    about lives inside BZ), and every BZ-lattice is a pseudo-Kleene pair
    with a Brouwer map.  So each pair of size n (the n-chain with its
    reversal for structure "chain") is decorated with each Brouwer map
    bz_brouwer_maps reads off its sharp sets.  That decorated level is
    built once per size and cap key, and every spec sharing them
    narrows the same algebras by its class flags and identities
    (``_admit``); structure "distributive" narrows by DIST, as
    ``--require DIST`` does.  Flags and verdicts do not change
    under isomorphism, so a spec's level is what decorating for it
    alone would give, and the class reports and identity verdicts the
    algebras keep serve every spec.  The spec's cap was checked when it
    was built; n is checked against it here, for sizes above max_size.
    """
    spec.check_size(n)
    identities = spec.identities
    if spec.structure == "distributive":
        identities = (*identities, "DIST")
    yield from _admit(_bz_level(n, spec.cap_key()), spec.classes, identities)


def enumerate_all(spec):
    """Every size from 1 to spec.max_size, ascending."""
    for n in range(1, spec.max_size + 1):
        yield from enumerate_pbz(n, spec)


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


def search_counterexample(identity, spec):
    """Smallest algebra in the spec's class failing the identity.

    Size is the primary order; within a size the corpus comes in the
    order of canonical bytes, and the first failing algebra is returned,
    so reruns return the identical algebra.  The identity is checked
    over a whole level at once (``terms.holds_each``).  When nothing
    fails up to spec.max_size the result says exhausted rather than
    claiming the identity holds everywhere.
    """
    if isinstance(identity, str):
        identity = terms.parse_statement(identity)
    examined = 0
    for n in range(1, spec.max_size + 1):
        level = list(enumerate_pbz(n, spec))
        examined += len(level)
        for A, (ok, witness) in zip(level, terms.holds_each(level, identity)):
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
    statements and subdirect irreducibility) and its conclusions (class
    flags and THEORY statements), each read by ``axioms.satisfies``.
    The optional check covers the rest of the conclusion: it returns a
    tuple saying what fails, empty when nothing does."""

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
    return _chain_is_kleene_chain(A)


@functools.cache
def _kleene_chain(n):
    order, kleene = _chain_pair(n)
    return FiniteAlgebra._from_order(order, kleene, _trivial_brouwer(order),
                                     name=f"D{n}")


def _chain_is_kleene_chain(A):
    # canonical forms are equal exactly for isomorphic algebras, and both
    # sides keep theirs, so a warm check runs no canonical search
    if canonical_form(A) == canonical_form(_kleene_chain(A.n)):
        return ()
    return ("not the Kleene chain of its size",)


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
    "pbz-chains-are-kleene-chains": _Claim(
        "every PBZ* chain is the Kleene chain of its size and satisfies "
        "DIST and SDM", _chain_is_kleene_chain, classes=("pbz-star",),
        identities=("CHAIN",),
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
        classes=("pbz-star",), identities=_AOL_BASIS, si=True,
        conclusions=("CONES",)),
    # The covering claim for distributive algebras.  It holds on every
    # antiortholattice up to size 9 and fails on one of size 10, whose
    # covers are 0<g 0<h a<1 b<1 c<b d<a d<b e<d f<c f<d g<f h<e h<f
    # and whose ' swaps a<->g, b<->h, c<->e and d<->f: it is distributive
    # and subdirectly irreducible, yet c and c' = e are incomparable.
    "si-aol-basis-cones-distributive": _Claim(
        "s.i. distributive PBZ* algebras satisfying AOL1-3 have every "
        "element comparable to its involute (holds up to size 9; "
        "refuted at size 10)",
        classes=("pbz-star",), identities=_AOL_BASIS + ("DIST",), si=True,
        conclusions=("CONES",)),
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
        "and satisfies SDM", classes=("antiortholattice",),
        identities=("SK",), conclusions=("NODISJ", "SDM")),
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
    for n in range(1, spec.max_size + 1):
        level = list(enumerate_pbz(n, spec))
        examined += len(level)
        for A in _admit(level, entry.classes, entry.identities):
            if entry.si and not congruences.is_subdirectly_irreducible(A)[0]:
                continue
            checked += 1
            problems = () if entry.check is None else entry.check(A)
            problems += tuple(f"fails {name}" for name in entry.conclusions
                              if not axioms.satisfies(A, name))
            if problems:
                failures.append((A, problems))
    return CorpusReport(claim, spec, examined, checked, tuple(failures))
