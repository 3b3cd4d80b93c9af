"""Exhaustive model generation at desk scale.

Every class the workbench decorates lies inside the pseudo-Kleene
lattices, so every corpus is grown from pseudo-Kleene pairs (a lattice
with its involution), built directly by inserting an atom together
with its coatom image; a chain corpus starts from the chain and its
reversal.  The pairs are grown by canonical augmentation: each
isomorphism class comes out once, with no set of the classes seen
and no canonical form computed only to find a duplicate.  A parent
takes one insertion per orbit of its automorphisms, and colors decide
unless they tie: its insertions are told apart by the colors of the
elements above the new atom and whether the atom lies below its
image, which every automorphism preserves, so the parent's group is
searched only when two of them agree.  The antiortholattice pairs,
whose only Kleene-sharp elements are 0 and 1, are grown on their own
route (``_aol_pairs``).  An insertion of x and x' gives one exactly
when x < x' and every sharp element of the parent lies above x, and
an insertion of x = x' exactly when the parent is one.  So the pairs
of size n come from the narrowed pair insertions into all pairs of
size n-2 and the fixed insertions into the antiortholattice pairs of
size n-1, and the pseudo-Kleene pairs of sizes n-1 and n are never
built for them.  Each pair is decorated with the Brouwer complements
read off its sharp sets, one per orbit of its automorphisms on them,
each copied by a canonical search that starts from the automorphisms
the pair and the decoration share (``_decorations``).
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
THEORY statements, universal clauses among them, read by name a level
at a time by ``_admit``: the hypotheses, then the conclusions over the
level's members; a check function is left only for what no flag or
clause states (an equivalence, a size bound, a report), and it too
takes a level, with a mask of its members.  Decoration, filters,
identity checks and claim checks all run in the calling process, over
each level in its canonical order.

Results are kept per carrier, through ``_Carrier._keep`` (canonical
forms and class reports, the only results a reader reads again); per
level, as masks over its members saying which of them a statement,
flag, SI gate or check holds for (``core._Level``), the one store of
what a level read decides, so spec filters, searches and claims read
a level in a few int operations once it is decided, and a level read
keeps nothing on a member but its canonical form; per pseudo-Kleene
pair, on its record (``_Pair``: colors and Kleene-only search, made
for a candidate before its orbit test, so a rejected one's go with
it); and per process, in the functools caches on ``_lattices``,
``_pk_pairs``, ``_aol_pairs``, ``_bz_level`` and ``cli.build_parser``;
nothing is kept per spec.  Reach sets and blocks are computed where
they are asked for.  Statements are interned in
``terms._STATEMENT_MEMO``.

Size caps are checked when a spec is built, so ``CAPS`` must be
raised before building a spec that goes beyond them.
"""

import functools
import operator

from . import axioms, congruences, constructions, terms
from .axioms import _sharp_interior
from .core import (BoundedLattice, _bits, _canon_bytes, _check_order,
                   _canonical_search_group, _copy_along, _Level, _orbit,
                   _Order, _Record, _refine_colors, _renumbered, _select,
                   _set_field, _set_index, canonical_form, chain_lattice)
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

# Size ceilings per generation strategy, "lattice" for the bare lattices
# of enumerate_lattices.  Configuration, not constants: raise them if a
# search must go further and you can wait.
CAPS = {"general": 8, "antiortholattice": 10, "chain": 12, "lattice": 10}

_STRUCTURES = (None, "chain", "distributive", "antiortholattice")


class EnumerationSpec(_Record):
    """What to generate: size bound, required class flags, an optional
    structural restriction, and identities from the built-in theory
    that must hold.  The structure "chain" or "antiortholattice" (or
    the class flag "antiortholattice") picks the cap key, and with it
    the decorated level the spec narrows; "distributive" narrows as the
    identity DIST does.  A spec above its cap is refused when it is
    built, so raise ``CAPS`` first to go further."""

    __slots__ = __match_args__ = ("max_size", "classes", "structure",
                                  "identities")

    def __init__(self, max_size, classes=(), structure=None, identities=()):
        _set_field(self, "max_size", max_size)
        _set_field(self, "classes", classes)
        _set_field(self, "structure", structure)
        _set_field(self, "identities", identities)
        if max_size < 1:
            raise ValueError("max_size must be positive")
        unknown = [c for c in classes if c not in axioms.CLASS_FLAGS]
        if unknown:
            raise ValueError(f"unknown class flags: {unknown}")
        if structure not in _STRUCTURES:
            raise ValueError(f"unknown structure: {structure!r}")
        unknown = [i for i in identities if i not in terms.THEORY]
        if unknown:
            raise ValueError(f"unknown theory identities: {unknown}")
        self.check_size(max_size)

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


def _atom_extensions(order, must=0):
    """All ways to insert a new atom into a validated lattice order.

    The new element sits just above 0 and strictly below an up-closed
    set U that holds the up-closed set ``must`` (empty by default).
    The result is a lattice iff for every old a outside U the common
    upper bounds U & up(a) have a least element, that is, are the
    up-set of some element; meets never break because the only things
    under the atom are itself and 0.
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
        # nothing put in lies below a, and a need not be put in
        if not down[a] & U and not must >> a & 1:
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
    The size is checked on the call, before any lattice is built,
    against ``cap``, by default ``CAPS["lattice"]``."""
    cap = CAPS["lattice"] if cap is None else cap
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
    the order of L is read, so L may also be an algebra or that order
    itself, as ``_decorations`` passes a pair's.

    In a BZ-lattice, a~ is the largest element of the modal-sharp set
    S = {s : s~ = s'} below a'.  With BZ1-BZ4 the THEORY statements
    the bz flag reads (disjoint, expanding, antitone, link): a <= a~~ = a~'
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
    so distinct sets give distinct maps.  A pair whose only
    Kleene-sharp elements are 0 and 1 has S = {0, 1} alone, and with it
    the trivial map, a~ = 0 for every a but 0.
    """
    order = L if isinstance(L, _Order) else L._ord
    if not axioms._pseudo_kleene(order, kleene):
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
                t = join[t * n + s]
            tilde.append(t)
        if all(S >> t & 1 for t in tilde):
            maps.append(tuple(tilde))
    ext = sorted(range(n), key=lambda a: (-order.down[a].bit_count(), a))
    return sorted(maps, key=lambda tilde: [tilde[a] for a in ext])


def _trivial_brouwer(order):
    """0~ = 1 and a~ = 0 otherwise; takes a lattice or its order."""
    return tuple(order.one if a == order.zero else order.zero
                 for a in range(order.n))


# ---------------------------------------------------------------------------
# pseudo-Kleene pairs


class _Pair:
    """A pseudo-Kleene pair: a lattice order and its involution ', and
    what is found of it once, on first read: ``colors``, its
    ``_refine_colors``, and ``search``, its canonical ordering with '
    alone and the generators of its automorphism group, all bytes.  Its
    orbit test as a candidate, its insertions as a parent and its
    decorations read them; a rejected candidate's go with its record."""

    __slots__ = ("order", "kleene", "_colors", "_search")

    def __init__(self, order, kleene):
        self.order, self.kleene = order, kleene
        self._colors = self._search = None

    @property
    def colors(self):
        if self._colors is None:
            order = self.order
            self._colors = bytes(_refine_colors(
                order.n, order.up, order.down, (self.kleene,)))
        return self._colors

    @property
    def search(self):
        if self._search is None:
            order = self.order
            ordering, _, gens = _canonical_search_group(
                order.n, order.up, (self.kleene,), self.colors)
            self._search = bytes(ordering), tuple(map(bytes, gens))
        return self._search


def _chain_pair(n):
    """The n-chain's order with its reversal, the Kleene chain's pair."""
    return _Pair(chain_lattice(n)._ord, tuple(range(n))[::-1])


def _fixed_insertion(order, kleene):
    """Up-set masks and involution after adding x = x', an element that
    is both an atom and a coatom; always a lattice when n >= 2."""
    x = order.n
    up = list(order.up)
    up[order.zero] |= 1 << x
    up.append(1 << x | 1 << order.one)
    return up, kleene + (x,)


def _pair_insertions(order, kleene, aol=False):
    """Up-set masks and involutions after adding an atom x and a coatom
    x', the image of x.

    x sits above 0 and strictly below an up-closed set U that holds 1.
    Without x' that must already be a lattice (removing a coatom keeps
    one), so U runs over the atom extensions of the order.  x' sits
    below 1 and strictly above U' = {u' : u in U}.  x < x' is forced
    when U and U' meet, and is tried both ways when they do not.  With
    ``aol`` only the insertions whose child is an antiortholattice
    (``_aol_pairs``): U holds every sharp element, and x < x'."""
    x, xc, one = order.n, order.n + 1, order.one
    must = 0
    if aol:
        for a in _sharp_interior(order, kleene):
            must |= order.up[a]
    for ext in _atom_extensions(order, must):
        U = ext[x] & ~(1 << x)
        Uc = sum(1 << kleene[u] for u in _bits(U))
        base = [m | 1 << xc if Uc >> a & 1 else m for a, m in enumerate(ext)]
        base.append(1 << xc | 1 << one)
        for below in ((True,) if aol or U & Uc else (False, True)):
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


def _pk_candidates(n, aol=False):
    """The insertion into each pair of size n-1, and one insertion per
    orbit of its automorphism group into each pair of size n-2, for
    n >= 3.  The inserted atom is the image of the last element.  With
    ``aol`` only those whose child is an antiortholattice: the
    insertions into the antiortholattice pairs of size n-1, and the
    pair insertions ``_pair_insertions`` keeps for them.  Whether a
    child is one does not change under the parent's automorphisms, so
    the narrowing keeps or drops whole orbits, and each orbit kept is
    tried with the insertion tried without it.

    A pair insertion's signature is the sorted colors of the parent
    elements above x, and whether x < x'.  The parent's automorphisms
    preserve its colors, so they carry an insertion only to one with
    the same signature.  When no two insertions into a parent share a
    signature, every orbit is a single insertion, and all are tried in
    order, as ``_orbit_representatives`` would try them; only a tie
    needs the parent's automorphism group.  A parent's colors and group
    are those its own orbit test may have found when it was a
    candidate, kept on its record (``_Pair``)."""
    for pair in (_aol_pairs if aol else _pk_pairs)(n - 1):
        yield _fixed_insertion(pair.order, pair.kleene)
    if n >= 4:
        x = n - 2
        parent = (1 << x) - 1
        for pair in _pk_pairs(x):
            insertions = list(_pair_insertions(pair.order, pair.kleene, aol))
            col = pair.colors
            signatures = {
                (tuple(sorted(col[a] for a in _bits(up[x] & parent))),
                 up[x] >> x + 1 & 1) for up, _ in insertions}
            if len(signatures) == len(insertions):
                yield from insertions
            else:
                yield from _orbit_representatives(
                    insertions, pair.search[1], x)


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


def _in_canonical_orbit(pair, tied):
    """Whether the inserted atom x = kleene[-1] of a pseudo-Kleene pair
    (``_Pair``) lies in its canonical orbit: the orbit, under the pair's
    automorphisms, of the first atom of largest color in its canonical
    ordering.  ``tied`` is the first round's top class among the atoms,
    which holds x (``_top_degree_atoms``); the atoms of largest color lie
    in it.  Colors are invariants, so an atom of a smaller color is not
    in the orbit and the only atom of the largest color is the whole of
    it; only a tie after refinement needs the canonical search."""
    x = pair.kleene[-1]
    if tied == 1 << x:
        return True
    col = pair.colors
    top = max(col[a] for a in _bits(tied))
    if col[x] != top:
        return False
    tied = [a for a in _bits(tied) if col[a] == top]
    if len(tied) == 1:
        return True
    ordering, gens = pair.search
    first = next(a for a in ordering if a in tied)
    return bool(_orbit(first, gens) >> x & 1)


@functools.cache
def _pk_pairs(n):
    """Pseudo-Kleene pairs (``_Pair``) of size n, one per isomorphism
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

    The parents follow the same rule: colors decide unless they tie.
    Each orbit of a parent's pair insertions is tried once, and the
    parent's automorphisms preserve its colors, so an insertion whose
    color signature no other insertion shares is an orbit by itself
    (``_pk_candidates``).  The parent's group is searched only on a
    tie.  A pair is refined and searched, with ' alone, at most once,
    on either route (``_Pair``).

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
    return _augmented(_pk_candidates(n))


@functools.cache
def _aol_pairs(n):
    """The pseudo-Kleene pairs (``_Pair``) of size n whose only
    Kleene-sharp elements are 0 and 1, one per isomorphism class:
    ``_pk_pairs(n)`` narrowed to them, the same pairs in the same order,
    grown without the pairs of sizes n-1 and n.

    Which insertions give such a child is read off the parent P.  For a
    pair insertion, with x below U and x' a coatom, let a be an element
    of P other than 0 and 1.  In the child the lower bounds of a and a'
    are those in P, and x when both lie in U; x is an atom, so a ^ a'
    stays the meet in P unless that is 0 and a, a' lie in U, when it is
    x.  And x ^ x' is x when x < x' and 0 otherwise.  So the child's
    only sharp elements are 0 and 1 iff x < x' and U holds every sharp
    element of P other than 0 and 1 (a set closed under ').  A fixed
    insertion x = x' lies below no element of P but 1 and has x ^ x' =
    x, so its child has them iff P has.  The children are then the
    fixed insertions into the pairs of size n-1 this function returns
    and the pair insertions so narrowed into every pair of size n-2
    (``_pk_candidates`` with ``aol``).  Being such a pair is an
    isomorphism invariant, so canonical augmentation keeps exactly the
    children ``_pk_pairs(n)`` keeps among them (see its docstring for
    completeness and uniqueness), and in the same order.
    """
    if n <= 2:
        return [_chain_pair(n)]
    return _augmented(_pk_candidates(n, True))


def _augmented(candidates):
    """The candidates canonical augmentation keeps, as ``_Pair``: the
    atom-degree pre-test, then the lattice and PK checks, then the
    canonical orbit (``_pk_pairs``)."""
    pairs = []
    for up, kleene in candidates:
        tied = _top_degree_atoms(up, kleene[-1])
        if not tied:
            continue
        order, _ = _check_order(up)
        if order is None or not axioms._pseudo_kleene(order, kleene):
            continue
        pair = _Pair(order, kleene)
        if _in_canonical_orbit(pair, tied):
            pairs.append(pair)
    return pairs


# ---------------------------------------------------------------------------
# corpora


def _admit(level, names, within):
    """The members of a level (``core._Level``) in the mask ``within``
    that have every class flag and satisfy every THEORY statement
    named, as a mask, narrowed by each name in turn: a spec's filters,
    a claim's hypotheses or its conclusions.  Each name is read off the
    level's mask for it, kept under the name, so a warm read hashes a
    str; the members left that it has not decided yet are read by
    ``axioms._held``, off the level's masks for the statements the name
    reads, scanning only the members those have not decided."""
    for name in names:
        within = level.held(name, within,
                            functools.partial(axioms._held, level, name))
    return within


def _set_image(g, mask):
    """The image of the set ``mask`` under the permutation g, as a mask."""
    return sum(1 << g[a] for a in _bits(mask))


def _decorations(pair):
    """Canonical copies of the BZ decorations of one pseudo-Kleene pair
    (``_Pair``), one per isomorphism class, and no other algebra.

    A pair with a Kleene-sharp element other than 0 and 1 takes the
    maps the Brouwer search reads off its sharp sets, one per '-closed
    set S, which is the image of its map (``bz_brouwer_maps``).  One
    rule picks and starts the searches: one map per orbit of S under
    the pair's automorphisms, searched from the pair's generators that
    fix S.  An automorphism g of the pair carries S to g(S), and
    (L, ', ~) onto (L, ', g~g^-1), the decoration of g(S); so conjugate
    maps give isomorphic algebras, hence equal canonical copies, and
    the first map of each orbit, in the Brouwer search's order, stands
    for it.  The pair's group is read off its Kleene-only search
    (``_Pair.search``), its orbits on the sets followed generator by
    generator; a pair whose colors (``_Pair.colors``) give every
    element its own has the trivial group and no search.  A generator
    that fixes S commutes with ~, so it is an automorphism of the
    decoration, and the decoration's canonical search starts from those
    (``core._canonical_search_group``'s ``seed``): the same ordering
    and encoding as a search from scratch, with fewer branches walked.
    The copy is built along that ordering (``core._renumbered``).
    The old route, ``canonical_copy`` of every map and one copy kept
    per canonical form, is ``tests/_oracles.searched_level``.

    A pair with no Kleene-sharp element but 0 and 1 (an antiortholattice
    pair, the Kleene chains among them) carries the trivial Brouwer map
    alone (``bz_brouwer_maps``): 0~ = 1 and a~ = 0 otherwise.  It takes
    that map with no Brouwer search, and its copy with no canonical
    search of its own: the pair's Kleene-only search (``_Pair.search``)
    already gives the canonical ordering with ~.  Every automorphism of
    the pair fixes 0 and 1, so it commutes with the trivial ~, and the
    groups with and without ~ are the same.  Refinement ranks first by
    the number of strict lower bounds, of which 0 has none and 1 has
    n-1, so it colors 0 first and 1 last, each alone, with or without
    ~; and ~ splits no class of the other elements, each of which has
    image 0 and no preimage.  So the colors are the same
    (``_Pair.colors``), 0 and 1 are placed first and last, and at any
    other depth every candidate's increment ends in the same ~ segment
    (image at depth 0, no preimage placed).  Every comparison of the
    search, hence every ordering it visits, its result and the
    automorphisms it records, are those of the Kleene-only search.  The
    copy's encoding is built along that ordering (``_copy_along``)."""
    order, kleene = pair.order, pair.kleene
    if not _sharp_interior(order, kleene):
        return [_copy_along(order, (kleene, _trivial_brouwer(order)),
                            pair.search[0], pair.colors)]
    gens = () if max(pair.colors) == order.n - 1 else pair.search[1]
    copies, seen = [], set()
    for tilde in bz_brouwer_maps(order, kleene):
        S = sum(1 << s for s in set(tilde))
        if S in seen:
            continue
        orbit = [S]
        for T in orbit:
            for g in gens:
                image = _set_image(g, T)
                if image not in orbit:
                    orbit.append(image)
        seen.update(orbit)
        seed = [g for g in gens if _set_image(g, S) == S]
        ordering, enc, _ = _canonical_search_group(
            order.n, order.up, (kleene, tilde), None, seed)
        copies.append(_renumbered(order, (kleene, tilde), ordering, enc))
    return copies


@functools.cache
def _bz_level(n, cap_key):
    """Every BZ decoration of size n under a cap key, one canonical copy
    per isomorphism class in the order of canonical bytes: the level
    every spec with that cap key narrows.  The cap key picks the
    pairs decorated: the Kleene chain for "chain", every pseudo-Kleene
    pair for "general", and for "antiortholattice" the pairs with
    S_K = {0, 1} (``_aol_pairs``), which with their one Brouwer map
    are exactly the antiortholattices.  The copies need no
    deduplication: the pairs are one per class, an isomorphism of two
    decorations is one of their pairs, and ``_decorations`` gives one
    copy per class of a pair.  The level (``core._Level``) keeps the
    masks its readers fill, so they go when this cache is cleared."""
    if cap_key == "chain":
        pairs = [_chain_pair(n)]
    elif cap_key == "antiortholattice":
        pairs = _aol_pairs(n)
    else:
        pairs = _pk_pairs(n)
    return _Level(sorted((A for pair in pairs for A in _decorations(pair)),
                         key=canonical_form))


def enumerate_pbz(n, spec):
    """All algebras of size n matching the spec, up to isomorphism, each
    as its canonical copy, in the order of their canonical bytes.

    The base corpus is BZ-lattices (every class the workbench cares
    about lives inside BZ), and every BZ-lattice is a pseudo-Kleene pair
    with a Brouwer map.  So each pair of size n (the n-chain with its
    reversal for structure "chain") is decorated with each Brouwer map
    bz_brouwer_maps reads off its sharp sets.  That decorated level is
    built once per size and cap key, and every spec sharing them
    narrows the same algebras by its class flags and identities, read
    off the level's masks (``_spec_level``).  Flags and verdicts do not
    change under isomorphism, so a spec's level is what decorating for
    it alone would give, and the level's masks serve every spec.  The
    spec's cap was checked when it was built; n is checked against it
    here, for sizes above max_size.
    """
    level, kept = _spec_level(n, spec)
    yield from level.members(kept)


def _spec_level(n, spec):
    """The decorated level of size n for the spec's cap key and the
    mask of its members the spec keeps: those with its class flags and
    identities (``_admit``), structure "distributive" narrowing by
    DIST, as ``--require DIST`` does."""
    spec.check_size(n)
    identities = spec.identities
    if spec.structure == "distributive":
        identities = (*identities, "DIST")
    level = _bz_level(n, spec.cap_key())
    return level, _admit(level, (*spec.classes, *identities), level.full)


def enumerate_all(spec):
    """Every size from 1 to spec.max_size, ascending."""
    for n in range(1, spec.max_size + 1):
        yield from enumerate_pbz(n, spec)


# ---------------------------------------------------------------------------
# search


class SearchResult(_Record):
    """Outcome of a smallest-counterexample search: the statement's
    text, the spec, the failing algebra and its witness assignment (a
    dict) or None for both, how many algebras were examined, and
    whether the spec's sizes were exhausted."""

    __slots__ = __match_args__ = ("identity", "spec", "found", "assignment",
                                  "examined", "exhausted")

    def __init__(self, identity, spec, found, assignment, examined,
                 exhausted):
        _set_field(self, "identity", identity)
        _set_field(self, "spec", spec)
        _set_field(self, "found", found)
        _set_field(self, "assignment", assignment)
        _set_field(self, "examined", examined)
        _set_field(self, "exhausted", exhausted)

    def __bool__(self):
        return self.found is not None


def search_counterexample(identity, spec):
    """Smallest algebra in the spec's class failing the identity.

    Size is the primary order; within a size the corpus comes in the
    order of canonical bytes, and the first failing algebra is returned,
    so reruns return the identical algebra.  The identity is read off
    the level's mask for it (``terms._level_held``), the members it has
    not decided scanned at once; the first failing member is the lowest
    bit of the spec's members the identity fails on, and its witness is
    the one the scan that decided it found, or, where an earlier read
    decided it, a scan of that member alone.  When nothing fails up to
    spec.max_size the result says exhausted rather than claiming the
    identity holds everywhere.
    """
    if isinstance(identity, str):
        identity = terms.parse_statement(identity)
    # each level's lookup then finds the statement itself in the memo
    identity = terms._interned(identity)
    examined = 0
    for n in range(1, spec.max_size + 1):
        level, kept = _spec_level(n, spec)
        examined += kept.bit_count()
        verdicts = {}
        failing = kept & ~terms._level_held(level, identity, kept, verdicts)
        if failing:
            i = (failing & -failing).bit_length() - 1
            verdict = verdicts.get(i) or terms._scan([level[i]], identity)[0]
            return SearchResult(terms.pretty(identity), spec, level[i],
                                terms._witness(identity, verdict)[1],
                                examined, False)
    return SearchResult(terms.pretty(identity), spec, None, None,
                        examined, True)


# ---------------------------------------------------------------------------
# corpus claims


class CorpusReport(_Record):
    """A claim's name, the spec of the corpus it was checked over, how
    many algebras were examined and how many met its hypotheses, and
    the failures: (algebra, details) pairs."""

    __slots__ = __match_args__ = ("claim", "spec", "examined", "checked",
                                  "failures")

    @property
    def ok(self):
        return self.checked > 0 and not self.failures

    @property
    def vacuous(self):
        return self.checked == 0


class _Claim(_Record):
    """A registered claim: its text, its hypotheses (class flags, THEORY
    statements and subdirect irreducibility), and its conclusions
    (class flags and THEORY statements), each name read over a level by
    ``_admit``, the conclusions over the level's members.
    The optional check covers what no flag or clause states: it takes
    a level (``core._Level``) and a mask of its members, and returns a
    tuple per member of the mask, in order, saying what fails, empty
    when nothing does.  The level keeps only the mask of the members
    it passes, and a failure's detail is the check run again on its
    member alone, so a check must give each member what it would give
    the member alone, a pure function of the algebra, as a tuple.  It
    reads names off the level's masks (``axioms._held``)."""

    __slots__ = __match_args__ = ("text", "check", "classes", "identities",
                                  "si", "conclusions")
    _defaults = {"check": None, "classes": (), "identities": (),
                 "si": False, "conclusions": ()}


def _paraorthomodular_equivalence(level, within):
    # an equivalence of two universal sentences is no universal clause
    pom, dom = (axioms._held(level, flag, within)
                for flag in ("paraorthomodular", "diamond-orthomodular"))
    return [() if a == b else (a, b) for a, b in (
        (pom >> i & 1 == 1, dom >> i & 1 == 1) for i in _bits(within))]


def _at_most_five_elements(level, within):
    # a size bound is no clause of the term language
    return [(f"unexpected size {A.n}",) if A.n > 5 else ()
            for A in level.members(within)]


def _horizontal_sum_agreement(level, within):
    # the four conditions are the level's masks for their clauses; only
    # a member where they and the blocks disagree is scanned alone, for
    # the witnesses of its report
    by_conditions = functools.reduce(operator.and_, (
        axioms._held(level, clause, within)
        for _, clause in constructions._HS_CONDITIONS))
    problems = []
    for i in _bits(within):
        A = level[i]
        if (by_conditions >> i & 1 == 1) == constructions._sum_of_blocks(
                A, constructions._blocks(A)):
            problems.append(())
        else:
            rep = constructions._horizontal_sum_report(A)
            problems.append((rep.by_conditions, rep.by_blocks,
                             rep.conditions))
    return problems


def _agreement_relations(level, within):
    return list(map(_agreement_problems, level.members(within)))


def _agreement_problems(A):
    probs = []
    pos = constructions.cones(A).positive
    reports = [congruences.agreement_below(A, p) for p in range(A.n)]
    crel = [r.partition for r in reports]
    for p, r in enumerate(reports):
        if not r.is_congruence:
            probs.append(("not-congruence", p, r.witness))
        if crel[p].is_identity() != (p in pos):
            probs.append(("trivial-iff-positive", p))
        both = congruences.meet_congruences(crel[p], crel[A.kleene[p]])
        if not both.is_identity():
            probs.append(("p-meet-kleene-p", p))
    n, join = A.n, A._ord.join
    for p in range(n):
        for q in range(n):
            lhs = congruences.meet_congruences(crel[p], crel[q])
            if lhs != crel[join[p * n + q]]:
                probs.append(("meet-vs-join", p, q))
    # the claim's hypotheses are its preconditions, so they are not
    # verified again
    fam = congruences._tilde_family(A)
    if not (fam.tilde_is_congruence and fam.meet_relations_ok
            and fam.join_relations_ok and fam.one_of_each_trivial):
        probs.append(("tilde-family", fam.witness))
    return tuple(probs)


_AOL_BASIS = ("AOL1", "AOL2", "AOL3")

_CLAIMS = {
    "sharp-sets-collapse": _Claim(
        "on paraorthomodular BZ*-algebras the Kleene, Brouwer and "
        "join-complement sharp sets coincide",
        classes=("bz-star", "paraorthomodular"),
        conclusions=("SHARP_KD", "SHARP_DB", "SHARP_BK")),
    "paraorthomodular-equivalence": _Claim(
        "on BZ*-algebras paraorthomodularity and diamond-orthomodularity "
        "agree", _paraorthomodular_equivalence, classes=("bz-star",)),
    # A BZ chain is the Kleene chain of its size exactly when it
    # satisfies DENSE: the reversal is the only order-reversing
    # involution of a chain, DENSE gives a~ = 0 for every a != 0, and BZ
    # gives 0~ = 1.  So "is the Kleene chain" is CHAIN and DENSE.
    "si-distributive-sdm-chains": _Claim(
        "subdirectly irreducible distributive strong-De-Morgan "
        "antiortholattices are the Kleene chains with 2..5 elements",
        _at_most_five_elements, classes=("antiortholattice",),
        identities=("DIST", "SDM"), si=True,
        conclusions=("CHAIN", "DENSE")),
    "pbz-chains-are-kleene-chains": _Claim(
        "every PBZ* chain is the Kleene chain of its size and satisfies "
        "DIST and SDM", classes=("pbz-star",), identities=("CHAIN",),
        conclusions=("antiortholattice", "DIST", "SDM", "DENSE")),
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
    # Over the antiortholattices up to size 13 it checks 10 algebras and
    # fails on one more, of size 13, whose covers are 0<a 0<b a<e b<c
    # b<e c<d c<g d<i e<f e<g f<h g<h g<i h<k i<j i<k j<1 k<1 and whose
    # ' swaps a<->j, b<->k, c<->h, d<->f, e<->i and fixes g: d and
    # d' = f are incomparable.
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


def _irreducible(level, within):
    """The subdirectly irreducible members of a level in the mask
    ``within``, as a mask: the SI gate of a claim, read by
    ``congruences._is_si`` for the members not decided yet."""
    return level.held("si", within, lambda todo: _select(
        todo, map(congruences._is_si, level.members(todo))))


def _passing(level, check, within):
    """The members of a level in the mask ``within`` on which a claim
    check finds nothing, as a mask, kept by the level under ``("check",
    check)``.  The members not decided yet are checked together, and
    only the mask is kept: a failure detail reruns the check on its
    one member."""
    return level.held(("check", check), within, lambda todo: _select(
        todo, (not found for found in check(level, todo))))


def verify_over_corpus(claim, spec):
    """Evaluate a registered claim on every algebra the spec reaches.

    Algebras outside the claim's hypotheses are skipped (counted as
    examined, not checked); a report with zero checked algebras says
    vacuous rather than ok.  A failure's detail is the tuple of the
    check's problems followed by ``fails NAME`` for each conclusion not
    met.  Failures come in corpus order: by size, then by canonical
    bytes.  Each level is read at once, as masks over its members
    (``core._Level``): the spec's filters and the claim's hypotheses
    through ``_admit``, the SI gate (``_irreducible``), the check
    (``_passing``) and each conclusion, each over the members left.  A
    check's mask is kept under the check function, so a claim whose
    check is replaced runs the new one.  A warm call counts members
    with ``bit_count`` and builds details only for the members that
    fail, running the check again on each such member alone.
    """
    if claim not in _CLAIMS:
        raise KeyError(f"unknown claim {claim!r}; see claim_names()")
    entry = _CLAIMS[claim]
    hypotheses = (*entry.classes, *entry.identities)
    examined = 0
    checked = 0
    failures = []
    for n in range(1, spec.max_size + 1):
        level, kept = _spec_level(n, spec)
        examined += kept.bit_count()
        members = _admit(level, hypotheses, kept)
        if entry.si:
            members = _irreducible(level, members)
        if not members:
            continue
        checked += members.bit_count()
        passed = members if entry.check is None else \
            _passing(level, entry.check, members)
        met = [_admit(level, (name,), members) for name in entry.conclusions]
        for i in _bits(members & ~functools.reduce(operator.and_, met,
                                                   passed)):
            found = () if passed >> i & 1 else entry.check(level, 1 << i)[0]
            found += tuple(f"fails {name}" for name, mask in
                           zip(entry.conclusions, met) if not mask >> i & 1)
            failures.append((level[i], found))
    return CorpusReport(claim, spec, examined, checked, tuple(failures))
