"""Finite bounded involution lattices with a Brouwer complement.

Carrier objects plus the order machinery everything else builds on:
validation of raw tables, meets and joins, the modal operators derived
from the two unary maps, isomorphism testing and canonical forms.

Elements are plain integer indices 0..n-1.  The order is stored once,
as up- and down-set bitmasks (bit b of ``up[a]`` is set iff a <= b)
with the meet and join tables computed when it is validated; ``le`` is
a bit test, covers come from the masks, and ``leq`` is a read-only
array built from them when it is read.  Dense boolean tables and cover
lists are public inputs; up-set masks are what the library builds
from, and its own builders hand them straight to the validator.
Labels are presentation only and never carry semantics.
"""

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ValidationReport",
    "ValidationError",
    "validate_tables",
    "BoundedLattice",
    "FiniteAlgebra",
    "is_isomorphic",
    "is_order_isomorphic",
    "canonical_form",
    "canonical_copy",
    "chain_lattice",
    "boolean_lattice",
]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating raw tables.

    ``violations`` holds one ``(rule, witness)`` pair per violated rule,
    where the witness is the lexicographically least offending element
    tuple.  Format problems come first, under rules prefixed ``format:``
    (``format:covers``, the first cover that is no pair of integers in
    0..n-1, as a tuple, ``(c,)`` for a bare ``c``; ``format:map-length``,
    both maps' lengths, None for a map missing or no sequence;
    ``format:map-range``, the first element whose image is no integer in
    0..n-1), and suppress the semantic checks meaningless on them.
    """

    ok: bool
    violations: tuple

    def rules(self):
        return [rule for rule, _ in self.violations]


class ValidationError(ValueError):
    """Raised when constructing an algebra from invalid tables."""

    def __init__(self, report):
        self.report = report
        lines = ", ".join(f"{r} at {w}" for r, w in report.violations)
        super().__init__(f"invalid algebra tables: {lines}")


def _bits(mask):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _set_index(masks):
    """Element by its up- (or down-) set mask, for an antisymmetric
    order.  An up-closed set, such as the common upper bounds
    up(a) & up(b), has a least element d iff it equals up(d); so it has
    one iff it is a key here, and the key's element is that least one
    (dually for down-sets and greatest elements)."""
    return {m: a for a, m in enumerate(masks)}


class _Order:
    """Validated bounded-lattice order: up- and down-sets as bitmasks
    (bit b of ``up[a]`` is set iff a <= b) plus meet and join tables."""

    __slots__ = ("n", "up", "down", "meet", "join", "zero", "one")

    def __init__(self, n, up, down, meet, join, zero, one):
        self.n = n
        self.up = up
        self.down = down
        self.meet = meet
        self.join = join
        self.zero = zero
        self.one = one

    def permuted(self, ordering):
        """The same order with element ``ordering[i]`` renamed i."""
        pos = [0] * self.n
        for i, a in enumerate(ordering):
            pos[a] = i

        def rename(mask):
            return sum(1 << pos[b] for b in _bits(mask))

        return _Order(
            self.n,
            tuple(rename(self.up[a]) for a in ordering),
            tuple(rename(self.down[a]) for a in ordering),
            tuple(tuple(pos[self.meet[a][b]] for b in ordering)
                  for a in ordering),
            tuple(tuple(pos[self.join[a][b]] for b in ordering)
                  for a in ordering),
            pos[self.zero], pos[self.one])


def _invalid(violations):
    return ValidationError(ValidationReport(False, tuple(violations)))


def _parse_leq(leq):
    """Up-set bitmasks of a square boolean table; raises
    ``format:leq-shape`` when it is not a nonempty square."""
    try:
        arr = np.asarray(leq, dtype=bool)
    except (TypeError, ValueError):
        raise _invalid([("format:leq-shape", ())]) from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise _invalid([("format:leq-shape", arr.shape)])
    return [sum(1 << b for b, x in enumerate(row) if x)
            for row in arr.tolist()]


def _check_order(up):
    """Check partial order + lattice axioms on up-set bitmasks.

    Returns ``(order_or_None, violations)``.  The order object is built
    only when every check passes.
    """
    n = len(up)
    down = [0] * n
    for a in range(n):
        for b in _bits(up[a]):
            down[b] |= 1 << a
    violations = []
    refl = next(((a,) for a in range(n) if not up[a] >> a & 1), None)
    if refl:
        violations.append(("order:reflexive", refl))
    anti = trans = None
    for a in range(n):
        both = up[a] & down[a] & ~(1 << a)
        if both and anti is None:
            anti = (a, next(_bits(both)))
        if trans is None:
            # a <= b <= c with a </= c, least b first, then least c
            for b in _bits(up[a]):
                missing = up[b] & ~up[a]
                if missing:
                    trans = (a, b, next(_bits(missing)))
                    break
    if anti:
        violations.append(("order:antisymmetric", anti))
    if trans:
        violations.append(("order:transitive", trans))
    if violations:
        return None, violations

    by_up = _set_index(up)
    by_down = _set_index(down)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    no_meet = no_join = None
    for a in range(n):
        for b in range(a, n):
            g = by_down.get(down[a] & down[b], -1)
            if g < 0 and no_meet is None:
                no_meet = (a, b)
            l = by_up.get(up[a] & up[b], -1)
            if l < 0 and no_join is None:
                no_join = (a, b)
            meet[a][b] = meet[b][a] = g
            join[a][b] = join[b][a] = l
    if no_meet:
        violations.append(("lattice:meet", no_meet))
    if no_join:
        violations.append(("lattice:join", no_join))
    if violations:
        return None, violations
    full = (1 << n) - 1
    zero = by_up.get(full, -1)
    one = by_down.get(full, -1)
    if zero < 0:
        violations.append(("bounds:zero", ()))
    if one < 0:
        violations.append(("bounds:one", ()))
    if violations:
        return None, violations
    order = _Order(n, tuple(up), tuple(down),
                   tuple(tuple(r) for r in meet),
                   tuple(tuple(r) for r in join), zero, one)
    return order, []


def _is_index(x, n):
    """Whether x is an integer in 0..n-1.  Numpy integers count; floats,
    strings and anything else ``operator.index`` rejects do not."""
    try:
        return 0 <= operator.index(x) < n
    except TypeError:
        return False


def _as_tuple(x, default=None):
    """x as a tuple, or ``default`` when it is no sequence."""
    try:
        return tuple(x)
    except TypeError:
        return default


def _format_violations(n, labels, maps):
    """Shape problems over n elements of the two maps, when an algebra
    is asked for, and of the labels, checked as the strings a carrier
    keeps."""
    violations = []
    if maps is not None:
        if any(f is None or len(f) != n for f in maps):
            violations.append(("format:map-length", tuple(
                None if f is None else len(f) for f in maps)))
        else:
            bad = next(((a,) for a in range(n)
                        if not all(_is_index(f[a], n) for f in maps)), None)
            if bad:
                violations.append(("format:map-range", bad))
    if labels is not None and (len(labels) != n or len(set(labels)) != n):
        violations.append(("format:labels", (len(labels),)))
    return violations


def _kleene_violations(order, kleene):
    """' must be an order-reversing involution of the validated order."""
    n, up = order.n, order.up
    violations = []
    inv = next(((a,) for a in range(n) if kleene[kleene[a]] != a), None)
    if inv:
        violations.append(("kleene:involution", inv))
    antitone = next(
        ((a, b) for a in range(n) for b in _bits(up[a])
         if not up[kleene[b]] >> kleene[a] & 1),
        None,
    )
    if antitone:
        violations.append(("kleene:antitone", antitone))
    return violations


def _validate(up, labels, maps=None, zero=None, one=None, order=None):
    """The one validator behind every way to build a carrier.  Dense
    tables and cover lists are public inputs, which ``_parse_leq`` and
    ``_closure_from_covers`` turn into the up-set masks ``up`` that the
    library's own builders hand in directly.  ``maps`` is the pair
    ``(kleene, brouwer)`` for an algebra, None for a bare lattice.
    ``_check_order`` checks ``up`` unless its validated ``order`` is
    passed.  Raises ValidationError, else returns ``(order, labels,
    maps)``: labels as kept strings or None, maps as int tuples."""
    labels = None if labels is None else tuple(map(str, labels))
    if maps is not None:
        maps = tuple(map(_as_tuple, maps))
    violations = _format_violations(len(up), labels, maps)
    if not violations and order is None:
        order, violations = _check_order(up)
    if violations:
        raise _invalid(violations)
    if zero is not None and zero != order.zero:
        violations.append(("bounds:zero", (zero,)))
    if one is not None and one != order.one:
        violations.append(("bounds:one", (one,)))
    if maps is not None:
        maps = tuple(tuple(map(operator.index, f)) for f in maps)
        violations += _kleene_violations(order, maps[0])
    if violations:
        raise _invalid(violations)
    return order, labels, maps


def validate_tables(leq, kleene, brouwer, labels=None, zero=None, one=None):
    """Validate raw tables for a bounded involution lattice with ~.

    Reports every violated rule with a minimal witness instead of
    stopping at the first problem.  ``zero``/``one``, when given, are
    checked against the computed bounds.
    """
    try:
        _validate(_parse_leq(leq), labels, (kleene, brouwer), zero, one)
    except ValidationError as err:
        return err.report
    return ValidationReport(True, ())


def _default_labels(n, zero, one):
    names = []
    letters = "abcdefghijklmnopqrstuvwxyz"
    k = 0
    for a in range(n):
        if a == zero:
            names.append("0")
        elif a == one:
            names.append("1")
        else:
            names.append(letters[k % 26] + ("" if k < 26 else str(k // 26)))
            k += 1
    return tuple(names)


class _Carrier:
    """The order accessors and the presentation that bare lattices and
    decorated algebras share.

    ``labels`` and ``name`` are read-only because the enumeration memos
    hand the same instances to every caller; ``relabel`` makes a renamed
    copy instead.

    A carrier's tables cannot change, so a result derived from them
    alone is computed once and kept on the carrier: ``_keep(key,
    compute)`` returns the value kept under ``key``, calling
    ``compute()`` and keeping its value the first time.  Every carrier
    starts with nothing kept, so renamed copies, reducts and canonical
    copies compute their own results.  The keys in use are ``"canon"``
    (``canonical_form``), ``"classes"`` (``axioms.classify``),
    ``"congruences"`` (``congruences.all_congruences``), ``"blocks"``
    (``constructions.blocks``) and ``"verdicts"``, a dict of identity
    verdicts by statement (``terms.holds``).  Kept values are immutable
    or private to their keeper, which hands out copies of mutable ones.
    """

    __slots__ = ("_ord", "_labels", "_name", "_kept")

    def _set(self, order, labels, name):
        self._ord = order
        self._labels = labels or _default_labels(order.n, order.zero,
                                                 order.one)
        self._name = name
        self._kept = {}

    def _keep(self, key, compute):
        kept = self._kept
        if key not in kept:
            kept[key] = compute()
        return kept[key]

    @property
    def labels(self):
        return self._labels

    @property
    def name(self):
        return self._name

    @property
    def n(self):
        return self._ord.n

    @property
    def leq(self):
        """The order as a read-only boolean array, built from the
        bitmasks on each read."""
        n = self._ord.n
        arr = np.array([[u >> b & 1 for b in range(n)] for u in self._ord.up],
                       dtype=bool)
        arr.setflags(write=False)
        return arr

    @property
    def zero(self):
        return self._ord.zero

    @property
    def one(self):
        return self._ord.one

    def le(self, a, b):
        return self._ord.up[a] >> b & 1 == 1

    def meet(self, a, b):
        return self._ord.meet[a][b]

    def join(self, a, b):
        return self._ord.join[a][b]

    def covers(self):
        """Hasse cover pairs (a, b) with a covered by b, lex sorted."""
        up, down = self._ord.up, self._ord.down
        out = []
        for a in range(self._ord.n):
            for b in _bits(up[a] & ~(1 << a)):
                if up[a] & down[b] & ~(1 << a) & ~(1 << b) == 0:
                    out.append((a, b))
        return out


class BoundedLattice(_Carrier):
    """A finite bounded lattice, no unary maps.

    Input and output carrier for the twist and sum constructions, and
    the thing the lattice enumerator emits.
    """

    __slots__ = ()

    def __init__(self, leq, labels=None, name=None):
        order, labels, _ = _validate(_parse_leq(leq), labels)
        self._set(order, labels, name)

    @classmethod
    def _from_order(cls, order, labels=None, name=None):
        obj = object.__new__(cls)
        obj._set(order, labels, name)
        return obj

    @classmethod
    def _from_masks(cls, up, labels=None, name=None):
        order, labels, _ = _validate(up, labels)
        return cls._from_order(order, labels, name)

    @classmethod
    def from_covers(cls, n, covers, labels=None, name=None):
        """Build from a list of cover pairs ``(a, b)`` meaning a < b."""
        return cls._from_masks(_closure_from_covers(n, covers), labels, name)

    def __repr__(self):
        tag = self.name or "lattice"
        return f"<BoundedLattice {tag} n={self.n}>"


def _closure_from_covers(n, covers):
    """Up-set bitmasks of the reflexive-transitive closure of cover
    pairs; raises ``format:leq-shape`` or ``format:covers``."""
    if n < 1:
        raise _invalid([("format:leq-shape", (0,))])
    covers = [_as_tuple(c, (c,)) for c in covers]
    bad = next((c for c in covers
                if len(c) != 2 or not all(_is_index(x, n) for x in c)), None)
    if bad is not None:
        raise _invalid([("format:covers", bad)])
    up = [1 << a for a in range(n)]
    for a, b in covers:
        up[a] |= 1 << operator.index(b)  # a Python int from numpy ones too
    for k in range(n):
        for a in range(n):
            if up[a] >> k & 1:
                up[a] |= up[k]
    return up


class FiniteAlgebra(_Carrier):
    """Bounded involution lattice with a Brouwer complement.

    ``kleene`` is the involution ', ``brouwer`` the map ~.  Both are
    tuples of image indices.  Instances are validated at construction
    and immutable afterwards: like the labels, the maps cannot be
    reassigned, so the results an algebra keeps (see ``_Carrier``)
    cannot go stale.  The maps stay plain slots, which the term
    evaluator reads in its inner loop; only assignment is refused.
    """

    __slots__ = ("kleene", "brouwer")

    def __setattr__(self, name, value):
        if name in ("kleene", "brouwer"):
            raise AttributeError(f"{name!r} of FiniteAlgebra is read-only")
        super().__setattr__(name, value)

    def _set_maps(self, kleene, brouwer):
        object.__setattr__(self, "kleene", kleene)
        object.__setattr__(self, "brouwer", brouwer)

    def __reduce__(self):
        # pickling (worker processes) and copying cannot assign the maps
        # slot by slot, so they rebuild through the validated fast path;
        # of the kept results only the canonical form travels along
        canon = self._kept.get("canon")
        return (type(self)._from_order,
                (self._ord, self.kleene, self.brouwer, self.labels, self.name),
                (None, {"_kept": {} if canon is None else {"canon": canon}}))

    def __init__(self, leq, kleene, brouwer, labels=None, name=None):
        order, labels, maps = _validate(_parse_leq(leq), labels,
                                        (kleene, brouwer))
        self._set(order, labels, name)
        self._set_maps(*maps)

    @classmethod
    def _from_order(cls, order, kleene, brouwer, labels=None, name=None):
        # internal fast path: order comes from an already validated source
        obj = object.__new__(cls)
        obj._set(order, labels, name)
        obj._set_maps(tuple(kleene), tuple(brouwer))
        return obj

    @classmethod
    def _from_masks(cls, up, kleene, brouwer, labels=None, name=None):
        order, labels, maps = _validate(up, labels, (kleene, brouwer))
        return cls._from_order(order, *maps, labels, name)

    @classmethod
    def from_lattice(cls, lattice, kleene, brouwer, labels=None, name=None):
        """Decorate a BoundedLattice with ' and ~.  The lattice's order is
        already validated, so only the maps and labels are checked."""
        order, labels, maps = _validate(
            lattice._ord.up, lattice.labels if labels is None else labels,
            (kleene, brouwer), order=lattice._ord)
        return cls._from_order(order, *maps, labels, name)

    @classmethod
    def from_covers(cls, n, covers, kleene, brouwer, labels=None, name=None):
        return cls._from_masks(_closure_from_covers(n, covers), kleene,
                               brouwer, labels, name)

    def box(self, a):
        """box a = (a')~"""
        return self.brouwer[self.kleene[a]]

    def diamond(self, a):
        """diamond a = (a~)~"""
        return self.brouwer[self.brouwer[a]]

    def lattice_reduct(self):
        return BoundedLattice._from_order(self._ord, labels=self.labels,
                                          name=self.name)

    def relabel(self, labels, name=None):
        """Same algebra, new presentation labels."""
        _, labels, _ = _validate(self._ord.up, labels, order=self._ord)
        return FiniteAlgebra._from_order(self._ord, self.kleene, self.brouwer,
                                         labels=labels, name=name or self.name)

    def tables_equal(self, other):
        """Element-wise identity of order and maps (labels ignored)."""
        return (self._ord.up == other._ord.up
                and self.kleene == other.kleene
                and self.brouwer == other.brouwer)

    def __repr__(self):
        tag = self.name or "algebra"
        return f"<FiniteAlgebra {tag} n={self.n}>"


# ---------------------------------------------------------------------------
# isomorphism and canonical forms
#
# Both work on the raw data (up-set bitmasks plus a tuple of unary maps)
# so the lattice enumerator can use them without building carrier objects.


def _ranks(sigs):
    """Each signature's rank among the distinct ones, and their number."""
    ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [ranking[s] for s in sigs], len(ranking)


def _refine_colors(n, up, down, unaries):
    """Iterated invariant refinement; returns a color per element.

    Colors are ranks of structural signatures, so they are deterministic
    across processes and comparable between structures refined jointly.
    A round's signature is the element's color, the sorted colors of its
    strict lower and upper bounds, of its images and of its preimages.
    On a single color these are runs of zeros, which compare as their
    lengths do, so the first round ranks by those lengths.  Refinement
    stops when a round splits no class (such a round, its signatures
    led by the colors, would rank them as they are) or when every
    element has a color of its own.
    """
    below = [tuple(_bits(down[a] & ~(1 << a))) for a in range(n)]
    above = [tuple(_bits(up[a] & ~(1 << a))) for a in range(n)]
    imgs = [tuple(f[a] for f in unaries) for a in range(n)]
    pres = [tuple([] for _ in unaries) for _ in range(n)]
    for k, f in enumerate(unaries):
        for x in range(n):
            pres[f[x]][k].append(x)
    col, classes = _ranks([(len(below[a]), len(above[a]),
                            *(len(p) for p in pres[a])) for a in range(n)])
    while 1 < classes < n:
        get = col.__getitem__
        new, new_classes = _ranks([
            (col[a],
             tuple(sorted(map(get, below[a]))),
             tuple(sorted(map(get, above[a]))),
             tuple(map(get, imgs[a])),
             tuple(tuple(sorted(map(get, p))) for p in pres[a]))
            for a in range(n)])
        if new_classes == classes:
            break
        col, classes = new, new_classes
    return col


def _orbit(e, gens):
    """Orbit of e under the group the permutations ``gens`` generate,
    as a bitmask."""
    orbit = 1 << e
    stack = [e]
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if not orbit >> y & 1:
                orbit |= 1 << y
                stack.append(y)
    return orbit


def _canonical_search(n, up, unaries):
    """Minimal prefix-incremental encoding over color-sorted orderings.

    Returns ``(ordering, encoding)`` where the encoding is a flat tuple
    of small ints that fully determines the structure.  Equal encodings
    mean isomorphic structures and vice versa.  The ordering is the
    first one, in depth-first order over ascending candidates, whose
    encoding is the minimum.

    Colors never change during the search, so the orderings searched
    place the color classes one after another, each in every order.
    Two rules cut the depth-first search.  Neither can change the
    result, because each skips only orderings none of which is strictly
    smaller than the best found so far, and the best changes only on a
    strict improvement; so the minimum and the first ordering reaching
    it stay those of the unpruned search kept in ``tests/_oracles.py``.

    - Bound: while the prefix built so far equals the best's prefix, a
      candidate whose increment exceeds the best's next segment is
      skipped; every completion through it is larger.
    - Orbits: a leaf whose encoding ties with the best gives the
      automorphism g with ``g(best_order[i]) = placed[i]``.  Because
      colors are invariants, g carries each searched ordering to a
      searched ordering with the same encoding.  At a node with prefix
      P, candidate e is skipped when an earlier sibling, searched or
      cut, lies in its orbit under the group generated by the recorded
      automorphisms that fix P pointwise: some such automorphism carries
      the orderings through the sibling onto those through e, and none
      of those is smaller than the best once the sibling is done.
    """
    down = [0] * n
    for a in range(n):
        for b in _bits(up[a]):
            down[b] |= 1 << a
    col = _refine_colors(n, up, down, unaries)
    by_color = sorted(range(n), key=lambda a: (col[a], a))
    members = {}
    for a in by_color:
        members.setdefault(col[a], []).append(a)
    # the candidates at depth d are the unplaced members of the color
    # class of the d-th element in color order
    cells = [members[col[a]] for a in by_color]

    SENT = n  # placeholder for "image not placed yet"
    placed = []
    pos = [SENT] * n
    enc = []
    best = None
    best_order = None
    autos = []

    def increment(e, d):
        ue, de = up[e], down[e]
        inc = [col[e]]
        inc += [de >> j & 1 for j in placed]
        inc += [ue >> j & 1 for j in placed]
        for f in unaries:
            img = f[e]
            # a self-image gets the slot being filled; SENT means the
            # image comes later (recorded then via the preimage bits)
            inc.append(d if img == e else pos[img])
            inc += [1 if f[j] == e else 0 for j in placed]
        return inc

    def search(d, tight):
        """Search below the prefix ``placed`` of length d; ``tight`` says
        it equals the best's prefix.  Returns True when the best
        improved."""
        nonlocal best, best_order
        if d == n:
            if tight:  # a tie with the best: record the automorphism
                g = [0] * n
                for a, b in zip(best_order, placed):
                    g[a] = b
                autos.append(g)
                return False
            best = list(enc)
            best_order = list(placed)
            return True
        start = len(enc)
        improved = False
        tried = 0     # bitmask of the siblings already considered
        gens = []     # recorded automorphisms that fix the prefix
        scanned = 0   # how many of autos have been sorted into gens
        for e in cells[d]:
            if pos[e] != SENT:
                continue
            if tried and scanned < len(autos):
                gens += [g for g in autos[scanned:]
                         if all(g[p] == p for p in placed)]
                scanned = len(autos)
            if gens and _orbit(e, gens) & tried:
                continue
            tried |= 1 << e
            inc = increment(e, d)
            # pruning against best is only sound while the built prefix
            # still matches best's prefix; once it is strictly smaller,
            # every completion wins and must be explored
            child_tight = False
            if tight:
                seg = best[start:start + len(inc)]
                if inc > seg:
                    continue
                child_tight = inc == seg
            placed.append(e)
            pos[e] = d
            enc.extend(inc)
            if search(d + 1, child_tight):
                # the new best extends this prefix
                improved = tight = True
            del enc[start:]
            pos[e] = SENT
            placed.pop()
        return improved

    search(0, False)
    return tuple(best_order), tuple(best)


def _canon_bytes(n, up, unaries):
    order, enc = _canonical_search(n, up, unaries)
    return bytes([n, len(unaries)]) + bytes(enc)


def canonical_form(algebra):
    """Canonical byte string: equal exactly for isomorphic algebras."""
    return algebra._keep("canon", lambda: _canon_bytes(
        algebra.n, algebra._ord.up, _unaries(algebra)))


def canonical_copy(algebra):
    """The isomorphic copy numbered along the canonical ordering, with
    default labels and the canonical form already kept.

    Isomorphic algebras have equal copies, tables and labels included,
    and an algebra that is its own copy comes back unchanged: its
    ordering is the identity, the first one the canonical search tries.
    """
    n, unaries = algebra.n, (algebra.kleene, algebra.brouwer)
    ordering, enc = _canonical_search(n, algebra._ord.up, unaries)
    pos = [0] * n
    for i, a in enumerate(ordering):
        pos[a] = i
    kleene, brouwer = (tuple(pos[f[a]] for a in ordering) for f in unaries)
    copy = FiniteAlgebra._from_order(algebra._ord.permuted(ordering),
                                     kleene, brouwer, None, algebra.name)
    copy._kept["canon"] = algebra._kept["canon"] = bytes([n, 2]) + bytes(enc)
    return copy


def _unaries(A):
    return () if isinstance(A, BoundedLattice) else (A.kleene, A.brouwer)


def _isomorphism(upA, unA, upB, unB):
    """Image tuple of an isomorphism A -> B of the orders and the maps,
    or None.  Equal canonical encodings mean isomorphic, and then the
    i-th elements of the two canonical orderings correspond."""
    n = len(upA)
    if len(upB) != n:
        return None
    ordA, encA = _canonical_search(n, upA, unA)
    ordB, encB = _canonical_search(n, upB, unB)
    if encA != encB:
        return None
    img = [0] * n
    for a, b in zip(ordA, ordB):
        img[a] = b
    return tuple(img)


def is_isomorphic(A, B):
    """Isomorphism A -> B as an image tuple, or None.

    Works for two FiniteAlgebras (order + both maps preserved) and for
    two BoundedLattices (order only).
    """
    if isinstance(A, BoundedLattice) != isinstance(B, BoundedLattice):
        raise TypeError("cannot compare a bare lattice with an algebra")
    return _isomorphism(A._ord.up, _unaries(A), B._ord.up, _unaries(B))


def is_order_isomorphic(A, B):
    """Lattice-reduct isomorphism, ignoring unary maps."""
    return _isomorphism(A._ord.up, (), B._ord.up, ())


# ---------------------------------------------------------------------------
# stock bare lattices


def chain_lattice(n, name=None):
    """The n-element chain 0 < 1 < ... < n-1."""
    if n < 1:
        raise ValueError("chain needs at least one element")
    up = [(1 << n) - (1 << a) for a in range(n)]
    return BoundedLattice._from_masks(up, name=name or f"chain{n}")


def boolean_lattice(size, name=None):
    """Boolean lattice with ``size`` elements; size must be a power of two."""
    k = size.bit_length() - 1
    if size < 1 or 1 << k != size:
        raise ValueError("boolean lattice size must be a power of two")
    up = [sum(1 << b for b in range(size) if a & ~b == 0) for a in range(size)]
    return BoundedLattice._from_masks(up, name=name or f"bool{size}")
