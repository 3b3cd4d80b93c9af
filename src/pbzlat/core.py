"""Finite bounded involution lattices with a Brouwer complement.

Carrier objects plus the order machinery everything else builds on:
validation of raw tables, meets and joins, the modal operators derived
from the two unary maps, isomorphism testing and canonical forms; and
``_Record``, the base of the package's frozen records (reports, specs,
term nodes).

Elements are plain integer indices 0..n-1.  The order is stored once,
as up- and down-set bitmasks (bit b of ``up[a]`` is set iff a <= b)
with the meet and join tables computed when it is validated; ``le`` is
a bit test, covers come from the masks, and ``leq`` is a read-only
array built from them when it is read.  Dense boolean tables and cover
lists are public inputs; up-set masks are what the library builds
from, and its own builders hand them straight to the validator.
Labels are presentation only and never carry semantics.
"""

import functools
import itertools
import operator
from array import array

# numpy is imported only where a dense order table is parsed or built,
# so that importing the package does not load it

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


_set_field = object.__setattr__


def _field_values(names):
    """The function that reads a record's fields named ``names``, as a
    tuple in that order."""
    if len(names) > 1:
        return operator.attrgetter(*names)
    if names:
        get = operator.attrgetter(*names)
        return lambda record: (get(record),)
    return lambda record: ()


def _rebuilt(cls, values):
    """The record of type cls with the given field values, built with no
    call to its ``__init__``, as unpickling builds it."""
    record = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        _set_field(record, name, value)
    return record


class _Record:
    """Base of the package's frozen records.

    A record class names its fields in ``__match_args__``, which is
    also its ``__slots__``, and the defaults of trailing fields in
    ``_defaults``.  It is built by position, by keyword or from those
    defaults; it compares equal to a record of the same type with equal
    fields and hashes by its fields; its repr is ``Name(field=value,
    ...)``; assigning or deleting an attribute raises AttributeError;
    and a pickle or copy rebuilds it from its fields without calling
    ``__init__``.  A class whose records are built on a hot path, or
    that checks its fields, writes its own ``__init__``, which sets each
    field with ``_set_field``.  Nothing here generates code, so defining
    a record class costs no more than defining any class.
    """

    __slots__ = ()
    __match_args__ = ()
    _defaults = {}
    _values = staticmethod(_field_values(()))

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = staticmethod(_field_values(cls.__match_args__))

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} "
                            f"arguments but {len(args)} were given")
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{type(self).__name__}() got multiple "
                                f"values for argument {name!r}")
            _set_field(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing "
                                f"argument {name!r}")
            _set_field(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got an unexpected "
                            f"keyword argument {next(iter(kwargs))!r}")

    def _fields(self):
        """The field values, in ``__match_args__`` order."""
        return self._values(self)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in
                           zip(self.__match_args__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuilt, (type(self), self._values(self))


class ValidationReport(_Record):
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

    __slots__ = __match_args__ = ("ok", "violations")

    def rules(self):
        return [rule for rule, _ in self.violations]


class ValidationError(ValueError):
    """Raised when constructing an algebra from invalid tables."""

    def __init__(self, report):
        self.report = report
        lines = ", ".join(f"{r} at {w}" for r, w in report.violations)
        super().__init__(f"invalid algebra tables: {lines}")


def _byte_bits(k):
    """Entry v is the tuple of the set bits of v, as indices of byte k of
    a mask: the entries from 2**i on are those below with bit i added,
    the highest, so each tuple comes out ascending."""
    table = [()]
    for b in range(8 * k, 8 * k + 8):
        table += [bits + (b,) for bits in table]
    return tuple(table)


# four bytes are tabled, and later bits are read off the binary digits
_BYTE_BITS = tuple(map(_byte_bits, range(4)))


def _bits(mask):
    """Indices of the set bits of a mask of any width, ascending, as a
    tuple: the first four bytes read a byte at a time from
    ``_BYTE_BITS``, the bits above them, as many as a level has members
    (``_Level``), off their binary digits, in time linear in the
    width."""
    tables = _BYTE_BITS
    if mask < 65536:
        return tables[0][mask & 255] + tables[1][mask >> 8]
    out = ()
    for table in tables:
        out += table[mask & 255]
        mask >>= 8
    if mask:
        out += tuple(itertools.compress(
            itertools.count(32), map("1".__eq__, reversed(f"{mask:b}"))))
    return out


def _set_index(masks):
    """Element by its up- (or down-) set mask, for an antisymmetric
    order.  An up-closed set, such as the common upper bounds
    up(a) & up(b), has a least element d iff it equals up(d); so it has
    one iff it is a key here, and the key's element is that least one
    (dually for down-sets and greatest elements)."""
    return {m: a for a, m in enumerate(masks)}


def _row_type(n):
    """The type of an operation table over n elements, one flat buffer
    of n*n entries in the narrowest unsigned type that holds 0..n-1:
    ``bytes`` up to 256 elements, else an ``array`` of 16-bit entries
    (a lattice with more than 65536 elements would need billions of
    table entries).  Either is built from an iterable of ints, reads an
    int at an index and exposes its items as a buffer, which ``terms``
    views with numpy.  A map over the elements is packed the same way,
    with n entries."""
    return bytes if n <= 256 else functools.partial(array, "H")


# the array typecodes for masks, narrowest first, by the bits they hold
_MASK_CODES = tuple((8 * array(code).itemsize, code) for code in "BHIQ")


def _mask_type(n):
    """The type of the up- or down-set masks of an order over n
    elements: an ``array`` of the narrowest unsigned typecode with n
    bits, up to 64 elements, else a tuple of ints.  Each reads an int at
    an index."""
    code = next((code for bits, code in _MASK_CODES if n <= bits), None)
    return tuple if code is None else functools.partial(array, code)


class _Order:
    """Validated bounded-lattice order: up- and down-sets as bitmasks
    (bit b of ``up[a]`` is set iff a <= b) plus meet and join tables.

    Each table is one flat buffer of n*n entries of the type
    ``_row_type(n)`` gives, read as ``meet[a * n + b]``, and the masks
    are of the type ``_mask_type(n)`` gives.  An order is kept for every
    pair and algebra the enumeration caches hold, so it is stored with
    as few objects as it can be: a 16-element order's two tables take
    578 bytes as two ``bytes``, where two tuples of 16 ``bytes`` rows
    took 1904, and its two mask arrays 224 bytes, where two tuples of
    ints took about 1230."""

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
        n = self.n
        pos = _inverse(ordering)
        pick, rank = _picker(ordering), pos.__getitem__
        flat = _picker([a * n + b for a in ordering for b in ordering])
        unit = [1 << i for i in pos].__getitem__
        masks, table = _mask_type(n), _row_type(n)

        def rename(mask):
            return sum(map(unit, _bits(mask)))

        return _Order(
            n,
            masks(map(rename, pick(self.up))),
            masks(map(rename, pick(self.down))),
            table(map(rank, flat(self.meet))),
            table(map(rank, flat(self.join))),
            pos[self.zero], pos[self.one])


def _inverse(ordering):
    """pos with pos[ordering[i]] = i."""
    pos = [0] * len(ordering)
    for i, a in enumerate(ordering):
        pos[a] = i
    return pos


def _picker(ordering):
    """The map taking a sequence s to the tuple of s[a] for a in
    ``ordering``: an ``operator.itemgetter``, which returns a bare item
    for one index."""
    if len(ordering) == 1:
        a, = ordering
        return lambda s: (s[a],)
    return operator.itemgetter(*ordering)


def _invalid(violations):
    return ValidationError(ValidationReport(False, tuple(violations)))


def _parse_leq(leq):
    """Up-set bitmasks of a square boolean table; raises
    ``format:leq-shape`` when it is not a nonempty square."""
    import numpy as np
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
    bits = [_bits(m) for m in up]
    down = [0] * n
    for a, above in enumerate(bits):
        for b in above:
            down[b] |= 1 << a
    violations = []
    refl = next(((a,) for a in range(n) if not up[a] >> a & 1), None)
    if refl:
        violations.append(("order:reflexive", refl))
    anti = trans = None
    for a in range(n):
        both = up[a] & down[a] & ~(1 << a)
        if both and anti is None:
            anti = (a, _bits(both)[0])
        if trans is None:
            # a <= b <= c with a </= c, least b first, then least c
            for b in bits[a]:
                missing = up[b] & ~up[a]
                if missing:
                    trans = (a, b, _bits(missing)[0])
                    break
    if anti:
        violations.append(("order:antisymmetric", anti))
    if trans:
        violations.append(("order:transitive", trans))
    if violations:
        return None, violations

    by_up = _set_index(up)
    by_down = _set_index(down)
    meet = [0] * (n * n)
    join = [0] * (n * n)
    no_meet = no_join = None
    for a in range(n):
        for b in range(a, n):
            g = by_down.get(down[a] & down[b], -1)
            if g < 0 and no_meet is None:
                no_meet = (a, b)
            l = by_up.get(up[a] & up[b], -1)
            if l < 0 and no_join is None:
                no_join = (a, b)
            meet[a * n + b] = meet[b * n + a] = g
            join[a * n + b] = join[b * n + a] = l
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
    masks, table = _mask_type(n), _row_type(n)
    order = _Order(n, masks(up), masks(down), table(meet), table(join),
                   zero, one)
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


@functools.cache
def _default_labels(n, zero, one):
    """0, 1 and letters for the rest, one tuple per (n, zero, one)
    shared by every carrier that takes them."""
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

    ``labels`` and ``name`` are read-only because the enumeration caches
    hand the same instances to every caller; ``relabel`` makes a renamed
    copy instead.

    A carrier's tables cannot change, so a result derived from them
    alone is computed once and kept on the carrier: ``_keep(key,
    compute)`` returns the value kept under ``key``, calling
    ``compute()`` and keeping its value the first time.  Every carrier
    starts with nothing kept, so renamed copies, reducts and canonical
    copies compute their own results.  Only what a reader reads again
    is kept: ``"canon"`` (``canonical_form``) and ``"classes"``, the
    class report (``axioms.classify``), which a lone algebra's flags
    are read off (``axioms.satisfies``).  What a statement, class flag,
    SI gate or claim check decides for a level's members is kept by the
    level alone, as masks (``_Level``); a carrier keeps no verdict, and
    its cover reach sets and blocks are computed where they are asked
    for.  Kept values are immutable.
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
        import numpy as np
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
        order = self._ord
        return order.meet[a * order.n + b]

    def join(self, a, b):
        order = self._ord
        return order.join[a * order.n + b]

    def covers(self):
        """Hasse cover pairs (a, b) with a covered by b, lex sorted."""
        up, down = self._ord.up, self._ord.down
        out = []
        for a in range(self._ord.n):
            for b in _bits(up[a] & ~(1 << a)):
                if up[a] & down[b] & ~(1 << a) & ~(1 << b) == 0:
                    out.append((a, b))
        return out


def _select(within, oks):
    """The members of the mask ``within`` whose truth value in ``oks``,
    one per member in ascending order, is true, as a mask."""
    return sum(1 << i for i, ok in zip(_bits(within), oks) if ok)


class _Level(list):
    """A decorated level: its members, in canonical order, and what is
    known of them a level at a time, as masks over the members, bit i
    standing for member i.  Under each key (a statement, a class flag
    or THEORY name, the SI gate, a claim check) the level keeps one
    pair of ints, the members decided and the members that hold, so a
    warm read of a level is a few int operations, whatever its size.
    The masks are the one store of what a level read decides: its
    members keep no verdict, witness or check outcome, and a reader
    that needs one recomputes it for the one member it asks about.
    They start with the keys in ``settled``, which hold on every member
    by the level's construction, decided and held for all, and readers
    fill the rest.  They live as long as the level, which the stage cache
    that built it keeps.
    """

    __slots__ = ("_masks",)

    def __init__(self, members, settled=()):
        super().__init__(members)
        full = self.full
        self._masks = dict.fromkeys(settled, (full, full))

    @property
    def full(self):
        """The mask of every member."""
        return (1 << len(self)) - 1

    def members(self, mask):
        """The members whose bits are set in mask, in order."""
        return [self[i] for i in _bits(mask)]

    def held(self, key, within, compute):
        """The members in the mask ``within`` for which ``key`` holds,
        as a mask.  The members of ``within`` not decided under ``key``
        yet, as the mask ``todo``, are read by one call
        ``compute(todo)``, which returns the mask of those among them
        for which it holds; nothing else is read."""
        decided, held = self._masks.get(key, (0, 0))
        todo = within & ~decided
        if todo:
            held |= compute(todo)
            self._masks[key] = decided | todo, held
        return held & within


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
        # pickling and copying cannot assign the maps slot by slot, so
        # they rebuild through the validated fast path; of the kept
        # results only the canonical form travels along
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
    lengths do, so the first round ranks by those lengths.  A later
    round's signature leads with the element's color, so it only splits
    classes and keeps their order; an element alone in its class gets
    its color alone as its signature, since the rest of a signature
    could only split the class.  Refinement stops when a round splits
    no class (such a round would rank them as they are) or when every
    element has a color of its own.
    """
    below = [_bits(down[a] & ~(1 << a)) for a in range(n)]
    above = [_bits(up[a] & ~(1 << a)) for a in range(n)]
    imgs = [tuple(f[a] for f in unaries) for a in range(n)]
    pres = [tuple([] for _ in unaries) for _ in range(n)]
    for k, f in enumerate(unaries):
        for x in range(n):
            pres[f[x]][k].append(x)
    col, classes = _ranks([(len(below[a]), len(above[a]),
                            *(len(p) for p in pres[a])) for a in range(n)])
    while 1 < classes < n:
        get = col.__getitem__
        sizes = [0] * classes
        for c in col:
            sizes[c] += 1
        new, new_classes = _ranks([
            (col[a],) if sizes[col[a]] == 1 else
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


def _incrementer(up, down, unaries, col, placed, pos):
    """The canonical encoding's increment ``increment(e, d)``: the
    segment element e adds when placed at depth d after the elements
    ``placed``, whose depths ``pos`` holds (n for an element not placed
    yet).  The search and ``_encoding`` read both lists as they fill
    them, so the byte format is defined here alone."""
    SENT = len(up)

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

    return increment


def _encoding(up, down, unaries, col, ordering):
    """The encoding the canonical search gives ``ordering``, built
    along it with the search's own increments and colors ``col``."""
    n = len(up)
    placed, pos, enc = [], [n] * n, []
    increment = _incrementer(up, down, unaries, col, placed, pos)
    for d, e in enumerate(ordering):
        enc += increment(e, d)
        placed.append(e)
        pos[e] = d
    return enc


def _canonical_search(n, up, unaries):
    """``(ordering, encoding)`` of the canonical search: see
    ``_canonical_search_group``."""
    return _canonical_search_group(n, up, unaries)[:2]


def _canonical_search_group(n, up, unaries, col=None, seed=()):
    """Minimal prefix-incremental encoding over color-sorted orderings.

    Returns ``(ordering, encoding, generators)`` where the encoding is a
    flat tuple of small ints that fully determines the structure.  Equal
    encodings mean isomorphic structures and vice versa.  The ordering
    is the first one, in depth-first order over ascending candidates,
    whose encoding is the minimum.  The generators are the seeds and
    the automorphisms recorded at tied leaves, as sequences of images;
    they generate the whole automorphism group (below).  ``col`` is the
    structure's ``_refine_colors``, for a caller that has refined it
    already.  ``seed`` holds automorphisms of the structure the caller
    already knows: for a decoration, the generators of its pair's group
    that fix its sharp set (``enumeration._decorations``).

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

    Seeds count as recorded from the start.  Both arguments, this one
    and the one below, use only that the orbit rule's generators are
    automorphisms fixing the prefix, not that the search found them.
    So seeds change neither the ordering nor the encoding, which stay
    those of the unseeded search, and with the automorphisms recorded
    they still generate the whole group; the search only walks fewer
    branches and records fewer ties.

    The seeds and the recorded automorphisms generate the whole group.
    The minimal leaves are the images of the canonical ordering under
    the group, one per automorphism, so it is enough that each minimal
    leaf L is its image under a product of generators; by induction
    over the depth-first order.  The bound never cuts a prefix of L.
    If L is visited, it is the canonical ordering (the first minimal
    leaf visited) or a tie with it, recorded.  If the orbit rule skips
    L at candidate e, a product h of generators fixing P carries the
    earlier sibling to e, and h^-1(L) is a minimal leaf before L.
    """
    down = [0] * n
    for a in range(n):
        for b in _bits(up[a]):
            down[b] |= 1 << a
    if col is None:
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
    autos = list(seed)
    increment = _incrementer(up, down, unaries, col, placed, pos)

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
        gens = []     # seeds and recorded automorphisms fixing the prefix
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
    return tuple(best_order), tuple(best), autos


def _canon_bytes(n, up, unaries):
    order, enc = _canonical_search(n, up, unaries)
    return bytes([n, len(unaries)]) + bytes(enc)


def canonical_form(algebra):
    """Canonical byte string: equal exactly for isomorphic algebras."""
    return algebra._keep("canon", lambda: _canon_bytes(
        algebra.n, algebra._ord.up, _unaries(algebra)))


def canonical_copy(algebra):
    """The isomorphic copy numbered along the canonical ordering, with
    default labels and the canonical form kept on the algebra and on
    the copy.

    Isomorphic algebras have equal copies, tables and labels included,
    and an algebra that is its own copy comes back unchanged: its
    ordering is the identity, the first one the canonical search tries.
    A copy is built from an order and its maps (``_renumbered``), so
    ``_copy_along`` and ``enumeration._decorations``, which know where
    its search starts or ends, build no algebra but the copy.
    """
    maps = (algebra.kleene, algebra.brouwer)
    ordering, enc = _canonical_search(algebra.n, algebra._ord.up, maps)
    copy = _renumbered(algebra._ord, maps, ordering, enc, algebra.name)
    algebra._kept["canon"] = copy._kept["canon"]
    return copy


def _copy_along(order, maps, ordering, col):
    """The canonical copy of the algebra on ``order`` with ``maps``
    (', ~) whose canonical ordering and ``_refine_colors`` are known, as
    for an antiortholattice pair: no search, the encoding built along
    the ordering (``_encoding``)."""
    return _renumbered(order, maps, ordering, _encoding(
        order.up, order.down, maps, col, ordering))


def _renumbered(order, maps, ordering, enc, name=None):
    """The algebra on ``order`` with ``maps`` (', ~) renumbered along
    its canonical ordering, the one algebra built, with default labels
    and its canonical form, from the encoding ``enc``, kept."""
    pick, rank = _picker(ordering), _inverse(ordering).__getitem__
    kleene, brouwer = (tuple(map(rank, pick(f))) for f in maps)
    copy = FiniteAlgebra._from_order(order.permuted(ordering), kleene,
                                     brouwer, None, name)
    copy._kept["canon"] = bytes([order.n, 2]) + bytes(enc)
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
