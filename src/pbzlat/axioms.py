"""Class flags and sharp-element bookkeeping.

Every class flag is read off THEORY statements by the one evaluator:
one table (``_FLAGS``) gives each flag the flags it needs first and
its own statements.  ``_held`` reads a flag or a THEORY statement by
name over a level at once, as the AND of the level's masks for the
statements it reads, scanning only what they have not decided and
building no class report.  ``classify`` builds the report of one
algebra off the same table and keeps it on the algebra, and
``satisfies`` reads one algebra's flags off that report.  A scan runs
through the assignments in odometer order and reports the first
(lexicographically least) failing one, so witnesses are reproducible
and minimal.  The generator tests bare pairs of an order and an
involution before any algebra exists (``_pseudo_kleene``,
``_sharp_interior``).
"""

from . import terms
from .core import _Record

__all__ = [
    "kleene_sharp",
    "sharp_sets",
    "SharpSets",
    "classify",
    "AlgebraClassReport",
]


def _pseudo_kleene(order, kleene):
    """Whether a ^ a' <= b v b' for all a, b, on the pair of an order
    and an involution, with no algebra built: the THEORY statement PK.
    Each a ^ a' is tested against the set of all b v b' at once,
    through its up-set mask."""
    n, meet, join, up = order.n, order.meet, order.join, order.up
    high_set = sum(1 << h for h in {join[b * n + kleene[b]]
                                    for b in range(n)})
    return not any(high_set & ~up[meet[a * n + kleene[a]]]
                   for a in range(n))


def _sharp_interior(order, kleene):
    """The Kleene-sharp elements (a ^ a' = 0) other than 0 and 1."""
    n, meet, zero = order.n, order.meet, order.zero
    return [a for a in range(n) if a not in (zero, order.one)
            and meet[a * n + kleene[a]] == zero]


def kleene_sharp(A):
    """S_K: elements with a ^ a' = 0.  Defined on any validated algebra:
    0 and 1 always lie in it, since ' reverses the order and so swaps
    them, and the rest is ``_sharp_interior``."""
    return frozenset((A.zero, A.one, *_sharp_interior(A._ord, A.kleene)))


class SharpSets(_Record):
    """The three sharp-element sets of a BZ-lattice."""

    __slots__ = __match_args__ = ("s_k", "s_diamond", "s_b")


def sharp_sets(A):
    """Kleene-, modal- and Brouwer-sharp elements.

    Raises ValueError off the BZ class, where the modal and Brouwer
    variants are not meaningful.
    """
    report = classify(A)
    if not report.bz:
        raise ValueError("sharp_sets needs a BZ-lattice, violated "
                         f"{dict(report.witnesses)['bz']}")
    s_diamond = frozenset(a for a in range(A.n) if A.diamond(a) == a)
    # a = <>a and a' = a~ are equivalent on BZ-lattices; keep both
    # computations around as a live cross-check rather than an assumption
    via_maps = frozenset(a for a in range(A.n)
                         if A.kleene[a] == A.brouwer[a])
    assert s_diamond == via_maps, "modal-sharp characterizations disagree"
    s_b = frozenset(a for a in range(A.n)
                    if A.join(a, A.brouwer[a]) == A.one)
    return SharpSets(kleene_sharp(A), s_diamond, s_b)


# Each class flag, in report order: the flags it needs first, and its
# own THEORY statements, each with the label of its witness.  A flag
# holds where every flag it needs holds and all of its statements hold,
# and its witness is that of the first of its statements to fail,
# tagged with the label when there is one, and none where the label is
# False.  BZ* and diamond-orthomodularity need BZ, which keeps PBZ*
# inside BZ* inside BZ on every report, whatever the raw scans would
# say; S_K = {0, 1}, the bare order-theoretic reading, keeps no witness.
_FLAGS = {
    "bounded-involution": ((), ()),
    "pseudo-kleene": ((), (("PK", None),)),
    "ortholattice": ((), (("OL", None),)),
    "orthomodular": ((), (("OM", None),)),
    "paraorthomodular": ((), (("POM", None),)),
    "bz": ((), (("PK", "pk"), ("BZ1", "bz:disjoint"),
                ("BZ2", "bz:expanding"), ("BZ3", "bz:antitone"),
                ("BZ4", "bz:link"))),
    "bz-star": (("bz",), (("STAR", None),)),
    "diamond-orthomodular": (("bz",), (("DIAMOND_OM", None),)),
    "pbz-star": (("bz-star", "diamond-orthomodular"), ()),
    "kleene-sharp-trivial": ((), (("ANTIORTHO", False),)),
    "antiortholattice": (("pbz-star", "kleene-sharp-trivial"), ()),
}
CLASS_FLAGS = tuple(_FLAGS)


def _statements(flag):
    """The THEORY statements a flag holds on, in the order it reads
    them: those of the flags it needs, then its own, each once."""
    needs, own = _FLAGS[flag]
    return tuple(dict.fromkeys((
        *(statement for need in needs for statement in _statements(need)),
        *(terms.THEORY[name] for name, _ in own))))


# What a level read of each flag scans, statement by statement.
_READS = {flag: _statements(flag) for flag in _FLAGS}


class AlgebraClassReport(_Record):
    """One flag per axiom class, with witnesses for the failures.

    ``antiortholattice`` is the class flag (PBZ* with trivial S_K);
    ``kleene_sharp_trivial`` is the bare order-theoretic reading
    (S_K = {0, 1} regardless of the other axioms).  Every flag is a
    bool and ``witnesses`` a tuple of (flag, witness) pairs.  The
    fields are the class flags, spelt with underscores, in
    ``CLASS_FLAGS`` order, then the witnesses.
    """

    __slots__ = __match_args__ = (
        *(flag.replace("-", "_") for flag in CLASS_FLAGS), "witnesses")

    def flags(self):
        return dict(zip(CLASS_FLAGS, self._fields()))


def satisfies(A, name):
    """Whether A has the class flag ``name``, read off its class report
    (``classify``), or satisfies the THEORY statement ``name``, scanned
    anew (``terms.holds``)."""
    if name in _FLAGS:
        return classify(A).flags()[name]
    return terms.holds(A, terms.THEORY[name])[0]


def _held(level, name, within):
    """The members of a level (``core._Level``) in the mask ``within``
    that have the class flag ``name`` or satisfy the THEORY statement
    ``name``, as a mask: the one reader of names behind spec filters,
    claim hypotheses, claim conclusions and claim checks.  A THEORY
    name reads its statement, and a flag the statements of the flags
    it needs and then its own (``_READS``), each off the level's mask
    for it (``terms._level_held``) and over the members still in, so a
    statement is scanned once per member whichever names read it, no
    other statement is scanned, and no class report is built."""
    statements = _READS.get(name)
    if statements is None:
        statements = (terms.THEORY[name],)
    for statement in statements:
        within = terms._level_held(level, statement, within)
    return within


def classify(A):
    """Evaluate every class flag on a validated algebra, off the same
    statements as ``_held`` (``_FLAGS``), each scanned on A alone.

    The report is computed on the first call and kept on the algebra,
    whose maps cannot change; later calls return the same frozen
    report.
    """
    return A._keep("classes", lambda: _report(A))


def _report(A):
    held, witnesses = {}, []
    for flag, (needs, statements) in _FLAGS.items():
        ok = all(held[need] for need in needs)
        for name, label in statements if ok else ():
            ok, witness = terms._scan((A,), terms.THEORY[name])[0]
            if not ok:
                if label is not False:
                    witnesses.append((flag, witness if label is None
                                      else (label, witness)))
                break
        held[flag] = ok
    return AlgebraClassReport(*held.values(), tuple(sorted(witnesses)))
