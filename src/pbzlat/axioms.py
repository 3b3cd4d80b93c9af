"""Class flags and sharp-element bookkeeping.

Every class flag is read off THEORY statements (``_FLAG_STATEMENTS``)
by the one evaluator, ``terms._verdicts``, over a whole level of
algebras at once, and ``_held`` reads a flag or a THEORY statement by
name over a level, as spec filters and claims name them.  A scan runs
through the assignments in odometer order and reports the first
(lexicographically least) failing one, so witnesses are reproducible
and minimal.  The generator tests bare pairs of an order and an
involution before any algebra exists (``_pseudo_kleene``,
``_sharp_interior``).
"""

import operator

from . import terms
from .core import _keep_each, _Record, _set_field

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


class AlgebraClassReport(_Record):
    """One flag per axiom class, with witnesses for the failures.

    ``antiortholattice`` is the class flag (PBZ* with trivial S_K);
    ``kleene_sharp_trivial`` is the bare order-theoretic reading
    (S_K = {0, 1} regardless of the other axioms).  Every flag is a
    bool and ``witnesses`` a tuple of (flag, witness) pairs.
    """

    __slots__ = __match_args__ = (
        "bounded_involution", "pseudo_kleene", "ortholattice",
        "orthomodular", "paraorthomodular", "bz", "bz_star",
        "diamond_orthomodular", "pbz_star", "kleene_sharp_trivial",
        "antiortholattice", "witnesses")

    def __init__(self, bounded_involution, pseudo_kleene, ortholattice,
                 orthomodular, paraorthomodular, bz, bz_star,
                 diamond_orthomodular, pbz_star, kleene_sharp_trivial,
                 antiortholattice, witnesses):
        _set_field(self, "bounded_involution", bounded_involution)
        _set_field(self, "pseudo_kleene", pseudo_kleene)
        _set_field(self, "ortholattice", ortholattice)
        _set_field(self, "orthomodular", orthomodular)
        _set_field(self, "paraorthomodular", paraorthomodular)
        _set_field(self, "bz", bz)
        _set_field(self, "bz_star", bz_star)
        _set_field(self, "diamond_orthomodular", diamond_orthomodular)
        _set_field(self, "pbz_star", pbz_star)
        _set_field(self, "kleene_sharp_trivial", kleene_sharp_trivial)
        _set_field(self, "antiortholattice", antiortholattice)
        _set_field(self, "witnesses", witnesses)

    def flags(self):
        return {name: getattr(self, field)
                for name, field in _FLAG_FIELDS.items()}


# The class-flag names, in report order: the fields above but the
# witnesses, spelt with hyphens.
CLASS_FLAGS = tuple(name.replace("_", "-")
                    for name in AlgebraClassReport.__match_args__
                    if name != "witnesses")
_FLAG_FIELDS = {name: name.replace("-", "_") for name in CLASS_FLAGS}
_FLAG_READERS = {name: operator.attrgetter(field)
                 for name, field in _FLAG_FIELDS.items()}


def satisfies(A, name):
    """Whether A has the class flag ``name`` or satisfies the THEORY
    statement ``name``; both are kept on the algebra once decided.
    This is ``_held`` for one algebra."""
    return _held((A,), name)[0]


def _held(algebras, name):
    """Whether each of some algebras of one size, in order, has the
    class flag ``name`` or satisfies the THEORY statement ``name``: the
    one reader of names behind spec filters, claim hypotheses and claim
    conclusions.  A flag is read off the kept class reports, the
    algebras with none classified together; a statement off the kept
    verdicts (``terms._verdicts``)."""
    read = _FLAG_READERS.get(name)
    if read is not None:
        return list(map(read, _keep_each(algebras, "classes", _classify)))
    return [ok for ok, _ in terms._verdicts(algebras, terms.THEORY[name])]


# The THEORY statements each class flag reads, in order, each with the
# label of its witness.  A flag holds where all of its statements hold,
# and its witness is that of the first one to fail, tagged with the
# label when there is one.  BZ* and diamond-orthomodularity are read on
# BZ algebras alone, which keeps PBZ* inside BZ* inside BZ on every
# report, whatever the raw scans would say; S_K = {0, 1}, the bare
# order-theoretic reading, keeps no witness.
_FLAG_STATEMENTS = {
    "pseudo-kleene": (("PK", None),),
    "ortholattice": (("OL", None),),
    "orthomodular": (("OM", None),),
    "paraorthomodular": (("POM", None),),
    "bz": (("PK", "pk"), ("BZ1", "bz:disjoint"), ("BZ2", "bz:expanding"),
           ("BZ3", "bz:antitone"), ("BZ4", "bz:link")),
    "bz-star": (("STAR", None),),
    "diamond-orthomodular": (("DIAMOND_OM", None),),
    "kleene-sharp-trivial": (("ANTIORTHO", None),),
}
_ON_BZ = ("bz-star", "diamond-orthomodular")
_NO_WITNESS = ("kleene-sharp-trivial",)


def classify(A):
    """Evaluate every class flag on a validated algebra: the report of
    a level of one algebra (``_classify``).

    The report is computed on the first call and kept on the algebra,
    whose maps cannot change; later calls return the same frozen
    report.
    """
    return _keep_each((A,), "classes", _classify)[0]


def _classify(algebras):
    """The class reports of some algebras of one size, in order: each
    flag's statements scanned in turn (``terms._verdicts``), each over
    the algebras that have failed none of the flag's statements yet."""
    passed, witnesses = {}, [{} for _ in algebras]
    for flag, statements in _FLAG_STATEMENTS.items():
        alive = range(len(algebras)) if flag not in _ON_BZ else \
            sorted(passed["bz"])
        for name, label in statements:
            verdicts = terms._verdicts([algebras[i] for i in alive],
                                       terms.THEORY[name])
            still = []
            for i, (ok, witness) in zip(alive, verdicts):
                if ok:
                    still.append(i)
                elif flag not in _NO_WITNESS:
                    witnesses[i][flag] = witness if label is None \
                        else (label, witness)
            alive = still
        passed[flag] = set(alive)
    reports = []
    for i, found in enumerate(witnesses):
        flags = {_FLAG_FIELDS[flag]: i in on for flag, on in passed.items()}
        pbz = flags["bz"] and flags["bz_star"] and \
            flags["diamond_orthomodular"]
        reports.append(AlgebraClassReport(
            bounded_involution=True, pbz_star=pbz,
            antiortholattice=pbz and flags["kleene_sharp_trivial"],
            witnesses=tuple(sorted(found.items())), **flags))
    return reports
