"""Class membership checks and sharp-element bookkeeping.

Every predicate scans assignments exhaustively in ascending index order
and reports the first (lexicographically least) witness on failure, so
results are reproducible and witnesses are minimal.
"""

from . import terms
from .core import _bits, _Record, _set_field

__all__ = [
    "is_pseudo_kleene",
    "is_ortholattice",
    "is_orthomodular",
    "is_paraorthomodular",
    "is_bz",
    "is_bz_star",
    "is_diamond_orthomodular",
    "is_antiortholattice",
    "kleene_sharp",
    "sharp_sets",
    "SharpSets",
    "check_basics",
    "classify",
    "AlgebraClassReport",
]


def is_pseudo_kleene(A):
    """a ^ a' <= b v b' for all a, b.  Returns (bool, witness), the
    witness the least failing (a, b)."""
    return _pseudo_kleene(A._ord, A.kleene)


def _pseudo_kleene(order, kleene):
    """``is_pseudo_kleene`` of the pair of an order and an involution,
    with no algebra built.  Each a ^ a' is tested against the set of all
    b v b' at once, through its up-set mask."""
    n, meet, join, up = order.n, order.meet, order.join, order.up
    highs = [join[b * n + kleene[b]] for b in range(n)]
    high_set = sum(1 << h for h in set(highs))
    for a in range(n):
        missed = high_set & ~up[meet[a * n + kleene[a]]]
        if missed:
            return False, (a, next(b for b, h in enumerate(highs)
                                   if missed >> h & 1))
    return True, None


def is_ortholattice(A):
    """Every element is Kleene-sharp: a ^ a' = 0."""
    n, meet, kleene = A.n, A._ord.meet, A.kleene
    for a in range(n):
        if meet[a * n + kleene[a]] != A.zero:
            return False, (a,)
    return True, None


def is_orthomodular(A):
    """a <= b implies b = (b ^ a') v a.

    Taking b = 1 forces a v a' = 1 hence a ^ a' = 0, so this already
    implies the ortholattice condition; no separate check needed.
    """
    o, kleene = A._ord, A.kleene
    n, meet, join = o.n, o.meet, o.join
    for a in range(n):
        an, kn = a * n, kleene[a] * n
        mk, ja = meet[kn:kn + n], join[an:an + n]
        for b in _bits(o.up[a]):
            if ja[mk[b]] != b:
                return False, (a, b)
    return True, None


def is_paraorthomodular(A):
    """a <= b and a' ^ b = 0 imply a = b."""
    o, kleene = A._ord, A.kleene
    n, meet = o.n, o.meet
    for a in range(n):
        kn = kleene[a] * n
        mk = meet[kn:kn + n]
        for b in _bits(o.up[a] & ~(1 << a)):
            if mk[b] == o.zero:
                return False, (a, b)
    return True, None


_BZ_CLAUSES = ("pk", "bz:disjoint", "bz:expanding", "bz:antitone", "bz:link")


def is_bz(A):
    """Pseudo-Kleene plus the four Brouwer axioms.

    Clauses, in check order: a ^ a~ = 0; a <= a~~; a <= b implies
    b~ <= a~; a~' = a~~.  Witness is (clause name, elements).
    """
    ok, w = is_pseudo_kleene(A)
    if not ok:
        return False, ("pk", w)
    o, kleene, tilde = A._ord, A.kleene, A.brouwer
    n, up, down, meet = o.n, o.up, o.down, o.meet
    for a in range(n):
        if meet[a * n + tilde[a]] != o.zero:
            return False, ("bz:disjoint", (a,))
    for a in range(n):
        if not up[a] >> tilde[tilde[a]] & 1:
            return False, ("bz:expanding", (a,))
    for a in range(n):
        # the b above a, ascending, each with b~ <= a~
        below = down[tilde[a]]
        for b in _bits(up[a]):
            if not below >> tilde[b] & 1:
                return False, ("bz:antitone", (a, b))
    for a in range(n):
        if kleene[tilde[a]] != tilde[tilde[a]]:
            return False, ("bz:link", (a,))
    return True, None


def is_bz_star(A):
    """(a ^ a')~ <= a~ v a'~ for all a.  Assumes A is BZ."""
    o, kleene, tilde = A._ord, A.kleene, A.brouwer
    n, up, meet, join = o.n, o.up, o.meet, o.join
    for a in range(n):
        lhs = tilde[meet[a * n + kleene[a]]]
        if not up[lhs] >> join[tilde[a] * n + tilde[kleene[a]]] & 1:
            return False, (a,)
    return True, None


def is_diamond_orthomodular(A):
    """(a~ v (<>a ^ <>b)) ^ <>a <= <>b for all a, b.  Assumes A is BZ."""
    o, brouwer = A._ord, A.brouwer
    n, up, meet, join = o.n, o.up, o.meet, o.join
    diamonds = [brouwer[brouwer[a]] for a in range(n)]
    for a, da in enumerate(diamonds):
        dn, tn = da * n, brouwer[a] * n
        md, jt = meet[dn:dn + n], join[tn:tn + n]
        for b, db in enumerate(diamonds):
            if not up[md[jt[md[db]]]] >> db & 1:
                return False, (a, b)
    return True, None


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


def is_antiortholattice(A):
    """S_K = {0, 1}: no Kleene-sharp elements besides the bounds."""
    return not _sharp_interior(A._ord, A.kleene)


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


_BASIC_CLAUSES = tuple(
    (clause, terms.parse_statement(text)) for clause, text in (
        ("triple-brouwer", "a~~~ = a~"),
        ("brouwer-below-kleene", "a~ <= a'"),
        ("join-demorgan", "(a v b)~ = a~ ^ b~"),
        ("meet-halfdemorgan", "a~ v b~ <= (a ^ b)~"),
        ("box-kleene-link", "([](a'))' = <>a"),
        ("box-meet", "[](a ^ b) = []a ^ []b"),
        ("diamond-join", "<>(a v b) = <>a v <>b"),
        ("diamond-meet", "<>(a ^ b) <= <>a ^ <>b"),
        ("negative-kills", "a' <= a => a~ = 0"),
    ))


def check_basics(A):
    """Brouwer/modal arithmetic facts that hold in every BZ-lattice.

    Returns a list of (clause, witness) for whatever fails, the witness
    being the first failing assignment's values in variable order;
    empty means all nine clauses hold.  Assumes A is BZ.
    """
    bad = []
    for clause, statement in _BASIC_CLAUSES:
        ok, w = terms.holds(A, statement)
        if not ok:
            bad.append((clause, tuple(w[v] for v in sorted(w))))
    return bad


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


def satisfies(A, name):
    """Whether A has the class flag ``name`` or satisfies the THEORY
    statement ``name``; both are kept on the algebra once decided."""
    if name in _FLAG_FIELDS:
        return getattr(classify(A), _FLAG_FIELDS[name])
    return terms.holds(A, terms.THEORY[name])[0]


def classify(A):
    """Evaluate every class flag on a validated algebra.

    BZ*-dependent flags are gated on BZ membership; that keeps the
    by-definition containments (PBZ* inside BZ* inside BZ) true on the
    report regardless of what the raw inequality scans would say.

    The report is computed on the first call and kept on the algebra,
    whose maps cannot change; later calls return the same frozen
    report.
    """
    return A._keep("classes", lambda: _classify(A))


def _classify(A):
    witnesses = {}

    def note(name, pair):
        ok, w = pair
        if not ok:
            witnesses[name] = w
        return ok

    pk = note("pseudo-kleene", is_pseudo_kleene(A))
    ortho = note("ortholattice", is_ortholattice(A))
    om = note("orthomodular", is_orthomodular(A))
    pom = note("paraorthomodular", is_paraorthomodular(A))
    bz = note("bz", is_bz(A))
    bz_star = bz and note("bz-star", is_bz_star(A))
    dom = bz and note("diamond-orthomodular", is_diamond_orthomodular(A))
    pbz = bz and bz_star and dom
    trivial = is_antiortholattice(A)
    return AlgebraClassReport(
        bounded_involution=True,
        pseudo_kleene=pk,
        ortholattice=ortho,
        orthomodular=om,
        paraorthomodular=pom,
        bz=bz,
        bz_star=bz_star,
        diamond_orthomodular=dom,
        pbz_star=pbz,
        kleene_sharp_trivial=trivial,
        antiortholattice=pbz and trivial,
        witnesses=tuple(sorted(witnesses.items())),
    )
