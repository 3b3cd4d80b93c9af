"""Class membership checks and sharp-element bookkeeping.

Every predicate scans assignments exhaustively in ascending index order
and reports the first (lexicographically least) witness on failure, so
results are reproducible and witnesses are minimal.
"""

from dataclasses import dataclass

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
    """a ^ a' <= b v b' for all a, b.  Returns (bool, witness)."""
    n = A.n
    lows = [A.meet(a, A.kleene[a]) for a in range(n)]
    highs = [A.join(b, A.kleene[b]) for b in range(n)]
    for a in range(n):
        for b in range(n):
            if not A.le(lows[a], highs[b]):
                return False, (a, b)
    return True, None


def is_ortholattice(A):
    """Every element is Kleene-sharp: a ^ a' = 0."""
    for a in range(A.n):
        if A.meet(a, A.kleene[a]) != A.zero:
            return False, (a,)
    return True, None


def is_orthomodular(A):
    """a <= b implies b = (b ^ a') v a.

    Taking b = 1 forces a v a' = 1 hence a ^ a' = 0, so this already
    implies the ortholattice condition; no separate check needed.
    """
    for a in range(A.n):
        for b in range(A.n):
            if A.le(a, b) and A.join(A.meet(b, A.kleene[a]), a) != b:
                return False, (a, b)
    return True, None


def is_paraorthomodular(A):
    """a <= b and a' ^ b = 0 imply a = b."""
    for a in range(A.n):
        for b in range(A.n):
            if (a != b and A.le(a, b)
                    and A.meet(A.kleene[a], b) == A.zero):
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
    for a in range(A.n):
        if A.meet(a, A.brouwer[a]) != A.zero:
            return False, ("bz:disjoint", (a,))
    for a in range(A.n):
        if not A.le(a, A.diamond(a)):
            return False, ("bz:expanding", (a,))
    for a in range(A.n):
        for b in range(A.n):
            if A.le(a, b) and not A.le(A.brouwer[b], A.brouwer[a]):
                return False, ("bz:antitone", (a, b))
    for a in range(A.n):
        if A.kleene[A.brouwer[a]] != A.diamond(a):
            return False, ("bz:link", (a,))
    return True, None


def is_bz_star(A):
    """(a ^ a')~ <= a~ v a'~ for all a.  Assumes A is BZ."""
    for a in range(A.n):
        lhs = A.brouwer[A.meet(a, A.kleene[a])]
        rhs = A.join(A.brouwer[a], A.brouwer[A.kleene[a]])
        if not A.le(lhs, rhs):
            return False, (a,)
    return True, None


def is_diamond_orthomodular(A):
    """(a~ v (<>a ^ <>b)) ^ <>a <= <>b for all a, b.  Assumes A is BZ."""
    for a in range(A.n):
        da = A.diamond(a)
        for b in range(A.n):
            db = A.diamond(b)
            lhs = A.meet(A.join(A.brouwer[a], A.meet(da, db)), da)
            if not A.le(lhs, db):
                return False, (a, b)
    return True, None


def kleene_sharp(A):
    """S_K: elements with a ^ a' = 0.  Defined on any validated algebra."""
    return frozenset(a for a in range(A.n)
                     if A.meet(a, A.kleene[a]) == A.zero)


def is_antiortholattice(A):
    """S_K = {0, 1}: no Kleene-sharp elements besides the bounds."""
    return kleene_sharp(A) == {A.zero, A.one}


@dataclass(frozen=True)
class SharpSets:
    """The three sharp-element sets of a BZ-lattice."""

    s_k: frozenset
    s_diamond: frozenset
    s_b: frozenset


def sharp_sets(A):
    """Kleene-, modal- and Brouwer-sharp elements.

    Raises ValueError off the BZ class, where the modal and Brouwer
    variants are not meaningful.
    """
    ok, w = is_bz(A)
    if not ok:
        raise ValueError(f"sharp_sets needs a BZ-lattice, violated {w}")
    s_diamond = frozenset(a for a in range(A.n) if A.diamond(a) == a)
    # a = <>a and a' = a~ are equivalent on BZ-lattices; keep both
    # computations around as a live cross-check rather than an assumption
    via_maps = frozenset(a for a in range(A.n)
                         if A.kleene[a] == A.brouwer[a])
    assert s_diamond == via_maps, "modal-sharp characterizations disagree"
    s_b = frozenset(a for a in range(A.n)
                    if A.join(a, A.brouwer[a]) == A.one)
    return SharpSets(kleene_sharp(A), s_diamond, s_b)


_BASIC_CLAUSES = (
    "triple-brouwer",      # a~~~ = a~
    "brouwer-below-kleene",  # a~ <= a'
    "join-demorgan",       # (a v b)~ = a~ ^ b~
    "meet-halfdemorgan",   # a~ v b~ <= (a ^ b)~
    "box-kleene-link",     # (box(a'))' = <>a
    "box-meet",            # box(a ^ b) = box a ^ box b
    "diamond-join",        # <>(a v b) = <>a v <>b
    "diamond-meet",        # <>(a ^ b) <= <>a ^ <>b
    "negative-kills",      # a' <= a implies a~ = 0
)


def check_basics(A):
    """Brouwer/modal arithmetic facts that hold in every BZ-lattice.

    Returns a list of (clause, witness) for whatever fails; empty means
    all nine clauses hold.  Assumes A is BZ.
    """
    n, bro, kle = A.n, A.brouwer, A.kleene
    bad = []

    def first(clause, gen):
        w = next(gen, None)
        if w is not None:
            bad.append((clause, w))

    first("triple-brouwer",
          ((a,) for a in range(n) if bro[bro[bro[a]]] != bro[a]))
    first("brouwer-below-kleene",
          ((a,) for a in range(n) if not A.le(bro[a], kle[a])))
    first("join-demorgan",
          ((a, b) for a in range(n) for b in range(n)
           if bro[A.join(a, b)] != A.meet(bro[a], bro[b])))
    first("meet-halfdemorgan",
          ((a, b) for a in range(n) for b in range(n)
           if not A.le(A.join(bro[a], bro[b]), bro[A.meet(a, b)])))
    first("box-kleene-link",
          ((a,) for a in range(n) if kle[A.box(kle[a])] != A.diamond(a)))
    first("box-meet",
          ((a, b) for a in range(n) for b in range(n)
           if A.box(A.meet(a, b)) != A.meet(A.box(a), A.box(b))))
    first("diamond-join",
          ((a, b) for a in range(n) for b in range(n)
           if A.diamond(A.join(a, b)) != A.join(A.diamond(a), A.diamond(b))))
    first("diamond-meet",
          ((a, b) for a in range(n) for b in range(n)
           if not A.le(A.diamond(A.meet(a, b)),
                       A.meet(A.diamond(a), A.diamond(b)))))
    first("negative-kills",
          ((a,) for a in range(n)
           if A.le(kle[a], a) and bro[a] != A.zero))
    return bad


@dataclass(frozen=True)
class AlgebraClassReport:
    """One flag per axiom class, with witnesses for the failures.

    ``antiortholattice`` is the class flag (PBZ* with trivial S_K);
    ``kleene_sharp_trivial`` is the bare order-theoretic reading
    (S_K = {0, 1} regardless of the other axioms).
    """

    bounded_involution: bool
    pseudo_kleene: bool
    ortholattice: bool
    orthomodular: bool
    paraorthomodular: bool
    bz: bool
    bz_star: bool
    diamond_orthomodular: bool
    pbz_star: bool
    kleene_sharp_trivial: bool
    antiortholattice: bool
    witnesses: tuple

    def flags(self):
        return {
            "bounded-involution": self.bounded_involution,
            "pseudo-kleene": self.pseudo_kleene,
            "ortholattice": self.ortholattice,
            "orthomodular": self.orthomodular,
            "paraorthomodular": self.paraorthomodular,
            "bz": self.bz,
            "bz-star": self.bz_star,
            "diamond-orthomodular": self.diamond_orthomodular,
            "pbz-star": self.pbz_star,
            "kleene-sharp-trivial": self.kleene_sharp_trivial,
            "antiortholattice": self.antiortholattice,
        }


def classify(A):
    """Evaluate every class flag on a validated algebra.

    BZ*-dependent flags are gated on BZ membership; that keeps the
    by-definition containments (PBZ* inside BZ* inside BZ) true on the
    report regardless of what the raw inequality scans would say.

    The report is computed on the first call and kept on the algebra,
    whose maps cannot change; later calls return the same frozen
    report.
    """
    if A._classes is None:
        A._classes = _classify(A)
    return A._classes


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
