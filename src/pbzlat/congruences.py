"""Congruence machinery: principal congruences, the full congruence
lattice at desk scale, subdirect irreducibility, and the special
relation families used to analyze subdirectly irreducible members of
the distributive strong-De-Morgan antiortholattice variety.
"""

import functools
import operator

from . import axioms
from .core import _bits, _Record, _row_type, _set_field

__all__ = [
    "Congruence", "is_congruence", "congruence_generated",
    "principal_congruence", "join_congruences", "meet_congruences",
    "all_congruences", "is_subdirectly_irreducible",
    "is_directly_indecomposable", "tilde_partition", "RelationReport",
    "agreement_below", "tilde_meet_relation", "tilde_join_relation",
    "TildeFamilyReport", "tilde_family_report",
]


class Congruence(_Record):
    """An equivalence relation in normalized partition form.

    ``block_of[a]`` is the block id of element a.  The constructor
    takes any hashable block labels and renumbers them by first
    occurrence, so equal partitions compare equal.  Instances are
    immutable and hash on ``block_of``, so callers may share them.
    """

    __slots__ = __match_args__ = ("block_of",)

    def __init__(self, block_of):
        remap = {}
        norm = []
        for b in block_of:
            if b not in remap:
                remap[b] = len(remap)
            norm.append(remap[b])
        _set_field(self, "block_of", tuple(norm))

    @property
    def n(self):
        return len(self.block_of)

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def total(cls, n):
        return cls([0] * n)

    @classmethod
    def from_blocks(cls, n, blocks):
        block_of = [None] * n
        for i, B in enumerate(blocks):
            for a in B:
                block_of[a] = i
        if any(b is None for b in block_of):
            raise ValueError("blocks do not cover 0..n-1")
        return cls(block_of)

    def related(self, a, b):
        return self.block_of[a] == self.block_of[b]

    def blocks(self):
        """Blocks as sorted tuples, ordered by least element."""
        out = {}
        for a, b in enumerate(self.block_of):
            out.setdefault(b, []).append(a)
        return [tuple(B) for B in sorted(out.values())]

    def pairs(self):
        """Sorted list of related pairs (a, b) with a < b."""
        return [(a, b) for a in range(self.n) for b in range(a + 1, self.n)
                if self.block_of[a] == self.block_of[b]]

    def num_blocks(self):
        return len(set(self.block_of))

    def is_identity(self):
        return self.num_blocks() == self.n

    def is_total(self):
        return self.num_blocks() == 1

    def refines(self, other):
        """True when every block of self sits inside a block of other."""
        seen = {}
        for a in range(self.n):
            b = self.block_of[a]
            if b in seen:
                if seen[b] != other.block_of[a]:
                    return False
            else:
                seen[b] = other.block_of[a]
        return True

    def __repr__(self):
        body = "|".join(",".join(str(a) for a in B) for B in self.blocks())
        return f"<Congruence {body}>"


def is_congruence(A, theta):
    """Compatibility with meet, join, ' and ~; (ok, witness).

    The witness is ((a, b), op) for the first related pair some basic
    operation tears apart.
    """
    n, meet, join = A.n, A._ord.meet, A._ord.join
    if theta.n != n:
        return False, ("size", None)
    for a in range(n):
        an = a * n
        for b in range(a + 1, n):
            if not theta.related(a, b):
                continue
            if not theta.related(A.kleene[a], A.kleene[b]):
                return False, ((a, b), "kleene")
            if not theta.related(A.brouwer[a], A.brouwer[b]):
                return False, ((a, b), "brouwer")
            bn = b * n
            ma, mb = meet[an:an + n], meet[bn:bn + n]
            ja, jb = join[an:an + n], join[bn:bn + n]
            for c in range(n):
                if not theta.related(ma[c], mb[c]):
                    return False, ((a, b), f"meet:{c}")
                if not theta.related(ja[c], jb[c]):
                    return False, ((a, b), f"join:{c}")
    return True, None


class _CoverReach:
    """The cover pairs of an algebra, by rising tops, and for each
    cover i, ``reach[i]``: the bitmask of the covers that con(cover)
    collapses.  Cover i is (``lower[i]``, ``upper[i]``), both kept as
    ``_row_type`` buffers.

    A lattice congruence, having convex blocks, relates a and b iff it
    collapses each cover on a maximal chain from a ^ b to a v b.  So
    cover p = (a, b) forces the covers on one such chain for each
    translate (x, y), x != y, of p: (a ^ c, b ^ c), (a v c, b v c),
    (a', b') and (a~, b~).  A set R of covers closed under these edges
    generates a congruence: lattice translates of a path of R-covers are
    paths of comparable pairs with chains in R, so the equivalence is a
    lattice congruence, hence convex, and holds the ' and ~ images too.
    It collapses no cover (x, y) outside R: meeting with y, then joining
    with x, maps a path of R-covers from x to y into {x, y}, so (x, y) is
    a join-translate of a cover in R.  So the congruences are the unions
    of reach sets, and meet and join are intersection and union.
    """

    __slots__ = ("lower", "upper", "reach", "_ord")

    def __init__(self, A):
        order = self._ord = A._ord
        n, meet, join = order.n, order.meet, order.join
        covers = sorted(A.covers(),
                        key=lambda p: order.down[p[1]].bit_count())
        self.lower = _row_type(n)(a for a, _ in covers)
        self.upper = _row_type(n)(b for _, b in covers)
        kleene, brouwer = A.kleene, A.brouwer
        chain, reach = functools.cache(self.chain), []
        for i, (a, b) in enumerate(covers):
            forced = 1 << i
            an, bn = a * n, b * n
            for x, y in {(kleene[a], kleene[b]), (brouwer[a], brouwer[b]),
                         *zip(meet[an:an + n], meet[bn:bn + n]),
                         *zip(join[an:an + n], join[bn:bn + n])}:
                if x != y:
                    forced |= chain(meet[x * n + y], join[x * n + y])
            reach.append(forced)
        for k in range(len(reach)):  # transitive closure, pivot k
            reach = [r | reach[k] if r >> k & 1 else r for r in reach]
        self.reach = tuple(reach)

    def chain(self, lo, hi):
        """Bitmask of the covers on one maximal chain from lo up to hi."""
        up, mask = self._ord.up, 0
        while lo != hi:
            i, lo = next((i, b) for i, (a, b) in
                         enumerate(zip(self.lower, self.upper))
                         if a == lo and up[b] >> hi & 1)
            mask |= 1 << i
        return mask

    def partition(self, mask):
        """The congruence collapsing a closed set of covers.  Each element
        but the least of its block tops a collapsed cover, which, taken
        by rising tops, hands it the least element."""
        least = list(range(self._ord.n))
        for i, (a, b) in enumerate(zip(self.lower, self.upper)):
            if mask >> i & 1:
                least[b] = least[a]
        return Congruence(least)


def congruence_generated(A, pairs):
    """Least congruence containing the given pairs: the union of the
    reach sets of the covers on their chains."""
    cr = _CoverReach(A)
    mask = 0
    for a, b in pairs:
        for i in _bits(cr.chain(A.meet(a, b), A.join(a, b))):
            mask |= cr.reach[i]
    return cr.partition(mask)


def principal_congruence(A, a, b):
    return congruence_generated(A, [(a, b)])


def join_congruences(A, t1, t2):
    return congruence_generated(A, t1.pairs() + t2.pairs())


def meet_congruences(t1, t2):
    """Common refinement; the meet in the congruence lattice."""
    return Congruence(list(zip(t1.block_of, t2.block_of)))


def all_congruences(A):
    """Every congruence of A, sorted coarsest-last: one per union of
    reach sets, the empty union giving the identity.  Guarded to
    n <= 12; there can be exponentially many, and this package only
    needs desk scale.  Each call returns a new list.
    """
    if A.n > 12:
        raise ValueError("all_congruences is capped at 12 elements")
    cr = _CoverReach(A)
    found = {0}
    for r in set(cr.reach):
        found |= {closed | r for closed in found}
    return sorted(map(cr.partition, found),
                  key=lambda t: (len(t.pairs()), t.block_of))


def is_subdirectly_irreducible(A):
    """(flag, monolith).  The monolith is the least congruence above
    the identity; trivial algebras come back (False, None).  Each such
    congruence contains some con(p), so the monolith collapses the
    covers every reach set shares."""
    cr = _CoverReach(A)
    shared = _shared_covers(cr)
    return (True, cr.partition(shared)) if shared else (False, None)


def _shared_covers(cr):
    """The covers every reach set of ``cr`` (a ``_CoverReach``) shares,
    as a mask over its covers: those the monolith collapses, none when
    the algebra is not s.i."""
    return functools.reduce(operator.and_, cr.reach or (0,))


def _is_si(A):
    """The flag of ``is_subdirectly_irreducible`` with no monolith
    built: the SI gate of the claims and of ``tilde_family_report``."""
    return _shared_covers(_CoverReach(A)) != 0


def is_directly_indecomposable(A):
    """No pair of complementary permuting factor congruences; A must be
    a BZ-lattice.  A is indecomposable iff its reach sets link every
    cover to every other, since complementary congruences collapse
    complementary closed sets of covers and, in a BZ-lattice, permute.

    Let [0, u] and [0, v] be the 0-blocks of complementary theta and
    phi; ' maps them onto the 1-blocks [u', 1] and [v', 1].
    1 = 0~ theta u~ <= u' gives u~ = u'; likewise v~ = v', so v ^ v' = 0.
    u ^ v' theta u (via 0) and phi u (via 1), so u <= v'.  If u < v',
    phi collapses a cover (u, z) with z <= v', so z ^ u' phi u ^ u' = 0
    and z ^ u' <= v ^ v' = 0, yet z theta z ^ u' = 0.  So u = v', and
    (a ^ u') v (b ^ u) is theta-related to a and phi-related to b.
    Without a Brouwer ~ this fails: the 4-chain with ~ the identity has
    two unlinked classes of covers and is indecomposable.  The
    one-element algebra has no two nontrivial factors."""
    if not axioms.satisfies(A, "bz"):
        raise ValueError("direct indecomposability needs a BZ-lattice")
    reach = _CoverReach(A).reach
    linked = reach[0] if reach else 0
    for _ in reach:
        linked = functools.reduce(operator.or_,
                                  [r for r in reach if r & linked], linked)
    return linked == (1 << len(reach)) - 1


def tilde_partition(A):
    """Bounds apart, strict cone interiors together, fixpoints and
    incomparables alone.

    On a subdirectly irreducible antiortholattice with comparable
    cones this is the coset partition {0}, {1}, strictly-negative,
    strictly-positive, plus the fixpoint if there is one.
    """
    tags = []
    for a in range(A.n):
        ka = A.kleene[a]
        if a == A.zero:
            tags.append(("zero",))
        elif a == A.one:
            tags.append(("one",))
        elif ka == a:
            tags.append(("fix", a))
        elif A.le(a, ka):
            tags.append(("neg",))
        elif A.le(ka, a):
            tags.append(("pos",))
        else:
            tags.append(("inc", a))
    return Congruence(tags)


class RelationReport(_Record):
    """An equivalence relation (a Congruence) plus whether it is
    compatible, with a witness tuple when it is not."""

    __slots__ = __match_args__ = ("partition", "is_congruence", "witness")


def _report(A, partition):
    ok, w = is_congruence(A, partition)
    return RelationReport(partition, ok, w)


def agreement_below(A, p):
    """Relate x and y when x, x', x~, box x, <>x and <>(x') all agree
    with the y versions after meeting with p."""
    n, pn = A.n, p * A.n
    mp = A._ord.meet[pn:pn + n]  # meets with p, by the other element
    keys = []
    for x in range(n):
        kx = A.kleene[x]
        keys.append((
            mp[x],
            mp[kx],
            mp[A.brouwer[x]],
            mp[A.box(x)],
            mp[A.diamond(x)],
            mp[A.diamond(kx)],
        ))
    return _report(A, Congruence(keys))


def tilde_meet_relation(A, p):
    """Same tilde coset and (x v x') ^ p agreeing."""
    block_of, kleene = tilde_partition(A).block_of, A.kleene
    n, pn = A.n, p * A.n
    mp, join = A._ord.meet[pn:pn + n], A._ord.join  # meets with p
    keys = [(block_of[x], mp[join[x * n + kleene[x]]]) for x in range(n)]
    return _report(A, Congruence(keys))


def tilde_join_relation(A, p):
    """Same tilde coset and (x ^ x') v p agreeing."""
    block_of, kleene = tilde_partition(A).block_of, A.kleene
    n, pn = A.n, p * A.n
    jp, meet = A._ord.join[pn:pn + n], A._ord.meet  # joins with p
    keys = [(block_of[x], jp[meet[x * n + kleene[x]]]) for x in range(n)]
    return _report(A, Congruence(keys))


class TildeFamilyReport(_Record):
    """Checks of the tilde-coset congruence family on one algebra.

    Preconditions (subdirectly irreducible distributive strong-De-
    Morgan antiortholattice) are verified, not assumed; failures are
    reported instead of silently skipping the algebra.
    """

    __slots__ = __match_args__ = (
        "precondition_ok", "failed_preconditions", "tilde_is_congruence",
        "meet_relations_ok", "join_relations_ok", "one_of_each_trivial",
        "witness")


def tilde_family_report(A):
    failed = [name for name in ("antiortholattice", "DIST", "SDM")
              if not axioms.satisfies(A, name)]
    if not _is_si(A):
        failed.append("subdirectly-irreducible")
    if failed:
        return TildeFamilyReport(False, tuple(failed), False, False, False,
                                 False, None)
    return _tilde_family(A)


def _tilde_family(A):
    """The report of ``tilde_family_report`` on an algebra whose
    preconditions hold, which is not verified here."""
    tilde_ok, tilde_w = is_congruence(A, tilde_partition(A))
    meet_ok = join_ok = disj_ok = True
    witness = tilde_w
    for p in range(A.n):
        d = tilde_meet_relation(A, p)
        e = tilde_join_relation(A, p)
        if not d.is_congruence:
            meet_ok = False
            witness = witness or ("D", p, d.witness)
        if not e.is_congruence:
            join_ok = False
            witness = witness or ("E", p, e.witness)
        if not (d.partition.is_identity() or e.partition.is_identity()):
            disj_ok = False
            witness = witness or ("neither-trivial", p)
    return TildeFamilyReport(True, (), tilde_ok, meet_ok, join_ok,
                             disj_ok, witness)
