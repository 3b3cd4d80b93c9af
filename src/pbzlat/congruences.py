"""Congruence machinery: principal congruences, the full congruence
lattice at desk scale, subdirect irreducibility, and the special
relation families used to analyze subdirectly irreducible members of
the distributive strong-De-Morgan antiortholattice variety.
"""

from dataclasses import dataclass

from . import axioms

__all__ = [
    "Congruence", "is_congruence", "congruence_generated",
    "principal_congruence", "join_congruences", "meet_congruences",
    "all_congruences", "is_subdirectly_irreducible",
    "is_directly_indecomposable", "tilde_partition", "RelationReport",
    "agreement_below", "tilde_meet_relation", "tilde_join_relation",
    "TildeFamilyReport", "tilde_family_report",
]


class Congruence:
    """An equivalence relation in normalized partition form.

    ``block_of[a]`` is the block id of element a.  The constructor
    takes any hashable block labels and renumbers them by first
    occurrence, so equal partitions compare equal.  Instances are
    immutable: they hash on ``block_of``, and the congruence lattices
    kept on algebras hand the same instances to every caller.
    """

    __slots__ = ("n", "block_of")

    def __init__(self, block_of):
        block_of = list(block_of)
        object.__setattr__(self, "n", len(block_of))
        remap = {}
        norm = []
        for b in block_of:
            if b not in remap:
                remap[b] = len(remap)
            norm.append(remap[b])
        object.__setattr__(self, "block_of", tuple(norm))

    def __setattr__(self, name, value):
        raise AttributeError(f"{name!r} of Congruence is read-only")

    def __reduce__(self):
        # pickling and copying rebuild through __init__, which is the
        # only place the slots are assigned
        return (type(self), (self.block_of,))

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

    def __eq__(self, other):
        return isinstance(other, Congruence) and \
            self.block_of == other.block_of

    def __hash__(self):
        return hash(self.block_of)

    def __repr__(self):
        body = "|".join(",".join(str(a) for a in B) for B in self.blocks())
        return f"<Congruence {body}>"


def is_congruence(A, theta):
    """Compatibility with meet, join, ' and ~; (ok, witness).

    The witness is ((a, b), op) for the first related pair some basic
    operation tears apart.
    """
    if theta.n != A.n:
        return False, ("size", None)
    for a in range(A.n):
        for b in range(a + 1, A.n):
            if not theta.related(a, b):
                continue
            if not theta.related(A.kleene[a], A.kleene[b]):
                return False, ((a, b), "kleene")
            if not theta.related(A.brouwer[a], A.brouwer[b]):
                return False, ((a, b), "brouwer")
            for c in range(A.n):
                if not theta.related(A.meet(a, c), A.meet(b, c)):
                    return False, ((a, b), f"meet:{c}")
                if not theta.related(A.join(a, c), A.join(b, c)):
                    return False, ((a, b), f"join:{c}")
    return True, None


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def congruence_generated(A, pairs):
    """Least congruence containing the given pairs.

    A worklist closure: every pair that union-find actually merges is
    pushed once and translated once, under both unary maps and meet and
    join against every constant, and the translated pairs are merged in
    turn.  The merged pairs span each block by paths, so a translation
    of any related pair is joined by the translated path; the partition
    left when the worklist runs dry is therefore closed under the basic
    translations, which makes it a congruence, and it holds only merges
    forced by the pairs.
    """
    uf = _UnionFind(A.n)
    kleene, brouwer = A.kleene, A.brouwer
    meet, join = A._ord.meet, A._ord.join
    work = [(a, b) for a, b in pairs if uf.union(a, b)]
    while work:
        a, b = work.pop()
        for x, y in ((kleene[a], kleene[b]), (brouwer[a], brouwer[b]),
                     *zip(meet[a], meet[b]), *zip(join[a], join[b])):
            if uf.union(x, y):
                work.append((x, y))
    return Congruence([uf.find(x) for x in range(A.n)])


def principal_congruence(A, a, b):
    return congruence_generated(A, [(a, b)])


def join_congruences(A, t1, t2):
    return congruence_generated(A, t1.pairs() + t2.pairs())


def meet_congruences(t1, t2):
    """Common refinement; the meet in the congruence lattice."""
    return Congruence(list(zip(t1.block_of, t2.block_of)))


def _join_partitions(t1, t2):
    """Join of two equivalence relations: the transitive closure of
    their union."""
    uf = _UnionFind(t1.n)
    for block_of in (t1.block_of, t2.block_of):
        first = {}
        for a, k in enumerate(block_of):
            uf.union(first.setdefault(k, a), a)
    return Congruence([uf.find(x) for x in range(t1.n)])


def all_congruences(A):
    """Every congruence of A, sorted coarsest-last.

    The generators are the principal congruences of the cover pairs.
    They suffice: a congruence of a lattice-based algebra relates a and
    b iff it relates a ^ b and a v b, and its blocks are convex, so
    con(a, b) = con(a ^ b, a v b) is the join of the cover congruences
    along any maximal chain from a ^ b to a v b.  Every congruence is
    the join of the principal ones it contains, hence a join of cover
    congruences.  The generators are closed under joins, taken as joins
    of equivalence relations: Con A is a sublattice of the lattice of
    equivalence relations (Burris and Sankappanavar, A Course in
    Universal Algebra, ch. II), so no translation pass is needed.
    Guarded to n <= 12; the closure is exponential in the worst case
    and this package only needs desk scale.

    The sorted congruences are computed on the first call and kept on
    the algebra as a tuple; each call returns a new list of them.
    Congruences are immutable, so callers share them safely.
    """
    if A.n > 12:
        raise ValueError("all_congruences is capped at 12 elements")
    return list(A._keep("congruences", lambda: tuple(_all_congruences(A))))


def _all_congruences(A):
    principals = list({principal_congruence(A, a, b)
                       for a, b in A.covers()})
    found = {Congruence.identity(A.n)} | set(principals)
    frontier = list(principals)
    while frontier:
        theta = frontier.pop()
        for phi in principals:
            psi = _join_partitions(theta, phi)
            if psi not in found:
                found.add(psi)
                frontier.append(psi)
    return sorted(found, key=lambda t: (len(t.pairs()), t.block_of))


def is_subdirectly_irreducible(A):
    """(flag, monolith).  The monolith is the least congruence above
    the identity; trivial algebras come back (False, None)."""
    cons = all_congruences(A)
    nonzero = [t for t in cons if not t.is_identity()]
    if not nonzero:
        return False, None
    monolith = nonzero[0]
    for t in nonzero[1:]:
        monolith = meet_congruences(monolith, t)
    if monolith.is_identity():
        return False, None
    return True, monolith


def is_directly_indecomposable(A):
    """No pair of complementary permuting factor congruences.

    A pair is told by counting blocks.  When theta ^ phi is the
    identity, a theta-block and a phi-block share at most one element,
    so every theta-block meets every phi-block, which is what
    theta o phi = phi o theta = total says, iff
    |A/theta| * |A/phi| = |A|.  The one-element algebra is counted
    indecomposable (it cannot be a product of two nontrivial factors).
    """
    if A.n == 1:
        return True
    cons = all_congruences(A)
    proper = [t for t in cons if not t.is_identity() and not t.is_total()]
    for i, t1 in enumerate(proper):
        for t2 in proper[i + 1:]:
            if not meet_congruences(t1, t2).is_identity():
                continue
            if t1.num_blocks() * t2.num_blocks() == A.n:
                return False
    return True


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


@dataclass(frozen=True)
class RelationReport:
    """An equivalence relation plus whether it is compatible."""

    partition: Congruence
    is_congruence: bool
    witness: tuple


def _report(A, partition):
    ok, w = is_congruence(A, partition)
    return RelationReport(partition, ok, w)


def agreement_below(A, p):
    """Relate x and y when x, x', x~, box x, <>x and <>(x') all agree
    with the y versions after meeting with p."""
    keys = []
    for x in range(A.n):
        kx = A.kleene[x]
        keys.append((
            A.meet(x, p),
            A.meet(kx, p),
            A.meet(A.brouwer[x], p),
            A.meet(A.box(x), p),
            A.meet(A.diamond(x), p),
            A.meet(A.diamond(kx), p),
        ))
    return _report(A, Congruence(keys))


def tilde_meet_relation(A, p):
    """Same tilde coset and (x v x') ^ p agreeing."""
    base = tilde_partition(A)
    keys = [(base.block_of[x], A.meet(A.join(x, A.kleene[x]), p))
            for x in range(A.n)]
    return _report(A, Congruence(keys))


def tilde_join_relation(A, p):
    """Same tilde coset and (x ^ x') v p agreeing."""
    base = tilde_partition(A)
    keys = [(base.block_of[x], A.join(A.meet(x, A.kleene[x]), p))
            for x in range(A.n)]
    return _report(A, Congruence(keys))


@dataclass(frozen=True)
class TildeFamilyReport:
    """Checks of the tilde-coset congruence family on one algebra.

    Preconditions (subdirectly irreducible distributive strong-De-
    Morgan antiortholattice) are verified, not assumed; failures are
    reported instead of silently skipping the algebra.
    """

    precondition_ok: bool
    failed_preconditions: tuple
    tilde_is_congruence: bool
    meet_relations_ok: bool
    join_relations_ok: bool
    one_of_each_trivial: bool
    witness: tuple


def tilde_family_report(A):
    failed = [name for name in ("antiortholattice", "DIST", "SDM")
              if not axioms.satisfies(A, name)]
    si, _ = is_subdirectly_irreducible(A)
    if not si:
        failed.append("subdirectly-irreducible")
    if failed:
        return TildeFamilyReport(False, tuple(failed), False, False, False,
                                 False, None)

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
