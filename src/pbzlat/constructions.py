"""Builders that produce new algebras from old ones.

Twist doubles, ordinal and horizontal sums, direct products, generated
subalgebras and quotients, plus the positive/negative cone bookkeeping
and the block decomposition used to recognize horizontal sums.
"""

from dataclasses import dataclass

from . import axioms, congruences
from .core import BoundedLattice, FiniteAlgebra, ValidationError

__all__ = [
    "twist1", "twist2", "Cones", "cones", "TwistRepresentation",
    "twist_represent", "ordinal_sum", "horizontal_sum", "blocks",
    "HorizontalSumReport", "is_horizontal_sum_of_blocks", "gamma",
    "commutes", "product", "subuniverse_generated", "subalgebra_generated",
    "quotient",
]


def _twist_tables(L, keep_zero):
    """Shared layout for the two twist constructions.

    The dual copy comes first (f(x) for x in index order, optionally
    skipping the bottom), then the original lattice.  Every copied
    element sits below every original one.
    """
    m = L.n
    skipped = () if keep_zero else (L.zero,)
    f_elems = [x for x in range(m) if x not in skipped]
    f_index = {x: i for i, x in enumerate(f_elems)}
    k = len(f_elems)
    n = k + m
    leq = [[False] * n for _ in range(n)]
    for i, x in enumerate(f_elems):
        for j, y in enumerate(f_elems):
            leq[i][j] = L.le(y, x)
        for b in range(m):
            leq[i][k + b] = True
    for a in range(m):
        for b in range(m):
            leq[k + a][k + b] = L.le(a, b)
    kleene = [0] * n
    for i, x in enumerate(f_elems):
        kleene[i] = k + x
        kleene[k + x] = i
    for x in skipped:
        kleene[k + x] = k + x
    new_zero = f_index[L.one]
    new_one = k + L.one
    brouwer = [new_zero] * n
    brouwer[new_zero] = new_one
    labels = [f"f({L.labels[x]})" for x in f_elems] + list(L.labels)
    return leq, kleene, brouwer, labels, f_index, k


def twist1(L, name=None):
    """Dual copy of L minus its bottom, stacked under L.

    The old bottom becomes the unique fixpoint of '; the Brouwer map is
    the one every antiortholattice carries.  Size 2|L| - 1.
    """
    if L.n < 2:
        raise ValueError("twist1 needs a lattice with at least two elements")
    leq, kleene, brouwer, labels, _, _ = _twist_tables(L, keep_zero=False)
    return FiniteAlgebra(leq, kleene, brouwer, labels=labels,
                         name=name or f"T1({L.name or 'L'})")


def twist2(L, name=None):
    """Dual copy of all of L stacked under L; no fixpoint.  Size 2|L|."""
    if L.n < 1:
        raise ValueError("twist2 needs a nonempty lattice")
    leq, kleene, brouwer, labels, _, _ = _twist_tables(L, keep_zero=True)
    return FiniteAlgebra(leq, kleene, brouwer, labels=labels,
                         name=name or f"T2({L.name or 'L'})")


@dataclass(frozen=True)
class Cones:
    """Elements below / above their Kleene image, with strict variants."""

    negative: frozenset
    positive: frozenset
    strictly_negative: frozenset
    strictly_positive: frozenset


def cones(A):
    neg = frozenset(a for a in range(A.n) if A.le(a, A.kleene[a]))
    pos = frozenset(a for a in range(A.n) if A.le(A.kleene[a], a))
    return Cones(neg, pos,
                 frozenset(a for a in neg if A.kleene[a] != a),
                 frozenset(a for a in pos if A.kleene[a] != a))


@dataclass(frozen=True)
class TwistRepresentation:
    """Result of rebuilding an antiortholattice as a twist double.

    ``ok`` is False when the cones do not cover the universe, in which
    case ``witness`` is the least element incomparable to its involute.
    """

    ok: bool
    index: int = 0
    core: BoundedLattice = None
    rebuilt: FiniteAlgebra = None
    iso: tuple = None
    witness: int = None


def twist_represent(A):
    """Express a nontrivial antiortholattice as twist1/twist2 of its
    positive cone, returning a verified isomorphism."""
    report = axioms.classify(A)
    if A.n < 2 or not report.antiortholattice:
        raise ValueError("twist_represent needs a nontrivial antiortholattice")
    cn = cones(A)
    missing = sorted(set(range(A.n)) - (cn.negative | cn.positive))
    if missing:
        return TwistRepresentation(ok=False, witness=missing[0])

    p_elems = sorted(cn.positive)
    pos_in_p = {a: i for i, a in enumerate(p_elems)}
    p_leq = [[A.le(a, b) for b in p_elems] for a in p_elems]
    core = BoundedLattice(p_leq, labels=[A.labels[a] for a in p_elems],
                          name="P(%s)" % (A.name or "A"))
    fixpoints = [a for a in range(A.n) if A.kleene[a] == a]
    idx = 1 if fixpoints else 2
    rebuilt = twist1(core) if idx == 1 else twist2(core)

    m = core.n
    if idx == 1:
        offset = m - 1
        f_index = lambda x: x - 1 if x > core.zero else x
    else:
        offset = m
        f_index = lambda x: x
    iso = [0] * A.n
    for a in range(A.n):
        if a in pos_in_p:
            iso[a] = offset + pos_in_p[a]
        else:
            iso[a] = f_index(pos_in_p[A.kleene[a]])

    # the construction is only reported when the map really is an
    # isomorphism of the full signature
    for a in range(A.n):
        if rebuilt.kleene[iso[a]] != iso[A.kleene[a]]:
            raise AssertionError("twist rebuild broke the involution")
        if rebuilt.brouwer[iso[a]] != iso[A.brouwer[a]]:
            raise AssertionError("twist rebuild broke the Brouwer map")
        for b in range(A.n):
            if A.le(a, b) != rebuilt.le(iso[a], iso[b]):
                raise AssertionError("twist rebuild broke the order")
    return TwistRepresentation(ok=True, index=idx, core=core,
                               rebuilt=rebuilt, iso=tuple(iso))


def ordinal_sum(M, L, name=None):
    """Stack L on top of M; no identification, size |M| + |L|."""
    nm, nl = M.n, L.n
    n = nm + nl
    leq = [[False] * n for _ in range(n)]
    for a in range(nm):
        for b in range(nm):
            leq[a][b] = M.le(a, b)
        for b in range(nl):
            leq[a][nm + b] = True
    for a in range(nl):
        for b in range(nl):
            leq[nm + a][nm + b] = L.le(a, b)
    labels = [f"l:{x}" for x in M.labels] + [f"u:{x}" for x in L.labels]
    return BoundedLattice(leq, labels=labels, name=name)


def horizontal_sum(summands, name=None):
    """Glue algebras at shared bounds; interiors of distinct summands
    meet at 0 and join at 1.

    At most one summand may fail orthomodularity, and every summand
    must be nontrivial.
    """
    summands = list(summands)
    if not summands:
        raise ValueError("horizontal_sum needs at least one summand")
    for S in summands:
        if S.n < 2:
            raise ValueError("horizontal_sum needs nontrivial summands")
        if S.kleene[S.zero] != S.one or S.brouwer[S.zero] != S.one \
                or S.brouwer[S.one] != S.zero:
            raise ValueError("summand maps do not fix the shared bounds")
    bad = sum(1 for S in summands if not axioms.is_orthomodular(S)[0])
    if bad > 1:
        raise ValueError(
            "at most one horizontal summand may fail orthomodularity")

    n = 2 + sum(S.n - 2 for S in summands)
    one = n - 1
    glob = []  # per summand: local index -> global index
    used_labels = {"0", "1"}
    labels = ["0"] + [None] * (n - 2) + ["1"]
    nxt = 1
    for i, S in enumerate(summands):
        table = {}
        for a in range(S.n):
            if a == S.zero:
                table[a] = 0
            elif a == S.one:
                table[a] = one
            else:
                table[a] = nxt
                base = S.labels[a]
                lab, k = base, i
                while lab in used_labels:
                    lab = f"{base}.{k}"
                    k += 1
                used_labels.add(lab)
                labels[nxt] = lab
                nxt += 1
        glob.append(table)

    leq = [[False] * n for _ in range(n)]
    for a in range(n):
        leq[a][a] = True
        leq[0][a] = True
        leq[a][one] = True
    kleene = [0] * n
    brouwer = [0] * n
    kleene[0], kleene[one] = one, 0
    brouwer[0], brouwer[one] = one, 0
    for i, S in enumerate(summands):
        t = glob[i]
        for a in range(S.n):
            for b in range(S.n):
                if S.le(a, b):
                    leq[t[a]][t[b]] = True
            if t[a] not in (0, one):
                kleene[t[a]] = t[S.kleene[a]]
                brouwer[t[a]] = t[S.brouwer[a]]
    return FiniteAlgebra(leq, kleene, brouwer, labels=labels, name=name)


def gamma(A, a, b):
    """(a v b) ^ (a v b~) ^ (a~ v b) ^ (a~ v b~)"""
    ta, tb = A.brouwer[a], A.brouwer[b]
    out = A.meet(A.join(a, b), A.join(a, tb))
    out = A.meet(out, A.join(ta, b))
    return A.meet(out, A.join(ta, tb))


def commutes(A, a, b):
    """a and b commute when gamma(a, b) bottoms out."""
    return gamma(A, a, b) == A.zero


def subuniverse_generated(A, seed):
    """Smallest subset containing the seed and the bounds, closed under
    meet, join, ' and ~.  Returned as a frozenset of indices."""
    S = set(seed) | {A.zero, A.one}
    frontier = list(S)
    while frontier:
        x = frontier.pop()
        for y in (A.kleene[x], A.brouwer[x]):
            if y not in S:
                S.add(y)
                frontier.append(y)
        for y in list(S):
            for z in (A.meet(x, y), A.join(x, y)):
                if z not in S:
                    S.add(z)
                    frontier.append(z)
    return frozenset(S)


def _induced(A, elems, name=None):
    elems = sorted(elems)
    leq = [[A.le(a, b) for b in elems] for a in elems]
    pos = {a: i for i, a in enumerate(elems)}
    kleene = [pos[A.kleene[a]] for a in elems]
    brouwer = [pos[A.brouwer[a]] for a in elems]
    return FiniteAlgebra(leq, kleene, brouwer,
                         labels=[A.labels[a] for a in elems], name=name)


def subalgebra_generated(A, seed, name=None):
    """The subalgebra generated by ``seed``, as a standalone algebra."""
    return _induced(A, subuniverse_generated(A, seed), name=name)


def _is_chain_set(A, S):
    S = sorted(S)
    for i, a in enumerate(S):
        for b in S[i + 1:]:
            if not A.le(a, b) and not A.le(b, a):
                return False
    return True


def _is_boolean_set(A, S):
    # all elements sharp, the sublattice distributive, ~ matching '
    for a in S:
        if A.meet(a, A.kleene[a]) != A.zero:
            return False
        if A.brouwer[a] != A.kleene[a]:
            return False
    for a in S:
        for b in S:
            for c in S:
                if A.meet(a, A.join(b, c)) != \
                        A.join(A.meet(a, b), A.meet(a, c)):
                    return False
    return True


def blocks(A):
    """Maximal subalgebras that are Boolean or antiortholattice chains.

    Works on PBZ* algebras; grows every block-shaped subuniverse from
    the bounds by closing one added generator at a time, then keeps the
    inclusion-maximal ones.  The blocks, frozensets sorted by their
    sorted elements, are computed on the first call and kept on the
    algebra; each call returns a new list of them.
    """
    return list(A._keep("blocks", lambda: tuple(_blocks(A))))


def _blocks(A):
    report = axioms.classify(A)
    if not report.pbz_star:
        raise ValueError("blocks needs a PBZ* algebra")

    def shaped(S):
        return _is_chain_set(A, S) or _is_boolean_set(A, S)

    base = subuniverse_generated(A, ())
    if not shaped(base):
        return []
    seen = {base}
    queue = [base]
    while queue:
        S = queue.pop()
        for x in range(A.n):
            if x in S:
                continue
            T = subuniverse_generated(A, S | {x})
            if T not in seen and shaped(T):
                seen.add(T)
                queue.append(T)
    maximal = [S for S in seen
               if not any(S < T for T in seen)]
    return sorted(maximal, key=sorted)


@dataclass(frozen=True)
class HorizontalSumReport:
    """Two independent answers to "is this a horizontal sum of blocks".

    ``conditions`` maps the four element-wise criteria to (ok, witness);
    ``by_conditions`` is their conjunction, ``by_blocks`` the direct
    structural comparison against blocks().  The two agree on PBZ*
    algebras; ``agree`` records whether they did here.
    """

    conditions: tuple
    by_conditions: bool
    by_blocks: bool
    blocks: tuple

    @property
    def agree(self):
        return self.by_conditions == self.by_blocks

    @property
    def holds(self):
        return self.by_blocks


def is_horizontal_sum_of_blocks(A):
    interior = [a for a in range(A.n) if a != A.zero and a != A.one]
    conds = {}

    w = next(((a, b) for a in range(A.n) for b in range(A.n)
              if not commutes(A, a, b) and A.join(a, b) != A.one), None)
    conds["non-commuting-join"] = (w is None, w)

    w = next(((a, b) for a in interior for b in interior
              if A.brouwer[a] == A.zero and A.diamond(b) == b
              and A.join(a, b) != A.one), None)
    conds["dense-vs-sharp-join"] = (w is None, w)

    w = next(((a, b) for a in interior for b in interior
              if A.brouwer[a] == A.zero and A.brouwer[b] == A.zero
              and not A.le(a, b) and not A.le(b, a)), None)
    conds["dense-comparable"] = (w is None, w)

    w = next(((a,) for a in interior
              if A.brouwer[a] != A.zero and A.diamond(a) != a), None)
    conds["dense-or-sharp"] = (w is None, w)

    blks = blocks(A)
    covered = set().union(*blks) if blks else set()
    ok = covered == set(range(A.n))
    bounds = {A.zero, A.one}
    if ok:
        for i, B1 in enumerate(blks):
            for B2 in blks[i + 1:]:
                if (B1 & B2) - bounds:
                    ok = False
    if ok:
        membership = [frozenset(i for i, B in enumerate(blks) if a in B)
                      for a in range(A.n)]
        for a in interior:
            for b in interior:
                if membership[a] & membership[b]:
                    continue
                if A.meet(a, b) != A.zero or A.join(a, b) != A.one:
                    ok = False
    return HorizontalSumReport(
        conditions=tuple(sorted(conds.items())),
        by_conditions=all(v for v, _ in conds.values()),
        by_blocks=ok,
        blocks=tuple(blks),
    )


def product(A, B, name=None):
    """Direct product, componentwise everything."""
    na, nb = A.n, B.n
    n = na * nb
    leq = [[False] * n for _ in range(n)]
    for a1 in range(na):
        for b1 in range(nb):
            i = a1 * nb + b1
            for a2 in range(na):
                for b2 in range(nb):
                    leq[i][a2 * nb + b2] = A.le(a1, a2) and B.le(b1, b2)
    kleene = [A.kleene[i // nb] * nb + B.kleene[i % nb] for i in range(n)]
    brouwer = [A.brouwer[i // nb] * nb + B.brouwer[i % nb] for i in range(n)]
    labels = [f"({A.labels[i // nb]},{B.labels[i % nb]})" for i in range(n)]
    return FiniteAlgebra(leq, kleene, brouwer, labels=labels, name=name)


def quotient(A, theta, name=None):
    """A modulo a congruence; raises if theta fails compatibility."""
    ok, w = congruences.is_congruence(A, theta)
    if not ok:
        raise ValueError(f"not a congruence, witness {w}")
    blocks_ = theta.blocks()
    rep = [min(B) for B in blocks_]
    cls = {}
    for i, B in enumerate(blocks_):
        for a in B:
            cls[a] = i
    k = len(blocks_)
    leq = [[cls[A.meet(rep[i], rep[j])] == i for j in range(k)]
           for i in range(k)]
    kleene = [cls[A.kleene[rep[i]]] for i in range(k)]
    brouwer = [cls[A.brouwer[rep[i]]] for i in range(k)]
    labels = ["{" + ",".join(A.labels[a] for a in sorted(B)) + "}"
              for B in blocks_]
    return FiniteAlgebra(leq, kleene, brouwer, labels=labels, name=name)
