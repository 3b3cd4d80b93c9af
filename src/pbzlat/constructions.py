"""Builders that produce new algebras from old ones.

Twist doubles, ordinal and horizontal sums, direct products, generated
subalgebras and quotients, plus the positive/negative cone bookkeeping
and the block decomposition used to recognize horizontal sums.  The
four element-wise conditions for a horizontal sum of blocks are the
THEORY clauses ``HS_*`` (``_HS_CONDITIONS``), which the
``horizontal-sum-conditions`` claim reads off a level's masks.
"""

from . import axioms, congruences, terms
from .core import BoundedLattice, FiniteAlgebra, _bits, _Record

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
    element sits below every original one.  Returns up-set masks, both
    maps and labels.
    """
    m = L.n
    skipped = () if keep_zero else (L.zero,)
    f_elems = [x for x in range(m) if x not in skipped]
    k = len(f_elems)
    n = k + m
    # f(x) <= f(y) iff y <= x, and f(x) lies below every original
    originals = ((1 << m) - 1) << k
    masks = [sum(1 << i for i, y in enumerate(f_elems) if L.le(y, x))
             | originals for x in f_elems] + [u << k for u in L._ord.up]
    kleene = [0] * n
    for i, x in enumerate(f_elems):
        kleene[i] = k + x
        kleene[k + x] = i
    for x in skipped:
        kleene[k + x] = k + x
    new_zero = f_elems.index(L.one)
    new_one = k + L.one
    brouwer = [new_zero] * n
    brouwer[new_zero] = new_one
    labels = [f"f({L.labels[x]})" for x in f_elems] + list(L.labels)
    return masks, kleene, brouwer, labels


def twist1(L, name=None):
    """Dual copy of L minus its bottom, stacked under L.

    The old bottom becomes the unique fixpoint of '; the Brouwer map is
    the one every antiortholattice carries.  Size 2|L| - 1.
    """
    if L.n < 2:
        raise ValueError("twist1 needs a lattice with at least two elements")
    return FiniteAlgebra._from_masks(*_twist_tables(L, keep_zero=False),
                                     name=name or f"T1({L.name or 'L'})")


def twist2(L, name=None):
    """Dual copy of all of L stacked under L; no fixpoint.  Size 2|L|."""
    if L.n < 1:
        raise ValueError("twist2 needs a nonempty lattice")
    return FiniteAlgebra._from_masks(*_twist_tables(L, keep_zero=True),
                                     name=name or f"T2({L.name or 'L'})")


class Cones(_Record):
    """Elements below / above their Kleene image, with strict variants,
    each a frozenset."""

    __slots__ = __match_args__ = ("negative", "positive",
                                  "strictly_negative", "strictly_positive")


def cones(A):
    neg = frozenset(a for a in range(A.n) if A.le(a, A.kleene[a]))
    pos = frozenset(a for a in range(A.n) if A.le(A.kleene[a], a))
    return Cones(neg, pos,
                 frozenset(a for a in neg if A.kleene[a] != a),
                 frozenset(a for a in pos if A.kleene[a] != a))


class TwistRepresentation(_Record):
    """Result of rebuilding an antiortholattice as a twist double.

    ``ok`` is False when the cones do not cover the universe, in which
    case ``witness`` is the least element incomparable to its involute.
    Otherwise ``index`` is the twist (1 or 2), ``core`` the positive
    cone as a BoundedLattice, ``rebuilt`` the twist of it and ``iso``
    the isomorphism onto it, a tuple.
    """

    __slots__ = __match_args__ = ("ok", "index", "core", "rebuilt", "iso",
                                  "witness")
    _defaults = {"index": 0, "core": None, "rebuilt": None, "iso": None,
                 "witness": None}


def twist_represent(A):
    """Express a nontrivial antiortholattice as twist1/twist2 of its
    positive cone, returning a verified isomorphism."""
    if A.n < 2 or not axioms.satisfies(A, "antiortholattice"):
        raise ValueError("twist_represent needs a nontrivial antiortholattice")
    cn = cones(A)
    missing = sorted(set(range(A.n)) - (cn.negative | cn.positive))
    if missing:
        return TwistRepresentation(ok=False, witness=missing[0])

    p_elems = sorted(cn.positive)
    pos_in_p = {a: i for i, a in enumerate(p_elems)}
    core = BoundedLattice._from_masks(
        _induced_up(A, p_elems), labels=[A.labels[a] for a in p_elems],
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
    nm = M.n
    upper = ((1 << L.n) - 1) << nm
    up = [u | upper for u in M._ord.up] + [u << nm for u in L._ord.up]
    labels = [f"l:{x}" for x in M.labels] + [f"u:{x}" for x in L.labels]
    return BoundedLattice._from_masks(up, labels=labels, name=name)


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
    bad = sum(1 for S in summands
              if not axioms.satisfies(S, "orthomodular"))
    if bad > 1:
        raise ValueError(
            "at most one horizontal summand may fail orthomodularity")

    n = 2 + sum(S.n - 2 for S in summands)
    one = n - 1
    used_labels = {"0", "1"}
    labels = ["0"] + [None] * (n - 2) + ["1"]
    up, kleene, brouwer = [0] * n, [0] * n, [0] * n
    nxt = 1
    for i, S in enumerate(summands):
        t = {S.zero: 0, S.one: one}  # local index -> global index
        for a in range(S.n):
            if a not in t:
                t[a] = nxt
                base = S.labels[a]
                lab, k = base, i
                while lab in used_labels:
                    lab = f"{base}.{k}"
                    k += 1
                used_labels.add(lab)
                labels[nxt] = lab
                nxt += 1
        # every element lies in a summand, so their up-sets give the order;
        # the maps fix the shared bounds, so each summand's agree on them
        for a in range(S.n):
            up[t[a]] |= sum(1 << t[b] for b in range(S.n) if S.le(a, b))
            kleene[t[a]] = t[S.kleene[a]]
            brouwer[t[a]] = t[S.brouwer[a]]
    return FiniteAlgebra._from_masks(up, kleene, brouwer, labels=labels,
                                     name=name)


def gamma(A, a, b):
    """(a v b) ^ (a v b~) ^ (a~ v b) ^ (a~ v b~)"""
    o, tilde = A._ord, A.brouwer
    n, meet, join = o.n, o.meet, o.join
    an, tan, tb = a * n, tilde[a] * n, tilde[b]
    return meet[meet[meet[join[an + b] * n + join[an + tb]] * n
                     + join[tan + b]] * n + join[tan + tb]]


def commutes(A, a, b):
    """a and b commute when gamma(a, b) bottoms out."""
    return gamma(A, a, b) == A.zero


def _close(A, S, gens):
    """The subuniverse generated by the closed set S and the elements
    ``gens``, as a bitmask.  S's own meets, joins and images lie in S
    already, so only what the added elements bring is closed: each new
    element is met and joined with everything present when its turn
    comes, which covers every pair with a new member."""
    n, meet, join = A.n, A._ord.meet, A._ord.join
    kleene, brouwer = A.kleene, A.brouwer
    T, members, frontier = S, list(_bits(S)), []
    for x in gens:
        if not T >> x & 1:
            T |= 1 << x
            members.append(x)
            frontier.append(x)
    while frontier:
        x = frontier.pop()
        xn = x * n
        mx, jx = meet[xn:xn + n], join[xn:xn + n]
        new = 1 << kleene[x] | 1 << brouwer[x]
        for y in members:
            new |= 1 << mx[y] | 1 << jx[y]
        new &= ~T
        if new:
            T |= new
            added = list(_bits(new))
            members += added
            frontier += added
    return T


def subuniverse_generated(A, seed):
    """Smallest subset containing the seed and the bounds, closed under
    meet, join, ' and ~.  Returned as a frozenset of indices."""
    return frozenset(_bits(_close(A, 0, (*seed, A.zero, A.one))))


def _induced_up(A, elems):
    """Up-set masks of the order A induces on the list ``elems``."""
    return [sum(1 << j for j, b in enumerate(elems) if A.le(a, b))
            for a in elems]


def _induced(A, elems, name=None):
    elems = sorted(elems)
    pos = {a: i for i, a in enumerate(elems)}
    kleene = [pos[A.kleene[a]] for a in elems]
    brouwer = [pos[A.brouwer[a]] for a in elems]
    return FiniteAlgebra._from_masks(_induced_up(A, elems), kleene, brouwer,
                                     labels=[A.labels[a] for a in elems],
                                     name=name)


def subalgebra_generated(A, seed, name=None):
    """The subalgebra generated by ``seed``, as a standalone algebra."""
    return _induced(A, subuniverse_generated(A, seed), name=name)


def blocks(A):
    """Maximal subalgebras that are Boolean or antiortholattice chains.

    Works on PBZ* algebras.  Every block-shaped subuniverse is grown
    from the bounds one generator at a time, as a bitmask: a child is
    its closed parent plus a generator, and only what the generator
    brings is closed.  A subset of a chain is a chain and a subset of a
    Boolean set is Boolean, so every such subuniverse is reached; the
    inclusion-maximal ones are the blocks, returned as frozensets sorted
    by their sorted elements.  Each call computes them anew.
    """
    _need_pbz_star(A)
    return list(map(frozenset, map(_bits, _blocks(A))))


def _need_pbz_star(A):
    if not axioms.satisfies(A, "pbz-star"):
        raise ValueError("blocks needs a PBZ* algebra")


def _blocks(A):
    """The blocks of A as bitmasks (``blocks``).  A must be PBZ*, which
    the public readers check and a claim's hypotheses gate."""
    o, kleene, brouwer = A._ord, A.kleene, A.brouwer
    n, meet, join = o.n, o.meet, o.join
    full = (1 << n) - 1
    comparable = [u | d for u, d in zip(o.up, o.down)]
    # the elements a Boolean block may hold: sharp, with ~ matching '
    boolean = sum(1 << a for a in range(n)
                  if meet[a * n + kleene[a]] == o.zero
                  and brouwer[a] == kleene[a])

    def is_chain(S):
        return all(S & ~comparable[a] == 0 for a in _bits(S))

    def shaped(S):
        if is_chain(S):
            return True
        elems = list(_bits(S))
        return not S & ~boolean and all(
            meet[an + join[b * n + c]] == join[meet[an + b] * n + meet[an + c]]
            for an in [a * n for a in elems] for b in elems for c in elems)

    base = _close(A, 0, (o.zero, o.one))
    if not shaped(base):
        return []
    seen = {base}
    queue = [base]
    while queue:
        S = queue.pop()
        chain = is_chain(S)
        for x in _bits(full & ~S):
            # the child holds S and x, so it is a chain only when they
            # form one and Boolean only when they all may lie in a
            # Boolean block
            if not (chain and not S & ~comparable[x]
                    or not (S | 1 << x) & ~boolean):
                continue
            T = _close(A, S, (x,))
            if T not in seen and shaped(T):
                seen.add(T)
                queue.append(T)
    maximal = [S for S in seen if not any(S & T == S != T for T in seen)]
    return sorted(maximal, key=_bits)


class HorizontalSumReport(_Record):
    """Two independent answers to "is this a horizontal sum of blocks".

    ``conditions`` maps the four element-wise criteria to (ok, witness);
    ``by_conditions`` is their conjunction, ``by_blocks`` the direct
    structural comparison against blocks().  The two agree on PBZ*
    algebras; ``agree`` records whether they did here.
    """

    __slots__ = __match_args__ = ("conditions", "by_conditions",
                                  "by_blocks", "blocks")

    @property
    def agree(self):
        return self.by_conditions == self.by_blocks

    @property
    def holds(self):
        return self.by_blocks


# each horizontal-sum condition, in name order, and the THEORY clause
# that states it
_HS_CONDITIONS = (("dense-comparable", "HS_DENSE_CHAIN"),
                  ("dense-or-sharp", "HS_DENSE_OR_SHARP"),
                  ("dense-vs-sharp-join", "HS_DENSE_SHARP"),
                  ("non-commuting-join", "HS_COMMUTE"))


def is_horizontal_sum_of_blocks(A):
    """The horizontal-sum report of a PBZ* algebra."""
    _need_pbz_star(A)
    return _horizontal_sum_report(A)


def _horizontal_sum_report(A):
    """``is_horizontal_sum_of_blocks`` on a PBZ* algebra, not verified
    here, each condition its clause's verdict scanned on A alone."""
    conditions = tuple((name, terms._scan((A,), terms.THEORY[clause])[0])
                       for name, clause in _HS_CONDITIONS)
    masks = _blocks(A)
    return HorizontalSumReport(
        conditions=conditions,
        by_conditions=all(ok for _, (ok, _) in conditions),
        by_blocks=_sum_of_blocks(A, masks),
        blocks=tuple(map(frozenset, map(_bits, masks))))


def _sum_of_blocks(A, masks):
    """Whether the blocks cover A and share only the bounds, and
    elements of no common block meet at 0 and join at 1."""
    o = A._ord
    n, zero, one, meet, join = o.n, o.zero, o.one, o.meet, o.join
    mates = [0] * n  # the elements sharing a block with each
    for m in masks:
        for a in _bits(m):
            mates[a] |= m
    full = (1 << n) - 1
    interior = full & ~(1 << zero | 1 << one)
    return all(mates) and not any(
        m1 & m2 & interior
        for i, m1 in enumerate(masks) for m2 in masks[i + 1:]) and all(
        meet[an + b] == zero and join[an + b] == one
        for a in _bits(interior) for an in (a * n,)
        for b in _bits(full & ~mates[a]))


def product(A, B, name=None):
    """Direct product, componentwise everything."""
    na, nb = A.n, B.n
    n = na * nb
    # (a, b) sits at a * nb + b; its up-set is B's up-set of b shifted
    # to every block a2 >= a
    up = [sum(u << a2 * nb for a2 in range(na) if A.le(a, a2))
          for a in range(na) for u in B._ord.up]
    kleene = [A.kleene[i // nb] * nb + B.kleene[i % nb] for i in range(n)]
    brouwer = [A.brouwer[i // nb] * nb + B.brouwer[i % nb] for i in range(n)]
    labels = [f"({A.labels[i // nb]},{B.labels[i % nb]})" for i in range(n)]
    return FiniteAlgebra._from_masks(up, kleene, brouwer, labels=labels,
                                     name=name)


def quotient(A, theta, name=None):
    """A modulo a congruence; raises if theta fails compatibility."""
    ok, w = congruences.is_congruence(A, theta)
    if not ok:
        raise ValueError(f"not a congruence, witness {w}")
    blocks_ = theta.blocks()
    rep = [min(B) for B in blocks_]
    cls = theta.block_of  # numbered by least element, as blocks_ are
    k, n, meet = len(blocks_), A.n, A._ord.meet
    up = [sum(1 << j for j in range(k) if cls[meet[r * n + rep[j]]] == i)
          for i, r in enumerate(rep)]
    kleene = [cls[A.kleene[rep[i]]] for i in range(k)]
    brouwer = [cls[A.brouwer[rep[i]]] for i in range(k)]
    labels = ["{" + ",".join(A.labels[a] for a in sorted(B)) + "}"
              for B in blocks_]
    return FiniteAlgebra._from_masks(up, kleene, brouwer, labels=labels,
                                     name=name)
