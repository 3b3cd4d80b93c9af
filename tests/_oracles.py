"""Independent brute-force reference implementations.

Everything here avoids the package's own algorithms on purpose: orders
are checked by nested loops, isomorphism by trying all permutations,
congruences by filtering every set partition, involutions by testing
every involutive permutation.  Slow and simple.  The algorithms the
library replaced live here too, as the references its faster versions
must reproduce exactly: the unpruned canonical search, the recursive
term evaluator and identity checker, the pairwise congruence lattice,
the relational products behind direct indecomposability, the
backtracking Brouwer search, the nested loops of check_basics, of the
order checks and of the pseudo-Kleene test, the lattice-first
decoration of every lattice that the pseudo-Kleene generator replaced,
that generator's first form, which kept a set of the canonical bytes
seen, its orbit test without the atom-degree pre-test, and the
horizontal-sum conditions by method calls with the blocks closed anew
from the bounds for every generator.
"""

import functools
import itertools

from pbzlat import axioms, core, enumeration, terms
from pbzlat.congruences import Congruence, all_congruences
from pbzlat.constructions import HorizontalSumReport
from pbzlat.terms import (Brouwer, Join, Kleene, Meet, One, QuasiIdentity,
                          Var, Zero, term_vars)


def set_partitions(n):
    """All partitions of range(n) as tuples of sorted tuples."""
    def rec(i, blocks):
        if i == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()
    yield from rec(0, [])


def is_compatible_partition(A, blocks):
    """Congruence test by definition: same block is preserved by the
    unary maps and by meet/join against every element."""
    cls = {}
    for k, b in enumerate(blocks):
        for x in b:
            cls[x] = k
    n = A.n
    for a in range(n):
        for b in range(n):
            if cls[a] != cls[b]:
                continue
            if cls[A.kleene[a]] != cls[A.kleene[b]]:
                return False
            if cls[A.brouwer[a]] != cls[A.brouwer[b]]:
                return False
            for c in range(n):
                if cls[A.meet(a, c)] != cls[A.meet(b, c)]:
                    return False
                if cls[A.join(a, c)] != cls[A.join(b, c)]:
                    return False
    return True


def brute_congruences(A):
    """Every congruence partition, as a sorted tuple of blocks."""
    return sorted(p for p in set_partitions(A.n)
                  if is_compatible_partition(A, p))


def brute_iso(leqA, unariesA, leqB, unariesB):
    """Isomorphism by exhausting permutations; tables as nested lists."""
    n = len(leqA)
    if len(leqB) != n or len(unariesA) != len(unariesB):
        return False
    for perm in itertools.permutations(range(n)):
        if all(leqA[a][b] == leqB[perm[a]][perm[b]]
               for a in range(n) for b in range(n)) and \
           all(perm[u[a]] == v[perm[a]]
               for u, v in zip(unariesA, unariesB) for a in range(n)):
            return True
    return False


def tables_of(A):
    leq = [[bool(A.leq[a][b]) for b in range(A.n)] for a in range(A.n)]
    return leq, (list(A.kleene), list(A.brouwer))


def brute_is_isomorphic(A, B):
    la, ua = tables_of(A)
    lb, ub = tables_of(B)
    return brute_iso(la, ua, lb, ub)


def _lattice_ok(leq):
    """Nested-loop lattice test: bounded, all meets and joins exist."""
    n = len(leq)
    for a in range(n):
        if not leq[a][a]:
            return False
        for b in range(n):
            if leq[a][b] and leq[b][a] and a != b:
                return False
            for c in range(n):
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    return False
    for a in range(n):
        for b in range(n):
            lower = [c for c in range(n) if leq[c][a] and leq[c][b]]
            if not any(all(leq[d][c] for d in lower) for c in lower):
                return False
            upper = [c for c in range(n) if leq[a][c] and leq[b][c]]
            if not any(all(leq[c][d] for d in upper) for c in upper):
                return False
    return True


def check_order(up):
    """The order and lattice checks of core._check_order by nested loops
    over the relation a <= b iff bit b of up[a]: ``(tables, violations)``
    with the same rules and lexicographically least witnesses, the
    tables ``(down, meet, join, zero, one)`` when nothing is violated."""
    n = len(up)
    le = [[bool(up[a] >> b & 1) for b in range(n)] for a in range(n)]

    def first(gen):
        return next(gen, None)

    violations = []
    for rule, witness in (
            ("order:reflexive",
             first((a,) for a in range(n) if not le[a][a])),
            ("order:antisymmetric",
             first((a, b) for a in range(n) for b in range(n)
                   if a != b and le[a][b] and le[b][a])),
            ("order:transitive",
             first((a, b, c) for a in range(n) for b in range(n)
                   for c in range(n)
                   if le[a][b] and le[b][c] and not le[a][c]))):
        if witness:
            violations.append((rule, witness))
    if violations:
        return None, violations

    def extreme(elements, below):
        # the element of the set that every other one is below
        return next((c for c in elements
                     if all(below(d, c) for d in elements)), -1)

    meet = [[extreme([c for c in range(n) if le[c][a] and le[c][b]],
                     lambda d, c: le[d][c]) for b in range(n)]
            for a in range(n)]
    join = [[extreme([c for c in range(n) if le[a][c] and le[b][c]],
                     lambda d, c: le[c][d]) for b in range(n)]
            for a in range(n)]
    for rule, table in (("lattice:meet", meet), ("lattice:join", join)):
        witness = first((a, b) for a in range(n) for b in range(a, n)
                        if table[a][b] < 0)
        if witness:
            violations.append((rule, witness))
    if violations:
        return None, violations
    zero = extreme(range(n), lambda d, c: le[c][d])
    one = extreme(range(n), lambda d, c: le[d][c])
    if zero < 0:
        violations.append(("bounds:zero", ()))
    if one < 0:
        violations.append(("bounds:one", ()))
    if violations:
        return None, violations
    down = tuple(sum(1 << c for c in range(n) if le[c][a])
                 for a in range(n))
    return (down, tuple(map(tuple, meet)), tuple(map(tuple, join)), zero,
            one), []


def is_pseudo_kleene(A):
    """a ^ a' <= b v b' for all a, b by nested loops, the first failing
    (a, b) the witness."""
    for a in range(A.n):
        for b in range(A.n):
            if not A.le(A.meet(a, A.kleene[a]), A.join(b, A.kleene[b])):
                return False, (a, b)
    return True, None


def involutions(n):
    """Every involutive permutation of range(n), in lexicographic order:
    the least unpaired element is paired with itself or a later one."""
    f = [None] * n

    def rec():
        if None not in f:
            yield tuple(f)
            return
        a = f.index(None)
        for b in range(a, n):
            if f[b] is None:
                f[a], f[b] = b, a
                yield from rec()
                f[a] = f[b] = None
    yield from rec()


def brute_involutions(L):
    """Order-reversing involutions of a lattice, by testing a <= b iff
    f(b) <= f(a) on every involutive permutation, in lexicographic
    order."""
    leq = L.leq.tolist()
    n = len(leq)
    return [f for f in involutions(n)
            if all(leq[a][b] == leq[f[b]][f[a]]
                   for a in range(n) for b in range(n))]


def brute_lattice_count(n):
    """Number of lattices with n elements up to isomorphism, found by
    scanning every strictly-upper-triangular relation pattern."""
    if n == 1:
        return 1
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    reps = []
    for bits in itertools.product((False, True), repeat=len(pairs)):
        leq = [[a == b for b in range(n)] for a in range(n)]
        for (a, b), keep in zip(pairs, bits):
            if keep:
                leq[a][b] = True
        if not _lattice_ok(leq):
            continue
        if any(brute_iso(leq, (), r, ()) for r in reps):
            continue
        reps.append(leq)
    return len(reps)


def backtrack_brouwer_maps(L, kleene):
    """All Brouwer complements making (L, kleene, ~) a BZ-lattice.

    Elements get their ~ value along a descending linear extension.
    Disjointness and antitonicity prune as soon as one end is placed;
    the expansion and link clauses fire once the needed images exist;
    a full axiom check runs on every completed map.
    """
    n = L.n
    order = sorted(range(n), key=lambda a: (-sum(L.le(b, a)
                                                 for b in range(n)), a))
    tilde = [None] * n
    tilde[L.one] = L.zero
    tilde[L.zero] = L.one
    todo = [a for a in order if a not in (L.zero, L.one)]
    out = []

    def consistent(a):
        b = tilde[a]
        if L.meet(a, b) != L.zero:
            return False
        for c in range(n):
            if tilde[c] is None or c == a:
                continue
            if L.le(a, c) and not L.le(tilde[c], b):
                return False
            if L.le(c, a) and not L.le(b, tilde[c]):
                return False
        if tilde[b] is not None:
            if not L.le(a, tilde[b]):
                return False
            if kleene[b] != tilde[b]:
                return False
        for c in range(n):
            if tilde[c] == a and tilde[a] is not None:
                if not L.le(c, tilde[a]) or kleene[a] != tilde[a]:
                    return False
        return True

    def rec(i):
        if i == len(todo):
            cand = tuple(tilde)
            ok, _ = axioms.is_bz(core.FiniteAlgebra._from_order(
                L._ord, kleene, cand, L.labels, None))
            if ok:
                out.append(cand)
            return
        a = todo[i]
        for b in range(n):
            tilde[a] = b
            if consistent(a):
                rec(i + 1)
        tilde[a] = None

    if axioms.is_pseudo_kleene(core.FiniteAlgebra._from_order(
            L._ord, kleene, _trivial_brouwer(L)))[0]:
        rec(0)
    return out


def _trivial_brouwer(L):
    """0~ = 1 and a~ = 0 otherwise."""
    return tuple(L.one if a == L.zero else L.zero for a in range(L.n))


def _trivially_decorated(L):
    """Every order-reversing involution of L, with the trivial ~."""
    for kleene in enumeration.order_reversing_involutions(L):
        yield core.FiniteAlgebra.from_lattice(L, kleene, _trivial_brouwer(L))


@functools.cache
def _decorated(n, cap_key):
    """(algebra, class flags) of every BZ-lattice the lattice-first route
    finds at size n, computed once per size and strategy: each lattice
    of size n (only the chain for "chain") with each of its involutions
    and each Brouwer map the backtracker finds.  For "antiortholattice"
    the only map tried is the trivial ~, the one an antiortholattice
    carries, which keeps sizes 9 and 10 affordable."""
    lattices = ([core.chain_lattice(n)] if cap_key == "chain"
                else enumeration.enumerate_lattices(n))
    found = []
    for L in lattices:
        for kleene in enumeration.order_reversing_involutions(L):
            maps = ([_trivial_brouwer(L)] if cap_key == "antiortholattice"
                    else backtrack_brouwer_maps(L, kleene))
            for brouwer in maps:
                A = core.FiniteAlgebra._from_order(L._ord, kleene, brouwer)
                flags = axioms.classify(A).flags()
                if flags["bz"]:
                    found.append((A, flags))
    return found


def lattice_first_corpus(n, spec):
    """Sorted canonical forms of the size-n level of a spec, by the
    lattice-first route the pseudo-Kleene generator replaced: decorate
    the lattices of size n and keep what classify and the spec's
    structure, class and identity filters admit."""
    forms = set()
    for A, flags in _decorated(n, spec.cap_key()):
        if spec.structure == "distributive" and \
                not terms.holds(A, terms.THEORY["DIST"])[0]:
            continue
        if spec.structure == "antiortholattice" and \
                not flags["antiortholattice"]:
            continue
        if all(flags[c] for c in spec.classes) and \
                all(terms.holds(A, terms.THEORY[i])[0]
                    for i in spec.identities):
            forms.add(core.canonical_form(A))
    return sorted(forms)


def lattice_first_pk_pairs(n):
    """Canonical bytes of the order and ' of every pseudo-Kleene pair of
    size n, found among the involutions of every lattice."""
    return {core._canon_bytes(n, A._ord.up, (A.kleene,))
            for L in enumeration.enumerate_lattices(n)
            for A in _trivially_decorated(L)
            if axioms.is_pseudo_kleene(A)[0]}


@functools.cache
def seen_set_pk_pairs(n):
    """Pseudo-Kleene pairs (order, kleene) of size n, one per isomorphism
    class, grown from this function's own smaller pairs: every insertion
    into the pairs of size n-1 and n-2 that is a PK lattice is kept
    unless its canonical bytes were seen before.  The generator that
    canonical augmentation replaced."""
    if n <= 2:
        return [enumeration._chain_pair(n)]
    candidates = [enumeration._fixed_insertion(order, kleene)
                  for order, kleene in seen_set_pk_pairs(n - 1)]
    if n >= 4:
        candidates += [ins for order, kleene in seen_set_pk_pairs(n - 2)
                       for ins in enumeration._pair_insertions(order, kleene)]
    pairs = []
    seen = set()
    for up, kleene in candidates:
        order, _ = core._check_order(up)
        if order is None or not axioms.is_pseudo_kleene(
                core.FiniteAlgebra._from_order(
                    order, kleene, enumeration._trivial_brouwer(order)))[0]:
            continue
        key = core._canon_bytes(n, up, (kleene,))
        if key not in seen:
            seen.add(key)
            pairs.append((order, kleene))
    return pairs


def brute_automorphisms(n, up, unaries):
    """Every permutation g with a <= b iff g(a) <= g(b) and g(f(a)) =
    f(g(a)) for each unary f, by backtracking over the images of 0, 1,
    ... with every relation between assigned elements checked."""
    out = []
    g = [None] * n

    def consistent(a, b):
        for c in range(a):
            d = g[c]
            if up[a] >> c & 1 != up[b] >> d & 1 or \
                    up[c] >> a & 1 != up[d] >> b & 1:
                return False
        for f in unaries:
            for c in range(a + 1):
                if f[c] <= a and g[f[c]] != f[g[c]]:
                    return False
        return True

    def rec(a):
        if a == n:
            out.append(tuple(g))
            return
        for b in range(n):
            if b in g[:a]:
                continue
            g[a] = b
            if consistent(a, b):
                rec(a + 1)
        g[a] = None

    rec(0)
    return out


def brute_orbits(n, up, unaries):
    """Each element's orbit under every automorphism, as a bitmask."""
    autos = brute_automorphisms(n, up, unaries)
    return [sum(1 << b for b in {g[a] for g in autos}) for a in range(n)]


def in_canonical_orbit(order, kleene):
    """Whether the inserted atom x = kleene[-1] of a pseudo-Kleene pair
    lies in the orbit of the first atom of largest color in its
    canonical ordering: every atom's color refined, the ordering of the
    unpruned search and the orbit of every automorphism found by
    backtracking."""
    n, up, down = order.n, order.up, order.down
    col = _refine_colors(n, up, down, (kleene,))
    atoms = [a for a in range(n) if down[a] == 1 << a | 1 << order.zero]
    top = max(col[a] for a in atoms)
    ordering, _ = unpruned_canonical_search(n, up, (kleene,))
    first = next(a for a in ordering if a in atoms and col[a] == top)
    return bool(brute_orbits(n, up, (kleene,))[first] >> kleene[-1] & 1)


def _refine_colors(n, up, down, unaries):
    """Iterated invariant refinement of up/down-set bitmasks, the
    signatures rebuilt from the masks on every round."""
    col = [0] * n
    classes = 1
    while True:
        sigs = []
        for a in range(n):
            below = tuple(sorted(col[b] for b in range(n)
                                 if b != a and down[a] >> b & 1))
            above = tuple(sorted(col[b] for b in range(n)
                                 if b != a and up[a] >> b & 1))
            imgs = tuple(col[f[a]] for f in unaries)
            pres = tuple(
                tuple(sorted(col[x] for x in range(n) if f[x] == a))
                for f in unaries)
            sigs.append((col[a], below, above, imgs, pres))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        new_classes = len(ranking)
        if new_classes == classes:
            return new
        col, classes = new, new_classes


def unpruned_canonical_search(n, up, unaries):
    """The canonical search with only the bound against the best prefix:
    ``(ordering, encoding)`` of the first color-sorted ordering, in
    depth-first order, whose prefix-incremental encoding is least."""
    down = [0] * n
    for a in range(n):
        for b in range(n):
            if up[a] >> b & 1:
                down[b] |= 1 << a
    col = _refine_colors(n, up, down, unaries)

    best = None
    best_order = None
    SENT = n  # placeholder for "image not placed yet"

    def increment(e, placed, pos_of):
        inc = [col[e]]
        for j in placed:
            inc.append(1 if up[j] >> e & 1 else 0)
        for j in placed:
            inc.append(1 if up[e] >> j & 1 else 0)
        for f in unaries:
            img = f[e]
            inc.append(len(placed) if img == e else pos_of.get(img, SENT))
            for j in placed:
                inc.append(1 if f[j] == e else 0)
        return inc

    placed = []
    pos_of = {}
    enc = []

    def search(remaining):
        nonlocal best, best_order
        if not remaining:
            if best is None or enc < best:
                best = list(enc)
                best_order = list(placed)
            return
        mincol = min(col[e] for e in remaining)
        start = len(enc)
        for e in sorted(e for e in remaining if col[e] == mincol):
            inc = increment(e, placed, pos_of)
            if best is not None and enc == best[:start]:
                seg = best[start:start + len(inc)]
                if inc > seg:
                    continue
            placed.append(e)
            pos_of[e] = len(placed) - 1
            enc.extend(inc)
            search(remaining - {e})
            del enc[start:]
            del pos_of[e]
            placed.pop()

    search(frozenset(range(n)))
    return tuple(best_order), tuple(best)


def evaluate(A, t, assignment):
    """Value of a term in A under a variable assignment (indices), by
    recursion over the term and the carrier's own operations."""
    if isinstance(t, Var):
        try:
            return assignment[t.name]
        except KeyError:
            raise ValueError(f"unbound variable {t.name!r}") from None
    if isinstance(t, Zero):
        return A.zero
    if isinstance(t, One):
        return A.one
    if isinstance(t, Meet):
        return A.meet(evaluate(A, t.left, assignment),
                      evaluate(A, t.right, assignment))
    if isinstance(t, Join):
        return A.join(evaluate(A, t.left, assignment),
                      evaluate(A, t.right, assignment))
    if isinstance(t, Kleene):
        return A.kleene[evaluate(A, t.arg, assignment)]
    if isinstance(t, Brouwer):
        return A.brouwer[evaluate(A, t.arg, assignment)]
    raise TypeError(f"not a term: {t!r}")


def _identity_ok(A, ident, assignment):
    lv = evaluate(A, ident.lhs, assignment)
    rv = evaluate(A, ident.rhs, assignment)
    return lv == rv if ident.kind == "eq" else A.le(lv, rv)


def holds(A, statement):
    """The recursive interpreter: (True, None) or (False, the first
    failing assignment in odometer order over sorted variable names),
    skipping assignments at which a premise fails; a clause fails where
    no disjunct of its conclusion holds."""
    if isinstance(statement, QuasiIdentity):
        premises, conclusion = statement.premises, statement.conclusion
    else:
        premises, conclusion = (), (statement,)
    names = term_vars(statement)
    for values in itertools.product(range(A.n), repeat=len(names)):
        assignment = dict(zip(names, values))
        if premises and not all(_identity_ok(A, p, assignment)
                                for p in premises):
            continue
        if not any(_identity_ok(A, c, assignment) for c in conclusion):
            return False, assignment
    return True, None


def check_basics(A):
    """The nested loops axioms.check_basics replaced: the first failing
    elements of each of its nine clauses, in its clause order."""
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


def congruence_generated(A, pairs):
    """Least congruence containing the pairs: union-find plus full
    passes of the basic translations over every block, until a pass
    merges nothing."""
    parent = list(range(A.n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = sorted((find(a), find(b)))
        if ra == rb:
            return False
        parent[rb] = ra
        return True

    for a, b in pairs:
        union(a, b)
    changed = True
    while changed:
        changed = False
        groups = {}
        for x in range(A.n):
            groups.setdefault(find(x), []).append(x)
        for members in groups.values():
            base = members[0]
            for y in members[1:]:
                moved = [(A.kleene[base], A.kleene[y]),
                         (A.brouwer[base], A.brouwer[y])]
                for c in range(A.n):
                    moved += [(A.meet(base, c), A.meet(y, c)),
                              (A.join(base, c), A.join(y, c))]
                for u, v in moved:
                    changed |= union(u, v)
    return Congruence([find(x) for x in range(A.n)])


def pairwise_congruences(A):
    """Every congruence of A, sorted coarsest-last: principal
    congruences of all pairs, closed under joins generated anew from
    the union of both relations' pairs."""
    principals = {congruence_generated(A, [(a, b)])
                  for a in range(A.n) for b in range(a + 1, A.n)}
    found = {Congruence.identity(A.n)} | principals
    frontier = list(principals)
    while frontier:
        theta = frontier.pop()
        for phi in principals:
            psi = congruence_generated(A, theta.pairs() + phi.pairs())
            if psi not in found:
                found.add(psi)
                frontier.append(psi)
    return sorted(found, key=lambda t: (len(t.pairs()), t.block_of))


def _composition_total(t1, t2, n):
    """Does theta1 o theta2 relate every pair?"""
    for a in range(n):
        reach = set()
        for c in range(n):
            if t1.related(a, c):
                reach.update(b for b in range(n) if t2.related(c, b))
        if len(reach) != n:
            return False
    return True


def is_directly_indecomposable(A):
    """No two proper congruences meeting in the identity whose
    relational products, taken both ways, relate every pair."""
    if A.n == 1:
        return True
    proper = [t for t in all_congruences(A)
              if not t.is_identity() and not t.is_total()]
    for i, t1 in enumerate(proper):
        for t2 in proper[i + 1:]:
            if any(t1.related(a, b) and t2.related(a, b)
                   for a in range(A.n) for b in range(a + 1, A.n)):
                continue
            if _composition_total(t1, t2, A.n) and \
                    _composition_total(t2, t1, A.n):
                return False
    return True


def gamma(A, a, b):
    """(a v b) ^ (a v b~) ^ (a~ v b) ^ (a~ v b~), by method calls."""
    ta, tb = A.brouwer[a], A.brouwer[b]
    out = A.meet(A.join(a, b), A.join(a, tb))
    out = A.meet(out, A.join(ta, b))
    return A.meet(out, A.join(ta, tb))


def subuniverse_generated(A, seed):
    """Closure of the seed and the bounds under meet, join, ' and ~,
    restarted from all of them, as a frozenset."""
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
    """Every Boolean or chain-shaped subuniverse, each grown by closing
    one more generator together with all of its parent from the bounds;
    the inclusion-maximal ones, sorted by their sorted elements."""
    if not axioms.classify(A).pbz_star:
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


def is_horizontal_sum_of_blocks(A):
    """The horizontal-sum report by method calls over every pair, with
    the blocks above."""
    interior = [a for a in range(A.n) if a != A.zero and a != A.one]
    conds = {}

    w = next(((a, b) for a in range(A.n) for b in range(A.n)
              if gamma(A, a, b) != A.zero and A.join(a, b) != A.one), None)
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
