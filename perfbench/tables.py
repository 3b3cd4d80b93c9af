"""Raw-table algebra for the benchmark's checkers.

Nothing here imports pbzlat.  Algebras are read from the program's
plain-text file format by a parser written here, the order is closed by
Warshall's algorithm, and every property the checkers need (lattice
axioms, involution, Brouwer axioms, identities, congruences,
isomorphism) is computed by nested loops or by numpy gathers over
these tables.  That keeps the checks independent of the algorithms
they judge.
"""

import numpy as np


class TableError(ValueError):
    """A file or statement the checkers cannot read."""


class Alg:
    """A finite algebra given by its order table and two unary maps.

    ``meet`` and ``join`` are None where the bound does not exist, so
    a non-lattice can still be loaded and then rejected by a check.
    """

    def __init__(self, labels, leq, kleene, brouwer, name=None, text=None):
        n = len(labels)
        self.n = n
        self.name = name
        self.text = text
        self.labels = tuple(labels)
        self.leq = [list(row) for row in leq]
        self.kleene = tuple(kleene)
        self.brouwer = tuple(brouwer)
        self.meet = [[_bound(self.leq, a, b, lower=True) for b in range(n)]
                     for a in range(n)]
        self.join = [[_bound(self.leq, a, b, lower=False) for b in range(n)]
                     for a in range(n)]
        self.zero = next((a for a in range(n)
                          if all(self.leq[a][b] for b in range(n))), None)
        self.one = next((a for a in range(n)
                         if all(self.leq[b][a] for b in range(n))), None)

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise TableError(f"unknown element {label!r}") from None


def _bound(leq, a, b, lower):
    """Greatest common lower bound (or least common upper bound)."""
    n = len(leq)
    if lower:
        common = [c for c in range(n) if leq[c][a] and leq[c][b]]
        best = [c for c in common if all(leq[d][c] for d in common)]
    else:
        common = [c for c in range(n) if leq[a][c] and leq[b][c]]
        best = [c for c in common if all(leq[c][d] for d in common)]
    return best[0] if len(best) == 1 else None


def closure(n, covers):
    """Reflexive-transitive closure of cover pairs (Warshall)."""
    leq = [[a == b for b in range(n)] for a in range(n)]
    for a, b in covers:
        leq[a][b] = True
    for k in range(n):
        for a in range(n):
            if leq[a][k]:
                for b in range(n):
                    if leq[k][b]:
                        leq[a][b] = True
    return leq


def parse_algebra(text):
    """Read one algebra in the program's file format."""
    name = None
    labels = []
    covers = []
    maps = {"kleene": {}, "brouwer": {}}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key == "algebra":
            name = rest.strip()
        elif key == "elements":
            labels.extend(rest.split())
        elif key == "covers":
            for clause in rest.split(";"):
                parts = clause.split()
                if parts:
                    if len(parts) != 3 or parts[1] != "<":
                        raise TableError(f"bad cover {clause!r}")
                    covers.append((parts[0], parts[2]))
        elif key in maps:
            for tok in rest.split():
                a, _, b = tok.partition(":")
                maps[key][a] = b
        elif key != "bounds":
            raise TableError(f"unknown keyword {key!r}")
    if not labels or len(set(labels)) != len(labels):
        raise TableError("missing or repeated element labels")
    idx = {lab: i for i, lab in enumerate(labels)}
    try:
        pairs = [(idx[a], idx[b]) for a, b in covers]
        kleene = [idx[maps["kleene"][lab]] for lab in labels]
        brouwer = [idx[maps["brouwer"][lab]] for lab in labels]
    except KeyError as e:
        raise TableError(f"unknown or unmapped element {e}") from None
    return Alg(labels, closure(len(labels), pairs), kleene, brouwer, name,
               text)


# ---------------------------------------------------------------------------
# nested-loop axioms


def is_lattice(A):
    """Partial order with every meet and join, and both bounds."""
    n, le = A.n, A.leq
    for a in range(n):
        if not le[a][a]:
            return False
        for b in range(n):
            if a != b and le[a][b] and le[b][a]:
                return False
            for c in range(n):
                if le[a][b] and le[b][c] and not le[a][c]:
                    return False
    if A.zero is None or A.one is None:
        return False
    return all(A.meet[a][b] is not None and A.join[a][b] is not None
               for a in range(n) for b in range(n))


def is_order_reversing_involution(A):
    n, le, k = A.n, A.leq, A.kleene
    return (all(k[k[a]] == a for a in range(n))
            and all(le[a][b] == le[k[b]][k[a]]
                    for a in range(n) for b in range(n)))


def kleene_sharp(A):
    return {a for a in range(A.n) if A.meet[a][A.kleene[a]] == A.zero}


def is_trivial_brouwer(A):
    return all(A.brouwer[a] == (A.one if a == A.zero else A.zero)
               for a in range(A.n))


def is_bz(A):
    """Pseudo-Kleene plus the four Brouwer axioms, by nested loops."""
    n, le, m, j, k, t = A.n, A.leq, A.meet, A.join, A.kleene, A.brouwer
    for a in range(n):
        for b in range(n):
            if not le[m[a][k[a]]][j[b][k[b]]]:
                return False
            if le[a][b] and not le[t[b]][t[a]]:
                return False
    return all(m[a][t[a]] == A.zero and le[a][t[t[a]]]
               and k[t[a]] == t[t[a]] for a in range(n))


def is_bz_star(A):
    """(a ^ a')~ <= a~ v a'~."""
    m, j, k, t, le = A.meet, A.join, A.kleene, A.brouwer, A.leq
    return all(le[t[m[a][k[a]]]][j[t[a]][t[k[a]]]] for a in range(A.n))


def is_diamond_orthomodular(A):
    """(a~ v (<>a ^ <>b)) ^ <>a <= <>b."""
    m, j, t, le = A.meet, A.join, A.brouwer, A.leq
    for a in range(A.n):
        da = t[t[a]]
        for b in range(A.n):
            db = t[t[b]]
            if not le[m[j[t[a]][m[da][db]]][da]][db]:
                return False
    return True


def in_class(A, cls):
    """Class membership for the search battery's corpora: the base
    corpus is BZ, and each --class narrows it."""
    if not (is_lattice(A) and is_order_reversing_involution(A)
            and is_bz(A)):
        return False
    if cls in ("bz-star", "pbz-star") and not is_bz_star(A):
        return False
    if cls == "pbz-star" and not is_diamond_orthomodular(A):
        return False
    return cls in (None, "bz-star", "pbz-star")


def incomparable_to_involute(A):
    """Least element incomparable to its involute, or None."""
    return next((a for a in range(A.n)
                 if not A.leq[a][A.kleene[a]]
                 and not A.leq[A.kleene[a]][a]), None)


# ---------------------------------------------------------------------------
# congruences, by union-find closure over the tables


def principal_congruence(A, a, b):
    """Least equivalence containing (a, b) that is closed under ', ~ and
    meets and joins with every element; as a block-id tuple."""
    parent = list(range(A.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x, y):
        x, y = find(x), find(y)
        if x == y:
            return False
        parent[max(x, y)] = min(x, y)
        return True

    union(a, b)
    changed = True
    while changed:
        changed = False
        for x in range(A.n):
            y = find(x)
            if y == x:
                continue
            images = [(A.kleene[x], A.kleene[y]), (A.brouwer[x], A.brouwer[y])]
            for c in range(A.n):
                images.append((A.meet[x][c], A.meet[y][c]))
                images.append((A.join[x][c], A.join[y][c]))
            for u, v in images:
                changed |= union(u, v)
    return tuple(find(x) for x in range(A.n))


def is_subdirectly_irreducible(A):
    """True when the nontrivial congruences have a least member.

    Every nontrivial congruence contains a principal one, so that
    least member exists exactly when the intersection of all principal
    congruences Cg(a, b), a != b, relates some pair.
    """
    if A.n < 2:
        return False
    cgs = [principal_congruence(A, a, b)
           for a in range(A.n) for b in range(a + 1, A.n)]
    return any(all(cg[a] == cg[b] for cg in cgs)
               for a in range(A.n) for b in range(a + 1, A.n))


# ---------------------------------------------------------------------------
# isomorphism


def _signature(A, a):
    k = A.kleene[a]
    return (sum(A.leq[b][a] for b in range(A.n)),
            sum(A.leq[a][b] for b in range(A.n)),
            k == a, A.leq[a][k], A.leq[k][a], A.brouwer[a] == A.zero)


def isomorphic(A, B):
    """Order- and map-preserving bijection by backtracking over
    elements with equal local signatures."""
    if A.n != B.n:
        return False
    sa = [_signature(A, a) for a in range(A.n)]
    sb = [_signature(B, b) for b in range(B.n)]
    if sorted(sa) != sorted(sb):
        return False
    img = [None] * A.n
    used = [False] * B.n

    def fits(a, b):
        if sa[a] != sb[b]:
            return False
        for x in range(A.n):
            y = img[x]
            if y is None:
                continue
            if A.leq[a][x] != B.leq[b][y] or A.leq[x][a] != B.leq[y][b]:
                return False
        for fa, fb in ((A.kleene, B.kleene), (A.brouwer, B.brouwer)):
            if img[fa[a]] is not None and img[fa[a]] != fb[b]:
                return False
            if fa[a] == a and fb[b] != b:
                return False
            for x in range(A.n):
                if img[x] is not None and fa[x] == a and fb[img[x]] != b:
                    return False
        return True

    def place(a):
        if a == A.n:
            return True
        for b in range(B.n):
            if not used[b] and fits(a, b):
                img[a], used[b] = b, True
                if place(a + 1):
                    return True
                img[a], used[b] = None, False
        return False

    return place(0)


# ---------------------------------------------------------------------------
# statements: parser and numpy evaluator
#
# Terms are tuples: ("var", name), ("0",), ("1",), ("^", s, t),
# ("v", s, t), ("'", t), ("~", t).  A statement is ("eq"|"le", s, t) or
# ("quasi", premises, conclusion).


def _tokens(text):
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif text[i:i + 2] in ("[]", "<>", "<=", "=>"):
            out.append(text[i:i + 2])
            i += 2
        elif c in "()^'~=&01":
            out.append(c)
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise TableError(f"unexpected {c!r} in {text!r}")
    return out


def parse_statement(text):
    """Identity, inequality or quasi-identity; same grammar as the
    program's term language ('v' joins, '^' meets, postfix ' and ~,
    prefix [] and <>)."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise TableError(f"expected {expected or 'more'} in {text!r}")
        pos += 1
        return tok

    def term():
        t = factor()
        while peek() == "v":
            take()
            t = ("v", t, factor())
        return t

    def factor():
        t = unary()
        while peek() == "^":
            take()
            t = ("^", t, unary())
        return t

    def unary():
        prefixes = []
        while peek() in ("[]", "<>"):
            prefixes.append(take())
        tok = take()
        if tok == "(":
            t = term()
            take(")")
        elif tok in ("0", "1"):
            t = (tok,)
        elif tok[0].isalpha() or tok[0] == "_":
            t = ("var", tok)
        else:
            raise TableError(f"unexpected {tok!r} in {text!r}")
        while peek() in ("'", "~"):
            t = (take(), t)
        for p in reversed(prefixes):
            t = ("~", ("'", t)) if p == "[]" else ("~", ("~", t))
        return t

    def identity():
        lhs = term()
        op = take()
        if op not in ("=", "<="):
            raise TableError(f"expected = or <= in {text!r}")
        return ("eq" if op == "=" else "le", lhs, term())

    first = identity()
    if peek() is None:
        return first
    premises = [first]
    while peek() == "&":
        take()
        premises.append(identity())
    take("=>")
    stmt = ("quasi", tuple(premises), identity())
    if peek() is not None:
        raise TableError(f"trailing input in {text!r}")
    return stmt


def variables(node):
    if node[0] == "var":
        return {node[1]}
    if node[0] == "quasi":
        out = set()
        for p in node[1] + (node[2],):
            out |= variables(p)
        return out
    out = set()
    for child in node[1:]:
        out |= variables(child)
    return out


class Evaluator:
    """Evaluates statements on one algebra over every assignment of its
    variables at once, as numpy gathers on the meet and join tables."""

    def __init__(self, A):
        self.A = A
        self.meet = np.array(A.meet, dtype=np.int64)
        self.join = np.array(A.join, dtype=np.int64)
        self.leq = np.array(A.leq, dtype=bool)
        self.kleene = np.array(A.kleene, dtype=np.int64)
        self.brouwer = np.array(A.brouwer, dtype=np.int64)

    def _term(self, t, env):
        op = t[0]
        if op == "var":
            return env[t[1]]
        if op == "0":
            return np.int64(self.A.zero)
        if op == "1":
            return np.int64(self.A.one)
        if op == "'":
            return self.kleene[self._term(t[1], env)]
        if op == "~":
            return self.brouwer[self._term(t[1], env)]
        left, right = self._term(t[1], env), self._term(t[2], env)
        return (self.meet if op == "^" else self.join)[left, right]

    def _identity(self, ident, env):
        lhs, rhs = self._term(ident[1], env), self._term(ident[2], env)
        return lhs == rhs if ident[0] == "eq" else self.leq[lhs, rhs]

    def truth(self, stmt, env):
        if stmt[0] != "quasi":
            return self._identity(stmt, env)
        ok = self._identity(stmt[2], env)
        for p in stmt[1]:
            ok = ok | ~self._identity(p, env)
        return ok

    def holds(self, stmt):
        names = sorted(variables(stmt))
        k = len(names)
        if k == 0:
            return bool(self.truth(stmt, {}))
        grid = np.indices((self.A.n,) * k).reshape(k, -1)
        env = dict(zip(names, grid))
        return bool(np.all(self.truth(stmt, env)))

    def holds_at(self, stmt, assignment):
        env = {v: np.int64(a) for v, a in assignment.items()}
        return bool(self.truth(stmt, env))
