"""Term language over the algebra signature, with exhaustive checking.

Grammar (join binds loosest, then meet; the postfix unaries ' and ~
bind tightest; [] and <> are prefix sugar for '~ and ~~):

    statement := clause | identity ("&" identity)* "=>" clause
    clause    := identity ("|" identity)*
    identity  := term ("=" | "<=") term
    term      := factor ("v" factor)*
    factor    := unary ("^" unary)*
    unary     := ("[]" | "<>")* atom postfix*
    postfix   := "'" | "~"
    atom      := "0" | "1" | ident | "(" term ")"

``v`` is reserved for join and cannot be a variable name.  The prefix
modalities desugar at parse time, so the AST only ever contains the six
primitive constructors.  A statement with premises or disjuncts is a
``QuasiIdentity``, a universal clause.  Clauses are preserved under
subalgebras but not under homomorphic images or products (a clause with
one disjunct is a quasi-identity, preserved under products too).
"""

import itertools

from .core import _is_index, _Record, _row_type, _set_field

# numpy is imported only where a statement is scanned, so that
# importing the package, and commands that scan no statement, do not
# load it

__all__ = [
    "Term", "Var", "Zero", "One", "Meet", "Join", "Kleene", "Brouwer",
    "Box", "Diamond", "Identity", "QuasiIdentity", "ParseError",
    "parse_term", "parse_statement", "pretty",
    "term_vars", "evaluate", "holds", "holds_each", "holds_quasi",
    "THEORY",
]


class _Node(_Record):
    """A frozen record with its hash kept on the node.

    ``holds`` keys kept verdicts by statement, so a statement is hashed
    on every lookup; a node computes its hash once, from its type and
    its fields' (kept) hashes, so a lookup costs O(1) and not a walk
    over the tree.  A pickle rebuilds the node from its fields, so the
    hash is always that of the process the node lives in.  Nodes are
    built on the parser's hot path, so each class writes its own
    ``__init__``.
    """

    __slots__ = ("_hash",)

    def __hash__(self):
        kept = getattr(self, "_hash", None)
        if kept is None:
            kept = hash((type(self), *self._fields()))
            _set_field(self, "_hash", kept)
        return kept


class Term(_Node):
    """Base class; all nodes are frozen records."""

    __slots__ = ()


class Var(Term):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name):
        _set_field(self, "name", name)


class Zero(Term):
    __slots__ = ()


class One(Term):
    __slots__ = ()


class Meet(Term):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left, right):
        _set_field(self, "left", left)
        _set_field(self, "right", right)


class Join(Term):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left, right):
        _set_field(self, "left", left)
        _set_field(self, "right", right)


class Kleene(Term):
    __slots__ = __match_args__ = ("arg",)

    def __init__(self, arg):
        _set_field(self, "arg", arg)


class Brouwer(Term):
    __slots__ = __match_args__ = ("arg",)

    def __init__(self, arg):
        _set_field(self, "arg", arg)


def Box(t):
    """box t = (t')~"""
    return Brouwer(Kleene(t))


def Diamond(t):
    """diamond t = (t~)~"""
    return Brouwer(Brouwer(t))


class Identity(_Node):
    """An equation or inequality between two terms."""

    __slots__ = __match_args__ = ("lhs", "rhs", "kind")

    def __init__(self, lhs, rhs, kind):
        if kind not in ("eq", "le"):
            raise ValueError(f"bad identity kind {kind!r}")
        _set_field(self, "lhs", lhs)
        _set_field(self, "rhs", rhs)
        _set_field(self, "kind", kind)


class QuasiIdentity(_Node):
    """Premises, possibly none, and a disjunction of identities.

    With no premises there are at least two disjuncts: one alone is the
    bare ``Identity``, and each statement has one AST.
    """

    __slots__ = __match_args__ = ("premises", "conclusion")

    def __init__(self, premises, conclusion):
        # tuples, so that the statement hashes: holds keys verdicts by it
        premises, conclusion = tuple(premises), tuple(conclusion)
        if not conclusion:
            raise ValueError("a clause needs at least one disjunct")
        if not premises and len(conclusion) == 1:
            raise ValueError("a clause with no premises needs at least "
                             "two disjuncts; use the Identity itself")
        _set_field(self, "premises", premises)
        _set_field(self, "conclusion", conclusion)


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TWO_CHAR = {"[]": "BOX", "<>": "DIAMOND", "<=": "LE", "=>": "IMPLIES"}
_ONE_CHAR = {"(": "LPAR", ")": "RPAR", "^": "MEET", "'": "KLEENE",
             "~": "BROUWER", "=": "EQ", "&": "AND", "|": "OR", "0": "ZERO",
             "1": "ONE"}
# the text a token kind stands for, to name it in parse errors
_SYMBOL = {kind: text for table in (_TWO_CHAR, _ONE_CHAR)
           for text, kind in table.items()}


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        two = text[i:i + 2]
        if two in _TWO_CHAR:
            toks.append((_TWO_CHAR[two], two, i))
            i += 2
            continue
        if c in "<>":
            raise ParseError(f"stray {c!r}", i)
        if c in _ONE_CHAR:
            toks.append((_ONE_CHAR[c], c, i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "v":
                toks.append(("JOIN", word, i))
            else:
                toks.append(("IDENT", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("END", "", n))
    return toks


def _found(kind, text):
    return "end of input" if kind == "END" else repr(text)


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i][0]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(
                f"expected {_SYMBOL[kind]!r}, found {_found(*tok[:2])}",
                tok[2])
        return tok

    def term(self):
        t = self.factor()
        while self.peek() == "JOIN":
            self.next()
            t = Join(t, self.factor())
        return t

    def factor(self):
        t = self.unary()
        while self.peek() == "MEET":
            self.next()
            t = Meet(t, self.unary())
        return t

    def unary(self):
        prefixes = []
        while self.peek() in ("BOX", "DIAMOND"):
            prefixes.append(self.next()[0])
        t = self.atom()
        while self.peek() in ("KLEENE", "BROUWER"):
            kind = self.next()[0]
            t = Kleene(t) if kind == "KLEENE" else Brouwer(t)
        for kind in reversed(prefixes):
            t = Box(t) if kind == "BOX" else Diamond(t)
        return t

    def atom(self):
        kind, text, pos = self.next()
        if kind == "ZERO":
            return Zero()
        if kind == "ONE":
            return One()
        if kind == "IDENT":
            return Var(text)
        if kind == "LPAR":
            t = self.term()
            self.expect("RPAR")
            return t
        raise ParseError(f"expected a term, found {_found(kind, text)}", pos)

    def identity(self):
        lhs = self.term()
        kind, text, pos = self.next()
        if kind == "EQ":
            return Identity(lhs, self.term(), "eq")
        if kind == "LE":
            return Identity(lhs, self.term(), "le")
        raise ParseError(
            f"expected '=' or '<=', found {_found(kind, text)}", pos)

    def clause(self):
        disjuncts = [self.identity()]
        while self.peek() == "OR":
            self.next()
            disjuncts.append(self.identity())
        return disjuncts

    def statement(self):
        first = self.clause()
        if len(first) == 1 and self.peek() in ("AND", "IMPLIES"):
            while self.peek() == "AND":
                self.next()
                first.append(self.identity())
            self.expect("IMPLIES")
            return QuasiIdentity(first, self.clause())
        return first[0] if len(first) == 1 else QuasiIdentity((), first)


def _finish(parser, node):
    tok = parser.toks[parser.i]
    if tok[0] != "END":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return node


def parse_term(text):
    p = _Parser(text)
    return _finish(p, p.term())


def parse_statement(text):
    """Parse an identity or a clause, whichever the text is."""
    p = _Parser(text)
    return _finish(p, p.statement())


# precedence levels for printing: join 0, meet 1, unary/atom 2
def _pp(t, level):
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, One):
        return "1"
    if isinstance(t, Kleene):
        return _pp(t.arg, 2) + "'"
    if isinstance(t, Brouwer):
        return _pp(t.arg, 2) + "~"
    if isinstance(t, Meet):
        s = f"{_pp(t.left, 1)} ^ {_pp(t.right, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(t, Join):
        s = f"{_pp(t.left, 0)} v {_pp(t.right, 1)}"
        return f"({s})" if level > 0 else s
    raise TypeError(f"not a term: {t!r}")


def pretty(obj):
    """Render a term, identity or clause; what parse_statement returns
    reparses to an equal AST."""
    if isinstance(obj, Term):
        return _pp(obj, 0)
    if isinstance(obj, Identity):
        op = "=" if obj.kind == "eq" else "<="
        return f"{_pp(obj.lhs, 0)} {op} {_pp(obj.rhs, 0)}"
    if isinstance(obj, QuasiIdentity):
        out = " | ".join(pretty(c) for c in obj.conclusion)
        if obj.premises:
            out = " & ".join(pretty(p) for p in obj.premises) + " => " + out
        return out
    raise TypeError(f"cannot pretty-print {obj!r}")


def term_vars(obj):
    """Sorted variable names occurring in a term, identity or clause."""
    out = set()

    def walk(t):
        if isinstance(t, Var):
            out.add(t.name)
        elif isinstance(t, (Meet, Join)):
            walk(t.left)
            walk(t.right)
        elif isinstance(t, (Kleene, Brouwer)):
            walk(t.arg)

    if isinstance(obj, Term):
        walk(obj)
    elif isinstance(obj, Identity):
        walk(obj.lhs)
        walk(obj.rhs)
    elif isinstance(obj, QuasiIdentity):
        for ident in (*obj.premises, *obj.conclusion):
            out.update(term_vars(ident))
    else:
        raise TypeError(f"no variables in {obj!r}")
    return sorted(out)


# assignments evaluated at once, over all algebras of a block: its
# arrays stay within 32 KB (2**16 would save a tenth of a level's scan
# time and triple its peak memory)
_BLOCK = 1 << 12

# one representative per equal statement: verdict lookups hit by identity
_STATEMENT_MEMO = {}

_OPS = {Meet: "meet", Join: "join", Kleene: "kleene", Brouwer: "brouwer"}


def _table(A, op):
    """numpy array of one operation table of A, made on first use and
    kept on A, so a statement reads only the tables its terms need (a
    bare BoundedLattice has no ' or ~).  ``meet`` and ``join`` are an
    n x n view of the order's flat table, with no copy, and a map a view
    of its images packed the same way (``core._row_type``), so each
    entry takes the narrowest unsigned dtype: uint8 up to 256 elements.
    The arrays are read-only."""
    tabs = A._keep("tables", dict)
    tab = tabs.get(op)
    if tab is None:
        import numpy as np
        if op in ("meet", "join"):
            # one array straight over the buffer: a reshaped
            # np.frombuffer would keep a second array header per table
            flat = getattr(A._ord, op)
            tab = np.ndarray((A.n, A.n), memoryview(flat).format, flat)
        elif not hasattr(A, op):
            raise TypeError(f"a bare lattice has no {op} map")
        else:
            row = _row_type(A.n)(getattr(A, op))
            tab = np.frombuffer(row, memoryview(row).format)
        tabs[op] = tab
    return tab


def _gather(t, env, tabs, at):
    """Values of a term over the assignments in env, by lookups in the
    tables tabs(op), whose leading axes the index tuple at picks (one
    algebra's own tables take ()).  env maps Zero and One, as well as
    the variable names, to values."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, (Meet, Join)):
        return tabs(_OPS[type(t)])[(*at, _gather(t.left, env, tabs, at),
                                    _gather(t.right, env, tabs, at))]
    if isinstance(t, (Kleene, Brouwer)):
        return tabs(_OPS[type(t)])[(*at, _gather(t.arg, env, tabs, at))]
    if isinstance(t, (Zero, One)):
        return env[type(t)]
    raise TypeError(f"not a term: {t!r}")


def evaluate(A, t, assignment):
    """Value of a term in A under a variable assignment (indices), read
    off the operation tables as ``holds`` reads them.  Each variable of
    the term must be assigned an element index; numpy integers count."""
    for v in term_vars(t):
        if v not in assignment:
            raise ValueError(f"unbound variable {v!r}")
        if not _is_index(assignment[v], A.n):
            raise ValueError(f"variable {v!r} is assigned "
                             f"{assignment[v]!r}, not an element index")
    env = {**assignment, Zero: A.zero, One: A.one}
    return int(_gather(t, env, lambda op: _table(A, op), ()))


def _satisfied(ident, env, tabs, at):
    lv = _gather(ident.lhs, env, tabs, at)
    rv = _gather(ident.rhs, env, tabs, at)
    if ident.kind == "le":  # a <= b iff a ^ b = a
        rv = tabs("meet")[(*at, lv, rv)]
    return lv == rv


def holds(A, statement):
    """Exhaustively check an identity or a clause; (True, None) or
    (False, assignment).

    Assignments run in odometer order over sorted variable names, so the
    reported counterexample is the lexicographically first one.  A
    clause fails at an assignment where every premise holds and no
    disjunct of its conclusion does.  This is ``holds_each`` for one
    algebra, with the read of a kept verdict done in place.
    """
    kept = A._keep("verdicts", dict).get(
        _STATEMENT_MEMO.get(statement, statement))
    if kept is None:
        return holds_each((A,), statement)[0]
    ok, witness = kept
    return ok, None if witness is None else dict(witness)


def _interned(statement):
    """The representative of the statement in ``_STATEMENT_MEMO``, which
    becomes the statement itself if it has none.  Passing the
    representative on spares later lookups a comparison field by
    field."""
    if not isinstance(statement, (Identity, QuasiIdentity)):
        raise TypeError(f"not an identity or a clause: {statement!r}")
    return _STATEMENT_MEMO.setdefault(statement, statement)


def holds_each(algebras, statement):
    """``holds`` for each of some algebras of one size, in order.

    An algebra or a bare lattice, whose tables cannot change, keeps
    each verdict by statement, and later calls read it; the algebras
    with none kept are scanned together.  The assignments returned are
    fresh copies, so a caller may change them.
    """
    statement = _interned(statement)
    algebras = list(algebras)  # read twice below
    if len({A.n for A in algebras}) > 1:
        raise ValueError("holds_each takes algebras of one size")
    kept = [A._keep("verdicts", dict) for A in algebras]
    verdicts = [k.get(statement) for k in kept]
    todo = [i for i, verdict in enumerate(verdicts) if verdict is None]
    if todo:
        found = _scan([algebras[i] for i in todo], statement)
        for i, verdict in zip(todo, found):
            kept[i][statement] = verdicts[i] = verdict
    return [(ok, None if witness is None else dict(witness))
            for ok, witness in verdicts]


def _scan(algebras, statement):
    """The scan behind ``holds_each``, once per algebra and statement.

    The terms are evaluated by numpy gathers from the operation tables
    of a block of algebras of one size n, stacked on a leading axis.
    The trailing k variables get one broadcast axis each, for the
    largest k with n ** k within ``_BLOCK``; a block holds as many
    algebras as keep it within ``_BLOCK`` assignments, and fixes the
    leading variables, which run through their values in odometer
    order.  A block's failures (every premise holds and no disjunct of
    the conclusion does) have one row per algebra in the odometer order
    of the trailing variables, so the argmax of a row, in the first
    block where the row has a True, is that algebra's first failing
    assignment.  A block of algebras is done once each has failed.
    """
    import numpy as np
    if isinstance(statement, QuasiIdentity):
        premises, conclusion = statement.premises, statement.conclusion
    else:
        premises, conclusion = (), (statement,)
    names = term_vars(statement)
    n = algebras[0].n
    inner = 0
    while inner < len(names) and n ** (inner + 1) <= _BLOCK:
        inner += 1
    lead = names[:len(names) - inner]
    shape = (n,) * inner
    env = {}
    for axis, name in enumerate(names[len(lead):], 1):
        env[name] = np.arange(n).reshape(
            [n if j == axis else 1 for j in range(inner + 1)])
    step = _BLOCK // n ** inner
    first = [None] * len(algebras)
    for start in range(0, len(algebras), step):
        block = algebras[start:start + step]
        m = len(block)
        at = (np.arange(m).reshape((m,) + (1,) * inner),)
        env[Zero] = np.array([A.zero for A in block]).reshape(at[0].shape)
        env[One] = np.array([A.one for A in block]).reshape(at[0].shape)
        stacked = {}

        def tabs(op):
            # an operation's values index the next gather, so its kept
            # narrow tables are widened to intp once for the block
            if op not in stacked:
                own = [_table(A, op) for A in block]
                stacked[op] = np.concatenate(own, dtype=np.intp).reshape(
                    m, *own[0].shape)
            return stacked[op]

        for values in itertools.product(range(n), repeat=len(lead)):
            env.update(zip(lead, values))
            bad = np.logical_not(_satisfied(conclusion[0], env, tabs, at))
            for c in conclusion[1:]:
                bad = bad & np.logical_not(_satisfied(c, env, tabs, at))
            for p in premises:
                bad = bad & _satisfied(p, env, tabs, at)
            rows = np.broadcast_to(bad, (m, *shape)).reshape(m, -1)
            cells = [axis.tolist() for axis in np.unravel_index(
                rows.argmax(axis=1), shape)] if shape else []
            for i in np.flatnonzero(rows.any(axis=1)).tolist():
                if first[start + i] is None:
                    first[start + i] = dict(zip(
                        names, [*values, *(c[i] for c in cells)]))
            if None not in first[start:start + m]:
                break
    return [(True, None) if w is None else (False, w) for w in first]


def holds_quasi(A, quasi):
    """Check a quasi-identity (or an identity); the same as ``holds``."""
    return holds(A, quasi)


# Named identities and clauses used throughout the package.
# The third entry of the distributivity chain (DCHAIN3) is implemented
# as the two-sided equation x v (y ^ z) = x v ((x v y) ^ z).
_THEORY_SOURCE = {
    "AOL1": "(x~ v y~) ^ (<>x v z~) = ((x~ v y) ^ (<>x v z))~",
    "AOL2": "x = (x ^ y~) v (x ^ <>y)",
    "AOL3": "x = (x v y~) ^ (x v <>y)",
    "DIST": "x ^ (y v z) = (x ^ y) v (x ^ z)",
    "SDM": "(x ^ y)~ = x~ v y~",
    "SK": "x ^ <>y <= []x v y",
    "STAR": "(x ^ x')~ <= x~ v x'~",
    "DIAMOND_OM": "(x~ v (<>x ^ <>y)) ^ <>x <= <>y",
    "J": "x v y = ((x v y) ^ y~) v ((x v y) ^ <>y)",
    "PK": "x ^ x' <= y v y'",
    "BZ1": "x ^ x~ = 0",
    "BZ2": "x <= x~~",
    "BZ3": "x <= y => y~ <= x~",
    "BZ4": "x~' = x~~",
    "OM": "x <= y => y = (y ^ x') v x",
    "POM": "x <= y & x' ^ y = 0 => x = y",
    "DCHAIN1": "x v []y = (x v y) ^ (<>x v []y)",
    "DCHAIN2": "x v (y ^ z) = x v ((<>y v []x) ^ (x v y) ^ z)",
    "DCHAIN3": "x v (y ^ z) = x v ((x v y) ^ z)",
    "DCHAIN4": "x ^ (y v z) = x ^ (y v (x ^ z))",
    # universal clauses: S_K = {0, 1}, covering cones, no two nonzero
    # elements meeting in 0, a chain order, and every nonzero element
    # dense (~ the trivial Brouwer map, as 0~ = 1 on a BZ-lattice)
    "ANTIORTHO": "x ^ x' = 0 => x = 0 | x = 1",
    "CONES": "x <= x' | x' <= x",
    "NODISJ": "x ^ y = 0 => x = 0 | y = 0",
    "CHAIN": "x <= y | y <= x",
    "DENSE": "x = 0 | x~ = 0",
    # the Kleene, modal and Brouwer sharp sets, each inside the next
    # round a cycle: the three together say S_K = S_<> = S_B
    "SHARP_KD": "x ^ x' = 0 => <>x = x",
    "SHARP_DB": "<>x = x => x v x~ = 1",
    "SHARP_BK": "x v x~ = 1 => x ^ x' = 0",
}

THEORY = {name: parse_statement(src) for name, src in _THEORY_SOURCE.items()}
