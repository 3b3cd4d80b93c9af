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

import functools
import itertools
import operator

from .core import _bits, _is_index, _Record, _row_type, _select, _set_field

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

    A level keeps its masks by statement (``core._Level``), and
    statements are interned (``_interned``), so a statement is hashed
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
        # tuples, so that the statement hashes: a level keys its masks by it
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
# index arrays stay within 32 KB (2**16 would save a tenth of a level's
# scan time and triple its peak memory).  A fibred variable counts as
# many values as the block's algebras have fibres of ~ at most.
_BLOCK = 1 << 12

# a scan of at most this many assignments in all runs on Python ints
# (``_scan_small``): on so few, numpy's calls cost more than the work
_SMALL = 32

# one representative per equal statement: mask lookups hit by identity
_STATEMENT_MEMO = {}

_OPS = {Meet: "meet", Join: "join", Kleene: "kleene", Brouwer: "brouwer",
        Zero: "zero", One: "one"}


class _Plan:
    """Terms compiled into straight-line steps over numbered slots.

    Slot v < len(names) holds variable names[v], and each later slot
    one distinct subterm, so a subterm shared by the terms is one step,
    and so are ``x ^ y`` and ``y ^ x``.  A step is ``(slot, op, argument
    slots)``, its arguments in lower slots, and ``slots`` holds the slot
    of each term.  The terms of a statement are the two sides of each
    identity, its ``premises`` leading, and ``premises`` and
    ``conclusion`` pair their slots; ``x <= y`` has the sides ``x`` and
    ``x ^ y`` (``_sides``).  ``tables`` names the operation tables the
    steps read and ``maps`` the maps an algebra needs.

    A variable is fibred (``fibred[v]``) when every occurrence of it is
    directly under ~: its slot then holds its image under ~, which is
    the slot of ``x~``, and a scan runs it over the least element of
    each fibre of ~ alone.  Putting in the least element of a value's
    fibre changes no term and lowers no coordinate of an assignment,
    so the first failing assignment in odometer order is one of these.
    """

    __slots__ = ("names", "fibred", "steps", "slots", "premises",
                 "conclusion", "tables", "maps")

    def __init__(self, terms, premises=0):
        bare = set()  # the variables with an occurrence not under ~

        def walk(t):
            if isinstance(t, Var):
                bare.add(t.name)
            elif isinstance(t, (Meet, Join)):
                walk(t.left)
                walk(t.right)
            elif isinstance(t, Kleene) or \
                    isinstance(t, Brouwer) and not isinstance(t.arg, Var):
                walk(t.arg)

        for t in terms:
            walk(t)
        self.names = names = sorted(set().union(*map(term_vars, terms)))
        self.fibred = tuple(name not in bare for name in names)
        var = {name: v for v, name in enumerate(names)}
        keyed, steps = {}, []

        def step(key):
            # a step by its op and argument slots, made on first use
            s = keyed.get(key)
            if s is None:
                s = keyed[key] = len(names) + len(steps)
                steps.append((s, key[0], key[1:]))
            return s

        def slot(t):
            if isinstance(t, Var):
                return var[t.name]
            if isinstance(t, (Meet, Join)):
                # meet and join are commutative, so x ^ y is y ^ x
                return step((_OPS[type(t)],
                             *sorted((slot(t.left), slot(t.right)))))
            if isinstance(t, Brouwer) and isinstance(t.arg, Var) and \
                    t.arg.name not in bare:
                return var[t.arg.name]
            if isinstance(t, (Kleene, Brouwer)):
                return step((_OPS[type(t)], slot(t.arg)))
            if isinstance(t, (Zero, One)):
                return step((_OPS[type(t)],))
            raise TypeError(f"not a term: {t!r}")

        self.slots = tuple(map(slot, terms))
        pairs = tuple(zip(self.slots[::2], self.slots[1::2]))
        self.premises, self.conclusion = pairs[:premises], pairs[premises:]
        self.steps = tuple(steps)
        self.tables = {op for _, op, _ in steps} - {"zero", "one"}
        self.maps = sorted(self.tables - {"meet", "join"}
                           | ({"brouwer"} if any(self.fibred) else set()))

    def check_maps(self, algebras):
        kinds = {type(A) for A in algebras}
        for op in self.maps:
            if not all(hasattr(kind, op) for kind in kinds):
                raise TypeError(f"a bare lattice has no {op} map")

    def layout(self, n, most):
        """How a scan over size n lays out the variables, a fibred one
        over at most ``most`` values: ``(lead, fixed, looped, axes,
        spread, per)``.  The trailing variables, as many as keep one
        algebra within ``_BLOCK`` assignments, get one broadcast axis
        each, and the ``lead`` others are fixed per pass; ``looped``
        are the steps that read a leading variable, run once per pass,
        and ``fixed`` the others, run once per block.  ``axes[k]`` holds
        the values 0..n-1 of the k-th trailing variable on its axis, or
        None for a fibred one, whose values differ by algebra.  A block
        whose algebras have at most w fibres holds ``per // w ** spread``
        of them, ``spread`` the number of fibred trailing variables."""
        fibred = self.fibred
        inner, cells = 0, 1
        while inner < len(fibred) and \
                cells * (most if fibred[-1 - inner] else n) <= _BLOCK:
            inner += 1
            cells *= most if fibred[-inner] else n
        lead = len(fibred) - inner
        varying, fixed, looped = set(range(lead)), [], []
        for step in self.steps:
            if varying.intersection(step[2]):
                varying.add(step[0])
                looped.append(step)
            else:
                fixed.append(step)
        axes = [None if fibred[lead + k] else _axis(n, k, inner)
                for k in range(inner)]
        spread = sum(fibred[lead:])
        return (lead, fixed, looped, axes, spread,
                _BLOCK // n ** (inner - spread))


@functools.cache
def _axis(n, k, inner):
    """The values 0..n-1 on axis k + 1 of a block's inner + 1 axes."""
    import numpy as np
    return np.arange(n).reshape([n if j == k else 1
                                 for j in range(-1, inner)])


def _sides(ident):
    """The two terms an identity equates: ``x <= y`` is ``x = x ^ y``."""
    if ident.kind == "le":
        return ident.lhs, Meet(ident.lhs, ident.rhs)
    return ident.lhs, ident.rhs


@functools.cache
def _plan(statement):
    """The plan of an interned statement, compiled on its first scan."""
    premises, conclusion = ((statement.premises, statement.conclusion)
                            if isinstance(statement, QuasiIdentity)
                            else ((), (statement,)))
    return _Plan([t for ident in (*premises, *conclusion)
                  for t in _sides(ident)], len(premises))


def _run(steps, vals, read):
    """Fill the steps' slots of vals, each by the reader of its op."""
    for s, op, args in steps:
        vals[s] = read[op](*[vals[a] for a in args])


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
    plan = _Plan((t,))
    plan.check_maps((A,))
    vals = [None] * (len(plan.names) + len(plan.steps))
    for v, (name, fibred) in enumerate(zip(plan.names, plan.fibred)):
        a = int(assignment[name])
        vals[v] = A.brouwer[a] if fibred else a
    _run(plan.steps, vals, _reads(A, plan))
    return vals[plan.slots[0]]


def _reads(A, plan):
    """The readers of the plan's ops on one algebra, on Python ints read
    straight from its order's flat tables and its maps."""
    n, order = A.n, A._ord
    read = {"meet": lambda a, b: order.meet[a * n + b],
            "join": lambda a, b: order.join[a * n + b],
            "zero": lambda: A.zero, "one": lambda: A.one}
    for op in plan.maps:
        read[op] = getattr(A, op).__getitem__
    return read


def _scan_small(A, plan):
    """``_scan`` of one algebra on Python ints, assignment by assignment
    in odometer order, the fibred variables over the least elements of
    the fibres of ~."""
    fibred, read = plan.fibred, _reads(A, plan)
    reps, images = _fibres(A.brouwer) if any(fibred) else ((), ())
    vals = [None] * (len(fibred) + len(plan.steps))
    for cell in itertools.product(
            *[range(len(reps) if f else A.n) for f in fibred]):
        for v, p in enumerate(cell):
            vals[v] = images[p] if fibred[v] else p
        _run(plan.steps, vals, read)
        if all(vals[left] != vals[right]
               for left, right in plan.conclusion) and \
                all(vals[left] == vals[right]
                    for left, right in plan.premises):
            return False, tuple(reps[p] if f else p
                                for p, f in zip(cell, fibred))
    return True, None


def _witness(statement, verdict):
    """A verdict of ``_scan`` as ``holds`` returns it: the witness tuple
    as a dict by variable name."""
    ok, witness = verdict
    if witness is None:
        return verdict
    return ok, dict(zip(_plan(statement).names, witness))


def holds(A, statement):
    """Exhaustively check an identity or a clause; (True, None) or
    (False, assignment).

    Assignments run in odometer order over sorted variable names, so the
    reported counterexample is the lexicographically first one.  A
    clause fails at an assignment where every premise holds and no
    disjunct of its conclusion does.  This is ``holds_each`` for one
    algebra.
    """
    return holds_each((A,), statement)[0]


def _interned(statement):
    """The representative of the statement in ``_STATEMENT_MEMO``, which
    becomes the statement itself if it has none.  Passing the
    representative on spares later lookups a comparison field by
    field."""
    if not isinstance(statement, (Identity, QuasiIdentity)):
        raise TypeError(f"not an identity or a clause: {statement!r}")
    return _STATEMENT_MEMO.setdefault(statement, statement)


def holds_each(algebras, statement):
    """``holds`` for each of some algebras of one size, in order,
    scanned together (``_scan``).  Nothing is kept: what a level read
    decides, its level keeps as masks (``core._Level``)."""
    statement = _interned(statement)
    algebras = list(algebras)  # read twice below
    if len({A._ord.n for A in algebras}) > 1:
        raise ValueError("holds_each takes algebras of one size")
    return [_witness(statement, verdict) for verdict in
            (_scan(algebras, statement) if algebras else ())]


def _level_held(level, statement, within, verdicts=None):
    """The members of a level (``core._Level``) in the mask ``within``
    on which an interned or THEORY statement holds, as a mask, read off
    the level's mask for it.  The members it has not decided are
    scanned at once, and their verdicts put in the dict ``verdicts``,
    if one is passed, by member index."""
    def scan(todo):
        found = _scan(level.members(todo), statement)
        if verdicts is not None:
            verdicts.update(zip(_bits(todo), found))
        return _select(todo, (ok for ok, _ in found))
    return level.held(statement, within, scan)


def _fibres(brouwer):
    """The least element of each fibre of ~, ascending, and the image
    of each."""
    least = {}
    for a, b in enumerate(brouwer):
        least.setdefault(b, a)
    return list(least.values()), list(least)


def _stacked(block, op):
    """One operation's tables of a block of algebras of one size n,
    side by side in one flat array: algebra i's meet of a and b at
    i*n*n + a*n + b, its image of a at i*n + a.  Meet and join are read
    straight from the orders' flat buffers, and the maps packed the
    same way (``core._row_type``): one byte an entry, two above 256
    elements."""
    import numpy as np
    if op in ("meet", "join"):
        flat = b"".join(map(operator.attrgetter("_ord." + op), block))
    else:
        flat = _row_type(block[0].n)(itertools.chain.from_iterable(
            map(operator.attrgetter(op), block)))
    # the entry type of every table of the block, as its meet has it
    return np.frombuffer(flat, memoryview(block[0]._ord.meet).format)


def _scan(algebras, statement):
    """The scan behind ``holds_each`` and every level read of a
    statement: ``(ok, witness)`` per algebra, the witness a tuple of
    values in the order of the statement's sorted variable names, or
    None.

    A scan of at most ``_SMALL`` assignments in all runs the plan on
    Python ints, one algebra at a time (``_scan_small``).  Otherwise the
    statement's plan (``_plan``) is run by numpy gathers from the
    operation tables of a block of algebras of one size n, stacked side
    by side (``_stacked``); an index is computed in intp, whatever the
    entry type of the tables that give its terms, so the narrow tables
    are read as they are stored.  The trailing variables get one
    broadcast axis each (``_Plan.layout``), of n values or, for a
    fibred variable, of the least elements of the fibres of ~, padded
    per block by repeating the last one.  The algebras are taken in the
    order of their numbers of fibres, so a block pads little, and a
    block holds as many as keep it within ``_BLOCK`` assignments.  Its
    leading variables run through their values in odometer order.  A
    block's failures (every premise holds and no disjunct of the
    conclusion does) have one row per algebra in the odometer order of
    the trailing variables, so the argmax of a row, in the first pass
    where the row has a True, is that algebra's first failing
    assignment: a padded value repeats one that comes before it.  A
    block of algebras is done once each has failed.
    """
    plan = _plan(statement)
    plan.check_maps(algebras)
    fibred, n = plan.fibred, algebras[0].n
    if len(algebras) * n ** len(fibred) <= _SMALL:
        return [_scan_small(A, plan) for A in algebras]
    import numpy as np
    fibres = [_fibres(A.brouwer) for A in algebras] if any(fibred) else ()
    order = sorted(range(len(algebras)), key=lambda i: len(fibres[i][0])) \
        if fibres else range(len(algebras))
    widths = [len(fibres[i][0]) for i in order] if fibres \
        else [n] * len(algebras)
    lead, fixed, looped, axes, spread, per = plan.layout(n, widths[-1])
    first = [None] * len(algebras)
    # the readers of the block's tables and bounds, bound below per block
    read = {
        "zero": lambda: np.array([A.zero for A in block]).reshape(at.shape),
        "one": lambda: np.array([A.one for A in block]).reshape(at.shape),
        "meet": lambda a, b: tabs["meet"].take(
            rows + np.multiply(a, n, dtype=np.intp) + b),
        "join": lambda a, b: tabs["join"].take(
            rows + np.multiply(a, n, dtype=np.intp) + b),
        "kleene": lambda a: tabs["kleene"].take(base + a),
        "brouwer": lambda a: tabs["brouwer"].take(base + a)}
    start = 0
    while start < len(order):
        # as many algebras as keep the block within _BLOCK assignments,
        # its widest one last
        end = min(len(order), start + per // widths[start] ** spread)
        while end - start > per // widths[end - 1] ** spread:
            end = start + per // widths[end - 1] ** spread
        picked = order[start:end]
        block = [algebras[i] for i in picked]
        m, width = len(block), widths[end - 1]
        start = end
        shape = tuple(width if f else n for f in fibred[lead:])
        full = (m, *shape)
        at = np.arange(m).reshape((m,) + (1,) * len(shape))
        rows, base = at * (n * n), at * n
        tabs = {op: _stacked(block, op) for op in plan.tables}
        vals = [None] * (len(fibred) + len(plan.steps))
        if fibres:
            own = [fibres[i] for i in picked]
            reps = [r + r[-1:] * (width - len(r)) for r, _ in own]
            images = np.array([i + i[-1:] * (width - len(i))
                               for _, i in own])
            columns = [images[:, p].reshape(at.shape) for p in range(width)
                       ] if any(fibred[:lead]) else None
        for k, axis in enumerate(axes):
            vals[lead + k] = axis if axis is not None else images.reshape(
                [m if j == -1 else width if j == k else 1
                 for j in range(-1, len(axes))])
        _run(fixed, vals, read)
        unsettled = m
        for values in itertools.product(
                *[range(width if f else n) for f in fibred[:lead]]):
            for v, p in enumerate(values):
                vals[v] = columns[p] if fibred[v] else p
            _run(looped, vals, read)
            bad = None
            for left, right in plan.conclusion:
                miss = vals[left] != vals[right]
                bad = miss if bad is None else bad & miss
            for left, right in plan.premises:
                bad = bad & (vals[left] == vals[right])
            if getattr(bad, "shape", None) != full:
                bad = np.broadcast_to(bad, full)
            hits = bad.reshape(m, -1)
            failed = hits.any(axis=1).nonzero()[0].tolist()
            if not failed:
                continue
            cells = list(zip(*[axis.tolist() for axis in np.unravel_index(
                hits.argmax(axis=1), shape)])) if shape else [()] * m
            for i in failed:
                if first[picked[i]] is None:
                    cell = values + cells[i]
                    if fibres:
                        cell = tuple(reps[i][p] if f else p
                                     for p, f in zip(cell, fibred))
                    first[picked[i]] = cell
                    unsettled -= 1
            if not unsettled:
                break
    return [(w is None, w) for w in first]


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
    "OL": "x ^ x' = 0",
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
    # the four conditions for a PBZ*-lattice to be the horizontal sum of
    # its blocks: joins not 1 commute (gamma(x, y) = 0), a dense element
    # joins a sharp one to 1, dense elements form a chain, and every
    # element is dense or sharp (0 and 1 are both on a BZ-lattice)
    "HS_COMMUTE": "x v y = 1 | (x v y) ^ (x v y~) ^ (x~ v y) ^ (x~ v y~) = 0",
    "HS_DENSE_SHARP": "x~ = 0 & <>y = y => x v y = 1 | y = 0",
    "HS_DENSE_CHAIN": "x~ = 0 & y~ = 0 => x <= y | y <= x",
    "HS_DENSE_OR_SHARP": "x~ = 0 | <>x = x",
}

THEORY = {name: parse_statement(src) for name, src in _THEORY_SOURCE.items()}
