"""Plain-text persistence for finite algebras, plus DOT drawing.

The algebra file format is line oriented:

    algebra D4
    elements 0 a b 1
    covers 0 < a ; a < b ; b < 1
    kleene 0:1 a:b b:a 1:0
    brouwer 0:1 a:0 b:0 1:0
    bounds 0 1

'#' starts a comment, a keyword may repeat to continue a long section,
and the loader rebuilds the full order from the covers before handing
the tables to the usual validation.  The bounds line is a declared
cross-check against the computed bottom and top.
"""

from .core import FiniteAlgebra

__all__ = ["ParseError", "loads", "dumps", "load", "dump", "export_dot"]

_LINE_WIDTH = 72


class ParseError(ValueError):
    """Malformed algebra file; carries the offending line number."""

    def __init__(self, lineno, msg):
        prefix = f"line {lineno}: " if lineno else ""
        super().__init__(prefix + msg)
        self.lineno = lineno


def loads(text):
    """Parse an algebra file into a validated FiniteAlgebra."""
    name = None
    labels = None
    covers = []
    maps = {"kleene": [], "brouwer": []}
    bounds = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "algebra":
            if name is not None:
                raise ParseError(lineno, "duplicate 'algebra' line")
            if not rest:
                raise ParseError(lineno, "missing algebra name")
            name = rest
        elif key == "elements":
            if labels is not None:
                raise ParseError(lineno, "duplicate 'elements' line")
            labels = rest.split()
            if not labels:
                raise ParseError(lineno, "empty element list")
            if len(set(labels)) != len(labels):
                raise ParseError(lineno, "element labels repeat")
        elif key == "covers":
            for clause in rest.split(";"):
                clause = clause.strip()
                if not clause:
                    continue
                parts = clause.split()
                if len(parts) != 3 or parts[1] != "<":
                    raise ParseError(
                        lineno, f"bad cover clause {clause!r}, want 'a < b'")
                covers.append((lineno, parts[0], parts[2]))
        elif key in maps:
            for tok in rest.split():
                a, sep, b = tok.partition(":")
                if not (sep and a and b):
                    raise ParseError(
                        lineno, f"bad map entry {tok!r}, want 'a:b'")
                maps[key].append((lineno, a, b))
        elif key == "bounds":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError(lineno, "want 'bounds <zero> <one>'")
            if bounds is not None:
                raise ParseError(lineno, "duplicate 'bounds' line")
            bounds = (lineno, parts[0], parts[1])
        else:
            raise ParseError(lineno, f"unknown keyword {key!r}")

    if labels is None:
        raise ParseError(None, "no 'elements' line")
    if bounds is None:
        raise ParseError(None, "no 'bounds' line")
    index = {lab: i for i, lab in enumerate(labels)}

    def resolve(lineno, lab):
        try:
            return index[lab]
        except KeyError:
            raise ParseError(lineno, f"unknown element {lab!r}") from None

    pairs = [(resolve(ln, a), resolve(ln, b)) for ln, a, b in covers]
    arrays = {}
    for which, entries in maps.items():
        arr = [None] * len(labels)
        for ln, a, b in entries:
            i = resolve(ln, a)
            if arr[i] is not None:
                raise ParseError(ln, f"{which} maps {a!r} twice")
            arr[i] = resolve(ln, b)
        if None in arr:
            missing = labels[arr.index(None)]
            raise ParseError(None, f"{which} gives no image for {missing!r}")
        arrays[which] = arr

    A = FiniteAlgebra.from_covers(len(labels), pairs, arrays["kleene"],
                                  arrays["brouwer"], labels=labels, name=name)
    ln, z, o = bounds
    if (resolve(ln, z), resolve(ln, o)) != (A.zero, A.one):
        raise ParseError(ln, f"declared bounds {z} {o} but the order has "
                             f"{labels[A.zero]} {labels[A.one]}")
    return A


def _wrap(keyword, items, sep):
    lines = []
    cur = None
    for item in items:
        cand = item if cur is None else cur + sep + item
        if cur is not None and len(keyword) + 1 + len(cand) > _LINE_WIDTH:
            lines.append(f"{keyword} {cur}")
            cur = item
        else:
            cur = cand
    if cur is not None:
        lines.append(f"{keyword} {cur}")
    return lines


def dumps(A):
    """Render a FiniteAlgebra in the file format (parseable back exactly).
    Raises ValueError on an empty label, a label with whitespace or any of
    ``#;:<``, or a name with ``#``, a line break or outer whitespace."""
    lab = A.labels
    for s in lab:
        if not s or any(c.isspace() or c in "#;:<" for c in s):
            raise ValueError(f"label {s!r} cannot appear in an algebra file; "
                             "relabel first")
    name = A.name or "L"
    if "#" in name or name.splitlines() != [name] or name != name.strip():
        raise ValueError(f"name {name!r} cannot appear in an algebra file")
    lines = [f"algebra {name}"]
    lines.extend(_wrap("elements", list(lab), " "))
    lines.extend(_wrap("covers",
                       [f"{lab[a]} < {lab[b]}" for a, b in sorted(A.covers())],
                       " ; "))
    for which, arr in (("kleene", A.kleene), ("brouwer", A.brouwer)):
        lines.extend(_wrap(which,
                           [f"{lab[i]}:{lab[j]}" for i, j in enumerate(arr)],
                           " "))
    lines.append(f"bounds {lab[A.zero]} {lab[A.one]}")
    return "\n".join(lines) + "\n"


def load(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return loads(text)


def dump(A, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(A))


def _q(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(A, title=None):
    """Hasse diagram as DOT text: solid cover edges drawn upward, one
    dashed undirected edge per ' pair, and each node annotated with its
    ~ value.  Output is deterministic byte for byte."""
    lab = A.labels
    out = [f'digraph "{_q(title or A.name or "algebra")}" {{',
           "  rankdir=BT;",
           "  node [shape=box];"]
    for i in range(A.n):
        out.append(f'  e{i} [label="{_q(lab[i])}\\n~ {_q(lab[A.brouwer[i]])}"];')
    for a, b in sorted(A.covers()):
        out.append(f"  e{a} -> e{b};")
    for i in range(A.n):
        j = A.kleene[i]
        if i < j:
            out.append(f"  e{i} -> e{j} [style=dashed, dir=none, "
                       "constraint=false];")
    out.append("}")
    return "\n".join(out) + "\n"
