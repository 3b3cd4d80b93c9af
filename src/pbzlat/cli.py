"""Command-line front end.

Subcommands: check, eval, construct, enumerate, search, export-dot.
Algebras are given as a file path, '-' for stdin, or a catalog name.
Exit codes: 0 when the command succeeds and every requested property
holds, 1 when a property fails or a search exhausts its cap, 2 for
usage, parse and validation errors and for files that cannot be read
or written.
"""

import argparse
import functools
import json
import os
import re
import sys

from . import axioms, catalog, constructions, enumeration, fileformat, terms
from .core import (BoundedLattice, ValidationError, boolean_lattice,
                   chain_lattice)

__all__ = ["main"]


class CliError(ValueError):
    """Anything that should become exit status 2 with a short message."""


def _load_algebra(token):
    if token == "-":
        return fileformat.loads(sys.stdin.read())
    if os.path.exists(token):
        return fileformat.load(token)
    try:
        return catalog.get(token)
    except KeyError:
        raise CliError(
            f"{token!r} is neither a file nor a catalog name; catalog has: "
            + " ".join(catalog.names())) from None


def _statement(text):
    """THEORY name or literal identity or clause text."""
    if text in terms.THEORY:
        return terms.THEORY[text]
    return terms.parse_statement(text)


def _labelled(A, values):
    if isinstance(values, dict):
        return {k: A.labels[v] for k, v in sorted(values.items())}
    if isinstance(values, (tuple, list)):
        return tuple(A.labels[v] if isinstance(v, int) else _labelled(A, v)
                     for v in values)
    return str(values)


def _fmt_assignment(A, assignment):
    return " ".join(f"{k}={v}" for k, v in _labelled(A, assignment).items())


def _fmt_set(A, elems):
    return "{" + ",".join(A.labels[i] for i in sorted(elems)) + "}"


def _emit(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# check / eval


def cmd_check(args):
    A = _load_algebra(args.algebra)
    report = axioms.classify(A)
    flags = report.flags()
    checks = []
    for c in args.classes:
        checks.append(("class", c, flags[c], dict(report.witnesses).get(c)))
    for text in args.identities:
        stmt = _statement(text)
        ok, witness = terms.holds(A, stmt)
        checks.append(("identity", text, ok, witness))
    ok_all = all(ok for _, _, ok, _ in checks)

    cone = constructions.cones(A)
    sharp = axioms.sharp_sets(A) if flags["bz"] else None
    blocks = constructions.blocks(A) if flags["pbz-star"] else None

    if args.format == "structured":
        doc = {
            "algebra": A.name, "n": A.n,
            "flags": flags,
            "cones": {"negative": sorted(_labelled(A, sorted(cone.negative))),
                      "positive": sorted(_labelled(A, sorted(cone.positive)))},
            "sharp": None if sharp is None else {
                "kleene": sorted(_labelled(A, sorted(sharp.s_k))),
                "diamond": sorted(_labelled(A, sorted(sharp.s_diamond))),
                "brouwer": sorted(_labelled(A, sorted(sharp.s_b)))},
            "blocks": None if blocks is None else
                [sorted(_labelled(A, sorted(b))) for b in blocks],
            "checks": [{"kind": kind, "name": name, "ok": ok,
                        "witness": None if w is None else _labelled(A, w)}
                       for kind, name, ok, w in checks],
            "ok": ok_all,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"algebra {A.name or '?'}  n={A.n}")
        print("flags:", " ".join(("+" if v else "-") + k
                                 for k, v in flags.items()))
        if sharp is not None:
            print(f"sharp: S_K={_fmt_set(A, sharp.s_k)} "
                  f"S_<>={_fmt_set(A, sharp.s_diamond)} "
                  f"S_B={_fmt_set(A, sharp.s_b)}")
        print(f"cones: negative={_fmt_set(A, cone.negative)} "
              f"positive={_fmt_set(A, cone.positive)}")
        if blocks is not None:
            print("blocks:", " ".join(_fmt_set(A, b) for b in blocks))
        for kind, name, ok, witness in checks:
            line = f"{kind} {name}: {'ok' if ok else 'FAIL'}"
            if not ok and witness is not None:
                if isinstance(witness, dict):
                    line += f" at {_fmt_assignment(A, witness)}"
                else:
                    line += f", witness {_labelled(A, witness)}"
            print(line)
    return 0 if ok_all else 1


def cmd_eval(args):
    A = _load_algebra(args.algebra)
    stmt = _statement(args.identity)
    ok, witness = terms.holds(A, stmt)
    if args.format == "structured":
        print(json.dumps({
            "algebra": A.name, "identity": terms.pretty(stmt), "ok": ok,
            "witness": None if witness is None else _labelled(A, witness),
        }, indent=2, sort_keys=True))
    elif ok:
        print(f"holds on {A.name or '?'}: {terms.pretty(stmt)}")
    else:
        print(f"fails on {A.name or '?'}: {terms.pretty(stmt)} "
              f"at {_fmt_assignment(A, witness)}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# construct


_ARITY = {"twist1": (1, 1), "twist2": (1, 1), "osum": (2, 2),
          "prod": (2, 2), "hsum": (2, None)}
_ATOM_RE = re.compile(r"(chain|bool)([0-9]+)")
_HEAD_RE = re.compile(r"[a-z0-9]+")


def _apply(head, parts):
    lo, hi = _ARITY[head]
    if len(parts) < lo or (hi is not None and len(parts) > hi):
        raise CliError(f"{head} takes {lo if lo == hi else f'{lo}+'} "
                       f"argument(s), got {len(parts)}")
    if head in ("twist1", "twist2"):
        fn = constructions.twist1 if head == "twist1" else constructions.twist2
        return fn(parts[0])
    if head == "osum":
        return constructions.ordinal_sum(*parts)
    bare = [p for p in parts if isinstance(p, BoundedLattice)]
    if bare:
        raise CliError(f"{head} needs decorated algebras; wrap bare "
                       "lattices in twist1/twist2 first")
    if head == "prod":
        return constructions.product(*parts)
    return constructions.horizontal_sum(parts)


def parse_recipe(text):
    """Evaluate the construction mini-language.

    Atoms are catalog names (matched greedily, case-insensitive),
    chainN and boolN; the latter two come out as bare lattices.
    """
    src = catalog._norm(text)
    if not src:
        raise CliError("empty recipe")
    names = sorted(catalog._REGISTRY, key=len, reverse=True)
    pos = 0

    def fail(msg):
        raise CliError(f"recipe error at {pos} in {src!r}: {msg}")

    def expr():
        nonlocal pos
        for key in names:
            if src.startswith(key, pos):
                pos += len(key)
                return catalog.get(key)
        m = _ATOM_RE.match(src, pos)
        if m:
            pos = m.end()
            size = int(m.group(2))
            try:
                return (chain_lattice(size) if m.group(1) == "chain"
                        else boolean_lattice(size))
            except ValueError as e:
                fail(str(e))
        m = _HEAD_RE.match(src, pos)
        if not m or m.group(0) not in _ARITY:
            fail("expected a catalog name, chainN, boolN or a construction")
        head = m.group(0)
        pos = m.end()
        if pos >= len(src) or src[pos] != "(":
            fail(f"{head} needs parenthesized arguments")
        pos += 1
        parts = [expr()]
        while pos < len(src) and src[pos] == ",":
            pos += 1
            parts.append(expr())
        if pos >= len(src) or src[pos] != ")":
            fail("expected ',' or ')'")
        pos += 1
        try:
            return _apply(head, parts)
        except CliError:
            raise
        except ValueError as e:
            raise CliError(f"{head}: {e}") from None

    node = expr()
    if pos != len(src):
        fail("trailing text after the recipe")
    return node


def cmd_construct(args):
    A = parse_recipe(args.recipe)
    if isinstance(A, BoundedLattice):
        raise CliError(
            "the recipe yields a bare lattice with no ' or ~ maps; wrap it "
            "in twist1(...) or twist2(...) to get an algebra")
    if args.name:
        A = A.relabel(A.labels, name=args.name)
    try:
        text = fileformat.dumps(A)
    except ValueError as e:  # a label the file format cannot hold
        raise CliError(str(e)) from None
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# enumerate / search


def _spec_from(args):
    try:
        return enumeration.EnumerationSpec(
            max_size=args.max, classes=tuple(args.classes),
            structure=args.structure, identities=tuple(args.require))
    except ValueError as e:
        raise CliError(str(e)) from None


def cmd_enumerate(args):
    spec = _spec_from(args)
    counts = {}
    written = []
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for n in range(1, spec.max_size + 1):
        level = list(enumeration.enumerate_pbz(n, spec))
        counts[n] = len(level)
        if args.out:
            for i, A in enumerate(level):
                stem = f"n{n}-{i:03d}"
                path = os.path.join(args.out, stem + ".alg")
                fileformat.dump(A.relabel(A.labels, name=stem), path)
                written.append(path)
    if args.format == "structured":
        print(json.dumps({"spec": _spec_doc(spec), "counts": counts,
                          "files": written}, indent=2, sort_keys=True))
    else:
        for n, c in counts.items():
            print(f"n={n}: {c}")
        print(f"total {sum(counts.values())}"
              + (f", wrote {len(written)} files to {args.out}"
                 if args.out else ""))
    return 0


def _spec_doc(spec):
    return {"max_size": spec.max_size, "classes": list(spec.classes),
            "structure": spec.structure, "identities": list(spec.identities)}


def cmd_search(args):
    spec = _spec_from(args)
    stmt = _statement(args.identity)
    res = enumeration.search_counterexample(stmt, spec)
    found = (res.found.relabel(res.found.labels, name=f"cex-n{res.found.n}")
             if res else None)
    if args.format == "structured":
        doc = {"identity": res.identity, "spec": _spec_doc(spec),
               "examined": res.examined, "exhausted": res.exhausted,
               "found": None}
        if res:
            doc["found"] = {"n": found.n,
                            "witness": _labelled(found, res.assignment),
                            "file": fileformat.dumps(found)}
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif res:
        print(f"counterexample at n={found.n} "
              f"(examined {res.examined}): "
              f"fails at {_fmt_assignment(found, res.assignment)}")
        text = fileformat.dumps(found)
        if args.out:
            _emit(text, args.out)
            print(f"written to {args.out}")
        else:
            print()
            sys.stdout.write(text)
    else:
        print(f"exhausted: no counterexample up to n={spec.max_size} "
              f"(examined {res.examined})")
    return 0 if res else 1


def cmd_export_dot(args):
    A = _load_algebra(args.algebra)
    _emit(fileformat.export_dot(A), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_format(p):
    p.add_argument("--format", choices=("text", "structured"),
                   default="text", help="report style (default text)")


def _jobs(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def _add_spec_flags(p):
    p.add_argument("--max", type=int, required=True,
                   help="largest size to generate")
    p.add_argument("--class", dest="classes", action="append", default=[],
                   metavar="FLAG", help="required class flag, repeatable: "
                   + " ".join(sorted(axioms.CLASS_FLAGS)))
    p.add_argument("--structure",
                   choices=("chain", "distributive", "antiortholattice"),
                   default=None, help="structural restriction")
    p.add_argument("--require", action="append", default=[], metavar="NAME",
                   help="theory identity or clause the corpus must satisfy "
                   "(a clause passes to subalgebras, not always to "
                   "images or products), repeatable: "
                   + " ".join(sorted(terms.THEORY)))
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="accepted and ignored: everything runs in one "
                   "process")


@functools.cache
def build_parser():
    """The argument parser, built on the first call and reused after.

    Parsing never changes the parser: repeatable options copy their
    ``[]`` default before appending, and no command changes the lists
    it is handed.  ``build_parser.cache_clear()`` makes the next call
    build a new one, as a fresh process would.
    """
    top = argparse.ArgumentParser(
        prog="pbzlat",
        description="Finite-model workbench for bounded involution "
                    "lattices with a Brouwer complement.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate and classify an algebra")
    p.add_argument("algebra", help="file path, '-' for stdin, catalog name")
    p.add_argument("--class", dest="classes", action="append", default=[],
                   choices=sorted(axioms.CLASS_FLAGS), metavar="FLAG",
                   help="class flag that must hold: "
                   + " ".join(sorted(axioms.CLASS_FLAGS)))
    p.add_argument("--identity", dest="identities", action="append",
                   default=[], metavar="IDENT",
                   help="theory name or identity text that must hold")
    _add_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", help="evaluate one identity on an algebra")
    p.add_argument("algebra")
    p.add_argument("identity", help="theory name or identity text")
    _add_format(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("construct", help="build an algebra from a recipe")
    p.add_argument("recipe", help="e.g. \"twist1(chain3)\", "
                   "\"hsum(B4,D3)\", \"prod(D3,D3)\"")
    p.add_argument("-o", "--out", default=None, help="output file "
                   "(default stdout)")
    p.add_argument("--name", default=None, help="name to store in the file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("enumerate",
                       help="generate all algebras up to isomorphism")
    _add_spec_flags(p)
    p.add_argument("-o", "--out", default=None, metavar="DIR",
                   help="write one algebra file per model into DIR")
    _add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("search",
                       help="smallest counterexample to an identity")
    p.add_argument("identity", help="theory name or identity text")
    _add_spec_flags(p)
    p.add_argument("-o", "--out", default=None,
                   help="write the counterexample here instead of stdout")
    _add_format(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("export-dot", help="Hasse diagram as DOT text")
    p.add_argument("algebra")
    p.add_argument("-o", "--out", default=None, help="output file "
                   "(default stdout)")
    p.set_defaults(func=cmd_export_dot)
    return top


def main(argv=None):
    """Run one command; returns its exit status.

    The parser is built once per process (see ``build_parser``), so
    repeated calls pay only for parsing and the command itself.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, fileformat.ParseError, terms.ParseError,
            ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
