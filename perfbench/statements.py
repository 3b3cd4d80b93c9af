"""Statements the search battery runs, and the texts the checkers
evaluate them by.

``THEORY_TEXT`` is the benchmark's own copy of the program's built-in
theory: the battery passes the names to ``pbzlat search`` and judges
the answers against these texts, so a changed definition in the
program shows up as a failed check rather than a silently different
workload.
"""

import random

import tables

THEORY_TEXT = {
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
}

RANDOM_FAILING = 10
RANDOM_LAWS = 2

# The two-element Boolean algebra 0 < 1 with ' = ~ swapping the bounds:
# the only BZ-lattice of size 2, so a member of every searched class.
_B2 = tables.Alg(("0", "1"), ((True, True), (False, True)), (1, 0), (1, 0))

# Absorption laws: they hold in every lattice, whatever is put for s
# and t, and both evaluate the same number of term nodes.
_LAWS = ("{s} ^ ({s} v {t}) = {s}", "{s} v ({s} ^ {t}) = {s}")

_VARS = ("x", "y", "z")


def _term(rng, binary=2, unary=1):
    """Random term over x, y, z with exactly ``binary`` meets or joins
    and ``unary`` applications of ' or ~, so every term of a battery
    costs the same to evaluate whatever its shape."""
    if binary + unary == 0:
        return rng.choice(_VARS)
    if rng.randrange(binary + unary) < unary:
        return "(" + _term(rng, binary, unary - 1) + ")" + rng.choice("'~")
    lb = rng.randint(0, binary - 1)
    lu = rng.randint(0, unary)
    return ("(" + _term(rng, lb, lu) + f" {rng.choice('^v')} "
            + _term(rng, binary - 1 - lb, unary - lu) + ")")


def _uses_all_vars(text):
    return all(v in text for v in _VARS)


def random_identities(seed):
    """Seeded identities in x, y, z, every variable occurring.

    ``RANDOM_FAILING`` of them are random s = t or s <= t that fail on
    the two-element Boolean algebra, so each search ends at n=2;
    ``RANDOM_LAWS`` are absorption laws with random terms put in, so
    each search scans every algebra up to the cap.  The split is fixed so that every seed asks
    for the same amount of work: a random identity that happened to
    hold would cost a full scan, and how many do would vary by seed.
    """
    rng = random.Random(seed)
    out = []
    b2 = tables.Evaluator(_B2)
    while len(out) < RANDOM_FAILING:
        text = f"{_term(rng)} {rng.choice(('=', '<='))} {_term(rng)}"
        if (_uses_all_vars(text) and text not in out
                and not b2.holds(tables.parse_statement(text))):
            out.append(text)
    while len(out) < RANDOM_FAILING + RANDOM_LAWS:
        law = rng.choice(_LAWS)
        text = law.format(s=_term(rng), t=_term(rng))
        if _uses_all_vars(text) and text not in out:
            out.append(text)
    return out
