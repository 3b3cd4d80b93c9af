"""Named reference algebras with hand-written tables.

Each entry carries its own cover list and unary maps, so the catalog does
not depend on the builders in `constructions`; tests go the other way and
check the builders against these tables.
"""

from .core import FiniteAlgebra, _Record

__all__ = ["CatalogEntry", "names", "entry", "get"]


class CatalogEntry(_Record):
    """A display name, its freshly built FiniteAlgebra and a note."""

    __slots__ = __match_args__ = ("name", "algebra", "note")


def _norm(name):
    return (name.replace("⊞", "+").replace("⊕", "+")
            .replace(" ", "").casefold())


_REGISTRY = {}
_NAMES = []


def _add(name, note, n, covers, kleene, brouwer, labels, aliases=()):
    rec = (name, note, n, tuple(covers), tuple(kleene), tuple(brouwer),
           tuple(labels))
    _NAMES.append(name)
    for key in (name, *aliases):
        _REGISTRY[_norm(key)] = rec


def _chain(n):
    covers = [(i, i + 1) for i in range(n - 1)]
    kleene = [n - 1 - i for i in range(n)]
    brouwer = [n - 1] + [0] * (n - 1)
    labels = ["0", *"abcdef"[:n - 2], "1"]
    return n, covers, kleene, brouwer, labels


def _boolean(k):
    # elements are subsets of k letters, encoded as bitmasks
    n = 1 << k
    letters = "abcd"[:k]
    covers = [(s, s | 1 << i) for s in range(n) for i in range(k)
              if not s >> i & 1]
    kleene = [n - 1 - s for s in range(n)]
    labels = ["0"] + ["".join(c for i, c in enumerate(letters) if s >> i & 1)
                      for s in range(1, n - 1)] + ["1"]
    return n, covers, kleene, list(kleene), labels


for _n in range(2, 9):
    _add(f"D{_n}",
         f"{_n}-element Kleene chain: ' flips the order, x~ = 0 off the "
         "bottom",
         *_chain(_n))

for _k, _w in ((2, "four"), (3, "eight"), (4, "sixteen")):
    _add(f"B{1 << _k}",
         f"{_w}-element Boolean algebra with ~ = '",
         *_boolean(_k))

_add("MO2",
     "modular ortholattice with four atoms in complementary pairs; "
     "orthomodular but not distributive",
     6,
     [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 5), (4, 5)],
     [5, 3, 4, 1, 2, 0],
     [5, 3, 4, 1, 2, 0],
     ["0", "a", "b", "A", "B", "1"])

_add("O6-benzene",
     "benzene ring: two 2-step sides glued at the bounds; an ortholattice "
     "that is neither orthomodular nor paraorthomodular",
     6,
     [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)],
     [5, 4, 3, 2, 1, 0],
     [5, 4, 3, 2, 1, 0],
     ["0", "a", "b", "c", "d", "1"],
     aliases=("O6", "benzene"))

_add("MO2+D3",
     "horizontal sum of MO2 and the 3-chain: four sharp atoms plus one "
     "unsharp midpoint",
     7,
     [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
      (1, 6), (2, 6), (3, 6), (4, 6), (5, 6)],
     [6, 2, 1, 4, 3, 5, 0],
     [6, 2, 1, 4, 3, 0, 0],
     ["0", "a", "b", "c", "d", "e", "1"],
     aliases=("MO2⊞D3",))

_add("B4+D3",
     "horizontal sum of the 4-element Boolean algebra and the 3-chain",
     5,
     [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
     [4, 2, 1, 3, 0],
     [4, 2, 1, 0, 0],
     ["0", "a", "b", "c", "1"],
     aliases=("B4⊞D3",))

_add("B4+D4",
     "horizontal sum of the 4-element Boolean algebra and the 4-chain",
     6,
     [(0, 1), (0, 2), (0, 3), (3, 4), (1, 5), (2, 5), (4, 5)],
     [5, 2, 1, 4, 3, 0],
     [5, 2, 1, 0, 0, 0],
     ["0", "a", "b", "c", "d", "1"],
     aliases=("B4⊞D4",))

_add("B4+D5",
     "horizontal sum of the 4-element Boolean algebra and the 5-chain",
     7,
     [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (1, 6), (2, 6), (5, 6)],
     [6, 2, 1, 5, 4, 3, 0],
     [6, 2, 1, 0, 0, 0, 0],
     ["0", "a", "b", "c", "d", "e", "1"],
     aliases=("B4⊞D5",))

_add("T1(2x2)",
     "twist double of the 2x2 Boolean lattice, dual copy glued below and "
     "the two zeros merged into the ' fixpoint",
     7,
     [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)],
     [6, 4, 5, 3, 1, 2, 0],
     [6, 0, 0, 0, 0, 0, 0],
     ["f1", "fa", "fb", "o", "a", "b", "1"])

_add("T2(2x2)",
     "twist double of the 2x2 Boolean lattice with both zeros kept, so ' "
     "has no fixpoint",
     8,
     [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 7),
      (6, 7)],
     [7, 5, 6, 4, 3, 1, 2, 0],
     [7, 0, 0, 0, 0, 0, 0, 0],
     ["f1", "fa", "fb", "fo", "o", "a", "b", "1"])

_add("T1(N5+1)",
     "twist double of the pentagon with a fresh top stacked on first; the "
     "result keeps strong De Morgan but is not distributive",
     11,
     [(0, 1), (1, 2), (1, 3), (2, 4), (3, 5), (4, 5), (5, 6), (5, 7),
      (6, 8), (7, 9), (8, 9), (9, 10)],
     [10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
     [10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
     ["ft", "f1", "fc", "fb", "fa", "o", "a", "b", "c", "1", "t"],
     aliases=("T1(N5⊕1)",))


def names():
    """Display names, in catalog order."""
    return tuple(_NAMES)


def entry(name):
    """Full record for a name (or alias); the algebra is freshly built."""
    try:
        disp, note, n, covers, kleene, brouwer, labels = _REGISTRY[_norm(name)]
    except KeyError:
        raise KeyError(f"unknown catalog name: {name!r}") from None
    alg = FiniteAlgebra.from_covers(n, covers, kleene, brouwer,
                                    labels=labels, name=disp)
    return CatalogEntry(disp, alg, note)


def get(name):
    """Fresh, validated instance of a named algebra."""
    return entry(name).algebra
