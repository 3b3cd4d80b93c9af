"""Re-derive, by brute force, the facts the benchmark's checks rely on.

    python3 perfbench/confirm.py

Not part of the timed runs.  Run from the root of a source checkout:
the brute-force oracles come from ``tests/_oracles.py`` of that
checkout.  It confirms

* A006966 for n <= 6, by ``brute_lattice_count`` (every order
  relation pattern, permutation isomorphism; n = 7 would take minutes);
* the corpus sizes of ``checks.CORPUS_SIZES``, by a nested-loop
  decoration search over the program's lattices (whose count per size
  is A006966, and which the tables show pairwise non-isomorphic up to
  n = 8): every order-reversing involution and every antitone map
  disjoint from its argument, kept when the tables' axiom checks pass,
  counted once per orbit of the lattice's automorphisms.  The BZ
  corpora are derived up to n = 8; the antiortholattices up to n = 10,
  where the search at n = 9 and 10 takes ~ as the trivial map, as it
  is in every antiortholattice (the full search agrees up to n = 8);
* the subdirect-irreducibility test of the claim checker, against
  ``brute_congruences`` (every set partition) on every corpus algebra
  that meets the other hypotheses of the covering-cones claims;
* the verdict of each covering-cones claim, made anew from the tables
  and the brute-force congruences rather than copied from an earlier
  run, and compared with what ``verify_over_corpus`` reports.

It prints each failing algebra's covers and involution, and exits 1
when any fact does not hold.
"""

import copy
import os
import sys
import time

import checks
import tables

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BRUTE_LATTICE_MAX = 6
DECORATED_MAX = 8     # BZ corpora, with every Brouwer map


def brute_si(oracles, A):
    """Subdirect irreducibility from every congruence partition: the
    nontrivial congruences must have a least member."""
    class View:  # the attribute interface the oracle reads
        n = A.n
        kleene = A.kleene
        brouwer = A.brouwer

        @staticmethod
        def meet(a, b):
            return A.meet[a][b]

        @staticmethod
        def join(a, b):
            return A.join[a][b]

    cons = [p for p in oracles.brute_congruences(View) if len(p) < A.n]
    if not cons:
        return False, 1
    pairs = [{(a, b) for block in p for a in block for b in block if a < b}
             for p in cons]
    return bool(set.intersection(*pairs)), len(cons) + 1


def involutions(leq):
    """Order-reversing involutions of an order table, by backtracking:
    a' = b is placed only when it agrees with every pair placed so far."""
    n = len(leq)
    k = [None] * n
    out = []

    def fits(a, b):
        for c in range(n):
            d = k[c]
            if d is not None and not (
                    leq[a][c] == leq[d][b] and leq[c][a] == leq[b][d]
                    and leq[b][c] == leq[d][a] and leq[c][b] == leq[a][d]):
                return False
        return True

    def place():
        a = next((x for x in range(n) if k[x] is None), None)
        if a is None:
            out.append(tuple(k))
            return
        for b in range(a, n):
            if k[b] is None and fits(a, b):
                k[a], k[b] = b, a
                place()
                k[a] = k[b] = None

    place()
    return out


def antitone_disjoint_maps(A):
    """Maps t with a ^ t(a) = 0 and a <= b => t(b) <= t(a): the Brouwer
    axioms that do not involve '."""
    n, le, m = A.n, A.leq, A.meet
    t = [None] * n
    out = []

    def place(a):
        if a == n:
            out.append(tuple(t))
            return
        for b in range(n):
            if m[a][b] == A.zero and all(
                    not (le[a][c] and not le[t[c]][b])
                    and not (le[c][a] and not le[b][t[c]])
                    for c in range(a)):
                t[a] = b
                place(a + 1)
        t[a] = None

    place(0)
    return out


def automorphisms(leq):
    """Order automorphisms, by backtracking."""
    n = len(leq)
    img = [None] * n
    used = [False] * n
    out = []

    def place(a):
        if a == n:
            out.append(tuple(img))
            return
        for b in range(n):
            if not used[b] and all(leq[a][x] == leq[b][img[x]]
                                   and leq[x][a] == leq[img[x]][b]
                                   for x in range(a)):
                img[a], used[b] = b, True
                place(a + 1)
                used[b] = False
        img[a] = None

    place(0)
    return out


def orbit_key(auts, kleene, brouwer):
    """Least image of the pair of maps under the automorphisms."""
    def moved(s, f):
        g = [None] * len(f)
        for a, b in enumerate(f):
            g[s[a]] = s[b]
        return tuple(g)
    return min((moved(s, kleene), moved(s, brouwer)) for s in auts)


def decorated_counts(enumeration, max_n, aol_max):
    """Algebras per size and corpus, up to isomorphism, from a nested-loop
    decoration search over the program's lattices; (counts, problems)."""
    counts = {cls: [] for cls in checks.CORPUS_SIZES}
    problems = []
    for n in range(1, aol_max + 1):
        full = n <= max_n
        bases = []
        for leq in enumeration.enumerate_lattices(n, cap=aol_max):
            leq = [[bool(x) for x in row] for row in leq.leq]
            invs = involutions(leq)
            if full or invs:
                bases.append((tables.Alg([str(a) for a in range(n)], leq,
                                         range(n), range(n)), invs))
        total = len(bases) if full else None
        if full and total != checks.A006966[n - 1]:
            problems.append(f"n={n}: {total} lattices, A006966 has "
                            f"{checks.A006966[n - 1]}")
        for i, (A, _) in enumerate(bases):
            if not tables.is_lattice(A):
                problems.append(f"n={n}: lattice {i} is not a lattice")
            if full and any(tables.isomorphic(A, B) for B, _ in bases[i + 1:]):
                problems.append(f"n={n}: lattice {i} is repeated")
        found = {cls: set() for cls in counts}
        trivial_aol = set()
        for i, (A, invs) in enumerate(bases):
            if not invs:
                continue
            auts = automorphisms(A.leq)
            trivial = tuple(A.one if a == A.zero else A.zero
                            for a in range(n))
            maps = antitone_disjoint_maps(A) if full else [trivial]
            for k in invs:
                for t in maps:
                    B = copy.copy(A)
                    B.kleene, B.brouwer = k, t
                    if not tables.is_bz(B):
                        continue
                    key = (i, orbit_key(auts, k, t))
                    found[None].add(key)
                    if not tables.is_bz_star(B):
                        continue
                    found["bz-star"].add(key)
                    if not tables.is_diamond_orthomodular(B):
                        continue
                    found["pbz-star"].add(key)
                    if tables.kleene_sharp(B) == {B.zero, B.one}:
                        found["aol"].add(key)
                        if t == trivial:
                            trivial_aol.add(key)
        if full and trivial_aol != found["aol"]:
            problems.append(f"n={n}: an antiortholattice whose ~ is not "
                            "trivial")
        for cls in counts:
            if full or cls == "aol":
                counts[cls].append(len(found[cls]))
    return counts, problems


def describe(A):
    lab = A.labels
    covers = " ".join(
        f"{lab[a]}<{lab[b]}" for a in range(A.n) for b in range(A.n)
        if a != b and A.leq[a][b] and not any(
            c not in (a, b) and A.leq[a][c] and A.leq[c][b]
            for c in range(A.n)))
    swaps = " ".join(f"{lab[a]}<->{lab[A.kleene[a]]}" for a in range(A.n)
                     if a < A.kleene[a])
    return f"n={A.n} covers {covers}; ' swaps {swaps}"


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import _oracles as oracles
    from pbzlat import enumeration, fileformat

    ok = True
    for n in range(1, BRUTE_LATTICE_MAX + 1):
        t = time.perf_counter()
        count = oracles.brute_lattice_count(n)
        good = count == checks.A006966[n - 1]
        ok &= good
        print(f"lattices n={n}: brute force {count}, A006966 "
              f"{checks.A006966[n - 1]} {'ok' if good else 'MISMATCH'} "
              f"({time.perf_counter() - t:.1f} s)")

    t = time.perf_counter()
    counts, problems = decorated_counts(enumeration, DECORATED_MAX,
                                        len(checks.CORPUS_SIZES["aol"]))
    for problem in problems:
        print(f"decoration search: {problem}")
    ok &= not problems
    for cls, sizes in checks.CORPUS_SIZES.items():
        good = tuple(counts[cls]) == sizes
        ok &= good
        print(f"corpus {cls or 'bz'}: decoration search "
              f"{' '.join(map(str, counts[cls]))}, fixed "
              f"{' '.join(map(str, sizes))} {'ok' if good else 'MISMATCH'}")
    print(f"decoration search took {time.perf_counter() - t:.1f} s")

    specs = {"aol": enumeration.EnumerationSpec(
                 max_size=10, structure="antiortholattice"),
             "bz": enumeration.EnumerationSpec(max_size=8)}
    for key, spec in specs.items():
        corpus = [tables.parse_algebra(fileformat.dumps(A))
                  for A in enumeration.enumerate_all(spec)]
        for claim, distributive in checks.CONE_CLAIMS.items():
            expected = set()
            for i, A in enumerate(corpus):
                if not checks.cones_premises(A, distributive):
                    continue
                si, ncon = brute_si(oracles, A)
                if si != tables.is_subdirectly_irreducible(A):
                    ok = False
                    print(f"{key} {claim}: s.i. test disagrees with brute "
                          f"force on {describe(A)}")
                if si and tables.incomparable_to_involute(A) is not None:
                    expected.add(i)
                    print(f"{key} {claim}: refuted by {describe(A)} "
                          f"({ncon} congruences)")
            index = {B.text: i for i, B in enumerate(corpus)}
            rep = enumeration.verify_over_corpus(claim, spec)
            reported = {index.get(fileformat.dumps(A))
                        for A, _ in rep.failures}
            good = reported == expected
            ok &= good
            print(f"{key} {claim}: {len(expected)} failures made anew, "
                  f"{len(reported)} reported "
                  f"{'ok' if good else 'MISMATCH'}")
    print("confirmed" if ok else "NOT CONFIRMED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
