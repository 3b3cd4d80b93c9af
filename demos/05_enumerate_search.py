#!/usr/bin/env python3
"""Exhaustive corpora, counterexample search, registered claims.

    python3 demos/05_enumerate_search.py
"""

from pbzlat import fileformat, terms
from pbzlat.enumeration import (
    EnumerationSpec, claim_names, enumerate_pbz, search_counterexample,
    verify_over_corpus,
)


def main():
    print("algebras up to isomorphism, by size:")
    specs = [
        ("BZ", EnumerationSpec(max_size=7)),
        ("BZ*", EnumerationSpec(max_size=7, classes=("bz-star",))),
        ("PBZ*", EnumerationSpec(max_size=7, classes=("pbz-star",))),
        ("AOL", EnumerationSpec(max_size=7, structure="antiortholattice")),
    ]
    print(f"  {'n':>4} " + "".join(f"{tag:>6}" for tag, _ in specs))
    for n in range(1, 8):
        row = "".join(f"{len(list(enumerate_pbz(n, s))):>6}"
                      for _, s in specs)
        print(f"  {n:>4} {row}")
    print()

    print("searching for the smallest PBZ* algebra failing the")
    print("orthomodular-flavored identity J:")
    res = search_counterexample(
        terms.THEORY["J"], EnumerationSpec(max_size=8,
                                           classes=("pbz-star",)))
    A = res.found
    print(f"  examined {res.examined}, found n={A.n},"
          f" fails at " + " ".join(f"{k}={A.labels[v]}"
                                   for k, v in sorted(res.assignment.items())))
    print("  the counterexample, in the file format:")
    for line in fileformat.dumps(A).splitlines():
        print("    " + line)
    print()

    print("registered corpus claims:")
    for name in claim_names():
        print("  " + name)
    print()

    print("one claim is stored in its literal reading on purpose and")
    print("fails at size 7.  Its distributive version holds up to size 9")
    print("and fails on one 10-element antiortholattice (and, to size 13,")
    print("on one 13-element antiortholattice more); to size 7:")
    spec = EnumerationSpec(max_size=7, classes=("pbz-star",))
    for claim in ("si-aol-basis-cones", "si-aol-basis-cones-distributive"):
        rep = verify_over_corpus(claim, spec)
        print(f"  {claim}: ok={rep.ok} checked={rep.checked}"
              f" failures={len(rep.failures)}")


if __name__ == "__main__":
    main()
