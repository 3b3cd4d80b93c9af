#!/usr/bin/env python3
"""Term language walkthrough: parsing, evaluation, counterexamples.

    python3 demos/02_identities.py
"""

from pbzlat import catalog, terms


def show(A, text):
    stmt = terms.parse_statement(text)
    ok, w = terms.holds(A, stmt)
    verdict = "holds" if ok else "fails"
    where = "" if ok else "  at " + " ".join(
        f"{k}={A.labels[v]}" for k, v in sorted(w.items()))
    print(f"  {verdict:<6} {terms.pretty(stmt)}{where}")


def main():
    print("built-in theory:", " ".join(sorted(terms.THEORY)))
    print()

    print("identities use ^ v ' ~ 0 1, with []x = (x')~ and <>x = (x~)~.")
    print("On the Kleene chain D4:")
    D4 = catalog.get("D4")
    for text in ("x ^ x' <= y v y'",
                 "(x ^ y)~ = x~ v y~",
                 "x ^ <>y <= []x v y"):
        show(D4, text)
    print()

    print("the last line is the separating identity SK.  The smallest")
    print("failing assignment pairs both variables; fixing y = x' gives")
    print("the one-variable reading, which already fails at x = a:")
    a, b = 1, 2
    lhs = terms.evaluate(D4, terms.parse_term("x' ^ <>x"), {"x": a})
    rhs = terms.evaluate(D4, terms.parse_term("[]x' v x"), {"x": a})
    print(f"  x' ^ <>x  at x=a  ->  {D4.labels[lhs]}")
    print(f"  []x' v x  at x=a  ->  {D4.labels[rhs]}")
    print(f"  {D4.labels[lhs]} <= {D4.labels[rhs]} is {D4.le(lhs, rhs)}")
    print()

    print("quasi-identities carry premises.  Paraorthomodularity on the")
    print("benzene ring fails, on D5 it holds:")
    pom = "x <= y & y ^ x' = 0 => x = y"
    show(catalog.get("O6"), pom)
    show(catalog.get("D5"), pom)
    print()

    print("distributivity versus the strong De Morgan law on the two")
    print("seven-element twist algebras:")
    for name in ("T1(2x2)", "T1(N5+1)"):
        A = catalog.get(name)
        print(f" {name}:")
        show(A, "x ^ (y v z) = (x ^ y) v (x ^ z)")
        show(A, "(x ^ y)~ = x~ v y~")


if __name__ == "__main__":
    main()
