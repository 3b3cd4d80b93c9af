"""The frozen records: every class built on ``core._Record``.

Each record class has sample instances below.  Their reprs are pinned
strings in the dataclass format ``Name(field=value, ...)``, but for a
congruence's ``<Congruence blocks>``, and each
sample is checked for construction by position, keyword and default,
equality and hashing by type and fields, refused assignment and
deletion, and a pickle round trip.
"""

import copy
import pickle

import pytest

from pbzlat import (axioms, catalog, congruences, constructions, core,
                    enumeration, terms)
from pbzlat.core import _Record
from pbzlat.enumeration import EnumerationSpec
from pbzlat.terms import (Brouwer, Identity, Join, Kleene, Meet, One,
                          QuasiIdentity, Var, Zero)


def _samples():
    """name -> record, for the pinned reprs."""
    D3, MO2 = catalog.get("D3"), catalog.get("MO2")
    return {
        "ValidationReport": core.validate_tables(
            [[1, 1], [1, 0]], [1, 0], [1, 0]),
        "SharpSets": axioms.sharp_sets(MO2),
        "AlgebraClassReport": axioms.classify(D3),
        "Cones": constructions.cones(D3),
        "TwistRepresentation": constructions.TwistRepresentation(
            False, witness=2),
        "HorizontalSumReport":
            constructions.is_horizontal_sum_of_blocks(MO2),
        "CatalogEntry": catalog.entry("D2"),
        "RelationReport": congruences.agreement_below(D3, 1),
        "Congruence": congruences.Congruence([5, 5, 2, 2, 9]),
        "TildeFamilyReport": congruences.tilde_family_report(D3),
        "CorpusReport": enumeration.verify_over_corpus(
            enumeration.claim_names()[0], EnumerationSpec(3)),
        "_Claim": enumeration._Claim("text", classes=("bz",)),
        "SearchResult": enumeration.search_counterexample(
            "x = x'", EnumerationSpec(3)),
        "EnumerationSpec": EnumerationSpec(4, ("bz",), "chain"),
        "QuasiIdentity": terms.parse_statement(
            "x <= y & 0 = 1 => x' = y~ | x ^ y = x v y"),
        "Identity": terms.parse_statement("[]x <= <>1"),
    }


_PINNED = {
    "ValidationReport":
        "ValidationReport(ok=False, violations=(('order:reflexive', (1,)), "
        "('order:antisymmetric', (0, 1)), ('order:transitive', (1, 0, 1))))",
    "SharpSets":
        "SharpSets(s_k=frozenset({0, 1, 2, 3, 4, 5}), "
        "s_diamond=frozenset({0, 1, 2, 3, 4, 5}), "
        "s_b=frozenset({0, 1, 2, 3, 4, 5}))",
    "AlgebraClassReport":
        "AlgebraClassReport(bounded_involution=True, pseudo_kleene=True, "
        "ortholattice=False, orthomodular=False, paraorthomodular=True, "
        "bz=True, bz_star=True, diamond_orthomodular=True, pbz_star=True, "
        "kleene_sharp_trivial=True, antiortholattice=True, "
        "witnesses=(('ortholattice', (1,)), ('orthomodular', (1, 2))))",
    "Cones":
        "Cones(negative=frozenset({0, 1}), positive=frozenset({1, 2}), "
        "strictly_negative=frozenset({0}), "
        "strictly_positive=frozenset({2}))",
    "TwistRepresentation":
        "TwistRepresentation(ok=False, index=0, core=None, rebuilt=None, "
        "iso=None, witness=2)",
    "HorizontalSumReport":
        "HorizontalSumReport(conditions=(('dense-comparable', (True, None)), "
        "('dense-or-sharp', (True, None)), "
        "('dense-vs-sharp-join', (True, None)), "
        "('non-commuting-join', (True, None))), by_conditions=True, "
        "by_blocks=True, blocks=(frozenset({0, 1, 3, 5}), "
        "frozenset({0, 2, 4, 5})))",
    "CatalogEntry":
        "CatalogEntry(name='D2', algebra=<FiniteAlgebra D2 n=2>, "
        "note=\"2-element Kleene chain: ' flips the order, x~ = 0 off the "
        "bottom\")",
    "RelationReport":
        "RelationReport(partition=<Congruence 0|1|2>, is_congruence=True, "
        "witness=None)",
    "Congruence": "<Congruence 0,1|2,3|4>",
    "TildeFamilyReport":
        "TildeFamilyReport(precondition_ok=True, failed_preconditions=(), "
        "tilde_is_congruence=True, meet_relations_ok=True, "
        "join_relations_ok=True, one_of_each_trivial=True, witness=None)",
    "CorpusReport":
        "CorpusReport(claim='aol-sk-collapse', spec=EnumerationSpec("
        "max_size=3, classes=(), structure=None, identities=()), "
        "examined=3, checked=3, failures=())",
    "_Claim":
        "_Claim(text='text', check=None, classes=('bz',), identities=(), "
        "si=False, conclusions=())",
    "SearchResult":
        "SearchResult(identity=\"x = x'\", spec=EnumerationSpec(max_size=3, "
        "classes=(), structure=None, identities=()), "
        "found=<FiniteAlgebra algebra n=2>, assignment={'x': 0}, "
        "examined=2, exhausted=False)",
    "EnumerationSpec":
        "EnumerationSpec(max_size=4, classes=('bz',), structure='chain', "
        "identities=())",
    "QuasiIdentity":
        "QuasiIdentity(premises=(Identity(lhs=Var(name='x'), "
        "rhs=Var(name='y'), kind='le'), Identity(lhs=Zero(), rhs=One(), "
        "kind='eq')), conclusion=(Identity(lhs=Kleene(arg=Var(name='x')), "
        "rhs=Brouwer(arg=Var(name='y')), kind='eq'), "
        "Identity(lhs=Meet(left=Var(name='x'), right=Var(name='y')), "
        "rhs=Join(left=Var(name='x'), right=Var(name='y')), kind='eq')))",
    "Identity":
        "Identity(lhs=Brouwer(arg=Kleene(arg=Var(name='x'))), "
        "rhs=Brouwer(arg=Brouwer(arg=One())), kind='le')",
}


def _record_classes():
    """Every record class of the package, the bases with no fields of
    their own (terms._Node and Term) left out."""
    out, todo = [], [_Record]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("pbzlat.") and \
                cls not in (_Record, terms._Node, terms.Term):
            out.append(cls)
    return out


def _all_samples():
    """Records of every class: the pinned samples, the term nodes under
    them, and a few more, so each class has at least one."""
    samples = list(_samples().values())
    quasi, ident = samples[-2], samples[-1]
    stack = [quasi, ident]
    while stack:
        node = stack.pop()
        samples.append(node)
        stack += [value for value in node._fields()
                  if isinstance(value, terms._Node)]
        for value in node._fields():
            if isinstance(value, tuple):
                stack += value
    T1 = catalog.get("T1(2x2)")
    samples += [constructions.twist_represent(T1),
                congruences.tilde_family_report(T1),
                constructions.TwistRepresentation(True, 2, None, None, (1,))]
    return samples


def _same(a, b):
    """Field by field equality, with algebras, which compare by
    identity, compared by their tables."""
    if type(a) is not type(b):
        return False
    if isinstance(a, core._Carrier):
        return all(getattr(a, name, None) == getattr(b, name, None)
                   for name in ("kleene", "brouwer", "labels", "name")) \
            and a._ord.up == b._ord.up
    if isinstance(a, _Record):
        return all(map(_same, a._fields(), b._fields()))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_reprs_are_pinned():
    assert {name: repr(r) for name, r in _samples().items()} == _PINNED


def test_every_record_class_has_samples():
    classes = _record_classes()
    assert len(classes) == 23
    assert {type(r) for r in _all_samples()} == set(classes)
    for cls in classes:
        assert cls.__slots__ == cls.__match_args__, cls
        assert not hasattr(cls(*_args(cls)), "__dict__"), cls


def _args(cls):
    """Field values some sample of the class has."""
    return next(r for r in _all_samples() if type(r) is cls)._fields()


def test_construction_by_position_keyword_and_default():
    for r in _all_samples():
        cls, names, values = type(r), r.__match_args__, r._fields()
        assert len(names) == len(values)
        for built in (cls(*values), cls(**dict(zip(names, values))),
                      cls(*values[:1], **dict(zip(names[1:], values[1:])))):
            assert type(built) is cls and _same(built, r), cls
            assert repr(built) == repr(r)
        if names:
            with pytest.raises(TypeError):
                cls()
            with pytest.raises(TypeError):
                cls(*values, values[0])
            with pytest.raises(TypeError):
                cls(*values, **{names[0]: values[0]})
        with pytest.raises(TypeError):
            cls(*values, no_such_field=1)
    x = Var("x")
    assert Zero() == Zero() and One() == One() and Zero() != One()
    assert constructions.TwistRepresentation(False) == \
        constructions.TwistRepresentation(False, 0, None, None, None, None)
    assert enumeration._Claim("t") == \
        enumeration._Claim("t", None, (), (), False, ())
    assert EnumerationSpec(3) == EnumerationSpec(3, (), None, ())
    assert EnumerationSpec(max_size=3, identities=("SDM",)).identities == \
        ("SDM",)
    assert Meet(left=x, right=One()) == Meet(x, One())
    # clause parts given as lists are kept as tuples
    q = QuasiIdentity([Identity(x, x, "eq")], [Identity(x, Zero(), "eq")])
    assert type(q.premises) is tuple and type(q.conclusion) is tuple


def test_checks_at_construction():
    for kwargs, message in (
            ({"max_size": 0}, "max_size must be positive"),
            ({"max_size": 3, "classes": ("nope",)}, "unknown class flags"),
            ({"max_size": 3, "structure": "tree"}, "unknown structure"),
            ({"max_size": 3, "identities": ("NOPE",)},
             "unknown theory identities"),
            ({"max_size": 99}, "above general cap")):
        with pytest.raises(ValueError, match=message):
            EnumerationSpec(**kwargs)
    x = Var("x")
    with pytest.raises(ValueError, match="bad identity kind 'lt'"):
        Identity(x, x, "lt")
    with pytest.raises(ValueError, match="at least one disjunct"):
        QuasiIdentity([Identity(x, x, "eq")], [])
    with pytest.raises(ValueError, match="at least two disjuncts"):
        QuasiIdentity((), [Identity(x, x, "eq")])


def test_equality_and_hash_by_type_and_fields():
    x, y = Var("x"), Var("y")
    assert Meet(x, y) != Join(x, y) and Kleene(x) != Brouwer(x)
    assert Meet(x, y) != Meet(y, x)
    assert Meet(x, y) != (x, y) and (x, y) != Meet(x, y)
    for r in _all_samples():
        twin = type(r)(*r._fields())
        assert twin is not r and twin == r and not twin != r
        try:
            h = hash(r)
        except TypeError:
            # a field holds a dict, as SearchResult's assignment does
            assert isinstance(r, enumeration.SearchResult)
            continue
        assert hash(twin) == h
        if not isinstance(r, terms._Node):
            assert h == hash(r._fields())
    spec = EnumerationSpec(4, ("bz",))
    assert spec == EnumerationSpec(4, ("bz",)) != EnumerationSpec(5, ("bz",))
    assert len({spec, EnumerationSpec(4, ("bz",)), EnumerationSpec(4)}) == 2
    report = axioms.classify(catalog.get("D3"))
    assert report == axioms.AlgebraClassReport(*report._fields())
    assert report != axioms.AlgebraClassReport(
        *report._fields()[:-1], witnesses=())


def test_assignment_and_deletion_are_refused():
    for r in _all_samples():
        for name in (*r.__match_args__, "extra"):
            with pytest.raises(AttributeError):
                setattr(r, name, None)
            with pytest.raises(AttributeError):
                delattr(r, name)
        assert repr(r) == repr(type(r)(*r._fields()))


def test_pickle_and_copy_round_trip():
    for r in _all_samples():
        for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r),
                     copy.deepcopy(r)):
            assert type(twin) is type(r) and _same(twin, r), type(r)
            assert repr(twin) == repr(r)
            if not any(isinstance(v, (core._Carrier, dict))
                       for v in r._fields()):
                assert twin == r and hash(twin) == hash(r)
    # a spec beyond the caps of the loading process still loads, as the
    # checks run when a spec is built, not when it is read back
    caps = dict(enumeration.CAPS)
    try:
        enumeration.CAPS["general"] = 9
        data = pickle.dumps(EnumerationSpec(9))
    finally:
        enumeration.CAPS.update(caps)
    assert pickle.loads(data).max_size == 9


def test_match_args_and_class_flags():
    match terms.parse_statement("x ^ 1 <= x'"):
        case Identity(Meet(Var(a), One()), Kleene(Var(b)), kind):
            assert (a, b, kind) == ("x", "x", "le")
        case _:
            pytest.fail("no match")
    assert axioms.CLASS_FLAGS == (
        "bounded-involution", "pseudo-kleene", "ortholattice",
        "orthomodular", "paraorthomodular", "bz", "bz-star",
        "diamond-orthomodular", "pbz-star", "kleene-sharp-trivial",
        "antiortholattice")
