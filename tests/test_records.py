"""Value semantics of the package's records: equality and hash by their
fields, keyword construction and defaults, the reprs, the validation
hook, and which records refuse assignment."""

import copy
import pickle

import pytest

from clustertube import rigid
from clustertube.errors import StructuralError
from clustertube.mutation import ExchangeMatrix, Seed
from clustertube.polygon import (
    CsPair,
    CsTriangulation,
    Diagonal,
    PolygonTable,
    polygon_table,
    triangulation_of,
)
from clustertube.reps import NilpotentRep, build_rep
from clustertube.rigid import MaximalRigid, RigidTable, rigid_table
from clustertube.tube import TubeObject
from clustertube.verify import CheckResult, VerifyReport


def x(a, b, n=3):
    return TubeObject(a, b, n)


def fields_of(record, names):
    return {name: getattr(record, name) for name in names}


ZIGZAG = (x(1, 2), x(1, 1))
OTHER = (x(1, 2), x(2, 1))
B = ((0, -2), (1, 0))

# class -> (its fields as keywords, the same fields with one or more changed)
FROZEN = {
    TubeObject: (dict(a=1, b=2, n=3), dict(a=1, b=1, n=3)),
    MaximalRigid: (dict(n=3, summands=ZIGZAG), dict(n=3, summands=OTHER)),
    ExchangeMatrix: (dict(order=ZIGZAG, entries=B), dict(order=ZIGZAG, entries=((0, -1), (1, 0)))),
    Seed: (
        dict(object=MaximalRigid(3, ZIGZAG), matrix=ExchangeMatrix(ZIGZAG, B)),
        dict(object=MaximalRigid(3, ZIGZAG), matrix=ExchangeMatrix(ZIGZAG, ((0, 1), (-1, 0)))),
    ),
    Diagonal: (dict(p=1, q=3, n=3), dict(p=1, q=4, n=3)),
    CsPair: (
        dict(d1=Diagonal(1, 3, 3), d2=Diagonal(4, 6, 3), n=3),
        dict(d1=Diagonal(2, 4, 3), d2=Diagonal(5, 1, 3), n=3),
    ),
    CsTriangulation: (
        fields_of(triangulation_of(MaximalRigid(3, ZIGZAG)), ("n", "pairs")),
        fields_of(triangulation_of(MaximalRigid(3, OTHER)), ("n", "pairs")),
    ),
    NilpotentRep: (
        fields_of(build_rep(x(1, 2)), ("n", "dims", "arrow_maps")),
        fields_of(build_rep(x(2, 2)), ("n", "dims", "arrow_maps")),
    ),
    RigidTable: (
        fields_of(rigid_table(2), ("n", "objects", "index", "compat", "tops", "wings")),
        {**fields_of(rigid_table(2), ("n", "objects", "index", "compat", "tops", "wings")),
         "tops": 0},
    ),
    PolygonTable: (
        fields_of(polygon_table(2), ("n", "keys", "noncross", "diameters")),
        {**fields_of(polygon_table(2), ("n", "keys", "noncross", "diameters")), "diameters": 0},
    ),
}
UNHASHABLE = (RigidTable,)  # its index and wings are dicts
CASES = [pytest.param(cls, id=cls.__name__) for cls in FROZEN]


@pytest.mark.parametrize("cls", CASES)
def test_equal_by_fields(cls):
    fields, changed = FROZEN[cls]
    r, s = cls(**fields), cls(*fields.values())
    assert r is not s and r == s and not r != s
    assert r != cls(**changed)
    assert r != tuple(fields.values()) and r.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls", CASES)
def test_hash_is_the_hash_of_the_field_tuple(cls):
    fields, changed = FROZEN[cls]
    r = cls(**fields)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(r)
        return
    assert hash(r) == hash(cls(**fields)) == hash(tuple(getattr(r, f) for f in cls._fields))
    assert {r, cls(**fields), cls(**changed)} == {r, cls(**changed)}


@pytest.mark.parametrize("cls", CASES)
def test_frozen(cls):
    fields, changed = FROZEN[cls]
    r = cls(**fields)
    before = {f: getattr(r, f) for f in fields}
    for name in fields:
        with pytest.raises(AttributeError, match=f"field '{name}'"):
            setattr(r, name, changed[name])
        with pytest.raises(AttributeError, match=f"field '{name}'"):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert {f: getattr(r, f) for f in fields} == before


@pytest.mark.parametrize("cls", CASES)
def test_copies_and_pickles_equal(cls):
    r = cls(**FROZEN[cls][0])
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(twin) is cls and twin == r


VALIDATED = [
    pytest.param(cls, id=cls.__name__)
    for cls in (
        TubeObject, MaximalRigid, ExchangeMatrix, Seed,
        Diagonal, CsPair, CsTriangulation, NilpotentRep,
    )
]


@pytest.mark.parametrize("cls", VALIDATED)
def test_construction_runs_the_validation_hook(cls, monkeypatch):
    """Tests and the traced benchmark count constructions by patching
    ``__post_init__``, so construction must look it up on the class."""
    seen = []

    def counted(self, real=cls.__post_init__):
        seen.append(type(self))
        real(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    cls(**FROZEN[cls][0])
    assert seen == [cls]


def maximal_rigid_three_ways(n):
    """Each maximal rigid object of rank ``n``, fresh, three ways: from the
    enumeration, checked from its mask, and constructed from its summands
    (listed in reverse), none of them with its summands read yet."""
    table = rigid_table(n)
    for t in rigid.enumerate_maximal_rigid(n):
        objs = table.objects_of(t.mask)[::-1]
        yield t, rigid._checked(table, t.mask), MaximalRigid(n, objs)


@pytest.mark.parametrize("n", range(2, 9))
def test_maximal_rigid_from_enumeration_mask_or_summands_is_one_value(n):
    for nodes in maximal_rigid_three_ways(n):
        t = nodes[0]
        for u in nodes:
            assert type(u) is MaximalRigid and u.mask == t.mask
            for twin in (u, copy.copy(u), copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
                assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
                assert twin.summands == rigid_table(n).objects_of(t.mask)


@pytest.mark.parametrize("n", range(2, 9))
def test_maximal_rigid_with_a_tampered_mask_does_not_unpickle(n):
    full = (1 << n * (n - 1)) - 1
    # the lowest summand dropped, every rigid indecomposable, or none
    tampers = (lambda m: m & m - 1, lambda m: full, lambda m: 0)
    for i, nodes in enumerate(maximal_rigid_three_ways(n)):
        for u, tamper in zip(nodes, tampers[i % 3 :] + tampers[: i % 3]):
            object.__setattr__(u, "mask", tamper(u.mask))
            data = pickle.dumps(u)
            with pytest.raises(StructuralError):
                pickle.loads(data)


def test_diagonal_and_pair_store_their_normal_form():
    assert Diagonal(5, 1, 3) == Diagonal(1, 5, 3) == Diagonal(p=7, q=11, n=3)
    assert (Diagonal(5, 1, 3).p, Diagonal(5, 1, 3).q) == (1, 5)
    pair = CsPair(Diagonal(4, 6, 3), Diagonal(1, 3, 3), 3)
    assert (pair.d1, pair.d2) == (Diagonal(1, 3, 3), Diagonal(4, 6, 3))


def test_nilpotent_rep_caches_its_arrow_lines_on_the_instance():
    rep = NilpotentRep(**FROZEN[NilpotentRep][0])
    assert rep.arrow_lines is rep.arrow_lines
    assert "arrow_lines" in vars(rep)
    assert rep == NilpotentRep(**FROZEN[NilpotentRep][0])


REPRS = [
    (x(1, 2), "(1,2)@3"),
    (MaximalRigid(3, ZIGZAG), "MaximalRigid[1,2;1,1]@3"),
    (
        ExchangeMatrix(ZIGZAG, B),
        "ExchangeMatrix(order=((1,2)@3, (1,1)@3), entries=((0, -2), (1, 0)))",
    ),
    (
        Seed(MaximalRigid(3, ZIGZAG), ExchangeMatrix(ZIGZAG, B)),
        "Seed(object=MaximalRigid[1,2;1,1]@3, matrix=ExchangeMatrix("
        "order=((1,2)@3, (1,1)@3), entries=((0, -2), (1, 0))))",
    ),
    (Diagonal(3, 1, 3), "[1,3]"),
    (CsPair(Diagonal(1, 3, 3), Diagonal(4, 6, 3), 3), "([1,3],[4,6])"),
    (CsPair(Diagonal(1, 4, 3), Diagonal(4, 1, 3), 3), "[1,4]"),
    (
        CsTriangulation(3, [CsPair.of(Diagonal(1, 4, 3))]
                        + [CsPair.of(Diagonal(1, 3, 3))]),
        "CsTriangulation(n=3, pairs=frozenset({([1,3],[4,6]), [1,4]}))",
    ),
    (build_rep(x(1, 2)), "NilpotentRep(n=3, dims=(1, 1, 0), arrow_maps=((), ((1,),), ((),)))"),
    (
        rigid_table(2),
        "RigidTable(n=2, objects=((1,1)@2, (2,1)@2), index={(1,1)@2: 0, (2,1)@2: 1},"
        " compat=(0, 0), tops=3, wings={0: 1, 1: 2})",
    ),
    (
        polygon_table(2),
        "PolygonTable(n=2, keys=((1, 3), (2, 4)), noncross=(0, 0), diameters=3)",
    ),
    (CheckResult("x", True), "CheckResult(name='x', ok=True, detail='')"),
    (
        VerifyReport("hom", 3, [CheckResult("x", False, "d")]),
        "VerifyReport(suite='hom', rank=3, checks=[CheckResult(name='x', ok=False, detail='d')])",
    ),
]


@pytest.mark.parametrize("record,text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_repr(record, text):
    assert repr(record) == text


def test_check_result_is_mutable_and_unhashable():
    c = CheckResult(name="x", ok=True)
    assert c.detail == "" and c == CheckResult("x", True, "")
    c.ok, c.detail = False, "at y"
    assert c == CheckResult("x", False, "at y") != CheckResult("x", True, "at y")
    assert c.__eq__(("x", False, "at y")) is NotImplemented
    with pytest.raises(TypeError, match="unhashable type: 'CheckResult'"):
        hash(c)


def test_verify_report_is_mutable_and_unhashable():
    r, s = VerifyReport(suite="hom", rank=3), VerifyReport("hom", 3)
    assert r.checks == [] and r.checks is not s.checks and r == s
    r.checks.append(CheckResult("x", True))
    r.rank = 4
    assert r == VerifyReport("hom", 4, [CheckResult("x", True)]) != s
    with pytest.raises(TypeError, match="unhashable type: 'VerifyReport'"):
        hash(r)
    for twin in (copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert twin == r and twin.checks is not r.checks
