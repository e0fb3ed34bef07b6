import dataclasses

import pytest

from polinv.groups import DiagonalAction, builtin_family
from polinv.liealg import LieAlgebraBasis, LieSubspace, sl, unit_matrix
from polinv.limits import CapExceededError, Caps, frozen
from polinv.linalg import Matrix
from polinv.nullcone import BinaryForm, ProbeVerdict, SubspaceSpec, WeightSystem
from polinv.polarization import GeneratorSet, GradedSpan
from polinv.poly import VariableLayout, parse_poly

from separation_reference import SeparationReport


def _sample(decorate):
    @decorate
    class Sample:
        name: str
        values: tuple
        weight: int = 1

        def __post_init__(self):
            object.__setattr__(self, "values", tuple(self.values))

    return Sample


OURS = _sample(frozen)
THEIRS = _sample(dataclasses.dataclass(frozen=True))


def _fields(x):
    return tuple(getattr(x, name) for name in type(x).__annotations__)


@pytest.mark.parametrize("args, kwargs", [
    (("a", [1, 2]), {}),
    (("a", [1, 2], 3), {}),
    (("a",), {"values": (4,)}),
    ((), {"weight": 5, "values": [], "name": "b"}),
])
def test_frozen_constructs_as_dataclass_does(args, kwargs):
    ours, theirs = OURS(*args, **kwargs), THEIRS(*args, **kwargs)
    assert _fields(ours) == _fields(theirs)
    assert isinstance(ours.values, tuple)
    assert hash(ours) == hash(theirs) == hash(_fields(ours))
    assert repr(ours) == repr(theirs)
    assert vars(ours) == vars(theirs)
    assert ours == OURS(*args, **kwargs) and not ours != OURS(*args, **kwargs)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),
    (("a",), {}),
    ((), {"values": ()}),
    (("a", (), 1, 2), {}),
    (("a", ()), {"name": "b"}),
    (("a", ()), {"bogus": 1}),
])
def test_frozen_refuses_bad_arguments_as_dataclass_does(args, kwargs):
    with pytest.raises(TypeError):
        THEIRS(*args, **kwargs)
    with pytest.raises(TypeError):
        OURS(*args, **kwargs)


def test_frozen_compares_as_dataclass_does():
    ours, theirs = OURS("a", (1,)), THEIRS("a", (1,))
    assert ours == OURS("a", [1], 1)
    assert ours != OURS("a", (1,), 2)
    assert ours != theirs and theirs != ours
    assert ours != ("a", (1,), 1) and theirs != ("a", (1,), 1)
    assert OURS.__eq__(ours, ("a", (1,), 1)) is NotImplemented
    assert THEIRS.__eq__(theirs, ("a", (1,), 1)) is NotImplemented
    assert len({ours, OURS("a", (1,), 1), OURS("b", ())}) == 2


@pytest.mark.parametrize("cls", [OURS, THEIRS], ids=["frozen", "dataclass"])
def test_frozen_refuses_assignment_and_deletion(cls):
    x = cls("a", ())
    for action in (lambda: setattr(x, "name", "b"), lambda: setattr(x, "other", 1),
                   lambda: delattr(x, "name"), lambda: delattr(x, "weight")):
        with pytest.raises(AttributeError):
            action()
    assert _fields(x) == ("a", (), 1)


class _LazyAnnotations(type):
    """Serves `__annotations__` on access, leaving it out of the class dict,
    as classes do under lazily evaluated annotations (Python 3.14)."""

    @property
    def __annotations__(cls):
        return {"name": str, "weight": int}


def test_frozen_reads_annotations_not_kept_in_the_class_dict():
    class Lazy(metaclass=_LazyAnnotations):
        weight = 1

    assert "__annotations__" not in Lazy.__dict__
    Lazy = frozen(Lazy)
    x = Lazy("a")
    assert (x.name, x.weight) == ("a", 1)
    assert hash(x) == hash(("a", 1))
    assert x == Lazy("a", 1) and x != Lazy("b")
    with pytest.raises(TypeError):
        Lazy("a", 1, 2)


@pytest.mark.parametrize("annotations", [{}, {"name": str}], ids=["none", "one"])
def test_frozen_refuses_a_class_with_fewer_than_two_fields(annotations):
    with pytest.raises(TypeError):
        frozen(type("Small", (), {"__annotations__": annotations}))


def test_caps_bound_passes_at_equality_and_raises_above():
    caps = Caps(group_order=5, span_products=7, monomials=9)
    for name, value in (("group_order", 5), ("span_products", 7), ("monomials", 9)):
        caps.bound(name, value, "too large")
        with pytest.raises(CapExceededError, match="^too large$") as refused:
            caps.bound(name, value + 1, "too large")
        assert (refused.value.cap_name, refused.value.cap_value) == (name, value)


def _instances():
    layout = VariableLayout(2, 2)
    group = builtin_family("S", 2)
    algebra = sl(2)
    p = parse_poly("x1_1*x2_2 + x1_2*x2_1", layout)
    return [
        Caps(),
        Matrix(2, 2, (1, 2, 3, 4)),
        layout,
        group,
        DiagonalAction(group, layout),
        GeneratorSet(layout, ((p, (1, 1)),)),
        GradedSpan((1, 1), ((1,),)),
        SeparationReport(1, 8, 3, 3, 2, 2, ()),
        WeightSystem(1, ((1,), (-1,))),
        SubspaceSpec(2, ((1, 0),)),
        BinaryForm(2, (1, 0, -1)),
        ProbeVerdict(True, (1,), (1, 0), 3, 5),
        algebra,
        LieSubspace(algebra, (unit_matrix(2, 0, 1),)),
    ]


def test_every_value_class_hashes_its_field_tuple():
    instances = _instances()
    assert len({type(x) for x in instances}) == 14
    for x in instances:
        assert hash(x) == hash(_fields(x)), type(x).__name__
        assert x == type(x)(*_fields(x))
        with pytest.raises(AttributeError):
            setattr(x, next(iter(type(x).__annotations__)), None)


@pytest.mark.parametrize("make", [
    lambda: VariableLayout(0, 1),
    lambda: Matrix(2, 2, (1,)),
    lambda: Matrix(-1, 0, ()),
    lambda: BinaryForm(-1, ()),
    lambda: BinaryForm(2, (1, 0)),
    lambda: WeightSystem(2, ((1,),)),
    lambda: SubspaceSpec(2, ((1,),)),
    lambda: DiagonalAction(builtin_family("S", 2), VariableLayout(2, 3)),
    lambda: GeneratorSet(VariableLayout(1, 2), ((parse_poly("x1", VariableLayout(1, 1)), (1,)),)),
    lambda: LieAlgebraBasis("bad", 3, (unit_matrix(2, 0, 1),)),
    lambda: LieSubspace(sl(2), (Matrix(2, 2, (1, 0, 0, 0)),)),
], ids=["layout", "matrix-entries", "matrix-negative", "form-degree", "form-coeffs",
        "weights", "subspace", "action", "generators", "lie-basis", "lie-subspace"])
def test_validation_still_raises(make):
    with pytest.raises(ValueError):
        make()
