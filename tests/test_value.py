"""Value classes: ``terms.value`` behaves as ``@dataclass(frozen=True, slots=True)`` does."""

import ast
import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from dataclasses import FrozenInstanceError, InitVar, dataclass, field

import pytest

import pathrw
from pathrw.engine import Equal, NotEqual, RewriteStep
from pathrw.groupoid import LawReport
from pathrw.oracle import Letter, ReducedWord
from pathrw.terms import Atom, Mu, Nu, Object, Refl, StepAtom, Sym, Trans, Xi, value

VALUE_CLASSES = (
    Object, Atom, Refl, Sym, Trans, Xi, Mu, Nu, StepAtom, Letter, ReducedWord, RewriteStep, Equal, NotEqual, LawReport
)


def plain_copy(cls):
    """``cls``'s fields under a plain frozen, slotted dataclass of the same name."""
    namespace = {
        "__annotations__": {f.name: f.type for f in dataclasses.fields(cls)},
        "__module__": cls.__module__,
        "__qualname__": cls.__qualname__,
    }
    return dataclass(frozen=True, slots=True)(type(cls.__name__, (), namespace))


def outcome(call):
    """What ``call()`` returns, or the class and text of what it raises."""
    try:
        return "returns", call()
    except Exception as exc:  # the exceptions themselves are what is compared
        return type(exc), str(exc)


def test_value_decorates_exactly_the_hot_classes():
    decorated = set()
    for info in pkgutil.iter_modules(pathrw.__path__):
        module = importlib.import_module(f"pathrw.{info.name}")
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "value" for d in node.decorator_list
            ):
                decorated.add(getattr(module, node.name))
    assert decorated == set(VALUE_CLASSES)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_value_class_matches_a_plain_dataclass(cls):
    plain = plain_copy(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    args = [("arg", i) for i in range(len(names))]
    other = [("other", i) for i in range(len(names))]
    x, p = cls(*args), plain(*args)
    assert cls(**dict(zip(names, args))) == x and plain(**dict(zip(names, args))) == p
    assert [getattr(x, n) for n in names] == [getattr(p, n) for n in names] == args
    # construction errors, word for word but for the class
    for bad_args, bad_kwargs in ((args[:-1], {}), (args + [0], {}), (args, {"bogus": 0}), (args[:1], {names[0]: 0})):
        assert outcome(lambda: cls(*bad_args, **bad_kwargs)) == outcome(lambda: plain(*bad_args, **bad_kwargs))
    # frozen fields, and no attribute beyond them
    for name in names + ["bogus"]:
        assert outcome(lambda: setattr(x, name, 0)) == outcome(lambda: setattr(p, name, 0))
        assert outcome(lambda: delattr(x, name)) == outcome(lambda: delattr(p, name))
    with pytest.raises(FrozenInstanceError):
        setattr(x, names[0], 0)
    assert [getattr(x, n) for n in names] == args
    # ==, hash and repr
    assert (x == cls(*args), x != cls(*args), x == cls(*other)) == (p == plain(*args), p != plain(*args), p == plain(*other))
    assert hash(x) == hash(p) and hash(cls(*other)) == hash(plain(*other))
    assert repr(x) == repr(p)
    # fields, match args and signatures
    assert [(f.name, f.type) for f in dataclasses.fields(cls)] == [(f.name, f.type) for f in dataclasses.fields(plain)]
    assert cls.__match_args__ == plain.__match_args__ == tuple(names)
    assert cls.__slots__ == plain.__slots__
    assert inspect.signature(cls) == inspect.signature(plain)
    assert inspect.signature(cls.__init__) == inspect.signature(plain.__init__)
    # pickling and copying
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        reduced, plain_reduced = x.__reduce_ex__(protocol), p.__reduce_ex__(protocol)
        assert reduced[0] is plain_reduced[0] and reduced[1] == (cls,) and plain_reduced[1] == (plain,)
        assert reduced[2:] == plain_reduced[2:]
        y = pickle.loads(pickle.dumps(x, protocol))
        assert type(y) is cls and y == x
    for c, v in ((cls, x), (plain, p)):
        for y in (copy.copy(v), copy.deepcopy(v)):
            assert type(y) is c and y == v and y is not v
        y = dataclasses.replace(v, **{names[-1]: "new"})
        assert type(y) is c and [getattr(y, n) for n in names] == args[:-1] + ["new"]
        assert outcome(lambda: dataclasses.replace(v, bogus=0))[0] is TypeError


def test_value_rejects_what_its_init_would_drop():
    with pytest.raises(TypeError, match="only required fields"):

        @value
        class WithDefault:
            a: int
            b: int = 0

    with pytest.raises(TypeError, match="only required fields"):

        @value
        class WithFactory:
            a: int
            b: list = field(default_factory=list)

    with pytest.raises(TypeError, match="only required fields"):

        @value
        class NotInInit:
            a: int
            b: int = field(init=False)

    with pytest.raises(TypeError, match="only required fields"):

        @value
        class WithInitVar:
            a: int
            b: InitVar[int]

    with pytest.raises(TypeError, match="no __post_init__"):

        @value
        class WithPostInit:
            a: int

            def __post_init__(self):
                pass

    with pytest.raises(TypeError, match="only required fields"):

        @value
        class KeywordOnly:
            a: int
            b: int = field(kw_only=True)
