"""Run-wide size caps, the error raised when a computation would exceed them,
and `frozen`, the immutable-record decorator of every value class."""

from operator import attrgetter

DEFAULT_SEED = 12345


class CapExceededError(RuntimeError):
    """A computation refused to run because it would exceed a configured cap.

    Operations never degrade to approximate answers; they abort instead.
    """

    def __init__(self, message: str, cap_name: str, cap_value: int):
        super().__init__(message)
        self.cap_name = cap_name
        self.cap_value = cap_value


def frozen(cls):
    """Make `cls` an immutable record of its annotated fields, in order.

    It behaves as `dataclasses.dataclass(frozen=True)` does for the package:
    positional or keyword construction with the class-level defaults, then
    `__post_init__` if the class has one; `==` on the field tuples of two
    instances of the same class; `hash` exactly `hash((f1, ..., fn))`; repr
    `Name(f1=..., ...)`; and `AttributeError` on assignment or deletion, so a
    `__post_init__` that normalises a field does it with `object.__setattr__`.
    The methods are closures over the field names: nothing is generated and
    exec'd per class, and `dataclasses` (with `inspect`) is never imported.
    """
    names = tuple(cls.__annotations__)
    count = len(names)
    if count < 2:  # attrgetter of one name returns the value, not a 1-tuple
        raise TypeError(f"frozen needs at least two annotated fields, {cls.__qualname__} has {count}")
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    fields = attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)
    qualname = cls.__qualname__

    def bind(args, kwargs):
        if len(args) > count:
            raise TypeError(f"{qualname}.__init__() takes {count + 1} positional arguments "
                            f"but {len(args) + 1} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name in values:
                raise TypeError(f"{qualname}.__init__() got multiple values for argument {name!r}")
            if name not in names:
                raise TypeError(f"{qualname}.__init__() got an unexpected keyword argument {name!r}")
            values[name] = value
        values = {**defaults, **values}
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{qualname}.__init__() missing required arguments: "
                            + ", ".join(map(repr, missing)))
        return [values[name] for name in names]

    def __init__(self, *args, **kwargs):
        self.__dict__.update(zip(names, bind(args, kwargs)))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in names) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{qualname}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


@frozen
class Caps:
    """Size caps shared by the whole toolkit, handed down whole to every
    function that refuses over one of them.

    group_order    the order of a builtin family, and the size of the closure
                   of a generator list
    span_products  the exponent tuples (generator products) of one graded piece
    monomials      the variables of a layout; the output of a polarization,
                   counted together over a generator set; the terms of a
                   `family`'s generators; the monomial basis of a dimension
                   count; the support of a span or membership system; and
                   each generator power its products use
    """

    group_order: int = 100_000
    span_products: int = 50_000
    monomials: int = 20_000

    def bound(self, name: str, size: int, message: str) -> None:
        """Refuse `size` over the cap `name`: when size > value, the value of
        that field, CapExceededError(message, name, value) is raised."""
        value = getattr(self, name)
        if size > value:
            raise CapExceededError(message, name, value)


DEFAULT_CAPS = Caps()
