"""Immutable result records, the value semantics of a frozen dataclass on
__slots__, and named sentinels.

A subclass names its fields, in order, in a tuple `__slots__`. A record is
built positionally, refuses assignment and deletion, equals only a record
of its own type with equal fields, hashes on its fields, prints as
`Name(field=value, ...)`, and matches positionally, pickles and copies.
Records stand in for frozen dataclasses so that the package never imports
`dataclasses`, which brings `inspect`, `dis` and `tokenize` with it and
took about a third of `import raag.cli` without cached bytecode.
"""


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.__match_args__ = cls.__slots__

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}"
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Sentinel:
    """A unique marker value that prints as its name.

    `name` must be the module-level name it is bound to in `module`:
    pickling and copying hand back that one object.
    """

    def __init__(self, name, module):
        self._name = name
        self.__module__ = module  # where pickle looks the name up

    def __repr__(self):
        return self._name

    def __reduce__(self):
        return self._name
