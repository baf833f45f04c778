"""Frozen value records, the form of every configuration and result value
in the package.

A subclass names its fields in class annotations, in order; a field's
default is the value its annotation assigns, and a record may serve as a
default because nothing can change it.  A record is built by position or
keyword, checks itself in ``__post_init__`` and is immutable afterwards.
It is equal, and hashes equal, to a record of its own class with equal
fields, and prints as ``Name(field=value, ...)``, as a frozen dataclass
does; but no code is generated, and ``dataclasses`` with the ``inspect``
it imports would nearly double the command line's import time.  A value that
``__post_init__`` computes is set with ``object.__setattr__`` and is not a
field.
"""


class Record:
    _fields: tuple[str, ...]
    _defaults: dict[str, object]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields
                         if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        values = dict(zip(cls._fields, args), **kwargs)
        if len(values) < len(args) + len(kwargs):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments "
                            f"and got a surplus or repeated one")
        # through object.__setattr__, never vars(self): a materialized
        # __dict__ takes CPython's attribute loads off their fast path
        for name in cls._fields:
            if name in values:
                object.__setattr__(self, name, values.pop(name))
            elif name in cls._defaults:
                object.__setattr__(self, name, cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if values:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {list(values)}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._astuple()))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"
