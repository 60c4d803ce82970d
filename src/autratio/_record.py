"""Frozen slotted records: ``@record`` gives a module-level class of annotated
fields the methods of ``dataclass(frozen=True, slots=True)``, made by one
``exec`` per class as there, but without importing that module or ``inspect``."""


class FrozenRecordError(AttributeError):
    """Assigning to or deleting an attribute of a record."""


_METHODS = """\
def __init__(self, {params}):
{init}
def __eq__(self, other):
    return ({own}) == ({other}) if other.__class__ is self.__class__ else NotImplemented
def __hash__(self):
    return hash(({own}))
def __getstate__(self):
    return ({own})
def __setstate__(self, state):
    for name, value in zip(self.__slots__, state): _set(self, name, value)
def __repr__(self):
    return self.__class__.__qualname__ + f"({fields})"
def __setattr__(self, name, *value):
    raise FrozenRecordError(f"cannot assign to or delete field {{name!r}}")
__delattr__ = __setattr__
"""


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    body = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    ns = {"_set": object.__setattr__, "FrozenRecordError": FrozenRecordError}
    ns.update((f"_d_{n}", body.pop(n)) for n in names if n in body)
    post = ["    self.__post_init__()"] if "__post_init__" in body else []
    exec(_METHODS.format(
        params=", ".join(f"{n}=_d_{n}" if f"_d_{n}" in ns else n for n in names),
        init="\n".join([f"    _set(self, {n!r}, {n})" for n in names] + post),
        own="".join(f"self.{n}," for n in names),
        other="".join(f"other.{n}," for n in names),
        fields=", ".join(f"{n}={{self.{n}!r}}" for n in names),
    ), ns, body)
    return type(cls)(cls.__name__, cls.__bases__, dict(body, __slots__=names))


def replace(obj, **changes):
    """``obj`` with ``changes`` to its fields, checked by its ``__init__``."""
    return obj.__class__(**{n: getattr(obj, n) for n in obj.__slots__} | changes)
