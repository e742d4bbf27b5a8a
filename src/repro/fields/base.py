"""Abstract finite-field interface.

All protocol code in :mod:`repro` works against the :class:`Field`
interface defined here.  Field *elements* are immutable value objects
(:class:`FieldElement`) wrapping an integer encoding; the field object
itself implements arithmetic on those encodings.  This split keeps hot
loops cheap (arithmetic on plain ints via field methods) while the
public API stays ergonomic (operator overloading on elements).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

if TYPE_CHECKING:
    from repro.obs.profiler import NullProfiler, OpProfiler

#: Valid batch-backend selection modes used across the sharing stack:
#: ``"auto"`` picks the numpy kernels when the field supports them,
#: ``"vectorized"`` requires them, ``"scalar"`` forces the pure-Python
#: reference path (see :mod:`repro.fields.vectorized`).
VECTOR_BACKEND_MODES: tuple[str, ...] = ("auto", "vectorized", "scalar")


class FieldElement:
    """An immutable element of a finite field.

    Supports ``+ - * / **`` against other elements of the same field and
    equality/hashing.  Construct elements via :meth:`Field.element` or
    the convenience call syntax ``field(value)``.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: "Field", value: int) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FieldElement is immutable")

    # -- arithmetic ----------------------------------------------------
    def _coerce(self, other: object) -> int:
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError(
                    f"cannot mix elements of {self.field} and {other.field}"
                )
            return other.value
        if isinstance(other, int):
            return self.field.encode(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: object) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return FieldElement(self.field, self.field.add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other: object) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return FieldElement(self.field, self.field.sub(self.value, v))

    def __rsub__(self, other: object) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return FieldElement(self.field, self.field.sub(v, self.value))

    def __mul__(self, other: object) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return FieldElement(self.field, self.field.mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return FieldElement(self.field, self.field.div(self.value, v))

    def __rtruediv__(self, other: object) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return FieldElement(self.field, self.field.div(v, self.value))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field.neg(self.value))

    def __pow__(self, exponent: int) -> "FieldElement":
        return FieldElement(self.field, self.field.pow(self.value, exponent))

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises ``ZeroDivisionError`` on zero."""
        return FieldElement(self.field, self.field.inv(self.value))

    # -- comparisons / hashing ----------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == self.field.encode(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.field), self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.field.short_name}({self.value})"

    def __int__(self) -> int:
        return self.value


class Field(ABC):
    """A finite field acting on integer-encoded elements.

    Concrete subclasses (:class:`~repro.fields.gf2k.GF2k`,
    :class:`~repro.fields.primefield.PrimeField`) implement arithmetic
    on the integer encodings in ``[0, order)``.
    """

    #: Number of elements in the field.
    order: int
    #: Short display name used in ``repr`` of elements.
    short_name: str

    #: Scalar encoding ops wrapped by :meth:`instrument`.  Subclasses
    #: narrow or extend this to match their genuinely-scalar hot ops.
    _PROFILE_OPS: tuple[str, ...] = ("add", "sub", "neg", "mul", "inv", "pow")

    # -- raw arithmetic on encodings ----------------------------------
    @abstractmethod
    def add(self, a: int, b: int) -> int:
        """Return the encoding of ``a + b``."""

    @abstractmethod
    def sub(self, a: int, b: int) -> int:
        """Return the encoding of ``a - b``."""

    @abstractmethod
    def neg(self, a: int) -> int:
        """Return the encoding of ``-a``."""

    @abstractmethod
    def mul(self, a: int, b: int) -> int:
        """Return the encoding of ``a * b``."""

    @abstractmethod
    def inv(self, a: int) -> int:
        """Return the encoding of ``a**-1``; raise on zero."""

    def div(self, a: int, b: int) -> int:
        """Return the encoding of ``a / b``; raise on ``b == 0``."""
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """Return the encoding of ``a**e`` (square-and-multiply).

        Negative exponents invert first; ``0**0 == 1`` by convention.
        """
        if e < 0:
            a = self.inv(a)
            e = -e
        result = self.encode(1)
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    @abstractmethod
    def encode(self, value: int) -> int:
        """Map an arbitrary integer into the canonical encoding range."""

    # -- element-level conveniences ------------------------------------
    def element(self, value: int) -> FieldElement:
        """Wrap ``value`` as a :class:`FieldElement` of this field."""
        return FieldElement(self, self.encode(value))

    def __call__(self, value: int) -> FieldElement:
        return self.element(value)

    def zero(self) -> FieldElement:
        """The additive identity."""
        return FieldElement(self, 0)

    def one(self) -> FieldElement:
        """The multiplicative identity."""
        return FieldElement(self, self.encode(1))

    def random(self, rng: random.Random) -> FieldElement:
        """A uniformly random element."""
        return FieldElement(self, rng.randrange(self.order))

    def random_nonzero(self, rng: random.Random) -> FieldElement:
        """A uniformly random non-zero element."""
        return FieldElement(self, rng.randrange(1, self.order))

    def elements(self) -> Iterable[FieldElement]:
        """Iterate over every element (use only for tiny fields)."""
        return (FieldElement(self, v) for v in range(self.order))

    def sum(self, items: Sequence[FieldElement]) -> FieldElement:
        """Sum a sequence of elements (empty sum is zero)."""
        acc = 0
        for item in items:
            acc = self.add(acc, item.value)
        return FieldElement(self, acc)

    # -- profiling -----------------------------------------------------
    def instrument(
        self,
        profiler: "OpProfiler | NullProfiler",
        component: str = "fields",
    ) -> Callable[[], None]:
        """Count every scalar op of this field instance on ``profiler``.

        Installs *instance-attribute* wrappers around the methods named
        in :attr:`_PROFILE_OPS` — each call records one
        ``component/op`` increment before delegating to the original
        bound method.  Because the wrappers live in the instance dict,
        an uninstrumented field (the default, including the
        module-cached instances of :func:`repro.fields.gf2k.gf2k`) pays
        literally nothing: the class methods run untouched.

        Returns an undo callable that removes the wrappers; always call
        it (or use :func:`repro.obs.profiler.profiled`, which does so in
        a ``finally``) so cached fields never stay instrumented.
        """
        installed: list[str] = []

        def _wrap(op: str, orig: Callable) -> Callable:
            def wrapper(*args: int) -> int:
                profiler.count(component, op)
                return orig(*args)

            return wrapper

        for op in type(self)._PROFILE_OPS:
            if op in self.__dict__:  # already instrumented: refuse to stack
                continue
            orig = getattr(self, op)
            setattr(self, op, _wrap(op, orig))
            installed.append(op)

        def undo() -> None:
            for op in installed:
                self.__dict__.pop(op, None)

        return undo

    # -- identity ------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Field)
            and type(other) is type(self)
            and self._key() == other._key()
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    @abstractmethod
    def _key(self) -> tuple:
        """A tuple identifying the field up to equality."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order})"


def draw_coefficients(rng: random.Random, field: Field, count: int) -> Any:
    """``count`` uniformly random raw encodings of ``field``, in one draw.

    Returns a 1-D numpy array (``uint64`` when the encodings fit, else
    ``object``).  A power-of-two order ``2^k`` takes a single
    ``getrandbits`` call: value ``i`` is the low ``k`` bits of byte-
    aligned chunk ``i`` (``ceil(k/8)`` bytes, little-endian) of the
    draw.  Any other order draws one ``randrange`` per value.  Scalar
    and vectorized dealing both draw through here, so they consume the
    rng identically.
    """
    import numpy as np

    order = field.order
    dtype = np.uint64 if order <= 1 << 64 else object
    if count <= 0:
        return np.zeros(0, dtype=dtype)
    if order & (order - 1):
        return np.array([rng.randrange(order) for _ in range(count)], dtype=dtype)
    k = order.bit_length() - 1
    width = max(1, (k + 7) // 8)  # bytes per chunk
    raw = rng.getrandbits(8 * width * count).to_bytes(width * count, "little")
    if width > 8:
        chunks = [raw[i : i + width] for i in range(0, len(raw), width)]
        return np.array(
            [int.from_bytes(c, "little") & (order - 1) for c in chunks],
            dtype=object,
        )
    octets = np.frombuffer(raw, dtype=np.uint8).reshape(count, width)
    values = np.zeros(count, dtype=np.uint64)
    for i in range(width):
        values |= octets[:, i].astype(np.uint64) << np.uint64(8 * i)
    return values & np.uint64(order - 1)
