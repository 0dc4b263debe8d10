"""Tracing frontend: ordinary Python arithmetic recorded into a netlist.

An encrypted program is just a Python function over symbolic values::

    from repro.compiler import FheUint16, fhe_max, trace

    def score(a, b, c):
        return fhe_max(a * 3 + b, b - c)

    circuit = trace(score, FheUint16("a"), FheUint16("b"), FheUint16("c"))

:func:`trace` runs the function once with :class:`FheUint` / :class:`FheBool`
arguments whose operators (``+ - * & | ^ ~ << >> == != < <= > >=`` plus
:func:`fhe_min` / :func:`fhe_max` / :func:`fhe_abs` / :func:`fhe_select`)
append gates to a shared :class:`repro.tfhe.netlist.Circuit` through the same
``*_into`` builders the hand-written word-level constructors use — a traced
adder is gate-for-gate the :func:`repro.tfhe.netlist.adder_netlist` adder.
Plain ``int`` operands become words of constant wires (the optimizer's
constant-folding pass then collapses everything they touch), and constant
shift amounts rearrange wires for free.

Arithmetic is unsigned and wraps modulo ``2**width``, matching
:func:`repro.tfhe.circuits.int_to_bits`; comparison results are
:class:`FheBool` (one wire) and can select between words via
:func:`fhe_select`.  The traced :class:`~repro.tfhe.netlist.Circuit` runs
unchanged through :class:`repro.tfhe.executor.CircuitExecutor` and
:meth:`repro.runtime.scheduler.EvaluationSession.submit_circuit` — optimize
it first with :class:`repro.compiler.passes.PassManager`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple, Union

from repro.tfhe.circuits import int_to_bits
from repro.tfhe.netlist import (
    Circuit,
    absolute_into,
    equal_into,
    greater_than_into,
    maximum_into,
    minimum_into,
    multiply_into,
    negate_into,
    ripple_add_into,
    shift_left_into,
    shift_right_into,
)


class TraceError(TypeError):
    """Raised for malformed traced programs (mixed traces, bad widths, ...)."""


class _TracedCircuit(Circuit):
    """A circuit whose :meth:`constant` deduplicates wires.

    The ``*_into`` netlist builders call ``constant`` freely (ripple carries,
    shift fills, coerced int operands), so a naive trace would sprout dozens
    of identical constant nodes; sharing at most one 0 and one 1 wire keeps
    traced netlists canonical before any pass runs.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._const_cache: Dict[int, int] = {}

    def constant(self, bit: int) -> int:
        bit = int(bool(bit))
        if bit not in self._const_cache:
            self._const_cache[bit] = super().constant(bit)
        return self._const_cache[bit]


class _Tracer:
    """Shared per-trace state: the circuit under construction."""

    def __init__(self, name: str) -> None:
        self.circuit = _TracedCircuit(name)

    def const_word(self, value: int, width: int) -> List[int]:
        """A plain integer as ``width`` constant wires (wrapping modulo 2**width)."""
        return [self.circuit.constant(b) for b in int_to_bits(int(value), width)]


class FheValue:
    """Base class of traced values; binds wires to the trace that made them."""

    __slots__ = ("tracer", "wires")

    def __init__(self, tracer: _Tracer, wires: Sequence[int]) -> None:
        self.tracer = tracer
        self.wires = list(wires)

    @property
    def width(self) -> int:
        return len(self.wires)

    # Symbolic values have no truth value: Python would silently call __bool__
    # on `if a == b:` and burn the comparison result.
    def __bool__(self) -> None:  # pragma: no cover - message is the point
        raise TraceError(
            "encrypted values have no plaintext truth value inside a trace; "
            "use fhe_select(cond, if_true, if_false) instead of `if`"
        )


def _coerce(
    value: "FheValue | int", like: FheValue, width: int | None = None
) -> List[int]:
    """Wires of an operand: traced values pass through, ints become constants."""
    width = like.width if width is None else width
    if isinstance(value, FheValue):
        if value.tracer is not like.tracer:
            raise TraceError("cannot mix values from different traces")
        if value.width != width:
            raise TraceError(
                f"operand widths differ: {value.width} vs {width} "
                "(explicitly resize with slicing/extension before mixing)"
            )
        return value.wires
    if isinstance(value, int):
        return like.tracer.const_word(int(value), width)
    raise TraceError(f"cannot trace operand of type {type(value).__name__}")


class FheBool(FheValue):
    """A traced encrypted bit (one wire).

    Instances come from comparisons on :class:`FheUint` or from tracing a
    declared ``FheBool("name")`` input.  Supports ``& | ^ ~`` and drives
    :func:`fhe_select`.  Construct input specs as ``FheBool("flag")``; the
    instance is *unbound* until :func:`trace` declares it on a circuit.
    """

    __slots__ = ("name",)

    def __init__(self, name: str | None = None, *, _bound=None) -> None:
        if _bound is not None:
            tracer, wire = _bound
            super().__init__(tracer, [wire])
            self.name = name
        else:
            if not name:
                raise TraceError("an input spec needs a name: FheBool('flag')")
            self.name = name
            self.tracer = None
            self.wires = []

    @property
    def wire(self) -> int:
        return self.wires[0]

    def _bind(self, tracer: _Tracer) -> "FheBool":
        wire = tracer.circuit.inputs(self.name, 1)[0]
        return FheBool(self.name, _bound=(tracer, wire))

    def _lift(self, wire: int) -> "FheBool":
        return FheBool(None, _bound=(self.tracer, wire))

    def _gate(self, op: str, other: "FheBool | int") -> "FheBool":
        wires = _coerce(other, self, width=1)
        return self._lift(self.tracer.circuit.gate(op, self.wire, wires[0]))

    def __and__(self, other):
        return self._gate("and", other)

    __rand__ = __and__

    def __or__(self, other):
        return self._gate("or", other)

    __ror__ = __or__

    def __xor__(self, other):
        return self._gate("xor", other)

    __rxor__ = __xor__

    def __invert__(self):
        return self._lift(self.tracer.circuit.not_(self.wire))

    def __eq__(self, other):  # symbolic, like FheUint
        return self._gate("xnor", other)

    def __ne__(self, other):
        return self._gate("xor", other)

    __hash__ = None  # symbolic equality makes instances unhashable


class FheUint(FheValue):
    """A traced unsigned integer of fixed ``width`` (wrapping arithmetic).

    ``FheUint(width, "name")`` builds an input spec for :func:`trace`;
    the width-curried aliases :data:`FheUint4` / :data:`FheUint8` /
    :data:`FheUint16` / :data:`FheUint32` read better at call sites.
    Operator results are new :class:`FheUint` / :class:`FheBool` values on
    the same trace.
    """

    __slots__ = ("name",)

    def __init__(
        self, width: int, name: str | None = None, *, _bound=None
    ) -> None:
        if _bound is not None:
            tracer, wires = _bound
            if len(wires) != width:
                raise TraceError(f"expected {width} wires, got {len(wires)}")
            super().__init__(tracer, wires)
            self.name = name
        else:
            if width <= 0:
                raise TraceError("width must be positive")
            if not name:
                raise TraceError("an input spec needs a name: FheUint(8, 'a')")
            self.name = name
            self.tracer = None
            self.wires = [None] * width

    def _bind(self, tracer: _Tracer) -> "FheUint":
        wires = tracer.circuit.inputs(self.name, self.width)
        return FheUint(self.width, self.name, _bound=(tracer, wires))

    def _lift(self, wires: Sequence[int]) -> "FheUint":
        return FheUint(len(list(wires)), None, _bound=(self.tracer, list(wires)))

    def _lift_bool(self, wire: int) -> FheBool:
        return FheBool(None, _bound=(self.tracer, wire))

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        wires = _coerce(other, self)
        c = self.tracer.circuit
        return self._lift(ripple_add_into(c, self.wires, wires)[: self.width])

    __radd__ = __add__

    def __sub__(self, other):
        wires = _coerce(other, self)
        c = self.tracer.circuit
        return self._lift(
            ripple_add_into(c, self.wires, negate_into(c, wires))[: self.width]
        )

    def __rsub__(self, other):
        wires = _coerce(other, self)
        c = self.tracer.circuit
        return self._lift(
            ripple_add_into(c, wires, negate_into(c, self.wires))[: self.width]
        )

    def __mul__(self, other):
        wires = _coerce(other, self)
        return self._lift(multiply_into(self.tracer.circuit, self.wires, wires))

    __rmul__ = __mul__

    def __neg__(self):
        return self._lift(negate_into(self.tracer.circuit, self.wires))

    # -- bitwise -------------------------------------------------------------
    def _bitwise(self, op: str, other) -> "FheUint":
        wires = _coerce(other, self)
        c = self.tracer.circuit
        return self._lift([c.gate(op, a, b) for a, b in zip(self.wires, wires)])

    def __and__(self, other):
        return self._bitwise("and", other)

    __rand__ = __and__

    def __or__(self, other):
        return self._bitwise("or", other)

    __ror__ = __or__

    def __xor__(self, other):
        return self._bitwise("xor", other)

    __rxor__ = __xor__

    def __invert__(self):
        c = self.tracer.circuit
        return self._lift([c.not_(w) for w in self.wires])

    def __lshift__(self, amount):
        if not isinstance(amount, int):
            raise TraceError("shift amounts must be plain ints inside a trace")
        return self._lift(shift_left_into(self.tracer.circuit, self.wires, amount))

    def __rshift__(self, amount):
        if not isinstance(amount, int):
            raise TraceError("shift amounts must be plain ints inside a trace")
        return self._lift(shift_right_into(self.tracer.circuit, self.wires, amount))

    # -- comparisons ---------------------------------------------------------
    def __eq__(self, other):
        wires = _coerce(other, self)
        return self._lift_bool(equal_into(self.tracer.circuit, self.wires, wires))

    def __ne__(self, other):
        eq = self.__eq__(other)
        return ~eq

    __hash__ = None  # symbolic equality makes instances unhashable

    def __gt__(self, other):
        wires = _coerce(other, self)
        return self._lift_bool(
            greater_than_into(self.tracer.circuit, self.wires, wires)
        )

    def __lt__(self, other):
        wires = _coerce(other, self)
        return self._lift_bool(
            greater_than_into(self.tracer.circuit, wires, self.wires)
        )

    def __ge__(self, other):
        return ~self.__lt__(other)

    def __le__(self, other):
        return ~self.__gt__(other)


def FheUint4(name: str) -> FheUint:
    """A 4-bit unsigned input spec."""
    return FheUint(4, name)


def FheUint8(name: str) -> FheUint:
    """An 8-bit unsigned input spec."""
    return FheUint(8, name)


def FheUint16(name: str) -> FheUint:
    """A 16-bit unsigned input spec."""
    return FheUint(16, name)


def FheUint32(name: str) -> FheUint:
    """A 32-bit unsigned input spec."""
    return FheUint(32, name)


# -- traced word-level functions ---------------------------------------------


def _as_pair(a, b) -> Tuple[FheValue, List[int]]:
    """Normalise a two-operand call where at least one side must be traced."""
    if isinstance(a, FheValue):
        return a, _coerce(b, a)
    if isinstance(b, FheValue):
        return b, _coerce(a, b)
    raise TraceError("at least one operand must be a traced FheUint/FheBool")


def fhe_max(a: Union[FheUint, int], b: Union[FheUint, int]) -> FheUint:
    """Unsigned maximum (comparator + multiplexer, like ``maximum_netlist``)."""
    anchor, _ = _as_pair(a, b)
    c = anchor.tracer.circuit
    wires_a = _coerce(a, anchor)
    wires_b = _coerce(b, anchor)
    return anchor._lift(maximum_into(c, wires_a, wires_b))


def fhe_min(a: Union[FheUint, int], b: Union[FheUint, int]) -> FheUint:
    """Unsigned minimum (comparator + flipped multiplexer)."""
    anchor, _ = _as_pair(a, b)
    c = anchor.tracer.circuit
    wires_a = _coerce(a, anchor)
    wires_b = _coerce(b, anchor)
    return anchor._lift(minimum_into(c, wires_a, wires_b))


def fhe_abs(a: FheUint) -> FheUint:
    """Two's-complement absolute value (sign bit selects the negation)."""
    if not isinstance(a, FheUint):
        raise TraceError("fhe_abs takes a traced FheUint")
    return a._lift(absolute_into(a.tracer.circuit, a.wires))


def fhe_select(
    cond: FheBool,
    if_true: Union[FheValue, int],
    if_false: Union[FheValue, int],
) -> FheValue:
    """Word-level multiplexer: ``cond ? if_true : if_false``.

    ``cond`` must be a traced :class:`FheBool`; the branches may be traced
    words (of equal width) or plain ints coerced to the other branch's
    width.  Two plain-int branches are allowed too — the result width is
    the smallest that holds both (``fhe_select(cond, 1, 0)`` is ``cond`` as
    a one-bit word).  This is the traced replacement for a Python ``if``.
    """
    if not isinstance(cond, FheBool):
        raise TraceError("fhe_select condition must be a traced FheBool")
    if isinstance(if_true, FheValue):
        anchor = if_true
    elif isinstance(if_false, FheValue):
        anchor = if_false
    else:
        if not isinstance(if_true, int) or not isinstance(if_false, int):
            raise TraceError("fhe_select branches must be traced values or ints")
        width = max(int(if_true).bit_length(), int(if_false).bit_length(), 1)
        anchor = FheUint(
            width, None, _bound=(cond.tracer, cond.tracer.const_word(if_true, width))
        )
    if anchor.tracer is not cond.tracer:
        raise TraceError("cannot mix values from different traces")
    wires_t = _coerce(if_true, anchor)
    wires_f = _coerce(if_false, anchor)
    c = cond.tracer.circuit
    out = [c.mux(cond.wire, t, f) for t, f in zip(wires_t, wires_f)]
    if isinstance(anchor, FheBool):
        return FheBool(None, _bound=(cond.tracer, out[0]))
    return FheUint(len(out), None, _bound=(cond.tracer, out))


# -- trace entry point --------------------------------------------------------

TraceResult = Union[FheValue, Tuple, List, Dict[str, FheValue]]


def _declare_outputs(circuit: Circuit, result: TraceResult, tracer: _Tracer) -> None:
    if isinstance(result, FheValue):
        named = {"out": result}
    elif isinstance(result, dict):
        named = dict(result)
    elif isinstance(result, (tuple, list)):
        named = {f"out{i}": value for i, value in enumerate(result)}
    else:
        raise TraceError(
            "a traced function must return FheUint/FheBool values "
            f"(or a tuple/dict of them), got {type(result).__name__}"
        )
    if not named:
        raise TraceError("a traced function must return at least one value")
    for name, value in named.items():
        if not isinstance(value, FheValue):
            raise TraceError(
                f"output {name!r} is not a traced value "
                f"({type(value).__name__}); return FheUint/FheBool results"
            )
        if value.tracer is not tracer:
            raise TraceError(f"output {name!r} belongs to a different trace")
        circuit.output(name, value.wires)


def trace(fn: Callable, *specs: FheValue, name: str | None = None) -> Circuit:
    """Record ``fn(*specs)`` into a :class:`repro.tfhe.netlist.Circuit`.

    ``specs`` are *unbound* input declarations (``FheUint16("a")``,
    ``FheBool("flag")``, ...) in the positional order of ``fn``'s
    parameters; each becomes a named circuit input word.  The function runs
    exactly once; its return value — one traced value, a tuple (outputs
    ``out0, out1, ...``) or a ``{name: value}`` dict — becomes the circuit's
    outputs (a single value is named ``out``).  The circuit is validated
    before it is returned.
    """
    tracer = _Tracer(name or getattr(fn, "__name__", "traced") or "traced")
    bound = []
    for spec in specs:
        if not isinstance(spec, FheValue) or spec.tracer is not None:
            raise TraceError(
                "trace arguments must be unbound input specs such as "
                "FheUint16('a') or FheBool('flag')"
            )
        bound.append(spec._bind(tracer))
    result = fn(*bound)
    _declare_outputs(tracer.circuit, result, tracer)
    tracer.circuit.validate()
    return tracer.circuit


__all__ = [
    "FheBool",
    "FheUint",
    "FheUint4",
    "FheUint8",
    "FheUint16",
    "FheUint32",
    "FheValue",
    "TraceError",
    "fhe_abs",
    "fhe_max",
    "fhe_min",
    "fhe_select",
    "trace",
]
