"""Versioned serialization of keys and ciphertexts (one flat container).

This is the client/server story of the runtime layer: a client generates a
keypair with :mod:`repro.tfhe.keys` (or ``tools/keygen.py``), ships the cloud
key to a server, and exchanges ciphertexts as files or byte streams.  On disk,
on the wire and in the worker pool's shared segment an artifact is the same
self-delimiting byte string::

    magic "rTFA" | container version u8 | artifact kind u8 | header_len u32
    | header | the arrays' little-endian int32 payloads, in order

The prefix states once what every artifact shares: the container version
(:data:`CONTAINER_VERSION`, the one version of byte layout and header schema
alike) and the artifact kind (one byte of :data:`_KINDS`, which maps it to
the kind's writer and loader).  A key's or a radix integer's header is
compact JSON: the artifact's own metadata and the ``arrays`` directory of
``[name, shape]`` entries, each owning ``4·prod(shape)`` payload bytes.  A
ciphertext's header is a fixed little-endian binary head, because the form
its mask travels in, its ``n`` and a batch's rows determine every shape::

    form u16 | n u32               an lwe_sample (6 bytes), then mask, b
    form u16 | n u32 | rows u32    an lwe_batch (10 bytes), then mask, b (rows,)

    form 0  a     n words a row      a derived ciphertext
    form 1  seed  4 words a row      a fresh one: a = lwe_masks(seed, n)
    form 2  a_hi  ⌈n/2⌉ words a row  a rounded reply: two high halves a word

Every array is int32: the dtype belongs to the container, so writers refuse
anything else rather than cast it and readers have no dtype to trust.  A
reader checks the prefix first, then the header and every shape it implies
against the bytes present (**no trailing bytes**) before it builds one
array, and each loader checks its entries against the shapes its own header
implies; every failure is a :class:`SerializationError`.  Each kind has one
writer and one loader, both in :data:`_KINDS`, and every entry below
reaches them through it.  Writers produce the container as a list of
buffers (:func:`to_pieces`: prefix + header, then the caller's own arrays)
that :func:`to_bytes` joins and files, sockets and shared segments take
piece by piece; readers return independent owning arrays
(:func:`from_bytes`) — or, for the one caller whose buffer exists only to
become the artifact, views of that buffer wherever its bytes already are an
aligned native int32 array (:func:`from_owned_buffer`; same validation body,
same values).  Ciphertexts of one shape share one head, so both directions
remember it: a reader keeps the *validated* layout of each (kind byte,
exact header bytes) pair it has accepted (a hit still checks magic,
container version, kind and the exact payload length, with the same error
text; any other header is validated in full), and a writer keeps the prefix
+ head of each (kind byte, form, shapes); both caches are bounded.  Cloud
keys serialize their *coefficient-domain* TGSW material plus the
:class:`repro.tfhe.transform.TransformSpec` of the engine they were
generated for; the spectrum cache is deliberately **not** serialized — the
:class:`repro.runtime.context.FheContext` that loads the key rebuilds it
(once), which also allows evaluating a loaded key under a different engine.
Their key-switching key is the ``(k·N, t, base − 1, n + 1)`` entry
``keyswitch`` (digit 0 has no sample); a key of the earlier ``base``-digit
layout is refused by that shape check, with the expected shape in the error.

Five artifact kinds are supported: ``secret_key``, ``cloud_key``,
``lwe_sample``, ``lwe_batch`` and ``radix_int`` (a radix-decomposed integer
ciphertext: its digit rows plus the digit encoding and noise-bound metadata
needed to resume homomorphic evaluation).  An ``lwe_sample`` or
``lwe_batch`` that carries a seed — every fresh encryption, see
:func:`repro.tfhe.lwe.lwe_masks` — is written as its seed: 36 bytes for an
operand at any ``n`` (2540 for a ``paper-110bit`` one's full mask); a reader
expands ``a`` from the seed.  An unseeded one whose mask words all have
zero low halves — a reply rounded by :func:`repro.tfhe.lwe.lwe_round_mask`
— is written as ``a_hi``: each int32 word packs two high halves,
little-endian, an odd ``n``'s last word padded with a zero half, and a
reader shifts them back (1280 bytes for a ``paper-110bit`` reply).  Any
other derived ciphertext keeps the ``a`` form, and a ``radix_int``'s digits
always do.  The form is chosen by the mask's value, so it is lossless, and
a reader refuses the form the writer would not have chosen (an ``a`` mask
of zero low halves, an ``a_hi`` batch of no rows) and any head
:func:`_ciphertext` refuses — a seeded one before any XOF output is
produced — and a non-zero pad half when it unpacks.  :func:`save` dispatches on the object's
type and :func:`load` on the kind byte; a caller that needs one kind checks
the type of what it read.

Compiled circuits travel as *JSON text* rather than in the container — a
netlist is pure structure (no arrays) and a human-diffable artifact is worth
more than a binary one for compiler output.  :func:`circuit_to_json` /
:func:`circuit_from_json` round-trip a :class:`repro.tfhe.netlist.Circuit`
under the same versioning discipline (``repro-tfhe-circuit`` format header,
version rejection, structural validation on load), so a client can trace and
optimize a program once and ship the artifact to the runtime exactly like
keys and ciphertexts.
"""

from __future__ import annotations

import json
import math
import pathlib
import struct
import sys
import threading
from dataclasses import asdict
from types import MappingProxyType
from typing import (
    Any,
    BinaryIO,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.tfhe.integers import RadixInt
from repro.tfhe.keys import TFHECloudKey, TFHESecretKey, group_indices
from repro.tfhe.keyswitch import KeySwitchKey
from repro.tfhe.lwe import SEED_WORDS, LweBatch, LweKey, LweSample, lwe_masks
from repro.tfhe.netlist import Circuit, Node
from repro.tfhe.params import (
    DigitEncoding,
    KeySwitchParams,
    LweParams,
    TFHEParameters,
    TgswParams,
    TlweParams,
)
from repro.tfhe.tgsw import TgswSample
from repro.tfhe.tlwe import TlweKey, tlwe_extract_lwe_key
from repro.tfhe.transform import TransformSpec

#: First bytes of every artifact.
MAGIC = b"rTFA"
#: The one version of an artifact — byte layout and header schema alike;
#: readers refuse any other.
CONTAINER_VERSION = 3
#: Earlier containers, refused by name: container 2 gave every kind a JSON
#: header, ciphertexts a directory; container 1 also restated the format
#: name, a format version (3) and the artifact kind in it.  Before them,
#: format versions 1-2 were npz archives.
_RETIRED = {1: "container 1 / format 3", 2: "container 2 (JSON ciphertext headers)"}

#: magic, container version, artifact kind, header_len.
_PREFIX = struct.Struct("<4sBBI")
#: Kind bytes of the two ciphertexts, the traffic, and each one's binary
#: head: the mask's form (an index into :data:`_MASK_FORMS`), ``n``, and a
#: batch's rows — 6 and 10 bytes, so the payloads start 4-byte aligned.
_SAMPLE, _BATCH = 1, 2
_HEAD = {_SAMPLE: struct.Struct("<HI"), _BATCH: struct.Struct("<HII")}
_HEADER_JSON = json.JSONEncoder(separators=(",", ":")).encode
#: The payloads' one dtype on the wire, and the native int32 readers return.
_WIRE_INT32 = np.dtype("<i4")
_INT32 = np.dtype(np.int32)
#: A sample's scalar ``b`` as its payload stores it.
_WIRE_B = struct.Struct("<i")
#: No artifact stores an array of higher rank (the cloud-key stacks are 4-d).
_MAX_RANK = 4
#: The largest ``n`` a seeded ciphertext's header may state, and the most
#: mask words (``rows × n``) one seeded container may expand to: a reader
#: refuses anything larger before it produces one byte of XOF output, so
#: 20 bytes of payload cannot make it write more than 16 MiB.  Every shipped
#: parameter set fits far below both (``paper-110bit``: n = 630).
MAX_SEEDED_DIMENSION = 1 << 14
MAX_SEEDED_WORDS = 1 << 22
#: The forms a ciphertext's mask may travel in, by head code: the words
#: themselves, a fresh one's seed, or a rounded one's high halves.
_MASK_FORMS = ("a", "seed", "a_hi")
#: Which of a native int32's two native uint16s is its low half: a mask
#: whose low halves are all zero is written as ``a_hi``, its high halves as
#: little-endian uint16s.
_LOW_HALF = 0 if sys.byteorder == "little" else 1
_WIRE_HALF = np.dtype("<u2")
#: What parsing a hostile header dict into parameter objects can raise
#: (``OverflowError``: JSON admits ``Infinity``, ``int()`` does not).
_HEADER_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)

PathLike = Union[str, pathlib.Path, BinaryIO]
Buffer = Union[bytes, bytearray, memoryview]


class SerializationError(ValueError):
    """Raised for malformed archives, version mismatches or unserializable keys."""


class _Layout(NamedTuple):
    """A validated container header: what the bytes after it must hold."""

    #: The artifact kind byte of the prefix (a key of :data:`_KINDS`).
    kind: int
    #: The JSON header minus its directory, read-only (every reader shares
    #: it); empty for a ciphertext.
    meta: Mapping[str, Any]
    #: ``(name, shape, byte offset, int32 count)`` per array, in order.
    arrays: Tuple[Tuple[str, Tuple[int, ...], int, int], ...]
    #: Bytes of the whole container, prefix to last payload.
    size: int
    #: ``(rows, n, form)`` of an ``lwe_sample`` — ``form (width,), b ()``,
    #: ``rows`` is ``None`` — or an ``lwe_batch`` — ``form (rows, width),
    #: b (rows,)`` — where ``form`` is one of :data:`_MASK_FORMS` (see
    #: :func:`_shapes`), so :func:`_load` builds it from one run of its
    #: payload; ``None`` for the other kinds.
    ciphertext: Optional[Tuple[Optional[int], int, str]]


#: Entries each codec cache keeps; past it the oldest is dropped, so no
#: stream of distinct headers can grow either one.
_CACHE_BOUND = 256
#: (kind byte, exact header bytes) → the layout validated for them (decode).
_LAYOUTS: Dict[Tuple[int, bytes], _Layout] = {}
#: (kind byte, form, shapes of ``a``, of the mask's payload and of ``b``)
#: → prefix + head of a ciphertext (encode; built by :func:`_head` only).
_HEADS: Dict[tuple, bytes] = {}
_CACHE_LOCK = threading.Lock()


def _remember(cache: Dict[Any, Any], key: Any, value: Any) -> None:
    with _CACHE_LOCK:
        if len(cache) >= _CACHE_BOUND:
            cache.pop(next(iter(cache)))
        cache[key] = value


# --------------------------------------------------------------------------- #
# parameter (de)serialization                                                 #
# --------------------------------------------------------------------------- #


def _params_from_dict(payload: Dict[str, Any]) -> TFHEParameters:
    try:
        return TFHEParameters(
            name=payload["name"],
            security_bits=int(payload["security_bits"]),
            lwe=LweParams(**payload["lwe"]),
            tlwe=TlweParams(**payload["tlwe"]),
            tgsw=TgswParams(**payload["tgsw"]),
            keyswitch=KeySwitchParams(**payload["keyswitch"]),
            message_space=int(payload.get("message_space", 8)),
        )
    except _HEADER_ERRORS as exc:
        raise SerializationError(f"malformed 'params' header: {exc!r}") from exc


# --------------------------------------------------------------------------- #
# the container                                                               #
# --------------------------------------------------------------------------- #


class _Stacked(list):
    """Equally shaped arrays written as their ``np.stack`` — without building it."""


def _encode(kind: int, meta: Dict[str, Any], arrays: Dict[str, Any]) -> List[Any]:
    """A JSON-headed container as a list of buffers: prefix + header, then
    the payloads.

    The payloads are the caller's own arrays (C-contiguous int32 is the rule,
    so nothing is copied here); whoever joins, writes or sends the list makes
    the one copy.  A :class:`_Stacked` entry owns one directory line and one
    payload per row.  A non-int32 array is refused, never cast — an ``astype``
    would silently wrap torus values.
    """
    directory, payloads = [], []
    for name, entry in arrays.items():
        stacked = isinstance(entry, _Stacked)
        for array in entry if stacked else (entry,):
            if not isinstance(array, np.ndarray) or array.dtype != _INT32:
                kind = getattr(array, "dtype", type(array).__name__)
                raise SerializationError(f"refusing to write {name!r} as {kind}: int32 only")
            payloads.append(np.ascontiguousarray(array, dtype=_WIRE_INT32).ravel())
        if not stacked:
            directory.append([name, list(entry.shape)])
        elif entry and all(row.shape == entry[0].shape for row in entry):
            directory.append([name, [len(entry), *entry[0].shape]])
        else:
            raise SerializationError(f"refusing to stack no or unequal arrays as {name!r}")
    header = _HEADER_JSON({**meta, "arrays": directory}).encode("utf-8")
    return [_PREFIX.pack(MAGIC, CONTAINER_VERSION, kind, len(header)) + header, *payloads]


def _head(kind: int, form: str, a: tuple, words: tuple, b: tuple) -> bytes:
    """Prefix + head of a ``kind`` ciphertext whose mask (shape ``a``)
    travels as ``form`` (payload shape ``words``) beside ``b``.

    Built once per distinct (kind, form, shapes) and then reused
    (:data:`_HEADS`); before it is first built, the reader's own check
    (:func:`_ciphertext`) must accept the head and the payloads must have
    the shapes it implies, so no writer emits a ciphertext that no reader
    reads.
    """
    key = (kind, form, a, words, b)
    head = _HEADS.get(key)
    if head is None:
        batch = kind == _BATCH
        try:
            if len(a) != 1 + batch:
                raise SerializationError(f"a mask of shape {a} is not of rank {1 + batch}")
            head = _HEAD[kind].pack(_MASK_FORMS.index(form), a[-1], *a[:batch])
            rows, n, _ = _ciphertext(kind, head)
            want = _shapes(form, n, rows)
            if (words, b) != want:
                raise SerializationError(f"{form} {words}, b {b} are not its head's {want}")
        except SerializationError as exc:
            raise SerializationError(f"refusing to write what no reader reads: {exc}") from None
        head = _PREFIX.pack(MAGIC, CONTAINER_VERSION, kind, len(head)) + head
        _remember(_HEADS, key, head)
    return head


def _byte_view(data: Buffer) -> memoryview:
    """``data`` as a flat view of its bytes, or a refusal naming what it is."""
    try:
        return memoryview(data).cast("B")
    except TypeError as exc:
        given = type(data).__name__
        if isinstance(data, memoryview):
            given = f"a memoryview of format {data.format!r}, shape {data.shape}, strides {data.strides}"
        raise SerializationError(
            f"an artifact is read from a C-contiguous byte buffer, not {given}: {exc}"
        ) from None


def _int32s(view: memoryview, count: int, start: int, adopt: bool) -> np.ndarray:
    """The ``count`` int32 words of ``view`` from byte ``start``: an owning,
    writable native copy — unless the caller gives the buffer up
    (``adopt``) and they already are an aligned, native-endian, writable
    int32 array, when they are returned as that view."""
    flat = np.frombuffer(view, _WIRE_INT32, count, start)
    if adopt and flat.flags.aligned and flat.flags.writeable and flat.dtype.isnative:
        return flat
    return flat.astype(_INT32)


def _arrays(view: memoryview, layout: _Layout, adopt: bool) -> Dict[str, np.ndarray]:
    """Every entry of a validated layout by name, as :func:`_int32s` builds it.

    Prefix, header and the whole directory were checked against the bytes
    present before this runs, so a directory that lies about its shapes
    cannot make it allocate.
    """
    return {
        name: _int32s(view, count, start, adopt).reshape(shape)
        for name, shape, start, count in layout.arrays
    }


def _layout(data: Buffer) -> Tuple[memoryview, _Layout]:
    """``data`` as bytes and the validated layout of the container they hold.

    The prefix is checked first: magic, container version and the kind byte.
    A (kind, header) pair accepted before skips its parse and directory walk
    (:data:`_LAYOUTS`) when the exact size still fits; otherwise it is
    validated in full again, so every refusal is :func:`_validate`'s own.
    """
    view = _byte_view(data)
    if len(view) < _PREFIX.size:
        raise SerializationError(f"truncated artifact: only {len(view)} bytes")
    magic, version, kind, header_len = _PREFIX.unpack_from(view)
    if magic != MAGIC or version != CONTAINER_VERSION:
        retired = ""
        if magic[:2] == b"PK":
            retired = "an npz archive (format versions 1-2)"
        elif magic == MAGIC and version in _RETIRED:
            retired = _RETIRED[version]
        raise SerializationError(
            f"not a version-{CONTAINER_VERSION} {MAGIC!r} container (starts {magic!r}, "
            f"version {version})"
            + (f" — {retired}, which this build no longer reads" if retired else "")
        )
    if kind not in _KINDS:
        raise SerializationError(f"unknown artifact kind byte {kind}")
    offset = _PREFIX.size + header_len
    if offset > len(view):
        raise SerializationError(f"header length {header_len} overruns {len(view)} bytes")
    key = (kind, view[_PREFIX.size : offset].tobytes())
    layout = _LAYOUTS.get(key)
    if layout is None or layout.size != len(view):
        # A header met for the first time, or a container its layout does
        # not fit: the full check, which raises any refusal.
        layout = _validate(*key, offset, len(view))
        _remember(_LAYOUTS, key, layout)
    return view, layout


def _validate(kind: int, header: bytes, offset: int, size: int) -> _Layout:
    """The full check of a ``kind`` header met for the first time, against
    the ``size`` bytes of its container (payloads start at ``offset``)."""
    if kind in _HEAD:
        rows, n, form = ciphertext = _ciphertext(kind, header)
        entries = _place(zip((form, "b"), _shapes(form, n, rows)), offset, size)
        return _Layout(kind, MappingProxyType({}), entries, size, ciphertext)
    try:
        meta = json.loads(str(header, "utf-8"))
    except (ValueError, RecursionError) as exc:
        raise SerializationError(f"malformed header: {exc}") from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("arrays"), list):
        raise SerializationError("header must be a JSON object with an 'arrays' list")
    shapes: Dict[str, Tuple[int, ...]] = {}
    for entry in meta.pop("arrays"):
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and entry[0] not in shapes
            and isinstance(entry[1], list)
            and len(entry[1]) <= _MAX_RANK
            and all(type(dim) is int and dim >= 0 for dim in entry[1])
        ):
            raise SerializationError(f"malformed or duplicate directory entry {entry!r}")
        shapes[entry[0]] = tuple(entry[1])
    return _Layout(kind, MappingProxyType(meta), _place(shapes.items(), offset, size), size, None)


def _place(shapes, offset: int, size: int):
    """``(name, shape, byte offset, int32 count)`` of each ``(name, shape)``,
    laid end to end from ``offset`` — or the refusal when they do not fill
    the container's ``size`` bytes exactly."""
    entries = []
    for name, shape in shapes:
        count = math.prod(shape)
        entries.append((name, shape, offset, count))
        offset += 4 * count
        if offset > size:
            raise SerializationError(
                f"truncated artifact: {name!r} {shape} ends at byte {offset} of {size}"
            )
    if offset != size:
        raise SerializationError(f"{size - offset} trailing bytes after the payloads")
    return tuple(entries)


def _ciphertext(kind: int, head: bytes) -> Tuple[Optional[int], int, str]:
    """:attr:`_Layout.ciphertext` of an ``lwe_sample`` / ``lwe_batch`` head,
    or its refusal: the head must be its kind's size and state a known form
    and ``n >= 1``, and a seeded mask must fit :data:`MAX_SEEDED_DIMENSION`
    / :data:`MAX_SEEDED_WORDS`, so no reader expands an unbounded mask."""
    name, layout = _KINDS[kind].name, _HEAD[kind]
    if len(head) != layout.size:
        raise SerializationError(f"an {name} head is {layout.size} bytes, not {len(head)}")
    code, n, *rows = layout.unpack(head)
    rows = rows[0] if rows else None
    if code >= len(_MASK_FORMS):
        raise SerializationError(
            f"unknown ciphertext form {code} (0 = 'a', 1 = 'seed', 2 = 'a_hi')"
        )
    if n < 1:
        raise SerializationError(f"an {name} head needs n >= 1, not {n}")
    form = _MASK_FORMS[code]
    if form == "a_hi" and rows == 0:
        raise SerializationError("an empty lwe_batch travels as 'a', not 'a_hi'")
    if form == "seed" and (n > MAX_SEEDED_DIMENSION or (rows or 1) * n > MAX_SEEDED_WORDS):
        what = f"batch of {rows} rows" if rows is not None else "sample"
        raise SerializationError(
            f"a seeded {what} of n = {n} exceeds the expansion bound "
            f"(n <= {MAX_SEEDED_DIMENSION}, rows × n <= {MAX_SEEDED_WORDS})"
        )
    return rows, n, form


def _shapes(form: str, n: int, rows: Optional[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The payload shapes a ciphertext head states: its mask's as ``form``
    (``n`` words, a seed's :data:`SEED_WORDS` or ``⌈n/2⌉`` halves' words a
    row), then ``b``'s — a sample's ``()``, a batch's ``(rows,)``."""
    width = SEED_WORDS if form == "seed" else (n + 1) // 2 if form == "a_hi" else n
    return ((width,), ()) if rows is None else ((rows, width), (rows,))


def _pack_halves(high: np.ndarray) -> np.ndarray:
    """High halves (native uint16, ``(..., n)``) as the int32 words of an
    ``a_hi`` entry: two to a word, the earlier in the low half, an odd row
    padded with a zero half."""
    n = high.shape[-1]
    halves = np.zeros((*high.shape[:-1], n + n % 2), _WIRE_HALF)
    halves[..., :n] = high
    return halves.view(_WIRE_INT32).astype(_INT32, copy=False)


def _unpack_halves(halves: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` mask words per row of an ``a_hi`` entry's halves
    (``<u2``, ``(..., 2·⌈n/2⌉)``) — a new int32 array; a pad half must be
    zero."""
    if n % 2 and np.count_nonzero(halves[..., n]):
        raise SerializationError(f"an 'a_hi' of n = {n} has a non-zero pad half")
    mask = halves[..., :n].astype(np.uint32)
    mask <<= 16
    return mask.view(np.int32)


def _mask_entry(a) -> Tuple[str, Any]:
    """An unseeded ciphertext's mask as ``(form, payload)``: ``a_hi`` when
    every word's low half is zero, else ``a``.  Anything but a non-empty
    int32 ndarray is left to :func:`_ciphertext_archive` to write as ``a``
    or refuse."""
    if type(a) is np.ndarray and a.dtype == _INT32 and a.size:
        halves = np.ascontiguousarray(a).view(np.uint16)
        if not np.count_nonzero(halves[..., _LOW_HALF::2]):
            return "a_hi", _pack_halves(halves[..., 1 - _LOW_HALF :: 2])
    return "a", a


def _require(arrays: Dict[str, np.ndarray], name: str, shape: tuple) -> np.ndarray:
    """A required entry of the given rank; ``None`` leaves an extent free."""
    array = arrays.get(name)
    if array is None:
        raise SerializationError(f"archive is missing the {name!r} entry")
    if array.ndim != len(shape) or any(
        want is not None and want != got for want, got in zip(shape, array.shape)
    ):
        raise SerializationError(
            f"archive entry {name!r} has rank {array.ndim} and shape {array.shape}, "
            f"expected {tuple('*' if want is None else want for want in shape)}"
        )
    return array


# --------------------------------------------------------------------------- #
# keys                                                                        #
# --------------------------------------------------------------------------- #


def _secret_key_archive(kind: int, secret: TFHESecretKey) -> List[Any]:
    """A client secret key: LWE + ring key bits (the extracted key is derived)."""
    return _encode(
        kind,
        {"params": asdict(secret.params)},
        {"lwe_key": secret.lwe_key.key, "tlwe_key": secret.tlwe_key.key},
    )


def _secret_key_from_archive(meta, arrays) -> TFHESecretKey:
    params = _params_from_dict(meta.get("params"))
    ring_key = _require(arrays, "tlwe_key", (params.k, params.N))
    tlwe_key = TlweKey(params=params.tlwe, key=ring_key)
    return TFHESecretKey(
        params=params,
        lwe_key=LweKey(params=params.lwe, key=_require(arrays, "lwe_key", (params.n,))),
        tlwe_key=tlwe_key,
        extracted_key=tlwe_extract_lwe_key(tlwe_key),
    )


def _cloud_key_archive(kind: int, cloud: TFHECloudKey) -> List[Any]:
    """A cloud key: coefficient-domain TGSW material + transform spec.

    Keys generated with an unregistered ad-hoc engine (``transform_spec`` is
    ``None``) cannot be rebuilt elsewhere and are refused.
    """
    if cloud.transform_spec is None:
        raise SerializationError(
            "cloud key was generated with an unregistered engine and cannot "
            "be serialized; regenerate it with a registry engine "
            "(see repro.tfhe.transform.available_engines)"
        )
    meta: Dict[str, Any] = {
        "params": asdict(cloud.params),
        "unroll_factor": cloud.unroll_factor,
        "transform": cloud.transform_spec.to_json(),
    }
    # Group boundaries are deterministic (group_indices(n, m)), so the flat
    # sample stack plus the unroll factor fully describe the key.
    arrays: Dict[str, Any] = {
        "keyswitch": cloud.keyswitch_key.data,
        "bootstrapping_key": _Stacked(s.data for s in cloud.bootstrapping_key),
    }
    return _encode(kind, meta, arrays)


def _cloud_key_from_archive(meta, arrays) -> TFHECloudKey:
    params = _params_from_dict(meta.get("params"))
    k, big_n, ks = params.k, params.N, params.keyswitch
    keyswitch_key = KeySwitchKey(
        params=ks,
        data=_require(arrays, "keyswitch", (k * big_n, ks.length, ks.base - 1, params.n + 1)),
        input_dimension=k * big_n,
        output_dimension=params.n,
    )
    try:  # n is pinned to real bytes by now, so the group list is bounded
        unroll_factor = int(meta["unroll_factor"])
        spec = TransformSpec.from_json(meta["transform"])
        samples = sum((1 << len(g)) - 1 for g in group_indices(params.n, unroll_factor))
    except _HEADER_ERRORS as exc:
        raise SerializationError(f"malformed cloud key header: {exc!r}") from exc
    stacked = _require(arrays, "bootstrapping_key", (samples, (k + 1) * params.l, k + 1, big_n))
    return TFHECloudKey(
        params=params,
        keyswitch_key=keyswitch_key,
        unroll_factor=unroll_factor,
        transform_spec=spec,
        bootstrapping_key=[TgswSample(data=row, params=params.tgsw) for row in stacked],
    )


# --------------------------------------------------------------------------- #
# ciphertexts                                                                 #
# --------------------------------------------------------------------------- #


def _ciphertext_archive(kind: int, ct: Union[LweSample, LweBatch]) -> List[Any]:
    """An ``lwe_sample`` / ``lwe_batch`` as its cached :func:`_head`, its mask
    payload and ``b``'s — the only writer of either kind.

    A fresh ciphertext's mask travels as its seed, any other as
    :func:`_mask_entry` chooses.  A field that is not int32 is refused,
    never cast, and so are shapes :func:`_ciphertext` would refuse (checked
    by :func:`_head`).
    """
    a, b, seed = ct.a, ct.b, ct.seed
    form, words = _mask_entry(a) if seed is None else ("seed", seed)
    if getattr(words, "dtype", None) != _INT32 or getattr(b, "dtype", None) != _INT32:
        field, value = (form, words) if getattr(words, "dtype", None) != _INT32 else ("b", b)
        what = getattr(value, "dtype", type(value).__name__)
        raise SerializationError(f"refusing to write {field!r} as {what}: int32 only")
    head = _head(kind, form, np.shape(a), words.shape, b.shape)
    tail = np.ascontiguousarray(b, dtype=_WIRE_INT32) if kind == _BATCH else _WIRE_B.pack(b)
    return [head, np.ascontiguousarray(words, dtype=_WIRE_INT32), tail]


def _rows(arrays) -> LweBatch:
    """The ``a (rows, n), b (rows,)`` entries as a batch."""
    a = _require(arrays, "a", (None, None))
    return LweBatch(a=a, b=_require(arrays, "b", (a.shape[0],)))


def _radix_int_archive(kind: int, value: RadixInt) -> List[Any]:
    """A radix-decomposed integer ciphertext.

    The digit rows are stacked like an LWE batch — with their masks, seeded
    or not: only the two ciphertext kinds carry seeds.  The header carries
    the digit encoding and the per-digit noise-growth bounds, both of which
    the server side needs to keep scheduling carry propagation correctly.
    """
    return _encode(
        kind,
        {"encoding": asdict(value.encoding), "bounds": list(value.bounds)},
        {
            "a": np.stack([digit.a for digit in value.digits]),
            "b": np.stack([np.asarray(digit.b) for digit in value.digits]),
        },
    )


def _radix_int_from_archive(meta, arrays) -> RadixInt:
    batch = _rows(arrays)
    try:
        encoding = DigitEncoding(
            message_bits=int(meta["encoding"]["message_bits"]),
            carry_bits=int(meta["encoding"]["carry_bits"]),
        )
        bounds = tuple(int(bound) for bound in meta["bounds"])
        return RadixInt(digits=batch.to_samples(), bounds=bounds, encoding=encoding)
    except _HEADER_ERRORS as exc:
        raise SerializationError(f"malformed radix metadata: {exc}") from exc


# --------------------------------------------------------------------------- #
# dispatching save/load                                                       #
# --------------------------------------------------------------------------- #


class _Kind(NamedTuple):
    """One artifact kind: its name, the type it writes, its writer and loader."""

    name: str
    cls: type
    #: ``(kind byte, object)`` → container pieces
    write: Callable[[int, Any], List[Any]]
    #: ``(meta, arrays)`` → object; ``None`` for the two ciphertext kinds,
    #: which :func:`_load` builds from their :attr:`_Layout.ciphertext`.
    load: Optional[Callable[[Mapping[str, Any], Dict[str, np.ndarray]], Any]]


#: Kind byte → its writer and loader.  A byte, once given, is never reused:
#: it is what a stored artifact says it is.
_KINDS: Dict[int, _Kind] = {
    _SAMPLE: _Kind("lwe_sample", LweSample, _ciphertext_archive, None),
    _BATCH: _Kind("lwe_batch", LweBatch, _ciphertext_archive, None),
    3: _Kind("radix_int", RadixInt, _radix_int_archive, _radix_int_from_archive),
    4: _Kind("secret_key", TFHESecretKey, _secret_key_archive, _secret_key_from_archive),
    5: _Kind("cloud_key", TFHECloudKey, _cloud_key_archive, _cloud_key_from_archive),
}
#: Type → ``(kind byte, writer)``: how :func:`to_pieces` finds an object's kind.
_WRITERS = {entry.cls: (kind, entry.write) for kind, entry in _KINDS.items()}


def _load(data: Buffer, adopt: bool = False):
    """The artifact ``data`` holds, read by the loader of its kind byte.

    Its arrays are built as :func:`_int32s` builds them, with ``adopt``.  A
    ciphertext is built here from one run of its payload: ``a`` or ``seed``
    (and ``b``) are slices of it; a seeded one's ``a`` is expanded from its
    seed, a halved one's unpacked from ``data`` into an array of its own.
    An ``a`` mask the writer would have halved is refused, so every
    ciphertext read re-encodes to the bytes it was read from.
    """
    view, layout = _layout(data)
    if layout.ciphertext is None:
        return _KINDS[layout.kind].load(layout.meta, _arrays(view, layout, adopt))
    rows, n, form = layout.ciphertext
    _, mask, start, count = layout.arrays[0]
    if form == "a" and count:
        lows = np.frombuffer(view, _WIRE_HALF, 2 * count, start)[::2]
        if not np.count_nonzero(lows):
            raise SerializationError("an 'a' mask whose low halves are all zero travels as 'a_hi'")
    if form == "a_hi":
        halves = np.frombuffer(view, _WIRE_HALF, 2 * count, start)
        if rows is None:
            words, b = _unpack_halves(halves, n), _int32s(view, 1, start + 4 * count, adopt)[0]
        else:
            words = _unpack_halves(halves.reshape(rows, 2 * mask[1]), n)
            b = _int32s(view, rows, start + 4 * count, adopt)
    elif rows is None:
        payload = _int32s(view, count + 1, start, adopt)
        words, b = payload[:count], payload[count]
    else:
        payload = _int32s(view, count + rows, start, adopt)
        words, b = payload[:count].reshape(mask), payload[count:]
    cls = LweSample if rows is None else LweBatch
    if form == "seed":
        return cls(a=lwe_masks(words, n), b=b, seed=words)
    return cls(a=words, b=b)


def save(path: PathLike, obj) -> None:
    """Write any supported artifact, dispatching on its type."""
    pieces = to_pieces(obj)
    if isinstance(path, (str, pathlib.Path)):
        with open(path, "wb") as handle:
            handle.writelines(pieces)
    else:
        path.writelines(pieces)


def load(path: PathLike):
    """Read any supported artifact, dispatching on its kind byte."""
    if isinstance(path, (str, pathlib.Path)):
        return _load(pathlib.Path(path).read_bytes())
    return _load(path.read())


def to_pieces(obj) -> List[Any]:
    """Any supported artifact, written by the kind of its type, as the
    buffers :func:`to_bytes` joins: prefix + header, then the artifact's own
    arrays — nothing is copied."""
    try:
        kind, write = _WRITERS[type(obj)]
    except KeyError:
        raise SerializationError(f"cannot serialize objects of type {type(obj).__name__}") from None
    return write(kind, obj)


def to_bytes(obj) -> bytes:
    """Serialize any supported artifact to an in-memory byte string."""
    return b"".join(to_pieces(obj))


def from_bytes(data: Buffer):
    """Deserialize an artifact from any buffer holding :func:`to_bytes` output
    into arrays of its own (see :func:`_load`)."""
    return _load(data)


def from_owned_buffer(data: Buffer):
    """:func:`from_bytes` for a caller that gives ``data`` up to the artifact.

    Same checks, same values; the arrays *view* ``data`` wherever its bytes
    already are an aligned native int32 array in writable memory, so nothing
    may write to or reuse the buffer afterwards.  For the one receiver whose
    buffer exists only to become the artifact (the server's ``register_key``);
    everyone else wants :func:`from_bytes`.
    """
    return _load(data, adopt=True)


# --------------------------------------------------------------------------- #
# circuit netlists (JSON)                                                     #
# --------------------------------------------------------------------------- #

#: Format name of the circuit JSON family (JSON text, never an ``rTFA``
#: container, so a circuit file can never be mistaken for a key archive and
#: vice versa).
CIRCUIT_FORMAT = "repro-tfhe-circuit"
#: Current circuit format version; :func:`circuit_from_json` rejects others.
#: Version 2 added ``lut`` nodes, which carry both ``args`` (the inputs, LSB
#: of the table index first) and ``value`` (the truth table).
CIRCUIT_FORMAT_VERSION = 2


def circuit_to_json(circuit: Circuit, indent: int | None = None) -> str:
    """Serialize a validated netlist to versioned JSON text.

    Nodes are emitted in SSA order with only their meaningful fields (gate
    nodes carry ``args``, constants carry ``value``, inputs carry
    ``name``/``bit``), so the artifact stays compact and diffable.
    """
    circuit.validate()
    nodes: List[Dict[str, Any]] = []
    for node in circuit.nodes:
        entry: Dict[str, Any] = {"op": node.op}
        if node.op == "input":
            entry["name"] = node.name
            entry["bit"] = node.bit
        elif node.op == "const":
            entry["value"] = node.value
        elif node.op == "lut":
            entry["args"] = list(node.args)
            entry["value"] = node.value  # the truth table
        else:
            entry["args"] = list(node.args)
        nodes.append(entry)
    payload = {
        "format": CIRCUIT_FORMAT,
        "version": CIRCUIT_FORMAT_VERSION,
        "name": circuit.name,
        "nodes": nodes,
        "inputs": {name: list(wires) for name, wires in circuit.input_wires.items()},
        "outputs": {name: list(wires) for name, wires in circuit.output_wires.items()},
    }
    return json.dumps(payload, indent=indent)


def circuit_from_json(text: Union[str, bytes]) -> Circuit:
    """Rebuild a netlist from :func:`circuit_to_json` output.

    Rejects unknown formats and versions before touching the node list, then
    re-validates the full structure (known ops, arities, SSA order, input
    words consistent with their ``input`` nodes, output wires in range), so a
    tampered or truncated artifact can never produce a circuit the executors
    would mis-evaluate.
    """
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SerializationError(f"not a readable circuit JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SerializationError("circuit JSON must be an object")
    if payload.get("format") != CIRCUIT_FORMAT:
        raise SerializationError(
            f"unknown circuit format {payload.get('format')!r} "
            f"(expected {CIRCUIT_FORMAT!r})"
        )
    if payload.get("version") != CIRCUIT_FORMAT_VERSION:
        raise SerializationError(
            f"unsupported circuit format version {payload.get('version')!r} "
            f"(this build reads version {CIRCUIT_FORMAT_VERSION})"
        )
    for key in ("nodes", "inputs", "outputs"):
        if not isinstance(payload.get(key), (list, dict)):
            raise SerializationError(f"circuit JSON is missing the {key!r} entry")

    circuit = Circuit(str(payload.get("name", "circuit")))
    try:
        for node_id, entry in enumerate(payload["nodes"]):
            op = entry["op"]
            circuit.nodes.append(
                Node(
                    node_id=node_id,
                    op=op,
                    args=tuple(int(a) for a in entry.get("args", ())),
                    value=int(entry.get("value", 0)),
                    name=str(entry.get("name", "")),
                    bit=int(entry.get("bit", -1)),
                )
            )
        circuit.input_wires = {
            str(name): tuple(int(w) for w in wires)
            for name, wires in payload["inputs"].items()
        }
        circuit.output_wires = {
            str(name): tuple(int(w) for w in wires)
            for name, wires in payload["outputs"].items()
        }
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SerializationError(f"malformed circuit JSON: {exc}") from exc

    try:
        circuit.validate()
    except ValueError as exc:
        raise SerializationError(f"invalid circuit structure: {exc}") from exc
    node_count = len(circuit.nodes)
    for name, wires in circuit.input_wires.items():
        if not wires:
            raise SerializationError(f"input word {name!r} has no wires")
        for position, wire in enumerate(wires):
            if not 0 <= wire < node_count:
                raise SerializationError(f"input word {name!r} references wire {wire}")
            node = circuit.nodes[wire]
            if node.op != "input" or node.name != name or node.bit != position:
                raise SerializationError(
                    f"input word {name!r} bit {position} does not match its node"
                )
    declared = {w for wires in circuit.input_wires.values() for w in wires}
    for node in circuit.nodes:
        if node.op == "input" and node.node_id not in declared:
            raise SerializationError(
                f"input node {node.node_id} is not part of any declared word"
            )
    for name, wires in circuit.output_wires.items():
        if not wires:
            raise SerializationError(f"output word {name!r} has no wires")
        for wire in wires:
            if not 0 <= wire < node_count:
                raise SerializationError(
                    f"output word {name!r} references wire {wire}"
                )
    return circuit
