"""Versioned serialization of keys and ciphertexts (one flat container).

This is the client/server story of the runtime layer: a client generates a
keypair with :mod:`repro.tfhe.keys` (or ``tools/keygen.py``), ships the cloud
key to a server, and exchanges ciphertexts as files or byte streams.  On disk,
on the wire and in the worker pool's shared segment an artifact is the same
self-delimiting byte string::

    magic "rTFA" | container version u8 | header_len u32 | header JSON
    | the arrays' little-endian int32 payloads, in directory order

    {"format": "repro-tfhe", "version": 3, "artifact": "lwe_sample",
     "arrays": [["a", [630]], ["b", []]]}

The compact JSON header carries format, version, artifact kind, the artifact's
own metadata and the ``arrays`` directory of ``[name, shape]`` entries, each
owning ``4·prod(shape)`` payload bytes.  Every array is int32: the dtype
belongs to the container, so writers refuse anything else rather than cast it
and readers have no dtype to trust.  A reader checks prefix, header and the
whole directory against the bytes present (**no trailing bytes**) before it
builds one array, and each loader checks its entries against the shapes its
own header implies; every failure is a :class:`SerializationError`.  Writers
produce the container as a list of buffers (:func:`to_pieces`: prefix +
header, then the caller's own arrays) that :func:`to_bytes` joins and files,
sockets and shared segments take piece by piece; readers return independent
owning arrays (:func:`from_bytes`) — or, for the one caller whose buffer
exists only to become the artifact, views of that buffer wherever its bytes
already are an aligned native int32 array (:func:`from_owned_buffer`; same
validation body, same values).  Ciphertexts of one shape share one header,
so both directions remember it: a reader keeps the *validated* layout of
each exact header byte string it has accepted (a hit still checks magic,
container version, artifact kind and the exact payload length, with the
same error text; any other header is validated in full), and a writer keeps
the header bytes of each (artifact kind, shapes) pair; both caches are
bounded.  Cloud
keys serialize their *coefficient-domain* TGSW material plus the
:class:`repro.tfhe.transform.TransformSpec` of the engine they were generated
for; the spectrum cache is deliberately **not** serialized — the
:class:`repro.runtime.context.FheContext` that loads the key rebuilds it
(once), which also allows evaluating a loaded key under a different engine.

Five artifact kinds are supported: ``secret_key``, ``cloud_key``,
``lwe_sample``, ``lwe_batch`` and ``radix_int`` (a radix-decomposed integer
ciphertext: its digit rows plus the digit encoding and noise-bound metadata
needed to resume homomorphic evaluation).  :func:`save` / :func:`load`
dispatch on the object / header; the per-artifact functions are also public.

Compiled circuits travel as *JSON text* rather than in the container — a
netlist is pure structure (no arrays) and a human-diffable artifact is worth
more than a binary one for compiler output.  :func:`circuit_to_json` /
:func:`circuit_from_json` round-trip a :class:`repro.tfhe.netlist.Circuit`
under the same versioning discipline (``repro-tfhe-circuit`` format header,
version rejection, structural validation on load), so a client can trace and
optimize a program once and ship the artifact to the runtime exactly like
keys and ciphertexts; :func:`save_circuit` / :func:`load_circuit` are the
path-level helpers.
"""

from __future__ import annotations

import json
import math
import pathlib
import struct
import threading
from dataclasses import asdict
from types import MappingProxyType
from typing import Any, BinaryIO, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.bku import group_indices
from repro.tfhe.integers import RadixInt
from repro.tfhe.keys import RawUnrolledGroup, TFHECloudKey, TFHESecretKey
from repro.tfhe.keyswitch import KeySwitchKey
from repro.tfhe.lwe import LweBatch, LweKey, LweSample
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

#: Format name carried by every artifact header.
FORMAT = "repro-tfhe"
#: Current format version; loaders reject any other.  Version 2 added the
#: ``radix_int`` artifact; version 3 replaced npz with the flat container.
FORMAT_VERSION = 3
#: First bytes of every artifact, and the version of the byte layout itself.
MAGIC = b"rTFA"
CONTAINER_VERSION = 1

_PREFIX = struct.Struct("<4sBI")
_HEADER_JSON = json.JSONEncoder(separators=(",", ":")).encode
#: The payloads' one dtype on the wire, and the native int32 readers return.
_WIRE_INT32 = np.dtype("<i4")
_INT32 = np.dtype(np.int32)
#: A sample's scalar ``b`` as its payload stores it.
_WIRE_B = struct.Struct("<i")
#: No artifact stores an array of higher rank (the cloud-key stacks are 4-d).
_MAX_RANK = 4
#: What parsing a hostile header dict into parameter objects can raise
#: (``OverflowError``: JSON admits ``Infinity``, ``int()`` does not).
_HEADER_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)

PathLike = Union[str, pathlib.Path, BinaryIO]
Buffer = Union[bytes, bytearray, memoryview]


class SerializationError(ValueError):
    """Raised for malformed archives, version mismatches or unserializable keys."""


class _Layout(NamedTuple):
    """A validated container header: what the bytes after it must hold."""

    #: The header minus its directory, read-only (every reader shares it).
    meta: Mapping[str, Any]
    #: ``(name, shape, byte offset, int32 count)`` per array, in order.
    arrays: Tuple[Tuple[str, Tuple[int, ...], int, int], ...]
    #: Bytes of the whole container, prefix to last payload.
    size: int
    #: ``(rows, n)`` when the directory is a ciphertext's own — an
    #: ``lwe_sample``'s ``a (n,), b ()`` (``rows`` is ``None``) or an
    #: ``lwe_batch``'s ``a (rows, n), b (rows,)`` — so :func:`from_bytes`
    #: builds it from one copy of its payload; ``None`` for anything else.
    ciphertext: Optional[Tuple[Optional[int], int]]


#: Entries each codec cache keeps; past it the oldest is dropped, so no
#: stream of distinct headers can grow either one.
_CACHE_BOUND = 256
#: Exact header bytes → the layout validated for them (decode).
_LAYOUTS: Dict[bytes, _Layout] = {}
#: (format, version, artifact kind, *(name, shape)) → prefix + header
#: (encode; built by :func:`_head` only).
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


def _encode(meta: Dict[str, Any], arrays: Dict[str, Any]) -> List[Any]:
    """The container as a list of buffers: prefix + header, then the payloads.

    The payloads are the caller's own arrays (C-contiguous int32 is the rule,
    so nothing is copied here); whoever joins, writes or sends the list makes
    the one copy.  A :class:`_Stacked` entry owns one directory line and one
    payload per row.  A non-int32 array is refused, never cast — an ``astype``
    would silently wrap torus values.
    """
    shapes, payloads = [], []
    for name, entry in arrays.items():
        stacked = isinstance(entry, _Stacked)
        for array in entry if stacked else (entry,):
            if not isinstance(array, np.ndarray) or array.dtype != _INT32:
                kind = getattr(array, "dtype", type(array).__name__)
                raise SerializationError(f"refusing to write {name!r} as {kind}: int32 only")
            payloads.append(np.ascontiguousarray(array, dtype=_WIRE_INT32).ravel())
        if not stacked:
            shapes.append((name, entry.shape))
        elif entry and all(row.shape == entry[0].shape for row in entry):
            shapes.append((name, (len(entry), *entry[0].shape)))
        else:
            raise SerializationError(f"refusing to stack no or unequal arrays as {name!r}")
    return [_head(meta, shapes), *payloads]


def _head(meta: Dict[str, Any], shapes: Sequence[Tuple[str, Tuple[int, ...]]]) -> bytes:
    """Prefix + header of a container of ``(name, shape)`` arrays under ``meta``.

    A header that is the artifact kind and its shapes alone (a ciphertext's)
    is built once per distinct such pair and then reused (:data:`_HEADS`).
    """
    key = (FORMAT, FORMAT_VERSION, meta["artifact"], *shapes) if len(meta) == 1 else None
    head = _HEADS.get(key) if key is not None else None
    if head is None:
        directory = [[name, list(shape)] for name, shape in shapes]
        header = _HEADER_JSON(
            {"format": FORMAT, "version": FORMAT_VERSION, **meta, "arrays": directory}
        ).encode("utf-8")
        head = _PREFIX.pack(MAGIC, CONTAINER_VERSION, len(header)) + header
        if key is not None:
            _remember(_HEADS, key, head)
    return head


def _write_archive(path: PathLike, meta: Dict[str, Any], arrays: Dict[str, Any]) -> None:
    if isinstance(path, (str, pathlib.Path)):
        with open(path, "wb") as handle:
            handle.writelines(_encode(meta, arrays))
    else:
        path.writelines(_encode(meta, arrays))


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


def _decode(data: Buffer, expected_artifact: str | None = None, adopt: bool = False):
    """Validate a container held in any buffer and return ``(meta, arrays)``.

    Prefix, header and the whole directory are checked against the bytes
    present before the first array is built, so a directory that lies about
    its shapes cannot make this allocate.  Each array is one ``np.frombuffer``
    view plus one owning copy: int32, writable, independent of ``data`` —
    unless the caller gives the buffer up (``adopt``), when a slice that is
    already an aligned, native-endian, writable int32 array is returned as
    that view and only the others are copied.
    """
    view, layout = _layout(data, expected_artifact)
    return layout.meta, _arrays(view, layout, adopt)


def _arrays(view: memoryview, layout: _Layout, adopt: bool = False) -> Dict[str, np.ndarray]:
    arrays = {}
    for name, shape, start, count in layout.arrays:
        flat = np.frombuffer(view, _WIRE_INT32, count, start)
        if adopt and flat.flags.aligned and flat.flags.writeable and flat.dtype.isnative:
            arrays[name] = flat.reshape(shape)
        else:
            arrays[name] = flat.reshape(shape).astype(_INT32)
    return arrays


def _layout(data: Buffer, expected_artifact: str | None = None) -> Tuple[memoryview, _Layout]:
    """``data`` as bytes and the validated layout of the container they hold.

    A header byte string accepted before skips its parse and directory walk
    (:data:`_LAYOUTS`) when its artifact kind and the exact size still fit;
    otherwise it is validated in full again, so every refusal is
    :func:`_validate`'s own.
    """
    view = _byte_view(data)
    if len(view) < _PREFIX.size:
        raise SerializationError(f"truncated artifact: only {len(view)} bytes")
    magic, container, header_len = _PREFIX.unpack_from(view)
    if magic != MAGIC or container != CONTAINER_VERSION:
        npz = " — an npz archive: format versions 1-2, which this build no longer reads"
        raise SerializationError(
            f"not a version-{CONTAINER_VERSION} {MAGIC!r} container (starts {magic!r}, "
            f"version {container})" + (npz if magic[:2] == b"PK" else "")
        )
    offset = _PREFIX.size + header_len
    if offset > len(view):
        raise SerializationError(f"header length {header_len} overruns {len(view)} bytes")
    header = view[_PREFIX.size : offset].tobytes()
    layout = _LAYOUTS.get(header)
    if (
        layout is None
        or layout.size != len(view)
        or (expected_artifact is not None and layout.meta.get("artifact") != expected_artifact)
    ):
        # A header met for the first time, or a container its layout does
        # not fit: the full check, which raises any refusal.
        layout = _validate(header, offset, len(view), expected_artifact)
        _remember(_LAYOUTS, header, layout)
    return view, layout


def _validate(header: bytes, offset: int, size: int, expected_artifact: str | None) -> _Layout:
    """The full check of a header met for the first time, against the
    ``size`` bytes of its container (payloads start at ``offset``)."""
    try:
        meta = json.loads(str(header, "utf-8"))
    except (ValueError, RecursionError) as exc:
        raise SerializationError(f"malformed header: {exc}") from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("arrays"), list):
        raise SerializationError("header must be a JSON object with an 'arrays' list")
    expected = {"format": FORMAT, "version": FORMAT_VERSION, "artifact": expected_artifact}
    for field, want in expected.items():
        if want is not None and meta.get(field) != want:
            got = meta.get(field)
            raise SerializationError(f"archive {field} is {got!r}, expected {want!r}")
    arrays: Dict[str, Tuple[Tuple[int, ...], int, int]] = {}
    for entry in meta.pop("arrays"):
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and entry[0] not in arrays
            and isinstance(entry[1], list)
            and len(entry[1]) <= _MAX_RANK
            and all(type(dim) is int and dim >= 0 for dim in entry[1])
        ):
            raise SerializationError(f"malformed or duplicate directory entry {entry!r}")
        name, shape = entry
        count = math.prod(shape)
        arrays[name] = (tuple(shape), offset, count)
        offset += 4 * count
        if offset > size:
            raise SerializationError(
                f"truncated artifact: {name!r} {shape} ends at byte {offset} of {size}"
            )
    if offset != size:
        raise SerializationError(f"{size - offset} trailing bytes after the payloads")
    entries = tuple((name, *placed) for name, placed in arrays.items())
    ciphertext = None
    if tuple(name for name, *_ in entries) == ("a", "b"):
        a, b = entries[0][1], entries[1][1]
        if meta.get("artifact") == "lwe_sample" and len(a) == 1 and b == ():
            ciphertext = (None, a[0])
        elif meta.get("artifact") == "lwe_batch" and len(a) == 2 and b == a[:1]:
            ciphertext = a
    return _Layout(MappingProxyType(meta), entries, offset, ciphertext)


def _read_archive(path: PathLike, expected_artifact: str | None = None):
    """Read a whole file (or binary handle) and :func:`_decode` it."""
    if isinstance(path, (str, pathlib.Path)):
        return _decode(pathlib.Path(path).read_bytes(), expected_artifact)
    return _decode(path.read(), expected_artifact)


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


def _secret_key_archive(secret: TFHESecretKey):
    return (
        {"artifact": "secret_key", "params": asdict(secret.params)},
        {"lwe_key": secret.lwe_key.key, "tlwe_key": secret.tlwe_key.key},
    )


def save_secret_key(path: PathLike, secret: TFHESecretKey) -> None:
    """Write a client secret key (LWE + ring key bits; extracted key is derived)."""
    _write_archive(path, *_secret_key_archive(secret))


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


def load_secret_key(path: PathLike) -> TFHESecretKey:
    """Read a secret key; the extracted ring-LWE key is re-derived on load."""
    return _secret_key_from_archive(*_read_archive(path, "secret_key"))


def _cloud_key_archive(cloud: TFHECloudKey):
    if cloud.transform_spec is None:
        raise SerializationError(
            "cloud key was generated with an unregistered engine and cannot "
            "be serialized; regenerate it with a registry engine "
            "(see repro.tfhe.transform.available_engines)"
        )
    meta: Dict[str, Any] = {
        "artifact": "cloud_key",
        "params": asdict(cloud.params),
        "unroll_factor": cloud.unroll_factor,
        "transform": cloud.transform_spec.to_json(),
    }
    arrays: Dict[str, Any] = {"keyswitch": cloud.keyswitch_key.data}
    if cloud.unroll_factor == 1:
        if cloud.bootstrapping_key is None:
            raise SerializationError("cloud key carries no bootstrapping key material")
        arrays["bootstrapping_key"] = _Stacked(s.data for s in cloud.bootstrapping_key)
    else:
        if cloud.unrolled_groups is None:
            raise SerializationError("cloud key carries no unrolled key material")
        # Group boundaries are deterministic (group_indices(n, m)), so the
        # flat sample stack plus the unroll factor fully describe the key.
        arrays["unrolled_key"] = _Stacked(
            sample.data for group in cloud.unrolled_groups for sample in group.samples
        )
    return meta, arrays


def save_cloud_key(path: PathLike, cloud: TFHECloudKey) -> None:
    """Write a cloud key: coefficient-domain TGSW material + transform spec.

    Keys generated with an unregistered ad-hoc engine (``transform_spec`` is
    ``None``) cannot be rebuilt elsewhere and are rejected.
    """
    _write_archive(path, *_cloud_key_archive(cloud))


def _cloud_key_from_archive(meta, arrays) -> TFHECloudKey:
    params = _params_from_dict(meta.get("params"))
    k, big_n, ks = params.k, params.N, params.keyswitch
    keyswitch_key = KeySwitchKey(
        params=ks,
        data=_require(arrays, "keyswitch", (k * big_n, ks.length, ks.base, params.n + 1)),
        input_dimension=k * big_n,
        output_dimension=params.n,
    )
    try:  # n is pinned to real bytes by now, so the group list is bounded
        unroll_factor = int(meta["unroll_factor"])
        spec = TransformSpec.from_json(meta["transform"])
        groups = group_indices(params.n, unroll_factor)
    except _HEADER_ERRORS as exc:
        raise SerializationError(f"malformed cloud key header: {exc!r}") from exc
    tgsw_shape = ((k + 1) * params.l, k + 1, big_n)
    bootstrapping_key = None
    unrolled_groups = None
    if unroll_factor == 1:
        stacked = _require(arrays, "bootstrapping_key", (params.n, *tgsw_shape))
        bootstrapping_key = [TgswSample(data=row, params=params.tgsw) for row in stacked]
    else:
        counts = [(1 << len(indices)) - 1 for indices in groups]
        flat = iter(_require(arrays, "unrolled_key", (sum(counts), *tgsw_shape)))
        unrolled_groups = [
            RawUnrolledGroup(
                indices=list(indices),
                samples=[
                    TgswSample(data=next(flat), params=params.tgsw)
                    for _ in range(count)
                ],
            )
            for indices, count in zip(groups, counts)
        ]
    return TFHECloudKey(
        params=params,
        keyswitch_key=keyswitch_key,
        unroll_factor=unroll_factor,
        transform_spec=spec,
        bootstrapping_key=bootstrapping_key,
        unrolled_groups=unrolled_groups,
    )


def load_cloud_key(path: PathLike) -> TFHECloudKey:
    """Read a cloud key.  The spectrum cache is rebuilt lazily on first use."""
    return _cloud_key_from_archive(*_read_archive(path, "cloud_key"))


# --------------------------------------------------------------------------- #
# ciphertexts                                                                 #
# --------------------------------------------------------------------------- #


def _lwe_sample_archive(sample: LweSample):
    return {"artifact": "lwe_sample"}, {"a": sample.a, "b": np.asarray(sample.b)}


def save_lwe_sample(path: PathLike, sample: LweSample) -> None:
    """Write a single LWE ciphertext."""
    _write_archive(path, *_lwe_sample_archive(sample))


def _lwe_sample_from_archive(_meta, arrays) -> LweSample:
    a, b = _require(arrays, "a", (None,)), _require(arrays, "b", ())
    return LweSample(a=a, b=np.int32(b))


def load_lwe_sample(path: PathLike) -> LweSample:
    """Read a single LWE ciphertext."""
    return _lwe_sample_from_archive(*_read_archive(path, "lwe_sample"))


def _lwe_batch_archive(batch: LweBatch):
    return {"artifact": "lwe_batch"}, {"a": batch.a, "b": batch.b}


def save_lwe_batch(path: PathLike, batch: LweBatch) -> None:
    """Write a batch of LWE ciphertexts."""
    _write_archive(path, *_lwe_batch_archive(batch))


def _lwe_batch_from_archive(_meta, arrays) -> LweBatch:
    a = _require(arrays, "a", (None, None))
    return LweBatch(a=a, b=_require(arrays, "b", (a.shape[0],)))


def load_lwe_batch(path: PathLike) -> LweBatch:
    """Read a batch of LWE ciphertexts."""
    return _lwe_batch_from_archive(*_read_archive(path, "lwe_batch"))


def _radix_int_archive(value: RadixInt):
    return (
        {
            "artifact": "radix_int",
            "encoding": asdict(value.encoding),
            "bounds": list(value.bounds),
        },
        {
            "a": np.stack([digit.a for digit in value.digits]),
            "b": np.stack([np.asarray(digit.b) for digit in value.digits]),
        },
    )


def save_radix_int(path: PathLike, value: RadixInt) -> None:
    """Write a radix-decomposed integer ciphertext.

    The digit rows are stacked like an LWE batch; the header carries the
    digit encoding and the per-digit noise-growth bounds, both of which the
    server side needs to keep scheduling carry propagation correctly.
    """
    _write_archive(path, *_radix_int_archive(value))


def _radix_int_from_archive(meta, arrays) -> RadixInt:
    batch = _lwe_batch_from_archive(meta, arrays)
    try:
        encoding = DigitEncoding(
            message_bits=int(meta["encoding"]["message_bits"]),
            carry_bits=int(meta["encoding"]["carry_bits"]),
        )
        bounds = tuple(int(bound) for bound in meta["bounds"])
        return RadixInt(digits=batch.to_samples(), bounds=bounds, encoding=encoding)
    except _HEADER_ERRORS as exc:
        raise SerializationError(f"malformed radix metadata: {exc}") from exc


def load_radix_int(path: PathLike) -> RadixInt:
    """Read a radix-decomposed integer ciphertext."""
    return _radix_int_from_archive(*_read_archive(path, "radix_int"))


# --------------------------------------------------------------------------- #
# dispatching save/load                                                       #
# --------------------------------------------------------------------------- #

#: Type → its ``(meta, arrays)`` builder; ciphertexts first, they are the traffic.
_ARCHIVES = (
    (LweSample, _lwe_sample_archive),
    (LweBatch, _lwe_batch_archive),
    (RadixInt, _radix_int_archive),
    (TFHESecretKey, _secret_key_archive),
    (TFHECloudKey, _cloud_key_archive),
)

_LOADERS = {
    "secret_key": _secret_key_from_archive,
    "cloud_key": _cloud_key_from_archive,
    "lwe_sample": _lwe_sample_from_archive,
    "lwe_batch": _lwe_batch_from_archive,
    "radix_int": _radix_int_from_archive,
}


def _from_archive(meta: Dict[str, Any], arrays: Dict[str, np.ndarray]):
    artifact = meta.get("artifact")
    if not isinstance(artifact, str) or artifact not in _LOADERS:
        raise SerializationError(f"unknown artifact kind {artifact!r}")
    return _LOADERS[artifact](meta, arrays)


def _archive(obj):
    for cls, archive in _ARCHIVES:
        if isinstance(obj, cls):
            return archive(obj)
    raise SerializationError(f"cannot serialize objects of type {type(obj).__name__}")


def save(path: PathLike, obj) -> None:
    """Write any supported artifact, dispatching on its type."""
    _write_archive(path, *_archive(obj))


def load(path: PathLike):
    """Read any supported artifact, dispatching on the archive header."""
    return _from_archive(*_read_archive(path))


def to_pieces(obj) -> List[Any]:
    """Any supported artifact as the buffers :func:`to_bytes` would join:
    prefix + header, then the artifact's own arrays — nothing is copied."""
    return _encode(*_archive(obj))


def to_bytes(obj) -> bytes:
    """Serialize any supported artifact to an in-memory byte string.

    A sample whose ``a`` is an int32 vector and ``b`` an int32 scalar — every
    ciphertext the runtime produces — is the wire's traffic: its
    :func:`_head` is joined with its payload directly, without the general
    walk over the artifact's arrays (same bytes).
    """
    if type(obj) is LweSample:
        a, b = obj.a, obj.b
        if type(a) is np.ndarray and a.dtype == _INT32 and a.ndim == 1 and type(b) is np.int32:
            head = _head({"artifact": "lwe_sample"}, (("a", a.shape), ("b", ())))
            return b"".join((head, np.ascontiguousarray(a, dtype=_WIRE_INT32), _WIRE_B.pack(b)))
    return b"".join(to_pieces(obj))


def from_bytes(data: Buffer):
    """Deserialize an artifact from any buffer holding :func:`to_bytes` output.

    A ciphertext in its own directory layout is built from one copy of its
    payload: ``a`` (and a batch's ``b``) are views of that copy, never of
    ``data``.
    """
    view, layout = _layout(data)
    if layout.ciphertext is None:
        return _from_archive(layout.meta, _arrays(view, layout))
    rows, n = layout.ciphertext
    start = layout.arrays[0][2]
    if rows is None:
        payload = np.frombuffer(view, _WIRE_INT32, n + 1, start).astype(_INT32)
        return LweSample(a=payload[:n], b=payload[n])
    payload = np.frombuffer(view, _WIRE_INT32, rows * (n + 1), start).astype(_INT32)
    return LweBatch(a=payload[: rows * n].reshape(rows, n), b=payload[rows * n :])


def from_owned_buffer(data: Buffer):
    """:func:`from_bytes` for a caller that gives ``data`` up to the artifact.

    Same checks, same values; the arrays *view* ``data`` wherever its bytes
    already are an aligned native int32 array in writable memory, so nothing
    may write to or reuse the buffer afterwards.  For the one receiver whose
    buffer exists only to become the artifact (the server's ``register_key``);
    everyone else wants :func:`from_bytes`.
    """
    return _from_archive(*_decode(data, adopt=True))


# --------------------------------------------------------------------------- #
# circuit netlists (JSON)                                                     #
# --------------------------------------------------------------------------- #

#: Magic string of the circuit JSON family (distinct from the npz family so a
#: circuit file can never be mistaken for a key archive and vice versa).
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


def save_circuit(path: Union[str, pathlib.Path], circuit: Circuit) -> None:
    """Write a netlist as a versioned JSON file (pretty-printed for diffing)."""
    pathlib.Path(path).write_text(circuit_to_json(circuit, indent=2) + "\n")


def load_circuit(path: Union[str, pathlib.Path]) -> Circuit:
    """Read a netlist written by :func:`save_circuit`."""
    return circuit_from_json(pathlib.Path(path).read_text())
