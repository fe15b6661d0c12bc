"""Versioned, content-fingerprinted whole-stack snapshots.

A snapshot is a plain-primitive tree (``None``/``bool``/``int``/``float``/
``str``/``bytes``/``list``/``tuple``/``dict``) produced by a component's
``snapshot_state()`` and consumed by its ``restore_state()``. Keeping the
payload primitive does three things at once:

- the state is *inspectable* (no opaque object graphs inside a snapshot);
- it can be canonically encoded, so every snapshot carries a ``sha256``
  content fingerprint — the same discipline as
  :meth:`repro.platform.metrics.RunResult.fingerprint` — and a corrupted
  file is rejected at load time rather than restored into a subtly wrong
  simulator;
- restore cannot resurrect stale code: classes are rebuilt by the current
  constructors and only their *state* comes from the file.

Order-sensitive mappings (LRU ``OrderedDict``s, journals replayed in
insertion order) are snapshotted as item *lists* via :func:`dict_items` so
the fingerprint captures their iteration order, not just their contents.

Format compatibility policy: ``SNAPSHOT_VERSION`` bumps whenever any
participating ``snapshot_state()`` changes shape. Loaders reject other
versions outright (:class:`SnapshotVersionError`) — snapshots are
checkpoint/resume artifacts for a single code version, not an archival
format, so there is no migration machinery to get wrong.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

#: Bump on any change to a participating ``snapshot_state()`` payload shape.
SNAPSHOT_VERSION = 1

_FORMAT_MARKER = "repro-snapshot"


class SnapshotError(Exception):
    """Base class for snapshot save/load failures."""


class SnapshotCorruptError(SnapshotError):
    """The file does not decode, or its content fingerprint disagrees."""


class SnapshotVersionError(SnapshotError):
    """The file's format version is not the one this code writes."""


# -- canonical encoding --------------------------------------------------------


def _encode(value: Any, out: List[bytes]) -> None:
    """Append a type-tagged, unambiguous encoding of ``value`` to ``out``.

    Only snapshot-legal primitives are accepted; anything else raises
    ``TypeError`` *at save time*, which is what keeps object graphs out of
    the format. ``bool`` is checked before ``int`` (it is a subclass), and
    floats go through ``repr`` (shortest round-trip text, stable across
    supported CPython versions).

    The exact types that dominate state trees are dispatched first, on
    ``type(value) is ...``; subclasses and the rarer primitives fall through
    to the ``isinstance`` chain, which encodes them as before.
    """
    kind = type(value)
    if kind is int:
        out.append(b"I%d;" % value)
    elif kind is tuple or kind is list:
        out.append((b"U%d[" if kind is tuple else b"L%d[") % len(value))
        for item in value:
            if type(item) is int:  # most items are ints: skip the call
                out.append(b"I%d;" % item)
            else:
                _encode(item, out)
        out.append(b"]")
    elif kind is bytes:
        out.append(b"B%d:" % len(value))
        out.append(value)
    elif kind is str:
        data = value.encode("utf-8")
        out.append(b"S%d:" % len(data))
        out.append(data)
    elif kind is dict:
        _encode_dict(value, out)
    elif value is None:
        out.append(b"N;")
    elif value is True:
        out.append(b"T;")
    elif value is False:
        out.append(b"F;")
    elif isinstance(value, int):
        out.append(b"I%d;" % value)
    elif isinstance(value, float):
        out.append(b"D" + repr(value).encode("ascii") + b";")
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"S%d:" % len(data))
        out.append(data)
    elif isinstance(value, bytes):
        out.append(b"B%d:" % len(value))
        out.append(value)
    elif isinstance(value, (list, tuple)):
        out.append(b"L%d[" % len(value) if isinstance(value, list) else b"U%d[" % len(value))
        for item in value:
            _encode(item, out)
        out.append(b"]")
    elif isinstance(value, dict):
        _encode_dict(value, out)
    else:
        raise TypeError(
            f"snapshot state must be primitive; got {type(value).__name__!r}"
        )


def _encode_dict(value: Dict[Any, Any], out: List[bytes]) -> None:
    """Mappings encode as their (key, value) byte pairs in sorted order."""
    pairs = []
    for key, val in value.items():
        key_parts: List[bytes] = []
        _encode(key, key_parts)
        val_parts: List[bytes] = []
        _encode(val, val_parts)
        pairs.append((b"".join(key_parts), b"".join(val_parts)))
    pairs.sort()
    out.append(b"M%d{" % len(pairs))
    for key_bytes, val_bytes in pairs:
        out.append(key_bytes)
        out.append(val_bytes)
    out.append(b"}")


def canonical_fingerprint(value: Any) -> str:
    """sha256 hex digest of the canonical encoding of ``value``."""
    parts: List[bytes] = []
    _encode(value, parts)
    return hashlib.sha256(b"".join(parts)).hexdigest()


def dict_items(mapping: Dict[Any, Any]) -> List[Tuple[Any, Any]]:
    """Snapshot an order-sensitive mapping as an insertion-ordered item list."""
    return [(key, value) for key, value in mapping.items()]


def items_dict(items: Iterable[Iterable[Any]]) -> Dict[Any, Any]:
    """Rebuild a mapping from :func:`dict_items` output, preserving order."""
    rebuilt: Dict[Any, Any] = {}
    for key, value in items:
        rebuilt[key] = value
    return rebuilt


# -- the snapshot object -------------------------------------------------------


@dataclass
class Snapshot:
    """One versioned, fingerprinted state capture.

    ``kind`` names the producer (e.g. ``"chaos-runner"``), ``meta`` carries
    the constructor arguments needed to rebuild it, and ``state`` is the
    primitive tree from ``snapshot_state()``.
    """

    kind: str
    meta: Dict[str, Any] = field(default_factory=dict)
    state: Dict[str, Any] = field(default_factory=dict)
    version: int = SNAPSHOT_VERSION

    def fingerprint(self) -> str:
        """Content fingerprint over format marker, version, kind, meta, state."""
        return canonical_fingerprint(
            [_FORMAT_MARKER, self.version, self.kind, self.meta, self.state]
        )


def save_snapshot(snapshot: Snapshot, path: pathlib.Path) -> str:
    """Atomically write ``snapshot`` (tmp + rename); returns the fingerprint.

    The fingerprint is computed over the *state being written* and stored in
    the file, so :func:`load_snapshot` can detect any post-write corruption.
    """
    path = pathlib.Path(path)
    fingerprint = snapshot.fingerprint()  # also validates primitives-only
    payload = {
        "format": _FORMAT_MARKER,
        "version": snapshot.version,
        "kind": snapshot.kind,
        "meta": snapshot.meta,
        "state": snapshot.state,
        "fingerprint": fingerprint,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return fingerprint


def load_snapshot(path: pathlib.Path, expect_kind: str = "") -> Snapshot:
    """Load and verify a snapshot file.

    Raises :class:`SnapshotCorruptError` when the bytes do not decode or the
    recomputed content fingerprint disagrees with the stored one, and
    :class:`SnapshotVersionError` for any other format version.
    """
    path = pathlib.Path(path)
    raw = path.read_bytes()
    try:
        payload = pickle.loads(raw)
    except Exception as exc:  # repro: allow[sec-broad-except] -- corrupt pickle bytes raise arbitrary decode errors; mapped to the structured SnapshotCorruptError
        raise SnapshotCorruptError(f"{path}: undecodable snapshot: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT_MARKER:
        raise SnapshotCorruptError(f"{path}: not a repro snapshot file")
    version = payload.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"{path}: snapshot version {version!r} != {SNAPSHOT_VERSION}"
        )
    snapshot = Snapshot(
        kind=payload.get("kind", ""),
        meta=payload.get("meta", {}),
        state=payload.get("state", {}),
        version=version,
    )
    if expect_kind and snapshot.kind != expect_kind:
        raise SnapshotCorruptError(
            f"{path}: snapshot kind {snapshot.kind!r}, expected {expect_kind!r}"
        )
    try:
        recomputed = snapshot.fingerprint()
    except TypeError as exc:
        raise SnapshotCorruptError(f"{path}: non-primitive state: {exc}") from exc
    stored = payload.get("fingerprint")
    if recomputed != stored:
        raise SnapshotCorruptError(
            f"{path}: content fingerprint mismatch "
            f"(stored {str(stored)[:12]}…, recomputed {recomputed[:12]}…)"
        )
    return snapshot


__all__ = [
    "SNAPSHOT_VERSION",
    "Snapshot",
    "SnapshotCorruptError",
    "SnapshotError",
    "SnapshotVersionError",
    "canonical_fingerprint",
    "dict_items",
    "items_dict",
    "load_snapshot",
    "save_snapshot",
]
