"""Wire protocol for the attested offload service.

Everything that crosses the host↔service boundary is defined here: the
typed status taxonomy, the request/reply records with a canonical byte
encoding (what the secure channel seals), and the attestation handshake
messages. The encoding is deliberately primitive — length-prefixed fields,
big-endian integers — so two runs of the same campaign serialize every
message byte-identically and the lab's fingerprints stay stable.

Error taxonomy (see docs/SERVING.md):

- ``RETRYABLE`` statuses carry a ``retry_after_s`` hint; a well-behaved
  client backs off for the hint (bounded by its own deadline) instead of
  hammering a throttled or degraded device;
- terminal statuses (``READ_ERROR``, ``ACCESS_DENIED``, ``AUTH_FAILED``…)
  mean retrying the same request cannot help.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.host.nvme import NvmeStatus


class WireStatus(enum.Enum):
    """Typed wire-level outcome of one service request."""

    OK = "ok"
    THROTTLED = "throttled"  # admission shed: token bucket / queue depth
    DEGRADED_READONLY = "degraded_readonly"  # writes refused, reads still served
    FAILSAFE = "failsafe"  # device failsafe: offloads and reads refused
    TIMEOUT = "timeout"  # command aborted by the sim-time timeout
    READ_ERROR = "read_error"  # unrecovered media error
    WRITE_ERROR = "write_error"  # write fault (integrity window, media)
    ACCESS_DENIED = "access_denied"  # ID-bit / permission refusal
    RESOURCE_EXHAUSTED = "resource_exhausted"  # TEE IDs / DRAM exhausted
    AUTH_FAILED = "auth_failed"  # envelope MAC or sequence check failed
    UNKNOWN_SESSION = "unknown_session"  # no established session for the id
    BAD_REQUEST = "bad_request"  # undecodable or malformed request
    REPLICA_EXHAUSTED = "replica_exhausted"  # every fleet replica attempt failed
    UNDER_REPLICATED = "under_replicated"  # write quorum missed; rebuild pending
    INTERNAL = "internal"  # anything the mapping does not name


# encoded status field -> status, for Reply.decode
_STATUS_BY_VALUE: Dict[bytes, WireStatus] = {
    status.value.encode("ascii"): status for status in WireStatus
}

# statuses a client may retry without risking duplicated side effects
RETRYABLE: frozenset = frozenset(
    {
        WireStatus.THROTTLED,
        WireStatus.DEGRADED_READONLY,
        WireStatus.FAILSAFE,
        WireStatus.TIMEOUT,
        WireStatus.RESOURCE_EXHAUSTED,
        WireStatus.REPLICA_EXHAUSTED,
        WireStatus.UNDER_REPLICATED,
    }
)

# per-status backoff hints (sim-seconds); the service stamps these into
# replies so clients need no local policy table
DEFAULT_RETRY_AFTER_S: Dict[WireStatus, float] = {
    WireStatus.THROTTLED: 200e-6,
    WireStatus.DEGRADED_READONLY: 800e-6,
    WireStatus.FAILSAFE: 1500e-6,
    WireStatus.TIMEOUT: 400e-6,
    WireStatus.RESOURCE_EXHAUSTED: 600e-6,
    # fleet refusals: breakers reopen and rebuild restores replicas on the
    # sub-millisecond scale, so the hints sit above one breaker probe window
    WireStatus.REPLICA_EXHAUSTED: 900e-6,
    WireStatus.UNDER_REPLICATED: 1200e-6,
}


def retry_after_for(status: WireStatus) -> float:
    """The backoff hint for ``status`` (0.0 for terminal statuses)."""
    return DEFAULT_RETRY_AFTER_S.get(status, 0.0)


_NVME_TO_WIRE: Dict[NvmeStatus, WireStatus] = {
    NvmeStatus.SUCCESS: WireStatus.OK,
    NvmeStatus.COMMAND_INTERRUPTED: WireStatus.THROTTLED,
    NvmeStatus.COMMAND_ABORTED: WireStatus.TIMEOUT,
    NvmeStatus.UNRECOVERED_READ_ERROR: WireStatus.READ_ERROR,
    NvmeStatus.WRITE_FAULT: WireStatus.WRITE_ERROR,
    NvmeStatus.ACCESS_DENIED: WireStatus.ACCESS_DENIED,
    NvmeStatus.LBA_OUT_OF_RANGE: WireStatus.BAD_REQUEST,
    NvmeStatus.INTERNAL_ERROR: WireStatus.INTERNAL,
}


def status_for_nvme(status: NvmeStatus) -> WireStatus:
    """Map an NVMe completion status onto the wire taxonomy."""
    return _NVME_TO_WIRE.get(status, WireStatus.INTERNAL)


_FLEET_TO_WIRE: Dict[str, WireStatus] = {
    "replica_exhausted": WireStatus.REPLICA_EXHAUSTED,
    "under_replicated": WireStatus.UNDER_REPLICATED,
    "read_error": WireStatus.READ_ERROR,
}


def status_for_fleet(kind: str) -> WireStatus:
    """Map a fleet refusal kind onto the wire taxonomy.

    ``replica_exhausted``/``under_replicated`` are retryable — breakers
    reopen and background rebuild restores lost replicas — while
    ``read_error`` (no surviving replica) is terminal.
    """
    return _FLEET_TO_WIRE.get(kind, WireStatus.INTERNAL)


def status_for_mode(mode: str) -> WireStatus:
    """Map a degradation-ladder service mode onto the refusal status."""
    if mode == "degraded_readonly":
        return WireStatus.DEGRADED_READONLY
    if mode == "failsafe":
        return WireStatus.FAILSAFE
    return WireStatus.INTERNAL


# -- canonical field encoding -------------------------------------------------


def _pack(*fields: bytes) -> bytes:
    return b"".join([len(f).to_bytes(4, "big") + f for f in fields])


def _unpack(blob: bytes, count: int) -> Tuple[bytes, ...]:
    fields = []
    offset = 0
    size = len(blob)
    for _ in range(count):
        if offset + 4 > size:
            raise ValueError("truncated wire message")
        n = int.from_bytes(blob[offset:offset + 4], "big")
        offset += 4
        if offset + n > size:
            raise ValueError("truncated wire message field")
        fields.append(blob[offset:offset + n])
        offset += n
    if offset != size:
        raise ValueError("trailing bytes after wire message")
    return tuple(fields)


OPS = ("read", "write", "offload")


@dataclass(frozen=True)
class Request:
    """One client request: an op class over declared logical pages."""

    op: str  # "read" | "write" | "offload"
    lpas: Tuple[int, ...]
    payload: bytes = b""

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown op {self.op!r} (expected one of {OPS})")
        if not self.lpas:
            raise ValueError("a request must declare at least one LPA")

    def encode(self) -> bytes:
        lpa_blob = b"".join([lpa.to_bytes(8, "big") for lpa in self.lpas])
        return _pack(self.op.encode("ascii"), lpa_blob, self.payload)

    @classmethod
    def decode(cls, blob: bytes) -> "Request":
        op, lpa_blob, payload = _unpack(blob, 3)
        if len(lpa_blob) % 8:
            raise ValueError("LPA field is not a multiple of 8 bytes")
        lpas = struct.unpack(f">{len(lpa_blob) // 8}Q", lpa_blob)
        return cls(op=op.decode("ascii"), lpas=lpas, payload=payload)


@dataclass(frozen=True)
class Reply:
    """The service's typed answer to one request."""

    status: WireStatus
    retry_after_s: float = 0.0
    payload: bytes = b""
    mode: str = "normal"  # device service mode at reply time

    @property
    def ok(self) -> bool:
        return self.status is WireStatus.OK

    @property
    def retryable(self) -> bool:
        return self.status in RETRYABLE

    def encode(self) -> bytes:
        return _pack(
            self.status.value.encode("ascii"),
            repr(self.retry_after_s).encode("ascii"),
            self.payload,
            self.mode.encode("ascii"),
        )

    @classmethod
    def decode(cls, blob: bytes) -> "Reply":
        status, retry_after, payload, mode = _unpack(blob, 4)
        try:
            wire_status = _STATUS_BY_VALUE[status]
        except KeyError:
            raise ValueError(f"unknown wire status {status!r}") from None
        return cls(
            status=wire_status,
            retry_after_s=float(retry_after.decode("ascii")),
            payload=payload,
            mode=mode.decode("ascii"),
        )


# -- handshake messages -------------------------------------------------------


@dataclass(frozen=True)
class AttestChallenge:
    """Client → server: attest yourself against this fresh nonce."""

    client_id: int
    nonce: bytes


@dataclass(frozen=True)
class AttestGrant:
    """Server → client: the quote answering the challenge, plus the
    session id under which sealed requests will be accepted."""

    session_id: int
    quote: object  # repro.core.attestation.Quote (opaque at the wire layer)


@dataclass(frozen=True)
class SealedEnvelope:
    """An encrypted, authenticated wire message on an established session.

    ``channel`` is the direction label (``b"c2s"`` / ``b"s2c"``) and ``seq``
    the per-direction monotonic sequence number; both are bound into the
    MAC so a recorded envelope cannot be replayed or reflected.
    """

    session_id: int
    channel: bytes
    seq: int
    ciphertext: bytes
    tag: bytes


__all__ = [
    "AttestChallenge",
    "AttestGrant",
    "DEFAULT_RETRY_AFTER_S",
    "OPS",
    "Reply",
    "Request",
    "RETRYABLE",
    "SealedEnvelope",
    "WireStatus",
    "retry_after_for",
    "status_for_fleet",
    "status_for_mode",
    "status_for_nvme",
]
