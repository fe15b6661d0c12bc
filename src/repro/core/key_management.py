"""Key management for the user → TEE secure channel (§3, §4.6).

The paper: "users are encouraged to encrypt their data … they will send
their decryption key to the TEE along with the offloaded program." This
module implements how that key actually travels safely across an
untrusted host and platform operator:

1. attestation (see :mod:`repro.core.attestation`) convinces the user the
   device is genuine and runs their binary;
2. both sides derive a per-session *key-encryption key* (KEK) from the
   shared device secret, the TEE measurement, and the session nonce —
   so the KEK is bound to *this* TEE running *this* code in *this*
   session;
3. the user wraps the data key under the KEK (encrypt-then-MAC); only
   the attested TEE can unwrap it, and any tampering in transit is
   detected.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.core.exceptions import IceClaveError

KEK_BYTES = 16
WRAP_MAC_BYTES = 8


class KeyWrapError(IceClaveError):
    """Unwrapping failed: wrong session binding or tampered blob."""


def derive_kek(device_secret: bytes, measurement: bytes, nonce: bytes) -> bytes:
    """HKDF-style derivation of the session key-encryption key.

    Binding the measurement means a trojaned TEE (different code) derives
    a *different* KEK and cannot unwrap the user's data key even on a
    genuine device.
    """
    if len(device_secret) < 16:
        raise ValueError("device secret must be at least 128 bits")
    if len(nonce) < 8:
        raise ValueError("nonce must be at least 64 bits")
    prk = hmac.digest(device_secret, b"iceclave-kek" + measurement + nonce,
                      "blake2b")
    return prk[:KEK_BYTES]


@dataclass(frozen=True)
class WrappedKey:
    """An encrypt-then-MAC'd data key in transit."""

    ciphertext: bytes
    tag: bytes


def _stream(kek: bytes, nbytes: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < nbytes:
        out.extend(hashlib.blake2b(kek + counter.to_bytes(4, "big"),
                                   digest_size=32).digest())
        counter += 1
    return bytes(out[:nbytes])


def wrap_key(kek: bytes, data_key: bytes) -> WrappedKey:
    """User side: protect the data key under the session KEK."""
    if not data_key:
        raise ValueError("data key must be non-empty")
    pad = _stream(kek, len(data_key))
    ciphertext = bytes(a ^ b for a, b in zip(data_key, pad))
    tag = hmac.digest(kek, b"wrap" + ciphertext, "blake2b")[:WRAP_MAC_BYTES]
    return WrappedKey(ciphertext=ciphertext, tag=tag)


def unwrap_key(kek: bytes, wrapped: WrappedKey) -> bytes:
    """TEE side: verify and recover the data key."""
    expected = hmac.digest(kek, b"wrap" + wrapped.ciphertext,
                           "blake2b")[:WRAP_MAC_BYTES]
    if not hmac.compare_digest(expected, wrapped.tag):
        raise KeyWrapError("wrapped key failed authentication")
    pad = _stream(kek, len(wrapped.ciphertext))
    return bytes(a ^ b for a, b in zip(wrapped.ciphertext, pad))
