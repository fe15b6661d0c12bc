"""Tests for the user→TEE key-wrapping flow."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.key_management import (
    KeyWrapError,
    WrappedKey,
    derive_kek,
    unwrap_key,
    wrap_key,
)

SECRET = b"vendor-provisioned-secret!"
MEASUREMENT = b"m" * 16
NONCE = b"n" * 16


class TestKekDerivation:
    def test_deterministic(self):
        assert derive_kek(SECRET, MEASUREMENT, NONCE) == derive_kek(
            SECRET, MEASUREMENT, NONCE
        )

    def test_measurement_binding(self):
        """A trojaned TEE (different code) derives a different KEK."""
        good = derive_kek(SECRET, MEASUREMENT, NONCE)
        evil = derive_kek(SECRET, b"e" * 16, NONCE)
        assert good != evil

    def test_session_binding(self):
        assert derive_kek(SECRET, MEASUREMENT, b"session-1") != derive_kek(
            SECRET, MEASUREMENT, b"session-2"
        )

    def test_weak_inputs_rejected(self):
        with pytest.raises(ValueError):
            derive_kek(b"short", MEASUREMENT, NONCE)
        with pytest.raises(ValueError):
            derive_kek(SECRET, MEASUREMENT, b"tiny")


class TestKnownAnswers:
    """Pinned outputs: any rewrite of the KDF or the wrap must match them."""

    def test_derive_kek(self):
        assert derive_kek(SECRET, MEASUREMENT, NONCE).hex() == (
            "3d9c7be23ef1c1ae0c9db95a84365b5a"
        )

    def test_wrap_and_unwrap(self):
        kek = derive_kek(SECRET, MEASUREMENT, NONCE)
        wrapped = wrap_key(kek, b"users-data-key-16")
        assert wrapped.ciphertext.hex() == "f36a463bc4ddc4f12f5830e5172428e641"
        assert wrapped.tag.hex() == "89c599ef3a01b449"
        assert unwrap_key(kek, wrapped) == b"users-data-key-16"
        # 40 bytes spans two keystream blocks
        long = wrap_key(kek, bytes(range(40)))
        assert long.ciphertext.hex() == (
            "8618214ab3f5a697533017857e500bd867903ecb46401aea338974d34ba58c86"
            "94f242e42ea8352a"
        )
        assert long.tag.hex() == "eedaed6868f66cd2"
        assert unwrap_key(kek, long) == bytes(range(40))


class TestWrapUnwrap:
    def test_roundtrip(self):
        kek = derive_kek(SECRET, MEASUREMENT, NONCE)
        wrapped = wrap_key(kek, b"users-data-key-16")
        assert unwrap_key(kek, wrapped) == b"users-data-key-16"

    def test_ciphertext_hides_key(self):
        kek = derive_kek(SECRET, MEASUREMENT, NONCE)
        wrapped = wrap_key(kek, b"users-data-key-16")
        assert wrapped.ciphertext != b"users-data-key-16"

    def test_wrong_kek_cannot_unwrap(self):
        """The end-to-end property: a trojaned TEE never sees the key."""
        user_kek = derive_kek(SECRET, MEASUREMENT, NONCE)
        trojan_kek = derive_kek(SECRET, b"trojan-measuremen", NONCE)
        wrapped = wrap_key(user_kek, b"users-data-key-16")
        with pytest.raises(KeyWrapError):
            unwrap_key(trojan_kek, wrapped)

    def test_tampered_blob_detected(self):
        kek = derive_kek(SECRET, MEASUREMENT, NONCE)
        wrapped = wrap_key(kek, b"users-data-key-16")
        flipped = bytes([wrapped.ciphertext[0] ^ 1]) + wrapped.ciphertext[1:]
        with pytest.raises(KeyWrapError):
            unwrap_key(kek, WrappedKey(ciphertext=flipped, tag=wrapped.tag))

    def test_empty_key_rejected(self):
        kek = derive_kek(SECRET, MEASUREMENT, NONCE)
        with pytest.raises(ValueError):
            wrap_key(kek, b"")

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, data_key):
        kek = derive_kek(SECRET, MEASUREMENT, NONCE)
        assert unwrap_key(kek, wrap_key(kek, data_key)) == data_key
