"""TLS 1.2 key schedule (RFC 5246 §8): master secret and key block."""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.kdf import prf
from repro.errors import CryptoError, HandshakeError
from repro.tls.ciphersuites import CipherSuite

__all__ = [
    "KeyBlock",
    "agree_pre_master",
    "derive_master_secret",
    "derive_key_block",
    "finished_verify_data",
]

MASTER_SECRET_LENGTH = 48
VERIFY_DATA_LENGTH = 12


@dataclass(frozen=True)
class KeyBlock:
    """Directional record-protection keys derived from the master secret."""

    client_write_key: bytes
    server_write_key: bytes
    client_write_iv: bytes
    server_write_iv: bytes


def agree_pre_master(private, peer_share) -> bytes:
    """The pre-master secret ``private.exchange(peer_share)`` agrees on.

    A share the exchange rejects (an X25519 share of the wrong length or
    one giving the all-zero secret, RFC 7748 §6.1; a DHE value outside
    2..p-2) is the peer's illegal parameter, answered with that alert.
    """
    try:
        return private.exchange(peer_share)
    except CryptoError as exc:
        raise HandshakeError(str(exc), alert="illegal_parameter") from exc


def derive_master_secret(
    pre_master_secret: bytes, client_random: bytes, server_random: bytes
) -> bytes:
    """master_secret = PRF(pms, "master secret", client_random + server_random)."""
    return prf(
        pre_master_secret,
        b"master secret",
        client_random + server_random,
        MASTER_SECRET_LENGTH,
    )


def derive_key_block(
    master_secret: bytes,
    client_random: bytes,
    server_random: bytes,
    suite: CipherSuite,
) -> KeyBlock:
    """key_block = PRF(master, "key expansion", server_random + client_random).

    For AEAD suites the block is two write keys followed by two fixed IVs
    (the 4-byte implicit nonce salts).
    """
    total = 2 * suite.key_length + 2 * suite.fixed_iv_length
    block = prf(master_secret, b"key expansion", server_random + client_random, total)
    offset = 0
    client_write_key = block[offset : offset + suite.key_length]
    offset += suite.key_length
    server_write_key = block[offset : offset + suite.key_length]
    offset += suite.key_length
    client_write_iv = block[offset : offset + suite.fixed_iv_length]
    offset += suite.fixed_iv_length
    server_write_iv = block[offset : offset + suite.fixed_iv_length]
    return KeyBlock(
        client_write_key=client_write_key,
        server_write_key=server_write_key,
        client_write_iv=client_write_iv,
        server_write_iv=server_write_iv,
    )


def finished_verify_data(
    master_secret: bytes, transcript_hash: bytes, is_client: bool
) -> bytes:
    """verify_data = PRF(master, "client/server finished", Hash(transcript))."""
    label = b"client finished" if is_client else b"server finished"
    return prf(master_secret, label, transcript_hash, VERIFY_DATA_LENGTH)
