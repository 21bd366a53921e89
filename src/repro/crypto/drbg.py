"""HMAC-DRBG (NIST SP 800-90A) — the library's single source of randomness.

Every protocol party draws nonces, keys, and ephemeral secrets from an
injected DRBG instance. Seeding the DRBG makes entire handshakes — and whole
simulated networks — bit-for-bit reproducible, which the test suite and the
benchmark harness rely on. Production deployments would seed from
``secrets.token_bytes``; :func:`system_rng` does exactly that.
"""

from __future__ import annotations

import hmac
import secrets

__all__ = ["HmacDrbg", "system_rng"]


class HmacDrbg:
    """Deterministic random bit generator backed by HMAC-SHA256.

    Args:
        seed: entropy input. Two instances with equal seeds produce equal
            output streams.
        personalization: optional domain-separation string, so independent
            parties created from one master seed get independent streams.
    """

    def __init__(self, seed: bytes, personalization: bytes = b"") -> None:
        self._key = b"\x00" * 32
        self._value = b"\x01" * 32
        self._update(seed + personalization)

    def _update(self, provided: bytes = b"") -> None:
        self._key = hmac.digest(self._key, self._value + b"\x00" + provided, "sha256")
        self._value = hmac.digest(self._key, self._value, "sha256")
        if provided:
            self._key = hmac.digest(self._key, self._value + b"\x01" + provided, "sha256")
            self._value = hmac.digest(self._key, self._value, "sha256")

    def random_bytes(self, length: int) -> bytes:
        """Generate ``length`` pseudorandom bytes."""
        output = bytearray()
        while len(output) < length:
            self._value = hmac.digest(self._key, self._value, "sha256")
            output += self._value
        self._update()
        return bytes(output[:length])

    def randbits(self, bits: int) -> int:
        """Generate a non-negative integer of at most ``bits`` bits."""
        byte_count = (bits + 7) // 8
        value = int.from_bytes(self.random_bytes(byte_count), "big")
        return value >> (byte_count * 8 - bits)

    def randint_range(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] (rejection-sampled)."""
        if low > high:
            raise ValueError("empty range")
        span = high - low + 1
        bits = span.bit_length()
        while True:
            candidate = self.randbits(bits)
            if candidate < span:
                return low + candidate

    def choice(self, sequence):
        """Pick one element of a non-empty sequence."""
        return sequence[self.randint_range(0, len(sequence) - 1)]

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return self.randbits(53) / (1 << 53)

    def fork(self, label: bytes) -> "HmacDrbg":
        """Derive an independent child DRBG, keyed by ``label``."""
        return HmacDrbg(self.random_bytes(32), personalization=label)


def system_rng() -> HmacDrbg:
    """An HmacDrbg seeded from the operating system's entropy source."""
    return HmacDrbg(secrets.token_bytes(48), personalization=b"repro-system")
