"""AES-GCM authenticated encryption (NIST SP 800-38D), pure Python.

GHASH uses Shoup's byte-table method: a 256-entry table of ``b * H`` keyed
per-instance, plus a key-independent 256-entry reduction table, giving 16
table lookups per 128-bit block instead of a 128-iteration bit loop.  Once
a key has hashed enough ciphertext to pay for them, per-byte-position
tables of H take over: 16 lookups per block and no per-block reduction.
Records of 512 blocks and more also get the tables of H^2..H^4, built on
the key's first such record, and hash four blocks per 64-lookup step.

A key's hash key H = E_K(0^128) comes from one more lane of its first
keystream pass (see :meth:`AES.ctr_keystream_and_zero`), so GHASH and its
tables are built on the key's first seal or open.  Every per-key table is
a tuple of ints, and a set of tables a tuple of them: the cycle collector
stops tracking both, so full collections do not walk the tables of the
keys a process keeps.
"""

from __future__ import annotations

import hmac as _hmac

from repro.crypto.aes import AES
from repro.errors import CryptoError, IntegrityError

__all__ = ["AESGCM"]

_R = 0xE1 << 120  # GCM reduction polynomial in bit-reflected representation


def _mul_x(v: int) -> int:
    """Multiply by x in GF(2^128), bit-reflected GCM representation."""
    if v & 1:
        return (v >> 1) ^ _R
    return v >> 1


def _build_reduction_table() -> list[int]:
    """Table R8[b]: the reduction folded in when 8 low bits b are shifted out."""
    table = []
    for b in range(256):
        v = b
        for _ in range(8):
            v = _mul_x(v)
        table.append(v)
    return table


_R8 = _build_reduction_table()


def _shoup_table(h: int) -> tuple[int, ...]:
    """Shoup's table: entry ``b`` is H times byte value ``b`` at the top byte.

    Byte bit ``0x80 >> i`` stands for x^i, so the basis entries are
    x^7 * H (bit 0x01) up to H (bit 0x80).  The table is linear in ``b``:
    each basis entry doubles it, XORed into every entry built so far.
    """
    basis = [h]
    for _ in range(7):
        basis.append(_mul_x(basis[-1]))
    table = [0]
    for value in reversed(basis):
        table += [t ^ value for t in table]
    return tuple(table)


def _compile_digest_scalar():
    """Emit GHASH over Shoup's table as one generated function.

    ``_digest_scalar(table, chunks)`` multiplies each running value by H
    in one expression: the XOR of ``table[b_j] << 8 * (15 - j)`` over the
    value's big-endian bytes ``b_j`` is the unreduced 248-bit product,
    whose low 120 bits are the terms of degree 128 and up.  Shifted left
    by 8 they read as x^128 times a polynomial, and one fold with
    x^128 = x^7 + x^2 + x + 1 reduces them: in the bit-reflected
    representation, multiplying by x is a right shift.  The fold cannot
    carry past bit 0, since the shifted low part has 8 clear low bits
    and the largest fold shift is 7.
    """
    names = [f"b{i}" for i in range(16)]
    unpack = f"{', '.join(names)} = "
    mul = [
        "u = " + " ^ ".join(f"t[{b}] << {8 * (15 - j)}"
                            for j, b in enumerate(names[:-1]))
        + f" ^ t[{names[-1]}]",
        f"low = (u & {(1 << 120) - 1:#x}) << 8",
        "y = u >> 120 ^ low ^ low >> 1 ^ low >> 2 ^ low >> 7",
    ]
    lines = [
        "def _digest_scalar(t, chunks):",
        "    y = 0",
        "    for chunk in chunks:",
        "        size = len(chunk)",
        "        end = size - size % 16",
        "        for offset in range(0, end, 16):",
        "            " + unpack + "(y ^ int.from_bytes(",
        "                chunk[offset:offset + 16], 'big')).to_bytes(16, 'big')",
    ]
    lines += ["            " + stmt for stmt in mul]
    lines += [
        "        if end < size:",
        "            y ^= int.from_bytes(chunk[end:], 'big') << 8 * (16 - size + end)",
        "            " + unpack + "y.to_bytes(16, 'big')",
    ]
    lines += ["            " + stmt for stmt in mul]
    lines.append("    return y")
    ns: dict = {}
    exec(compile("\n".join(lines), "<ghash-scalar>", "exec"), ns)
    return ns["_digest_scalar"]


_digest_scalar = _compile_digest_scalar()


def _compile_digest_tables(blocks: int):
    """Emit GHASH over per-position tables, ``blocks`` blocks per step.

    ``_digest(tables, chunks)`` unpacks the ``16 * blocks`` tables (those
    of H^blocks first, H^1 last) into locals once.  Each step unpacks
    ``16 * blocks`` bytes (the running hash folded into the first block)
    and is the XOR of as many lookups in one expression; the single
    blocks left over, and a partial last block, use the last 16 tables
    (H^1).  With ``blocks == 1`` every block is such a step.
    """
    width = 16 * blocks
    tabs = [f"t{i}" for i in range(width)]
    group = [f"b{i}" for i in range(width)]
    single = group[:16]
    rest = f" + chunk[offset + 16:offset + {width}]" if blocks > 1 else ""
    lines = [
        "def _digest(tables, chunks):",
        f"    {', '.join(tabs)} = tables",
        "    y = 0",
        "    for chunk in chunks:",
        "        size = len(chunk)",
        f"        end = size - size % {width}",
        f"        for offset in range(0, end, {width}):",
        f"            {', '.join(group)} = (y ^ int.from_bytes(",
        "                chunk[offset:offset + 16], 'big')).to_bytes(16, 'big')"
        + rest,
        "            y = " + " ^ ".join(f"{t}[{b}]" for t, b in zip(tabs, group)),
        "        for offset in range(end, size, 16):",
        "            block = chunk[offset:offset + 16]",
        "            y ^= int.from_bytes(block, 'big') << 8 * (16 - len(block))",
        f"            {', '.join(single)} = y.to_bytes(16, 'big')",
        "            y = " + " ^ ".join(f"{t}[{b}]"
                                       for t, b in zip(tabs[-16:], single)),
        "    return y",
    ]
    ns: dict = {}
    exec(compile("\n".join(lines), f"<ghash-tables-{blocks}>", "exec"), ns)
    return ns["_digest"]


_digest_h1 = _compile_digest_tables(1)
_digest_aggregate = _compile_digest_tables(4)

# Records of at least this many ciphertext blocks (8 KiB) hash four
# blocks per Horner step over the tables of H^1..H^4; shorter ones take
# one block per step over the H^1 tables alone.  The aggregate's 48 extra
# tables cost ~630 KiB per key, which a few live keys carrying short
# records would keep in cache for nothing.
_AGGREGATE_BLOCKS = 512
_AGGREGATE_MIN_BYTES = 16 * (_AGGREGATE_BLOCKS - 1) + 1


def _position_tables(top: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The 16 per-byte-position tables of one power of H.

    ``top`` is Shoup's table of H^k, the products at byte position 0 (the
    most significant); each position below it folds one more byte shift
    into the products.  ``cols[j][b]`` is the fully reduced product of
    H^k with byte value ``b`` at big-endian position ``j``, so H^k times
    a block is the XOR of ``cols[j][block[j]]`` over its 16 bytes, with
    no per-block reduction.
    """
    r8 = _R8
    cols = [top]
    for _ in range(15):
        cols.append(tuple([(v >> 8) ^ r8[v & 0xFF] for v in cols[-1]]))
    return tuple(cols)


class _GHash:
    """GHASH universal hash keyed by H = E_K(0^128)."""

    # The per-position tables are not built until a key has hashed this
    # much ciphertext: construction costs the same as scalar-hashing tens
    # of KiB, so short-lived sessions that move a few records never pay
    # it.  Past the gate the H^1 tables serve every record, and the first
    # record of ``_AGGREGATE_BLOCKS`` blocks adds those of H^2..H^4.
    _BULK_BUILD_BYTES = 64 * 1024

    def __init__(self, h: int) -> None:
        self._h = h
        self._h1_tables = None
        self._aggregate_tables = None
        self._hashed_bytes = 0
        self._table = _shoup_table(h)

    def _mul_h(self, z: int) -> int:
        """Multiply an accumulated value by H using the byte tables."""
        table = self._table
        r8 = _R8
        w = 0
        # Bytes of z from most significant (low polynomial degree) are
        # processed last: Horner over x^8.
        for byte in z.to_bytes(16, "little"):
            w = (w >> 8) ^ r8[w & 0xFF] ^ table[byte]
        return w

    def _build_aggregate(self) -> tuple[tuple[int, ...], ...]:
        """The 64 tables of H^4, H^3, H^2, H^1 in that order.

        They are one aggregated Horner step over four blocks; the last
        16 are the H^1 tables, shared, not copied.
        """
        powers = [self._h1_tables]
        h_power = self._h
        for _ in range(3):
            h_power = self._mul_h(h_power)
            powers.append(_position_tables(_shoup_table(h_power)))
        tables = self._aggregate_tables = tuple(
            col for cols in reversed(powers) for col in cols)
        return tables

    def digest(self, aad: bytes, ciphertext: bytes) -> int:
        """GHASH(aad || pad || ciphertext || pad || len(aad) || len(ct))."""
        lengths = ((len(aad) * 8) << 64 | (len(ciphertext) * 8)).to_bytes(16, "big")
        chunks = (aad, ciphertext, lengths)
        tables = self._h1_tables
        if tables is None:
            self._hashed_bytes += len(ciphertext)
            if self._hashed_bytes < self._BULK_BUILD_BYTES:
                return _digest_scalar(self._table, chunks)
            tables = self._h1_tables = _position_tables(self._table)
        if len(ciphertext) < _AGGREGATE_MIN_BYTES:
            return _digest_h1(tables, chunks)
        return _digest_aggregate(
            self._aggregate_tables or self._build_aggregate(), chunks)


class AESGCM:
    """AES-GCM AEAD with 96-bit nonces and 128-bit tags.

    Args:
        key: AES key (16 or 32 bytes for the TLS suites in this library).
    """

    tag_length = 16
    nonce_length = 12

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)
        # Built with H on the first seal or open (see ``_keystream``).
        self._ghash: _GHash | None = None

    def _keystream(self, nonce: bytes, n: int) -> tuple[int, int]:
        """``E_K(J0)`` and the keystream for ``n`` bytes, as ints.

        J0 (counter 1) precedes the data counters (2, 3, ...), so one
        keystream call covers the tag mask and the data.  The key's first
        call also encrypts the zero block for H and builds GHASH.
        """
        nblocks = (n + 15) // 16 + 1
        if self._ghash is None:
            keystream, zero = self._aes.ctr_keystream_and_zero(nonce, 1, nblocks)
            self._ghash = _GHash(int.from_bytes(zero, "big"))
        else:
            keystream = self._aes.ctr_keystream(nonce, 1, nblocks)
        return (int.from_bytes(keystream[:16], "big"),
                int.from_bytes(keystream[16 : 16 + n], "big"))

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || 16-byte tag."""
        if len(nonce) != self.nonce_length:
            raise CryptoError("GCM nonce must be 12 bytes")
        n = len(plaintext)
        j0, stream = self._keystream(nonce, n)
        ciphertext = (int.from_bytes(plaintext, "big") ^ stream).to_bytes(n, "big")
        tag = self._ghash.digest(aad, ciphertext) ^ j0
        return ciphertext + tag.to_bytes(16, "big")

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and decrypt; raises IntegrityError on failure."""
        if len(nonce) != self.nonce_length:
            raise CryptoError("GCM nonce must be 12 bytes")
        if len(data) < self.tag_length:
            raise IntegrityError("ciphertext shorter than GCM tag")
        ciphertext, tag = data[: -self.tag_length], data[-self.tag_length :]
        n = len(ciphertext)
        j0, stream = self._keystream(nonce, n)
        expected = (self._ghash.digest(aad, ciphertext) ^ j0).to_bytes(16, "big")
        if not _hmac.compare_digest(tag, expected):
            raise IntegrityError("GCM tag mismatch")
        return (int.from_bytes(ciphertext, "big") ^ stream).to_bytes(n, "big")

    def seal_many(
        self, items: list[tuple[bytes, bytes, bytes]]
    ) -> list[bytes]:
        """Encrypt a batch of ``(nonce, plaintext, aad)`` records.

        Output is byte-identical to sequential :meth:`encrypt` calls;
        batching exists so a whole flight of records costs one
        Python-level call from the record plane.
        """
        encrypt = self.encrypt
        return [encrypt(nonce, pt, aad) for nonce, pt, aad in items]

    def open_many(
        self, items: list[tuple[bytes, bytes, bytes]]
    ) -> list[bytes]:
        """Decrypt a batch of ``(nonce, ciphertext||tag, aad)`` records."""
        decrypt = self.decrypt
        return [decrypt(nonce, data, aad) for nonce, data, aad in items]
