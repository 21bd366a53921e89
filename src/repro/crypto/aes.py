"""AES block cipher (FIPS 197), encryption direction, pure Python.

Only the forward (encryption) transform is implemented because every mode
used by this library (CTR inside GCM) needs only block encryption. The
scalar reference uses the classic four T-tables; CTR keystreams come from
the vectorised engines in :mod:`repro.crypto.bitsliced`.

Tables are derived programmatically from GF(2^8) arithmetic rather than
hard-coded, so a typo cannot silently corrupt the S-box; correctness is
cross-checked against an independent implementation in the test suite.
"""

from __future__ import annotations

import struct

from repro.errors import CryptoError

__all__ = ["AES"]


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial 0x11B."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


def _build_sbox() -> list[int]:
    """Construct the AES S-box from field inversion + affine transform."""
    # exp/log tables over generator 3.
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    exp[255] = exp[0]

    def inverse(a: int) -> int:
        if a == 0:
            return 0
        return exp[255 - log[a]]

    def affine(b: int) -> int:
        result = 0x63
        for shift in range(5):
            rotated = ((b << shift) | (b >> (8 - shift))) & 0xFF
            result ^= rotated
        return result

    return [affine(inverse(i)) for i in range(256)]


_SBOX = _build_sbox()
# The S-box as a ``bytes.translate`` table: SubBytes of a whole byte string.
_SBOX_BYTES = bytes(_SBOX)

# T-tables: _T0[x] packs the MixColumns contribution of S-box output S at
# column position 0 as a big-endian 32-bit word (2S, S, S, 3S).
_T0 = [0] * 256
_T1 = [0] * 256
_T2 = [0] * 256
_T3 = [0] * 256
for _i in range(256):
    _s = _SBOX[_i]
    _s2 = _gf_mul(_s, 2)
    _s3 = _s2 ^ _s
    _T0[_i] = (_s2 << 24) | (_s << 16) | (_s << 8) | _s3
    _T1[_i] = (_s3 << 24) | (_s2 << 16) | (_s << 8) | _s
    _T2[_i] = (_s << 24) | (_s3 << 16) | (_s2 << 8) | _s
    _T3[_i] = (_s << 24) | (_s << 16) | (_s3 << 8) | _s2

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8]


class AES:
    """AES-128/192/256 block encryption.

    Args:
        key: 16, 24, or 32 bytes.

    Raises:
        CryptoError: if the key length is not a valid AES key size.
    """

    block_size = 16

    # Below this many counter blocks the byte-sliced engine runs, from it
    # on the bitsliced one.  The byte-sliced engine does ~30 whole-state
    # operations per round against ~270 plane operations, but its state
    # is eight times wider; the two cost the same at about 120 blocks
    # (measured crossover).
    _BITSLICE_THRESHOLD = 120

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"invalid AES key length: {len(key)}")
        self._round_keys = self._expand_key(key)
        self._rounds = len(key) // 4 + 6
        self._bitsliced = None
        self._bytesliced = None

    @staticmethod
    def _expand_key(key: bytes) -> tuple[int, ...]:
        """FIPS 197 key schedule; returns round keys as 32-bit words.

        SubWord is one ``bytes.translate`` of the word's four bytes, and
        RotWord rotates the substituted word (the two commute).  The
        words are a tuple, which the cycle collector stops tracking.
        """
        nk = len(key) // 4
        words = list(struct.unpack(f">{nk}I", key))
        sbox = _SBOX_BYTES
        from_bytes = int.from_bytes
        for i in range(nk, 4 * (nk + 7)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = from_bytes(temp.to_bytes(4, "big").translate(sbox), "big")
                temp = ((temp << 8) & 0xFFFFFFFF | temp >> 24) ^ _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = from_bytes(temp.to_bytes(4, "big").translate(sbox), "big")
            words.append(words[i - nk] ^ temp)
        return tuple(words)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != 16:
            raise CryptoError("AES block must be exactly 16 bytes")
        # Any block is a counter block: a 12-byte prefix and a 32-bit word.
        return self._ctr_scalar(block[:12], int.from_bytes(block[12:], "big"), 1)

    def ctr_keystream(self, prefix: bytes, initial_counter: int,
                      nblocks: int) -> bytes:
        """Keystream of blocks ``E_K(prefix || BE32(initial_counter + j))``.

        The counter wraps modulo 2^32 as in NIST SP 800-38D.  Every
        request runs one pass of a vectorised engine over all its blocks:
        the byte-sliced one below ``_BITSLICE_THRESHOLD`` blocks, the
        bitsliced one from there on (see :mod:`repro.crypto.bitsliced`).
        """
        if len(prefix) != 12:
            raise CryptoError("CTR prefix must be 12 bytes")
        if nblocks <= 0:
            return b""
        if nblocks >= self._BITSLICE_THRESHOLD:
            engine = self._bitsliced
            if engine is None:
                from repro.crypto.bitsliced import BitslicedCtr

                engine = BitslicedCtr(self._round_keys, self._rounds)
                self._bitsliced = engine
            return engine.keystream(prefix, initial_counter, nblocks)
        return self._byteslice_engine().keystream(prefix, initial_counter, nblocks)

    def ctr_keystream_and_zero(self, prefix: bytes, initial_counter: int,
                               nblocks: int) -> tuple[bytes, bytes]:
        """:meth:`ctr_keystream` and ``E_K(0^128)``, in one pass if it can.

        Below ``_BITSLICE_THRESHOLD`` blocks the zero block rides in lane
        ``nblocks`` of the byte-sliced pass: a spare lane of the padded
        layout, or the first of the next one.  A longer request keeps a
        separate scalar block for it.
        """
        if len(prefix) != 12:
            raise CryptoError("CTR prefix must be 12 bytes")
        if nblocks >= self._BITSLICE_THRESHOLD:
            return (self.ctr_keystream(prefix, initial_counter, nblocks),
                    self.encrypt_block(bytes(16)))
        return self._byteslice_engine().keystream_and_zero(
            prefix, initial_counter, nblocks)

    def _byteslice_engine(self):
        """The key's byte-sliced engine, built on first use."""
        engine = self._bytesliced
        if engine is None:
            from repro.crypto.bitsliced import ByteslicedCtr

            engine = ByteslicedCtr(self._round_keys, self._rounds)
            self._bytesliced = engine
        return engine

    def _ctr_scalar(self, prefix: bytes, initial_counter: int,
                    nblocks: int) -> bytes:
        """The T-table rounds over each counter block in one loop.

        The one scalar reference: it serves :meth:`encrypt_block` and
        checks the vectorised engines.  Only the counter word differs
        between blocks, so round 1's lookups on the three prefix words
        are done once per call.
        """
        rk = self._round_keys
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        sbox = _SBOX
        last = 4 * self._rounds
        middle = range(8, last, 4)
        w0 = int.from_bytes(prefix[0:4], "big") ^ rk[0]
        w1 = int.from_bytes(prefix[4:8], "big") ^ rk[1]
        w2 = int.from_bytes(prefix[8:12], "big") ^ rk[2]
        # Round 1 minus its lookups on the counter word (column 3 of the
        # input feeds byte 3 of n0, byte 2 of n1, byte 1 of n2, byte 0 of n3).
        p0 = t0[w0 >> 24] ^ t1[(w1 >> 16) & 0xFF] ^ t2[(w2 >> 8) & 0xFF] ^ rk[4]
        p1 = t0[w1 >> 24] ^ t1[(w2 >> 16) & 0xFF] ^ t3[w0 & 0xFF] ^ rk[5]
        p2 = t0[w2 >> 24] ^ t2[(w0 >> 8) & 0xFF] ^ t3[w1 & 0xFF] ^ rk[6]
        p3 = t1[(w0 >> 16) & 0xFF] ^ t2[(w1 >> 8) & 0xFF] ^ t3[w2 & 0xFF] ^ rk[7]
        words = []
        for j in range(nblocks):
            c3 = ((initial_counter + j) & 0xFFFFFFFF) ^ rk[3]
            c0 = p0 ^ t3[c3 & 0xFF]
            c1 = p1 ^ t2[(c3 >> 8) & 0xFF]
            c2 = p2 ^ t1[(c3 >> 16) & 0xFF]
            c3 = p3 ^ t0[c3 >> 24]
            for base in middle:
                c0, c1, c2, c3 = (
                    t0[c0 >> 24] ^ t1[(c1 >> 16) & 0xFF]
                    ^ t2[(c2 >> 8) & 0xFF] ^ t3[c3 & 0xFF] ^ rk[base],
                    t0[c1 >> 24] ^ t1[(c2 >> 16) & 0xFF]
                    ^ t2[(c3 >> 8) & 0xFF] ^ t3[c0 & 0xFF] ^ rk[base + 1],
                    t0[c2 >> 24] ^ t1[(c3 >> 16) & 0xFF]
                    ^ t2[(c0 >> 8) & 0xFF] ^ t3[c1 & 0xFF] ^ rk[base + 2],
                    t0[c3 >> 24] ^ t1[(c0 >> 16) & 0xFF]
                    ^ t2[(c1 >> 8) & 0xFF] ^ t3[c2 & 0xFF] ^ rk[base + 3],
                )
            words += (
                ((sbox[c0 >> 24] << 24) | (sbox[(c1 >> 16) & 0xFF] << 16)
                 | (sbox[(c2 >> 8) & 0xFF] << 8) | sbox[c3 & 0xFF]) ^ rk[last],
                ((sbox[c1 >> 24] << 24) | (sbox[(c2 >> 16) & 0xFF] << 16)
                 | (sbox[(c3 >> 8) & 0xFF] << 8) | sbox[c0 & 0xFF]) ^ rk[last + 1],
                ((sbox[c2 >> 24] << 24) | (sbox[(c3 >> 16) & 0xFF] << 16)
                 | (sbox[(c0 >> 8) & 0xFF] << 8) | sbox[c1 & 0xFF]) ^ rk[last + 2],
                ((sbox[c3 >> 24] << 24) | (sbox[(c0 >> 16) & 0xFF] << 16)
                 | (sbox[(c1 >> 8) & 0xFF] << 8) | sbox[c2 & 0xFF]) ^ rk[last + 3],
            )
        return struct.pack(f">{len(words)}I", *words)
