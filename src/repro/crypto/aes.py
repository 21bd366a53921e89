"""AES block cipher (FIPS 197), encryption direction, pure Python.

Only the forward (encryption) transform is implemented because every mode
used by this library (CTR inside GCM) needs only block encryption. The
implementation uses the classic four T-tables so that bulk encryption is
tolerably fast in pure Python.

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

    # Below this many counter blocks the scalar T-table loop wins; from
    # it on the bitsliced big-int circuit, whose cost hardly grows with
    # the block count up to a few dozen blocks, is cheaper (measured
    # crossover: about 8 blocks).
    _BITSLICE_THRESHOLD = 8

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"invalid AES key length: {len(key)}")
        self._round_keys = self._expand_key(key)
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._bitsliced = None

    @staticmethod
    def _expand_key(key: bytes) -> list[int]:
        """FIPS 197 key schedule; returns round keys as 32-bit words."""
        nk = len(key) // 4
        rounds = {4: 10, 6: 12, 8: 14}[nk]
        words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
        sbox = _SBOX
        for i in range(nk, 4 * (rounds + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (
                    (sbox[(temp >> 24) & 0xFF] << 24)
                    | (sbox[(temp >> 16) & 0xFF] << 16)
                    | (sbox[(temp >> 8) & 0xFF] << 8)
                    | sbox[temp & 0xFF]
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = (
                    (sbox[(temp >> 24) & 0xFF] << 24)
                    | (sbox[(temp >> 16) & 0xFF] << 16)
                    | (sbox[(temp >> 8) & 0xFF] << 8)
                    | sbox[temp & 0xFF]
                )
            words.append(words[i - nk] ^ temp)
        return words

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != 16:
            raise CryptoError("AES block must be exactly 16 bytes")
        # Any block is a counter block: a 12-byte prefix and a 32-bit word.
        return self._ctr_scalar(block[:12], int.from_bytes(block[12:], "big"), 1)

    def ctr_keystream(self, prefix: bytes, initial_counter: int,
                      nblocks: int) -> bytes:
        """Keystream of blocks ``E_K(prefix || BE32(initial_counter + j))``.

        The counter wraps modulo 2^32 as in NIST SP 800-38D.  Large
        requests are generated by the bitsliced big-int engine in one
        pass; small ones fall back to the per-block T-table loop.
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
        return self._ctr_scalar(prefix, initial_counter, nblocks)

    def _ctr_scalar(self, prefix: bytes, initial_counter: int,
                    nblocks: int) -> bytes:
        """The T-table rounds over each counter block in one loop.

        Only the counter word differs between blocks, so round 1's
        lookups on the three prefix words are done once per call.
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
