"""Vectorised AES-CTR keystream generation over Python big ints.

The scalar T-table path in :mod:`repro.crypto.aes` costs ~160 table
lookups per 16-byte block; at record sizes that makes AES-GCM the
bottleneck of the whole data plane.  This module holds two engines that
instead run each round once over every counter block of a request, with
one big-int operation acting on all blocks at once (big-int SIMD).
:meth:`repro.crypto.aes.AES.ctr_keystream` picks the byte-sliced engine
below ``AES._BITSLICE_THRESHOLD`` blocks and the bitsliced one from it.

Bitsliced layout
----------------
:class:`BitslicedCtr` evaluates AES as a boolean circuit over 8 *bit
planes*.  Plane ``p`` (p = bit significance, LSB first) is an int made
of 16 fields of ``N`` bits, where ``N`` is the number of counter blocks
in the batch.  Field ``b = 4*col + row`` occupies bits
``[b*N, (b+1)*N)``; bit ``j`` of a field belongs to block ``j``.  With
that layout:

* AddRoundKey is 8 XORs with per-key precomputed field masks,
* MixColumns is two masked field rotations per plane,
* SubBytes is position-independent, so one circuit serves all bytes.

ShiftRows moves no bits.  After ``k`` rounds field ``(col, row)`` holds
state byte ``(col - k*row) mod 4`` of its row, and MixColumns, the round
keys and the final output read the state through that *frame*: in frame
``k`` a byte's neighbour one row down sits ``k`` columns to its right,
so MixColumns' row rotations also rotate the whole int by ``4*k*N`` bits.

SubBytes is Boyar and Peralta's circuit of 32 ANDs and 83 XORs ("A new
combinational logic minimization technique with applications to
cryptology", IACR ePrint 2009/191) without its four output NOTs: the
S-box constant 0x63 is the same in every byte, ShiftRows and MixColumns
leave such a state unchanged, so it is folded into the next round key.
The circuit is checked against the S-box table for all 256 inputs at
import.

Byte-sliced layout
------------------
:class:`ByteslicedCtr` keeps the same 16 fields and frames, but each
field is ``n`` bytes wide and byte ``j`` of field ``b`` is byte ``b`` of
block ``j``.  SubBytes is one ``bytes.translate`` of the whole state,
xtime is six masked whole-int operations, and a middle round is about 30
whole-state operations against ~270 plane operations.  Those operations
act on a state eight times wider, so the bitsliced engine wins from
about 120 blocks on.  Requests of up to 4 blocks run on 1, 2 or 4
lanes; the bitsliced engine's 8x8 transposes need multiples of 8.
A key's first pass can also encrypt the zero block in one more lane,
which gives GCM its hash key with no pass of its own.

Each layout's round keys are a tuple of ints (of tuples of ints in the
bitsliced engine), which the cycle collector stops tracking, so the keys
a process keeps do not add to the walk of every full collection.

Only the encrypt direction exists — CTR mode never decrypts blocks.
"""

from __future__ import annotations

import re
import struct
from operator import itemgetter

from repro.crypto.aes import _SBOX, _SBOX_BYTES, AES

# Inputs x0..x7 are bits 7..0 of the byte, outputs s0..s7 likewise.
_SBOX_CIRCUIT = """
y14 = x3 ^ x5
y13 = x0 ^ x6
y9 = x0 ^ x3
y8 = x0 ^ x5
t0 = x1 ^ x2
y1 = t0 ^ x7
y4 = y1 ^ x3
y12 = y13 ^ y14
y2 = y1 ^ x0
y5 = y1 ^ x6
y3 = y5 ^ y8
t1 = x4 ^ y12
y15 = t1 ^ x5
y20 = t1 ^ x1
y6 = y15 ^ x7
y10 = y15 ^ t0
y11 = y20 ^ y9
y7 = x7 ^ y11
y17 = y10 ^ y11
y19 = y10 ^ y8
y16 = t0 ^ y11
y21 = y13 ^ y16
y18 = x0 ^ y16
t2 = y12 & y15
t3 = y3 & y6
t4 = t3 ^ t2
t5 = y4 & x7
t6 = t5 ^ t2
t7 = y13 & y16
t8 = y5 & y1
t9 = t8 ^ t7
t10 = y2 & y7
t11 = t10 ^ t7
t12 = y9 & y11
t13 = y14 & y17
t14 = t13 ^ t12
t15 = y8 & y10
t16 = t15 ^ t12
t17 = t4 ^ t14
t18 = t6 ^ t16
t19 = t9 ^ t14
t20 = t11 ^ t16
t21 = t17 ^ y20
t22 = t18 ^ y19
t23 = t19 ^ y21
t24 = t20 ^ y18
t25 = t21 ^ t22
t26 = t21 & t23
t27 = t24 ^ t26
t28 = t25 & t27
t29 = t28 ^ t22
t30 = t23 ^ t24
t31 = t22 ^ t26
t32 = t31 & t30
t33 = t32 ^ t24
t34 = t23 ^ t33
t35 = t27 ^ t33
t36 = t24 & t35
t37 = t36 ^ t34
t38 = t27 ^ t36
t39 = t29 & t38
t40 = t25 ^ t39
t41 = t40 ^ t37
t42 = t29 ^ t33
t43 = t29 ^ t40
t44 = t33 ^ t37
t45 = t42 ^ t41
z0 = t44 & y15
z1 = t37 & y6
z2 = t33 & x7
z3 = t43 & y16
z4 = t40 & y1
z5 = t29 & y7
z6 = t42 & y11
z7 = t45 & y17
z8 = t41 & y10
z9 = t44 & y12
z10 = t37 & y3
z11 = t33 & y4
z12 = t43 & y13
z13 = t40 & y5
z14 = t29 & y2
z15 = t42 & y9
z16 = t45 & y14
z17 = t41 & y8
t46 = z15 ^ z16
t47 = z10 ^ z11
t48 = z5 ^ z13
t49 = z9 ^ z10
t50 = z2 ^ z12
t51 = z2 ^ z5
t52 = z7 ^ z8
t53 = z0 ^ z3
t54 = z6 ^ z7
t55 = z16 ^ z17
t56 = z12 ^ t48
t57 = t50 ^ t53
t58 = z4 ^ t46
t59 = z3 ^ t54
t60 = t46 ^ t57
t61 = z14 ^ t57
t62 = t52 ^ t58
t63 = t49 ^ t58
t64 = z4 ^ t59
t65 = t61 ^ t62
t66 = z1 ^ t63
s0 = t59 ^ t63
s6 = t56 ^ t62
s7 = t48 ^ t60
t67 = t64 ^ t65
s3 = t53 ^ t66
s4 = t51 ^ t66
s5 = t47 ^ t65
s1 = t64 ^ s3
s2 = t55 ^ t67
""".strip().splitlines()

_SBOX_CONSTANT = 0x63
_XOR_SBOX_CONSTANT = bytes(b ^ _SBOX_CONSTANT for b in range(256))


def _sbox_lines(planes: list[str]) -> list[str]:
    """The S-box circuit reading plane variables ``planes`` (LSB first).

    Its results, without the constant, are in ``s7`` (bit 0) .. ``s0``.
    """
    return [re.sub(r"\bx(\d)\b", lambda m: planes[7 - int(m.group(1))], line)
            for line in _SBOX_CIRCUIT]


def _verify_sbox() -> None:
    """Check the circuit against the S-box table, all 256 inputs at once."""
    # Bit j of plane p is bit p of the input byte j.
    env = {f"a{p}": sum(((j >> p) & 1) << j for j in range(256))
           for p in range(8)}
    exec("\n".join(_sbox_lines([f"a{p}" for p in range(8)])), {}, env)
    for j in range(256):
        out = sum(((env[f"s{7 - p}"] >> j) & 1) << p for p in range(8))
        if out ^ _SBOX_CONSTANT != _SBOX[j]:
            raise AssertionError(f"S-box circuit mismatch at {j:#x}")


# xtime (multiply by x in GF(2^8)) on planes: bit p of 2*t, as source bits.
_XTIME_SRC = ([7], [0, 7], [1], [2, 7], [3, 7], [4], [5], [6])


def _compile_cipher():
    """Emit the whole bitsliced cipher as one generated function.

    ``_cipher(planes, rkm, layout)`` takes the 8 input planes with round
    key 0 already added and, per round 1..Nr, the round key planes (see
    :meth:`_CtrEngine._round_keys`); MixColumns' column rotations per
    round come from the layout.  It returns the 8 output planes.
    Each middle round (SubBytes, MixColumns, AddRoundKey; ShiftRows is
    the frame change) is one straight-line block of big-int operations
    on local variables inside a loop over the rounds, so the interpreter
    does no per-plane looping, list building or calls.

    MixColumns computes ``out = xtime(t) ^ u ^ rot2(t)`` with
    ``u = rot1(a)`` and ``t = a ^ u``, since ``rot2(t)`` equals
    ``rot2(a) ^ rot3(a)``: two rotations instead of three.  Each rotation
    first rotates the whole int by the frame's column offset, leaving
    copies above the 16 fields that the row masks then drop.
    """
    planes = [f"p{q}" for q in range(8)]
    keys = [f"k{q}" for q in range(8)]
    lines = [
        "def _cipher(planes, rkm, layout):",
        "    row0, nrow0 = layout.row0, layout.not_row0",
        "    rows01, rows23 = layout.rows01, layout.rows23",
        "    n = layout.n",
        "    n2 = 2 * n",
        "    n3 = 3 * n",
        f"    {', '.join(planes)} = planes",
        f"    for ({', '.join(keys)}), (cr1, cl1, cr2, cl2) in zip(",
        "            rkm[:-1], layout.shifts):",
    ]
    body = _sbox_lines(planes)
    for q in range(8):
        s = f"s{7 - q}"
        body.append(f"u{q} = ({s} >> cr1) | ({s} << cl1)")
        body.append(f"u{q} = ((u{q} & nrow0) >> n) | ((u{q} & row0) << n3)")
        body.append(f"w{q} = {s} ^ u{q}")
    for q in range(8):
        body.append(f"v{q} = (w{q} >> cr2) | (w{q} << cl2)")
        body.append(f"v{q} = ((v{q} & rows23) >> n2) | ((v{q} & rows01) << n2)")
    for q in range(8):
        xt = " ^ ".join(f"w{i}" for i in _XTIME_SRC[q])
        body.append(f"p{q} = {xt} ^ u{q} ^ v{q} ^ k{q}")
    lines += ["        " + stmt for stmt in body]
    lines.append(f"    {', '.join(keys)} = rkm[-1]")
    lines += ["    " + stmt for stmt in _sbox_lines(planes)]
    lines.append("    return " + ", ".join(f"s{7 - q} ^ k{q}" for q in range(8)))
    ns: dict = {}
    exec(compile("\n".join(lines), "<bitsliced-cipher>", "exec"), ns)
    return ns["_cipher"]


_CIPHER = _compile_cipher()

# _FRAMES[k][b]: the state byte that field b holds after k ShiftRows
# (frames repeat every 4 rounds).
_FRAMES = [[4 * ((b // 4 - k * (b % 4)) % 4) + b % 4 for b in range(16)]
           for k in range(4)]

# _KEY_ORDER[Nr] gathers the expanded key's bytes of rounds 1..Nr, each
# round's 16 bytes permuted into that round's frame.
_KEY_ORDER = {rounds: itemgetter(*[16 * rnd + b for rnd in range(1, rounds + 1)
                                   for b in _FRAMES[rnd % 4]])
              for rounds in (10, 12, 14)}


# --- transpose helpers -----------------------------------------------------

_T8 = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
       (28, 0x00000000F0F0F0F0))


def _rep64(m64: int, ngroups: int) -> int:
    v = m64
    width = 64
    total = 64 * ngroups
    while width < total:
        v |= v << width
        width *= 2
    return v & ((1 << total) - 1)


class _FieldLayout:
    """Constants of one padded batch size ``n``: 16 fields of ``width`` bits.

    Built once per size and shared by every key; each engine's layout
    keeps its own bounded LRU cache of sizes.
    """

    _BITS_PER_BLOCK: int
    _CACHE_SIZE: int
    _cache: dict

    def __new__(cls, n: int):
        def build():
            layout = object.__new__(cls)
            layout._init(n)
            return layout
        return _lru(cls._cache, n, cls._CACHE_SIZE, build)

    def _init(self, n: int) -> None:
        self.n = n
        width = self.width = n * self._BITS_PER_BLOCK
        ones = (1 << width) - 1
        self.allones = (1 << (16 * width)) - 1
        rows = [sum(ones << ((4 * c + r) * width) for c in range(4))
                for r in range(4)]
        self.row0 = rows[0]
        self.not_row0 = self.allones ^ rows[0]
        self.rows01 = rows[0] | rows[1]
        self.rows23 = rows[2] | rows[3]
        # Per middle round 1..13: MixColumns' two whole-int rotations, as
        # right/left shift pairs.  Round ``r`` works in frame ``r % 4``,
        # so they rotate right by ``r`` and ``2r`` columns.
        total = 16 * width
        self.shifts = []
        for rnd in range(1, 14):
            cr1 = 4 * width * (rnd % 4)
            cr2 = 4 * width * (2 * rnd % 4)
            self.shifts.append((cr1, total - cr1, cr2, total - cr2))
        # Counter fields per initial counter (see ``counter``).
        self.ctr: dict = {}


class _Layout(_FieldLayout):
    """The bitsliced engine's layout: one bit of each block per field."""

    _BITS_PER_BLOCK = 1
    # Enough for every padded size of records up to 4 KiB (8..264 blocks
    # with the GCM tag block) plus a few bulk sizes.
    _CACHE_SIZE = 40
    _cache: dict[int, "_Layout"] = {}

    def _init(self, n: int) -> None:
        # The 8x8 transposes below work on whole bytes of blocks.
        if n % 8:
            raise ValueError("batch size must be a multiple of 8")
        super()._init(n)
        # Bit 0 of every field: times ``ones`` it fills the fields whose
        # bit 0 is set.
        self.lows = self.allones // ((1 << n) - 1)
        # 8x8 bit-matrix transpose masks for the interleaved plane buffer
        # (8 * 2n bytes = 16n 64-bit groups / 8) and for byte streams.
        self.t8_out = [(d, _rep64(m, 2 * n)) for d, m in _T8]
        self.t8_n = [(d, _rep64(m, n // 8)) for d, m in _T8]

    def spread(self, block: bytes) -> list[int]:
        """The 8 planes of a 16-byte state repeated in every block.

        The bytes are placed ``n`` bits apart, one per field; for each
        plane the wanted bit of every byte is shifted to bit 0 of its
        field, masked, and multiplied by the all-ones field to fill it.
        """
        n = self.n
        buf = bytearray(2 * n)
        buf[::n // 8] = block
        s = int.from_bytes(buf, "little")
        lows = self.lows
        fill = (1 << n) - 1
        return [((s >> p) & lows) * fill for p in range(8)]

    def counter(self, c0: int) -> list[int]:
        """The planes of fields 12..15 holding the counters ``c0 + j``."""
        def build():
            n = self.n
            ctr = [0] * 8
            for pos, seq in enumerate(_counter_bytes(c0, n)):
                shift = (12 + pos) * n
                for p, bits in enumerate(_byte_planes(seq, self)):
                    ctr[p] |= bits << shift
            return ctr
        return _lru(self.ctr, c0, 4, build)


def _lru(cache: dict, key, size: int, build):
    """``cache[key]``, built by ``build()`` on a miss; hits become newest.

    A miss in a full cache first evicts the least recently used entry.
    """
    value = cache.pop(key, None)
    if value is None:
        value = build()
        if len(cache) >= size:
            del cache[next(iter(cache))]
    cache[key] = value
    return value


def _unslice_strided(raw: bytes, n: int, frame: list[int]) -> bytes:
    """Blocks from 16 fields of ``n`` bytes holding state bytes ``frame[b]``."""
    out = bytearray(16 * n)
    for b in range(16):
        out[frame[b]::16] = raw[b * n:(b + 1) * n]
    return bytes(out)


def _gather(n: int, frame: list[int]) -> itemgetter:
    """:func:`_unslice_strided` for ``n`` lanes as one gather of raw bytes."""
    field = [0] * 16
    for b, position in enumerate(frame):
        field[position] = b
    return itemgetter(*[field[position] * n + lane
                        for lane in range(n) for position in range(16)])


# Up to this many lanes a pass unslices through one precomputed gather,
# which takes a third to a tenth of the time of the 16 strided copies.
_GATHER_LANES = 8
_GATHERS = [{n: _gather(n, frame) for n in (1, 2, 4, 8)} for frame in _FRAMES]


def _unslice(raw: bytes, n: int, frame_index: int) -> bytes:
    """The blocks of a pass's output fields in frame ``frame_index``."""
    if n <= _GATHER_LANES:
        return bytes(_GATHERS[frame_index][n](raw))
    return _unslice_strided(raw, n, _FRAMES[frame_index])


def _transpose8(x: int, masks) -> int:
    for d, m in masks:
        t = ((x >> d) ^ x) & m
        x = x ^ t ^ (t << d)
    return x


def _byte_planes(seq: bytes, layout: _Layout) -> list[int]:
    """Split a byte-per-block sequence into 8 packed bit planes."""
    n = layout.n
    x = _transpose8(int.from_bytes(seq, "little"), layout.t8_n)
    raw = x.to_bytes(n, "little")
    return [int.from_bytes(raw[p::8], "little") for p in range(8)]


def _counter_bytes(c0: int, n: int) -> list[bytes]:
    """Per-position byte sequences of the 32-bit big-endian counter."""
    lows = bytearray()
    highs = [bytearray(), bytearray(), bytearray()]
    j = 0
    while j < n:
        c = (c0 + j) & 0xFFFFFFFF
        run = min(n - j, 256 - (c & 0xFF))
        low = c & 0xFF
        lows += bytes(range(low, low + run))
        for idx, shift in enumerate((24, 16, 8)):
            highs[idx] += bytes([(c >> shift) & 0xFF]) * run
        j += run
    return [bytes(h) for h in highs] + [bytes(lows)]


class _CtrEngine:
    """A CTR keystream engine bound to one expanded AES key.

    Subclasses give their layout class, how one layout's round keys are
    built and the cipher pass from the first state to the raw output
    fields.  A request runs at its block count rounded up to a multiple
    of 8, or at ``_NARROW[nblocks]`` blocks where that is listed.
    """

    __slots__ = ("_key0", "_frame_keys", "_rounds", "_rk_cache")

    _LAYOUT: type
    _NARROW: tuple[int, ...] = ()
    # Padded block counts whose round-key material one key keeps.  A full
    # cache evicts its least recently used entry.
    _KEY_CACHE_SIZE: int

    def __init__(self, round_keys: tuple[int, ...], rounds: int) -> None:
        key_bytes = struct.pack(f">{len(round_keys)}I", *round_keys)
        self._key0 = int.from_bytes(key_bytes[:16], "big")
        # Round ``k`` works in frame ``k``, so the key bytes of rounds
        # 1..Nr are gathered into their frames once per key.
        self._frame_keys = bytes(_KEY_ORDER[rounds](key_bytes))
        self._rounds = rounds
        self._rk_cache: dict[int, tuple] = {}

    def _round_keys(self, layout) -> tuple:
        """Round keys 1..Nr in ``layout``; round 0 is added per call."""
        return _lru(self._rk_cache, layout.n, self._KEY_CACHE_SIZE,
                    lambda: self._build_round_keys(layout))

    def _layout(self, lanes: int):
        """The layout of a pass over at least ``lanes`` blocks."""
        narrow = self._NARROW
        return self._LAYOUT(narrow[lanes] if lanes < len(narrow)
                            else (lanes + 7) & ~7)

    def _first(self, nonce: bytes) -> bytes:
        """The first 16 state bytes: nonce and round key 0, counter zero.

        The nonce fills fields 0..11 and the counter 12..15, so the
        nonce and round key 0 combine before spreading into fields.
        """
        return ((int.from_bytes(nonce, "big") << 32) ^ self._key0).to_bytes(
            16, "big")

    def keystream(self, nonce: bytes, initial_counter: int,
                  nblocks: int) -> bytes:
        """Keystream for blocks ``nonce || BE32(initial_counter + j)``."""
        if nblocks <= 0:
            return b""
        layout = self._layout(nblocks)
        raw = self._encrypt(self._first(nonce), initial_counter, layout)
        return _unslice(raw, layout.n, self._rounds % 4)[: 16 * nblocks]


class BitslicedCtr(_CtrEngine):
    """Bitsliced CTR keystream engine bound to one expanded AES key."""

    __slots__ = ()

    _LAYOUT = _Layout
    # Every padded size of records up to 4 KiB, as in the layout cache.
    _KEY_CACHE_SIZE = 40

    def __init__(self, round_keys: list[int], rounds: int) -> None:
        super().__init__(round_keys, rounds)
        # The round keys carry the S-box constant the circuit leaves out.
        self._frame_keys = self._frame_keys.translate(_XOR_SBOX_CONSTANT)

    def _build_round_keys(self, layout: _Layout) -> tuple[tuple[int, ...], ...]:
        keys = self._frame_keys
        return tuple(tuple(layout.spread(keys[i:i + 16]))
                     for i in range(0, len(keys), 16))

    def _encrypt(self, first: bytes, c0: int, layout: _Layout) -> bytes:
        planes = [c ^ k for c, k in
                  zip(layout.counter(c0), layout.spread(first))]
        out = _CIPHER(planes, self._round_keys(layout), layout)
        # Transpose the planes back to 16 fields of n bytes.
        nb = 2 * layout.n  # bytes per plane
        buf = bytearray(8 * nb)
        for p in range(8):
            buf[p::8] = out[p].to_bytes(nb, "little")
        x = _transpose8(int.from_bytes(buf, "little"), layout.t8_out)
        return x.to_bytes(8 * nb, "little")


# --- byte-sliced engine ----------------------------------------------------


# The byte-sliced engine runs requests of up to 4 blocks (handshake
# messages, alerts, short requests) on 1, 2 or 4 lanes.
_NARROW_LANES = (0, 1, 2, 4, 4)

# Padded block counts below the bitslice cutover, the narrow widths and
# the multiples of 8: the byte-sliced caches hold every one of them.
_BYTESLICE_SIZES = len(set(_NARROW_LANES[1:])) + -(
    -(AES._BITSLICE_THRESHOLD - 1) // 8)


class _ByteLayout(_FieldLayout):
    """The byte-sliced engine's layout: one byte of each block per field."""

    _BITS_PER_BLOCK = 8
    _CACHE_SIZE = _BYTESLICE_SIZES
    _cache: dict[int, "_ByteLayout"] = {}

    def _init(self, n: int) -> None:
        super()._init(n)
        # Times a byte at the bottom of a field, this fills the field.
        self.fill = ((1 << self.width) - 1) // 0xFF
        self.high = self.allones // 0xFF * 0x80

    def spread(self, block: bytes) -> int:
        """A 16-byte state repeated in every block: byte ``b`` fills field b."""
        buf = bytearray(16 * self.n)
        buf[::self.n] = block
        return int.from_bytes(buf, "little") * self.fill

    def counter(self, c0: int) -> int:
        """Fields 12..15 holding the counter bytes of blocks ``c0 + j``."""
        def build():
            seq = b"".join(_counter_bytes(c0, self.n))
            return int.from_bytes(seq, "little") << (12 * self.width)
        return _lru(self.ctr, c0, 4, build)


class ByteslicedCtr(_CtrEngine):
    """Byte-sliced CTR keystream engine bound to one expanded AES key."""

    __slots__ = ()

    _LAYOUT = _ByteLayout
    _KEY_CACHE_SIZE = _BYTESLICE_SIZES
    _NARROW = _NARROW_LANES

    def _build_round_keys(self, layout: _ByteLayout) -> tuple[int, ...]:
        """Each key byte stretched over the ``n`` lanes of its field.

        All rounds at once: lane ``j`` of every field is one strided
        write of the gathered key bytes, and the buffer is then cut into
        one int per round.
        """
        n = layout.n
        keys = self._frame_keys
        buf = bytearray(len(keys) * n)
        for lane in range(n):
            buf[lane::n] = keys
        size = 16 * n
        from_bytes = int.from_bytes
        return tuple(from_bytes(buf[i:i + size], "little")
                     for i in range(0, len(buf), size))

    def keystream_and_zero(self, nonce: bytes, initial_counter: int,
                           nblocks: int) -> tuple[bytes, bytes]:
        """:meth:`keystream` and ``E_K(0^128)`` from lane ``nblocks``.

        That lane is spare in the padded layout of ``nblocks`` blocks, or
        the first lane of the next layout (1 to 2, 2 to 4, 4 to 8 lanes,
        then the next multiple of 8).
        """
        layout = self._layout(nblocks + 1)
        raw = self._encrypt(self._first(nonce), initial_counter, layout,
                            zero_lane=nblocks)
        blocks = _unslice(raw, layout.n, self._rounds % 4)
        end = 16 * nblocks
        return blocks[:end], blocks[end:end + 16]

    def _encrypt(self, first: bytes, c0: int, layout: _ByteLayout,
                 zero_lane: int | None = None) -> bytes:
        """One pass of the rounds; MixColumns as in :func:`_compile_cipher`.

        xtime is ``((w ^ hi) << 1) ^ (hi >> 7) * 0x1B`` with ``hi`` the
        top bit of every byte.  Frame 0 skips the whole-int rotations.
        Lane ``zero_lane``, if given, encrypts the zero block instead of
        its counter block.
        """
        n = layout.n
        size = 16 * n
        width = layout.width
        w2, w3 = 2 * width, 3 * width
        row0, nrow0 = layout.row0, layout.not_row0
        rows01, rows23 = layout.rows01, layout.rows23
        high = layout.high
        sbox = _SBOX_BYTES
        from_bytes = int.from_bytes
        keys = self._round_keys(layout)
        s = layout.spread(first) ^ layout.counter(c0)
        if zero_lane is not None:
            # XOR the lane's counter block out of it, leaving round key 0.
            block = ((from_bytes(first, "big") ^ self._key0)
                     | (c0 + zero_lane) & 0xFFFFFFFF)
            buf = bytearray(size)
            buf[zero_lane::n] = block.to_bytes(16, "big")
            s ^= from_bytes(buf, "little")
        for k, (cr1, cl1, cr2, cl2) in zip(keys[:-1], layout.shifts):
            s = from_bytes(s.to_bytes(size, "little").translate(sbox), "little")
            u = (s >> cr1) | (s << cl1) if cr1 else s
            u = ((u & nrow0) >> width) | ((u & row0) << w3)
            w = s ^ u
            v = (w >> cr2) | (w << cl2) if cr2 else w
            v = ((v & rows23) >> w2) | ((v & rows01) << w2)
            hi = w & high
            s = ((w ^ hi) << 1) ^ (hi >> 7) * 0x1B ^ u ^ v ^ k
        s = from_bytes(s.to_bytes(size, "little").translate(sbox),
                       "little") ^ keys[-1]
        return s.to_bytes(size, "little")

_verify_sbox()
