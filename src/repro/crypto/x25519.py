"""X25519 Diffie-Hellman (RFC 7748) in pure Python.

``x25519`` has one cutover. A public value that is the 32-byte encoding of
the base point u = 9 (key generation) takes a fixed-base comb on the
birationally equivalent twisted Edwards curve (Ed25519's base point, whose
image is u = 9): 32 additions, one per 8-bit window, from a 32 × 256
table of ``j * 256**i * B`` built on the first such call. Every other
point (the exchange) takes the Montgomery ladder, ``_ladder``, which
stays the one scalar reference and computes the same function at u = 9.
In ``kex`` of ``BENCH_crypto.json`` key generation takes 130 µs against
852 µs for the ladder at u = 9 (6.54×), and an exchange 893 µs; DESIGN.md
§10 item 8 has the measurements behind the window width.

Neither loop reduces mod p. Both fold each product,
``x = (x & M) + 19 * (x >> 255)`` with ``M = 2^255 - 1``: once for a value
used only within the step, twice for one carried to the next. A fold keeps
the residue mod p, so every output is the same as with ``% p``; a full
reduction stays only where a canonical value is needed (the zero check,
the final inversion and the cached table entries).
"""

from __future__ import annotations

from repro.errors import CryptoError

__all__ = ["x25519", "x25519_base", "X25519PrivateKey"]

_P = 2**255 - 19
_MASK = 2**255 - 1  # the fold x = (x & _MASK) + 19 * (x >> 255) keeps x mod p
_A24 = 121665
_BASE_U = (9).to_bytes(32, "little")
_ZERO = bytes(32)

# Twisted Edwards form -x^2 + y^2 = 1 + d x^2 y^2, and its base point
# (y = 4/5, even x), which maps to u = (1 + y) / (1 - y) = 9.
_D = -121665 * pow(121666, -1, _P) % _P
_D2 = 2 * _D % _P
_BY = 4 * pow(5, -1, _P) % _P
_BX = 15112221349535400772501151409588531511454012693041857206046113283949847762202

# Comb geometry: 32 rows of 8-bit windows cover every 255-bit scalar; the
# top row's window holds bits 248..254 only, as clamping clears bit 255.
_WINDOW = 8
_ROWS = 32
_DIGIT_MASK = (1 << _WINDOW) - 1

_comb_table: list[tuple[tuple[int, int, int, int], ...]] | None = None


def _decode_u(u: bytes) -> int:
    if len(u) != 32:
        raise CryptoError("X25519 public value must be 32 bytes")
    value = int.from_bytes(u, "little")
    return value & ((1 << 255) - 1)  # mask the high bit per RFC 7748


def _decode_scalar(k: bytes) -> int:
    if len(k) != 32:
        raise CryptoError("X25519 private key must be 32 bytes")
    raw = bytearray(k)
    raw[0] &= 248
    raw[31] &= 127
    raw[31] |= 64
    return int.from_bytes(raw, "little")


def _ladder(k: int, u: int) -> bytes:
    """Montgomery ladder: the u-coordinate of ``k * u``, RFC 7748 §5.

    No step reduces mod p. A product is folded instead,
    ``x = (x & M) + 19 * (x >> 255)`` with ``M = 2^255 - 1``, which keeps
    x's residue because 2^255 = 19 (mod p), and works on negative x as
    well. A product used only inside the step gets one fold; a value
    carried to the next step (x2, z2, x3, z3) gets two. The bounds only
    keep the ints near 256 bits:

    - carried values satisfy |v| < 2^256 (and u < 2^255 as decoded);
    - sums and differences of carried values stay below 2^257;
    - a one-fold square or product of those is below 2^263.3, so
      ``da ± cb`` is below 2^264.3 and its one-fold square below 2^278;
    - ``e·(aa + a24·e)`` is below 2^546, and ``x1`` times the one-fold
      ``(da − cb)^2`` below 2^533;
    - one fold of a value below 2^k (k ≤ 546) is below
      2^255 + 19·2^(k−255) ≤ 2^295.3, and a second fold brings every
      carried value back below 2^256.

    A full ``% p`` stays only where a canonical value is needed: before
    the zero check and in the final inversion.
    """
    m = _MASK
    x1 = u
    x2, z2 = 1, 0
    x3, z3 = u, 1
    swap = 0
    for t in range(254, -1, -1):
        bit = (k >> t) & 1
        if swap ^ bit:
            x2, x3, z2, z3 = x3, x2, z3, z2
        swap = bit

        a = x2 + z2
        aa = a * a
        aa = (aa & m) + 19 * (aa >> 255)
        b = x2 - z2
        bb = b * b
        bb = (bb & m) + 19 * (bb >> 255)
        e = aa - bb
        c = x3 + z3
        d = x3 - z3
        da = d * a
        da = (da & m) + 19 * (da >> 255)
        cb = c * b
        cb = (cb & m) + 19 * (cb >> 255)
        x3 = da + cb
        x3 *= x3
        x3 = (x3 & m) + 19 * (x3 >> 255)
        x3 = (x3 & m) + 19 * (x3 >> 255)
        z3 = da - cb
        z3 *= z3
        z3 = x1 * ((z3 & m) + 19 * (z3 >> 255))
        z3 = (z3 & m) + 19 * (z3 >> 255)
        z3 = (z3 & m) + 19 * (z3 >> 255)
        x2 = aa * bb
        x2 = (x2 & m) + 19 * (x2 >> 255)
        x2 = (x2 & m) + 19 * (x2 >> 255)
        z2 = e * (aa + _A24 * e)
        z2 = (z2 & m) + 19 * (z2 >> 255)
        z2 = (z2 & m) + 19 * (z2 >> 255)

    if swap:
        x2, z2 = x3, z3
    # Low-order and small-subgroup inputs end at z2 = 0, which has no
    # inverse; RFC 7748's x2 * z2^(p-2) gives the all-zero u there.
    p = _P
    z2 %= p
    if not z2:
        return _ZERO
    return (x2 * pow(z2, -1, p) % p).to_bytes(32, "little")


def _edwards_add(point, cached):
    """Extended (X, Y, Z, T) + cached (Y+X, Y-X, 2Z, 2dT), a = -1.

    The formula is complete on Ed25519, so it also doubles and adds the
    identity. Folded as in ``_ladder``: the point's coordinates are below
    2^256 in absolute value and the cached ones canonical, so a, b, c, d
    take one fold (below 2^261.3), e, f, g, h stay below 2^262.3, and
    each output coordinate takes two folds back below 2^256.
    """
    m = _MASK
    x1, y1, z1, t1 = point
    yp, ym, z2, t2 = cached
    a = (y1 - x1) * ym
    a = (a & m) + 19 * (a >> 255)
    b = (y1 + x1) * yp
    b = (b & m) + 19 * (b >> 255)
    c = t1 * t2
    c = (c & m) + 19 * (c >> 255)
    d = z1 * z2
    d = (d & m) + 19 * (d >> 255)
    e, f, g, h = b - a, d - c, d + c, b + a
    x3, y3, z3, t3 = e * f, g * h, f * g, e * h
    x3 = (x3 & m) + 19 * (x3 >> 255)
    y3 = (y3 & m) + 19 * (y3 >> 255)
    z3 = (z3 & m) + 19 * (z3 >> 255)
    t3 = (t3 & m) + 19 * (t3 >> 255)
    return (
        (x3 & m) + 19 * (x3 >> 255),
        (y3 & m) + 19 * (y3 >> 255),
        (z3 & m) + 19 * (z3 >> 255),
        (t3 & m) + 19 * (t3 >> 255),
    )


def _cache(point) -> tuple[int, int, int, int]:
    x, y, z, t = point
    p = _P
    return (y + x) % p, (y - x) % p, 2 * z % p, _D2 * t % p


def _build_comb_table() -> list[tuple[tuple[int, int, int, int], ...]]:
    """Row ``i`` holds ``j * 256**i * B`` for j = 0..255, in cached form.

    Additions only: entry j of a row is entry j-1 plus the row's base, and
    one more addition gives 256 times that base, the next row's base:
    8,192 additions and no inversion, so every entry stays projective.
    The build takes 39 ms and the table 2,557 KiB (``kex`` in
    ``BENCH_crypto.json``).
    Rows and entries are tuples of ints, which the cycle collector stops
    tracking once a collection has examined them.
    """
    table = []
    base = (_BX, _BY, 1, _BX * _BY % _P)
    for _ in range(_ROWS):
        base_cached = _cache(base)
        point = (0, 1, 1, 0)
        row = []
        for _ in range(1 << _WINDOW):
            row.append(_cache(point))
            point = _edwards_add(point, base_cached)
        table.append(tuple(row))
        base = point
    return table


def _comb(k: int) -> bytes:
    """Fixed-base ``k * 9``: one table addition per 8-bit window of ``k``.

    A zero digit adds the identity entry (1, 1, 2, 0), so every scalar
    costs the same 32 additions, 130 µs a key in ``kex`` of
    ``BENCH_crypto.json``. A clamped scalar is 8m with 0 < m < 2^252,
    below B's prime order, so k * B is never the identity and Z - Y is
    never 0 mod p. The additions fold instead of reducing, so Y and Z
    reach the inversion unreduced (below 2^256 in absolute value);
    ``pow`` reduces them.
    """
    global _comb_table
    table = _comb_table
    if table is None:
        table = _comb_table = _build_comb_table()
    add = _edwards_add
    point = (0, 1, 1, 0)
    for row in table:
        point = add(point, row[k & _DIGIT_MASK])
        k >>= _WINDOW
    _, y, z, _ = point
    return ((z + y) * pow(z - y, -1, _P) % _P).to_bytes(32, "little")


def x25519(private_key: bytes, public_value: bytes) -> bytes:
    """Scalar multiplication on Curve25519; returns the shared u-coordinate."""
    k = _decode_scalar(private_key)
    if public_value == _BASE_U:
        return _comb(k)
    return _ladder(k, _decode_u(public_value))


def x25519_base(private_key: bytes) -> bytes:
    """Compute the public value for a private key (scalar * base point 9)."""
    return x25519(private_key, _BASE_U)


class X25519PrivateKey:
    """Convenience wrapper pairing a private scalar with its public value."""

    def __init__(self, private_bytes: bytes) -> None:
        self._private = private_bytes
        self.public_bytes = x25519_base(private_bytes)

    def exchange(self, peer_public: bytes) -> bytes:
        """Derive the shared secret with a peer's public value."""
        shared = x25519(self._private, peer_public)
        if shared == _ZERO:
            raise CryptoError("X25519 produced an all-zero shared secret")
        return shared
