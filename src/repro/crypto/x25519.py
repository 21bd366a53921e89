"""X25519 Diffie-Hellman (RFC 7748) in pure Python.

``x25519`` has one cutover. A public value that is the 32-byte encoding of
the base point u = 9 (key generation) takes a fixed-base comb on the
birationally equivalent twisted Edwards curve (Ed25519's base point, whose
image is u = 9): 64 additions from a table of ``j * 16**i * B`` built on
the first such call. Every other point (the exchange) takes the
Montgomery ladder, ``_ladder``, which stays the one scalar reference and
computes the same function at u = 9.
"""

from __future__ import annotations

from repro.errors import CryptoError

__all__ = ["x25519", "x25519_base", "X25519PrivateKey"]

_P = 2**255 - 19
_A24 = 121665
_BASE_U = (9).to_bytes(32, "little")
_ZERO = bytes(32)

# Twisted Edwards form -x^2 + y^2 = 1 + d x^2 y^2, and its base point
# (y = 4/5, even x), which maps to u = (1 + y) / (1 - y) = 9.
_D = -121665 * pow(121666, -1, _P) % _P
_D2 = 2 * _D % _P
_BY = 4 * pow(5, -1, _P) % _P
_BX = 15112221349535400772501151409588531511454012693041857206046113283949847762202

# Comb geometry: 64 rows of 4-bit windows cover every 255-bit scalar.
_WINDOW = 4
_ROWS = 64
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

    Only products are reduced mod p: a sum or difference of reduced
    values stays small enough to feed the next product unreduced.
    """
    p = _P
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
        aa = a * a % p
        b = x2 - z2
        bb = b * b % p
        e = aa - bb
        c = x3 + z3
        d = x3 - z3
        da = d * a % p
        cb = c * b % p
        x3 = da + cb
        x3 = x3 * x3 % p
        z3 = da - cb
        z3 = x1 * (z3 * z3 % p) % p
        x2 = aa * bb % p
        z2 = e * (aa + _A24 * e) % p

    if swap:
        x2, z2 = x3, z3
    # Low-order and small-subgroup inputs end at z2 = 0, which has no
    # inverse; RFC 7748's x2 * z2^(p-2) gives the all-zero u there.
    z2 %= p
    if not z2:
        return _ZERO
    return (x2 * pow(z2, -1, p) % p).to_bytes(32, "little")


def _edwards_add(point, cached):
    """Extended (X, Y, Z, T) + cached (Y+X, Y-X, 2Z, 2dT), a = -1.

    The formula is complete on Ed25519, so it also doubles and adds the
    identity.
    """
    p = _P
    x1, y1, z1, t1 = point
    yp, ym, z2, t2 = cached
    a = (y1 - x1) * ym % p
    b = (y1 + x1) * yp % p
    c = t1 * t2 % p
    d = z1 * z2 % p
    e, f, g, h = b - a, d - c, d + c, b + a
    return e * f % p, g * h % p, f * g % p, e * h % p


def _cache(point) -> tuple[int, int, int, int]:
    x, y, z, t = point
    p = _P
    return (y + x) % p, (y - x) % p, 2 * z % p, _D2 * t % p


def _build_comb_table() -> list[tuple[tuple[int, int, int, int], ...]]:
    """Row ``i`` holds ``j * 16**i * B`` for j = 0..15, in cached form.

    Additions only: entry j of a row is entry j-1 plus the row's base, and
    one more addition gives 16 times that base, the next row's base.
    No inversions, so every entry stays projective.
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
    """Fixed-base ``k * 9``: one table addition per 4-bit window of ``k``.

    A zero digit adds the identity entry (1, 1, 2, 0), so every scalar
    costs the same 64 additions. A clamped scalar is 8m with
    0 < m < 2^252, below B's prime order, so k * B is never the identity
    and Z - Y is never 0.
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
