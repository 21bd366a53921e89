"""TLS record framing, including the three mbTLS record types (Appendix A).

A record is ``type(1) || version(2) || length(2) || payload``. mbTLS adds
ContentTypes 30 (Encapsulated), 31 (KeyMaterial), and 32
(MiddleboxAnnouncement) alongside the standard four.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.errors import DecodeError
from repro.wire.codec import Reader, Writer

__all__ = [
    "CONTENT_TYPES", "ContentType", "Record", "RecordBuffer", "TLS12_VERSION",
    "MAX_FRAGMENT",
]

TLS12_VERSION = 0x0303
MAX_FRAGMENT = 2**14
# AEAD adds an 8-byte explicit nonce and a 16-byte tag; allow that expansion.
MAX_CIPHERTEXT = MAX_FRAGMENT + 1024
RECORD_HEADER_LEN = 5


class ContentType(IntEnum):
    """TLS record content types, extended per mbTLS Appendix A.1."""

    CHANGE_CIPHER_SPEC = 20
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23
    MBTLS_ENCAPSULATED = 30
    MBTLS_KEY_MATERIAL = 31
    MBTLS_MIDDLEBOX_ANNOUNCEMENT = 32


class _ContentTypeTable(dict):
    """Raw type byte to :class:`ContentType`; a miss raises DecodeError."""

    def __missing__(self, raw_type: int) -> ContentType:
        raise DecodeError(f"unknown record content type {raw_type}")


#: ``CONTENT_TYPES[raw]`` is ``ContentType(raw)`` at the cost of a dict
#: lookup (0.06 against 0.61 us), and raises DecodeError for an unknown
#: type; ``.get`` returns None for one.
CONTENT_TYPES = _ContentTypeTable((int(t), t) for t in ContentType)


@dataclass(frozen=True)
class Record:
    """A single TLS record (possibly carrying protected payload)."""

    content_type: ContentType
    payload: bytes
    version: int = TLS12_VERSION

    def encode(self) -> bytes:
        writer = Writer()
        writer.write_u8(int(self.content_type))
        writer.write_u16(self.version)
        writer.write_vector(self.payload, 2)
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "Record":
        """Decode exactly one record; trailing bytes are an error."""
        record, consumed = cls.decode_prefix(data)
        if consumed != len(data):
            raise DecodeError("trailing bytes after record")
        return record

    @classmethod
    def decode_prefix(cls, data: bytes) -> tuple["Record", int]:
        """Decode one record from the front of ``data``; returns (record, consumed)."""
        reader = Reader(data)
        content_type = CONTENT_TYPES[reader.read_u8()]
        version = reader.read_u16()
        payload = reader.read_vector(2)
        if len(payload) > MAX_CIPHERTEXT:
            raise DecodeError("record payload exceeds maximum size")
        return cls(content_type=content_type, payload=payload, version=version), (
            RECORD_HEADER_LEN + len(payload)
        )


class RecordBuffer:
    """Incremental parser turning a byte stream into complete records.

    Feed arbitrary chunks with :meth:`feed`; iterate complete records with
    :meth:`pop_records`. Partial records are retained across feeds, exactly
    how a TCP receiver must reassemble TLS records.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer += data

    def pop_records(self) -> list[Record]:
        """All complete records, with payloads materialized as ``bytes``.

        Shares :meth:`pop_record_views`' single-snapshot scan: the consumed
        region is copied once and each payload is one slice of that
        snapshot, instead of re-materializing the buffer prefix and
        shifting the remainder once per record (quadratic in flight size).
        """
        return [
            Record(
                content_type=view.content_type,
                payload=bytes(view.payload),
                version=view.version,
            )
            for view in self.pop_record_views()
        ]

    def pop_record_views(self) -> list[Record]:
        """Like :meth:`pop_records`, but payloads are memoryview slices.

        All complete records are located first, then the consumed region
        is snapshotted **once** and each payload is a zero-copy slice of
        that snapshot — so a flight of N records costs one copy instead
        of 2N (the per-record ``bytes(...)`` plus the decode slice).
        Callers that keep plaintext payloads past the flight must
        materialize them; the batched-open path consumes the ciphertext
        views immediately.

        Raises the same :class:`DecodeError`s in the same order as
        :meth:`pop_records` (oversize length even on an incomplete
        record, unknown content type only on a complete one).
        """
        buffer = self._buffer
        content_types = CONTENT_TYPES
        available = len(buffer)
        spans: list[tuple[int, ContentType, int, int]] = []
        offset = 0
        while available - offset >= RECORD_HEADER_LEN:
            length = int.from_bytes(buffer[offset + 3 : offset + 5], "big")
            if length > MAX_CIPHERTEXT:
                raise DecodeError("record payload exceeds maximum size")
            if available - offset < RECORD_HEADER_LEN + length:
                break
            content_type = content_types[buffer[offset]]
            version = int.from_bytes(buffer[offset + 1 : offset + 3], "big")
            spans.append((offset + RECORD_HEADER_LEN, content_type, version, length))
            offset += RECORD_HEADER_LEN + length
        if not spans:
            return []
        snapshot = memoryview(bytes(buffer[:offset]))
        del buffer[:offset]
        return [
            Record(content_type=ct, payload=snapshot[start : start + length],
                   version=version)
            for start, ct, version, length in spans
        ]

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete record."""
        return len(self._buffer)

    def drain_raw(self) -> bytes:
        """Take the raw unparsed buffer (used when demoting to a relay)."""
        data = bytes(self._buffer)
        self._buffer.clear()
        return data
