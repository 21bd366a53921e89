"""The shared record plane: framing, AEAD protection, and outbox buffering.

Every engine used to hand-roll the same three pieces: a
:class:`~repro.wire.records.RecordBuffer` for inbound reassembly, a
``bytearray`` outbox, and a pair of AEAD
:class:`~repro.tls.record_layer.ConnectionState` objects (plus the pending
states staged by ChangeCipherSpec). :class:`RecordPlane` owns all of it
once.

The outbound path is coalesced: records are encoded *directly into* the
outbox (no intermediate ``Record.encode()`` bytes object per record), large
application writes are fragmented through a ``memoryview`` (no eager
per-fragment slice copies), and a whole multi-record flight drains as one
``bytes`` for one transport write. ``benchmarks/test_record_plane_throughput.py``
tracks the copy count and throughput against the historical per-record path.
"""

from __future__ import annotations

from time import perf_counter

from repro import obs
from repro.errors import ProtocolError
from repro.wire.records import (
    CONTENT_TYPES,
    ContentType,
    MAX_FRAGMENT,
    Record,
    RecordBuffer,
    TLS12_VERSION,
)

__all__ = ["RecordPlane", "MAX_BUFFERED_BYTES"]

_VERSION_BYTES = TLS12_VERSION.to_bytes(2, "big")

# Upper bound on either buffer (inbox or outbox). A mutated length field can
# at most make the peer wait for one oversized record (RecordBuffer already
# bounds a single record at MAX_CIPHERTEXT); this guard bounds the *total*
# bytes a connection will hold, so no sequence of tampered frames can cause
# unbounded buffering. 4 MiB is ~100x the largest legitimate flight in the
# test corpus.
MAX_BUFFERED_BYTES = 4 * 1024 * 1024


class RecordPlane:
    """Framing + AEAD + outbox for one direction pair of one connection.

    The read/write states are duck-typed (anything with
    ``protect``/``unprotect``/``sequence``); ``None`` means plaintext.
    ``pending_read``/``pending_write`` stage the states a ChangeCipherSpec
    will activate.
    """

    __slots__ = (
        "_inbound",
        "_outbox",
        "_pending_seal",
        "_pending_seal_bytes",
        "read_state",
        "write_state",
        "pending_read",
        "pending_write",
        "records_queued",
        "flights_drained",
        "bytes_drained",
        "party",
        "_obs_plane",
        "_obs_cache",
    )

    # Worst-case per-record expansion when sealed: 5-byte header plus
    # 8-byte explicit nonce plus 16-byte tag (both AEAD suites).
    _SEAL_OVERHEAD = 29

    def __init__(self) -> None:
        self._inbound = RecordBuffer()
        self._outbox = bytearray()
        # Plaintext fragments queued under the current write state but
        # not yet sealed; they are encrypted as one protect_many() batch
        # at the next flush point (drain, state swap, or verbatim queue).
        self._pending_seal = []
        self._pending_seal_bytes = 0
        self.read_state = None
        self.write_state = None
        self.pending_read = None
        self.pending_write = None
        # Telemetry for the perf trajectory (see the record-plane bench).
        self.records_queued = 0
        self.flights_drained = 0
        self.bytes_drained = 0
        # Observability: the owning engine stamps ``party`` before traffic
        # flows.  Series handles are cached (see ``_obs_handles``) and the
        # cache is dropped whenever the process-local plane is swapped.
        self.party = ""
        self._obs_plane = None
        self._obs_cache = {}

    # ---------------------------------------------------------------- metrics

    def _obs_handles(self) -> dict:
        """The series handles bound on the current obs plane.

        A handle is resolved on its series' first update, never earlier,
        so the registry holds exactly the series that per-call lookups
        would create.  Keys: ``(family, content type)`` for the
        ``records_*``/``bytes_*`` pairs, which keep the party they were
        first resolved with, and ``(site, party)`` for the per-flush and
        per-drain series, which follow the current party.
        """
        current = obs.plane()
        if current is not self._obs_plane:
            self._obs_plane = current
            self._obs_cache = {}
        return self._obs_cache

    def _obs_counters(self, family: str, content_type: int, handles: dict):
        """Cached ``(records, bytes)`` counters for one content type."""
        key = (family, content_type)
        cached = handles.get(key)
        if cached is None:
            known = CONTENT_TYPES.get(content_type)
            label = str(content_type) if known is None else known.name.lower()
            metrics = self._obs_plane.metrics
            cached = handles[key] = (
                metrics.counter(f"records_{family}", party=self.party, type=label),
                metrics.counter(f"bytes_{family}", party=self.party, type=label),
            )
        return cached

    # ---------------------------------------------------------------- inbound

    def feed(self, data: bytes) -> None:
        if self._inbound.pending_bytes + len(data) > MAX_BUFFERED_BYTES:
            raise ProtocolError(
                f"inbound buffer would exceed {MAX_BUFFERED_BYTES} bytes",
                alert="record_overflow",
            )
        self._inbound.feed(data)

    def pop_records(self) -> list[Record]:
        """Complete inbound records, payloads as zero-copy views.

        Payloads are memoryview slices of one per-flight snapshot (see
        :meth:`RecordBuffer.pop_record_views`): a batched open slices the
        ciphertext straight out of the inbound buffer without per-record
        ``bytes()`` materialization.  :meth:`unprotect` /
        :meth:`unprotect_many` still hand plaintext out as ``bytes``.
        """
        return self._inbound.pop_record_views()

    def unprotect(self, record: Record) -> bytes:
        """Decrypt under the read state; plaintext passthrough before keys."""
        if self.read_state is not None:
            plaintext = self.read_state.unprotect(record)
            records, size = self._obs_counters(
                "opened", int(record.content_type), self._obs_handles())
            records.inc()
            size.inc(len(plaintext))
            return plaintext
        payload = record.payload
        return payload if isinstance(payload, bytes) else bytes(payload)

    def unprotect_many(self, records: list[Record]) -> list[bytes]:
        """Decrypt a run of records in one batched call.

        All-or-nothing when the read state supports ``unprotect_many``:
        on failure no sequence number is consumed, so callers can fall
        back to per-record processing for exact sequential semantics.
        """
        state = self.read_state
        if state is None:
            return [
                payload if isinstance(payload, bytes) else bytes(payload)
                for payload in (record.payload for record in records)
            ]
        unprotect_many = getattr(state, "unprotect_many", None)
        if unprotect_many is not None and len(records) > 1:
            plaintexts = unprotect_many(records)
        else:
            plaintexts = [state.unprotect(record) for record in records]
        handles = self._obs_handles()
        for record, plaintext in zip(records, plaintexts):
            counted, size = self._obs_counters(
                "opened", int(record.content_type), handles)
            counted.inc()
            size.inc(len(plaintext))
        return plaintexts

    def activate_pending_read(self) -> None:
        """ChangeCipherSpec arrived: flip to the staged read state."""
        if self.pending_read is None:
            raise ProtocolError("no pending read state to activate")
        self.read_state = self.pending_read
        self.pending_read = None

    @property
    def pending_inbound_bytes(self) -> int:
        return self._inbound.pending_bytes

    @property
    def pending_outbound_bytes(self) -> int:
        """Sealed plus queued-for-sealing bytes awaiting a drain.

        This is the quantity :meth:`_check_outbox_room` compares against
        :data:`MAX_BUFFERED_BYTES`; orchestrators read it as the
        backpressure signal (defer admissions while outboxes are near the
        bound) instead of waiting for the hard ``record_overflow``.
        """
        return len(self._outbox) + self._pending_seal_bytes

    def drain_inbound_raw(self) -> bytes:
        """Take the raw unparsed inbound buffer (relay demotion)."""
        return self._inbound.drain_raw()

    # --------------------------------------------------------------- outbound

    def queue_record(self, content_type: ContentType, payload) -> None:
        """Queue one record; sealing is deferred until the flight drains.

        Encrypted records accumulate as plaintext fragments and are
        sealed in a single ``protect_many`` batch at the next flush
        point, so a multi-record flight costs one Python-level AEAD
        call. Output bytes are identical to eager per-record sealing.
        """
        if self.write_state is not None:
            self._check_outbox_room(len(payload) + self._SEAL_OVERHEAD)
            self._pending_seal.append((content_type, payload))
            self._pending_seal_bytes += len(payload) + self._SEAL_OVERHEAD
            return
        self._append(int(content_type), payload)

    def queue_application_data(self, data) -> None:
        """Fragment and queue application data without eager slice copies."""
        view = memoryview(data)
        for offset in range(0, len(view), MAX_FRAGMENT):
            self.queue_record(
                ContentType.APPLICATION_DATA, view[offset : offset + MAX_FRAGMENT]
            )

    def queue_encoded(self, record: Record) -> None:
        """Queue an already-built record verbatim (forwarding paths)."""
        self._flush_pending_seal()
        self._append(int(record.content_type), record.payload, record.version)

    def queue_raw(self, data: bytes) -> None:
        """Queue pre-encoded wire bytes verbatim (relay paths)."""
        self._flush_pending_seal()
        self._check_outbox_room(len(data))
        self._outbox += data

    def _flush_pending_seal(self) -> None:
        """Seal every deferred fragment under the current write state."""
        pending = self._pending_seal
        if not pending:
            return
        self._pending_seal = []
        self._pending_seal_bytes = 0
        state = self.write_state
        protect_many = getattr(state, "protect_many", None)
        handles = self._obs_handles()
        current = self._obs_plane
        started = perf_counter() if current.wall_time else 0.0
        if protect_many is not None and len(pending) > 1:
            records = protect_many(pending)
        else:
            records = [state.protect(ct, payload) for ct, payload in pending]
        if current.wall_time:
            suite = getattr(state, "suite", None)
            current.metrics.histogram(
                "aead_seal_seconds", party=self.party,
                suite=getattr(suite, "name", "unknown"),
            ).observe(perf_counter() - started)
        for content_type, payload in pending:
            counted, size = self._obs_counters(
                "sealed", int(content_type), handles)
            counted.inc()
            size.inc(len(payload))
        key = ("flush", self.party)
        flush = handles.get(key)
        if flush is None:
            flush = handles[key] = (
                current.metrics.counter("seal_flushes", party=self.party),
                current.metrics.histogram(
                    "seal_batch_records", obs.COUNT_BUCKETS, party=self.party),
            )
        flushes, batch_records = flush
        flushes.inc()
        batch_records.observe(len(pending))
        for record in records:
            self._append(int(record.content_type), record.payload)

    def _check_outbox_room(self, extra: int) -> None:
        if len(self._outbox) + self._pending_seal_bytes + extra > MAX_BUFFERED_BYTES:
            raise ProtocolError(
                f"outbound buffer would exceed {MAX_BUFFERED_BYTES} bytes",
                alert="record_overflow",
            )

    def _append(self, content_type: int, payload, version: int | None = None) -> None:
        self._check_outbox_room(len(payload) + 5)
        out = self._outbox
        out.append(content_type)
        if version is None or version == TLS12_VERSION:
            out += _VERSION_BYTES
        else:
            out += version.to_bytes(2, "big")
        out += len(payload).to_bytes(2, "big")
        out += payload
        self.records_queued += 1

    def activate_pending_write(self) -> None:
        """Our ChangeCipherSpec went out: flip to the staged write state."""
        self._flush_pending_seal()  # records before CCS use the old keys
        self.write_state = self.pending_write
        self.pending_write = None

    @property
    def has_output(self) -> bool:
        return bool(self._outbox or self._pending_seal)

    def data_to_send(self) -> bytes:
        """Drain the whole flight as one buffer — one copy, one write."""
        self._flush_pending_seal()
        if not self._outbox:
            return b""
        data = bytes(self._outbox)
        self._outbox.clear()
        self.flights_drained += 1
        self.bytes_drained += len(data)
        handles = self._obs_handles()
        key = ("drain", self.party)
        drained = handles.get(key)
        if drained is None:
            metrics = self._obs_plane.metrics
            drained = handles[key] = (
                metrics.counter("flights_drained", party=self.party),
                metrics.counter("bytes_drained", party=self.party),
            )
        flights, size = drained
        flights.inc()
        size.inc(len(data))
        return data

    # --------------------------------------------------------------- sequence

    def sequences(self) -> tuple[int, int]:
        """(write_seq, read_seq) of the active protection states."""
        self._flush_pending_seal()  # queued records advance the write seq
        write_seq = self.write_state.sequence if self.write_state else 0
        read_seq = self.read_state.sequence if self.read_state else 0
        return write_seq, read_seq

    def replace_states(self, read_state, write_state) -> None:
        """Swap protection states (mbTLS per-hop key installation)."""
        if self._pending_seal and write_state is not None:
            self._flush_pending_seal()  # seal under the outgoing state
        if read_state is not None:
            self.read_state = read_state
        if write_state is not None:
            self.write_state = write_state
