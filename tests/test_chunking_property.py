"""Transport chunking must not change what any implementation does.

Each of the twelve implementations in :data:`repro.bench.fuzzing.CASE_NAMES`
runs one scripted session (handshake, small and multi-record payloads both
ways, close from each side) over an in-memory chain. The reference run
hands every flight to the next party in one ``receive_*`` call; the other
runs cut every flight, at every hop and in both directions, into seeded
random segments of 1 B to 64 KiB. One schedule cuts every byte apart, so
each record, frame, alert-frame and handshake header is split at every
offset at least once.

Every run must show, per party, the same event type sequence, the same
delivered plaintext, and the same ``closed`` / ``abort`` outcome.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.fuzzing import CASE_NAMES, build_parties
from repro.tls.events import ApplicationData

_SEED = b"chunking-property"
_MAX_SEGMENT = 64 * 1024
_C2S = (b"chunk-ping", b"C" * 20_000)
_S2C = (b"chunk-pong", b"S" * 40_000)
# Random schedules per implementation, on top of the byte-by-byte one.
_RANDOM_SCHEDULES = (0, 1, 2)


class _Segmenter:
    """Cuts each delivery into segments; ``None`` delivers it whole."""

    def __init__(self, schedule) -> None:
        self.schedule = schedule
        self._random = (
            random.Random(f"segments-{schedule}") if isinstance(schedule, int) else None
        )

    def _size(self) -> int:
        if self.schedule == "bytewise":
            return 1
        if self._random.random() < 0.5:
            # Small cuts land inside 4-6 byte record/frame/handshake headers.
            return self._random.randint(1, 8)
        return min(_MAX_SEGMENT, int(2 ** self._random.uniform(3, 16)))

    def split(self, data: bytes) -> list[bytes]:
        if self.schedule is None:
            return [data]
        segments = []
        offset = 0
        while offset < len(data):
            size = self._size()
            segments.append(data[offset : offset + size])
            offset += size
        return segments


class _Session:
    """One scripted ``left - middles - right`` session on a segmenting chain."""

    def __init__(self, name: str, schedule) -> None:
        self.parties = build_parties(name, _SEED)
        segmenter = _Segmenter(schedule)
        self.chain = self.parties.chain(lambda hop, direction, data: segmenter.split(data))

    def run(self) -> "_Session":
        established, quiesced = self.parties.converse(self.chain, _C2S, _S2C)
        assert self.chain.errors == []
        assert established and quiesced
        return self

    def outcome(self) -> dict:
        result = {}
        for name, party in zip(self.chain.names, self.chain.parties):
            events = [event for who, event in self.chain.events if who == name]
            abort = getattr(party, "abort", None)
            result[name] = {
                "events": [type(event).__name__ for event in events],
                "plaintext": b"".join(
                    event.data for event in events if isinstance(event, ApplicationData)
                ),
                "closed": party.closed,
                "abort": None if abort is None else (abort.alert, abort.origin),
            }
        return result


_REFERENCE: dict[str, dict] = {}


def _reference(name: str) -> dict:
    if name not in _REFERENCE:
        _REFERENCE[name] = _Session(name, None).run().outcome()
    return _REFERENCE[name]


@pytest.mark.parametrize("name", CASE_NAMES)
def test_reference_session_delivers_everything(name):
    """The unsegmented run is a real session: every payload arrives."""
    outcome = _reference(name)
    assert outcome["right"]["plaintext"] == b"".join(_C2S)
    assert outcome["left"]["plaintext"] == b"".join(_S2C)
    assert outcome["left"]["closed"] and outcome["right"]["closed"]


@pytest.mark.parametrize("schedule", ("bytewise", *_RANDOM_SCHEDULES))
@pytest.mark.parametrize("name", CASE_NAMES)
def test_segmentation_preserves_session(name, schedule):
    assert _Session(name, schedule).run().outcome() == _reference(name)


def test_random_schedules_cut_inside_headers_and_reach_large_segments():
    """The random schedules really do mix header-splitting and large cuts."""
    segmenter = _Segmenter(0)
    sizes = [len(segment) for segment in segmenter.split(bytes(1 << 20))]
    assert min(sizes) == 1
    assert any(2 <= size <= 5 for size in sizes)
    assert max(sizes) > 16 * 1024
    assert max(sizes) <= _MAX_SEGMENT
