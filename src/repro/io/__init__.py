"""Sans-IO kernel shared by every protocol party.

``repro.io`` sits between the wire formats (``repro.wire``) and the
protocol engines (``repro.tls``, ``repro.core``, ``repro.baselines``):

* :class:`Connection` / :class:`DuplexConnection` — the contract every
  party implements (see ``tests/test_connection_contract.py``);
* :class:`RecordPlane` — framing, AEAD protection, sequence state, and
  coalesced outbox buffering, owned once instead of per-engine;
* :mod:`repro.io.endpoint` — ``alert_for`` and the endpoint / duplex bases
  that own the alert, abort and close plumbing once;
* :func:`pump` / :class:`HopChain` / :class:`DuplexPump` — the shared
  quiescence loops (two endpoints, an in-memory tapped chain, a duplex
  element's two transports).
"""

from repro.io.connection import (
    DEFAULT_PUMP_ROUNDS,
    Connection,
    DuplexConnection,
    DuplexPump,
    HopChain,
    flush_connection,
    pump,
)
from repro.io.framing import (
    FRAME_ALERT,
    FRAME_CLOSE,
    FRAME_DATA,
    alert_frame,
    close_frame,
    frame,
    pop_frames,
)
from repro.io.record_plane import MAX_BUFFERED_BYTES, RecordPlane

__all__ = [
    "DEFAULT_PUMP_ROUNDS",
    "FRAME_ALERT",
    "FRAME_CLOSE",
    "FRAME_DATA",
    "MAX_BUFFERED_BYTES",
    "Connection",
    "DuplexConnection",
    "DuplexPump",
    "HopChain",
    "RecordPlane",
    "alert_frame",
    "close_frame",
    "flush_connection",
    "frame",
    "pop_frames",
    "pump",
]
