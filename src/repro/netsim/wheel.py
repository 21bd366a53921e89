"""A hierarchical timer wheel for the discrete-event simulator.

The old :class:`~repro.netsim.sim.Simulator` kept every pending event in one
``heapq`` and *lazily* deleted cancelled entries — they stayed in the heap
until popped.  That is fine for a handful of sessions, but a fleet run arms
one handshake timer and one idle timer per live session and ``touch()``es
the idle timer on every data flight: at 10^4-10^6 sessions the heap fills
with dead entries faster than the clock drains them.

This wheel gives the simulator what kernels give their networking stacks:

* **O(1) insertion** — a deadline is quantized to a tick and filed under
  its *first byte differing from the current tick* (the classic
  hierarchical-wheel rule): byte 0 differs → level 0 (fine slots), byte 1
  differs → level 1 (coarser), and so on.  Entries at a level therefore
  always share every higher byte with the current tick, which keeps the
  scan invariants local — no modular-window wrap cases.
* **O(1) cancellation with eager reclamation** — every entry knows the
  slot dict holding it, so cancel *removes* it immediately.  Cancelling a
  million timers leaves nothing behind (pinned by a regression test).
* **Exact firing order** — quantization never reorders events: entries
  keep their exact ``(time, seq)`` pair and the consumer sorts each
  expired tick before firing it, so behaviour is byte-identical to the
  old heap (same-time events still fire in schedule order).
  **Known exception** (ROADMAP item 10): when popping a tick rolls the
  current tick into a new level-1 window, ``_scan``'s level-0 fast path
  returns entries filed after the roll before cascading the level-1 slot
  that now holds earlier ones, so those fire out of order and the
  simulator's clock moves backward
  (``tests/test_netsim.py::TestSimulator::test_rollover_keeps_time_order``,
  a strict xfail).
* **O(1)-ish scanning** — each level keeps a big-int occupancy bitmask;
  finding the next busy slot is a shift plus ``(m & -m).bit_length()``,
  not a walk over 256 slots.

Deadlines whose tick differs from the current tick above the outermost
level (≈ 5 simulated days at the default 100 µs resolution) go to an
overflow dict and are re-bucketed when the wheel drains — an O(n) cost
paid once per multi-day jump, never per event.
"""

from __future__ import annotations

__all__ = ["TimerWheel", "WheelEntry"]

# 2^8 slots per level keeps each occupancy mask a handful of big-int digits
# while spanning useful horizons at the default 100 µs resolution:
# level 0 covers 25.6 ms of deadlines, level 1 ~6.6 s, level 2 ~28 min,
# level 3 ~5 days.
_SLOT_BITS = 8
_SLOTS = 1 << _SLOT_BITS
_SLOT_MASK = _SLOTS - 1
_LEVELS = 4


class WheelEntry:
    """One scheduled deadline; knows its container for O(1) removal."""

    __slots__ = ("time", "seq", "_slot")

    def __init__(self, time: float, seq: int) -> None:
        self.time = time
        self.seq = seq
        self._slot: dict[int, "WheelEntry"] | None = None

    def __lt__(self, other: "WheelEntry") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class TimerWheel:
    """Hierarchical timer wheel over quantized ticks with exact times.

    The wheel only *organizes* deadlines; exact event times ride along in
    the entries and the consumer sorts each expired tick, so tick
    resolution is a throughput knob, not a correctness knob.

    Invariants (maintained by ``_place``/``_scan``):

    * every filed tick is ``>= current_tick`` (late inserts are clamped);
    * an entry at level ``l`` shares all tick bytes above ``l`` with
      ``current_tick`` and its byte ``l`` is ``>=`` the current tick's
      (strictly greater for ``l >= 1``, except transiently right after the
      current tick rolls into a new byte-``l`` window — the scan then
      cascades that slot in place).
    """

    __slots__ = ("resolution", "_tick", "_levels", "_occupancy", "_overflow", "_live")

    def __init__(self, resolution: float = 1e-4) -> None:
        if resolution <= 0:
            raise ValueError("wheel resolution must be positive")
        self.resolution = resolution
        self._tick = 0  # ticks < _tick have been expired
        self._levels: list[list[dict[int, WheelEntry]]] = [
            [{} for _ in range(_SLOTS)] for _ in range(_LEVELS)
        ]
        self._occupancy = [0] * _LEVELS
        self._overflow: dict[int, WheelEntry] = {}
        self._live = 0

    # ------------------------------------------------------------------ api

    def __len__(self) -> int:
        return self._live

    @property
    def current_tick(self) -> int:
        return self._tick

    def tick_of(self, time: float) -> int:
        return int(time / self.resolution)

    def insert(self, entry: WheelEntry) -> None:
        """File ``entry`` under its deadline tick. O(1)."""
        self._place(entry)
        self._live += 1

    def remove(self, entry: WheelEntry) -> bool:
        """Unfile a live entry. O(1) and eager — nothing lingers."""
        slot = entry._slot
        if slot is None:
            return False
        slot.pop(entry.seq, None)
        entry._slot = None
        self._live -= 1
        return True

    def pop_next_tick(self) -> list[WheelEntry] | None:
        """Expire the earliest busy tick and return its entries (unsorted).

        Advances the wheel just past that tick.  Returns ``None`` when no
        entries remain anywhere (wheel levels and overflow).
        """
        while self._live:
            tick = self._scan()
            if tick is None:
                self._refill_from_overflow()
                continue
            slot = self._levels[0][tick & _SLOT_MASK]
            entries = list(slot.values())
            slot.clear()
            self._occupancy[0] &= ~(1 << (tick & _SLOT_MASK))
            for entry in entries:
                entry._slot = None
            self._live -= len(entries)
            self._tick = tick + 1
            return entries
        return None

    # ------------------------------------------------------------ internals

    def _place(self, entry: WheelEntry) -> None:
        tick = self.tick_of(entry.time)
        if tick < self._tick:
            tick = self._tick  # numerically-past deadline: fire next
        differing = tick ^ self._tick
        level = 0 if not differing else (differing.bit_length() - 1) >> 3
        if level >= _LEVELS:
            entry._slot = self._overflow
            self._overflow[entry.seq] = entry
            return
        index = (tick >> (_SLOT_BITS * level)) & _SLOT_MASK
        slot = self._levels[level][index]
        slot[entry.seq] = entry
        entry._slot = slot
        self._occupancy[level] |= 1 << index

    def _scan(self) -> int | None:
        """Tick of the earliest filed entry, cascading coarse slots down
        until that tick's entries sit in level 0.  ``None`` when every
        level is empty (entries may remain in overflow)."""
        occupancy = self._occupancy
        levels = self._levels
        while True:
            # Fast path: busy level-0 slot at or after the current tick.
            offset = self._tick & _SLOT_MASK
            mask = occupancy[0] >> offset
            if mask:
                index = offset + (mask & -mask).bit_length() - 1
                if levels[0][index]:
                    return (self._tick & ~_SLOT_MASK) | index
                occupancy[0] &= ~(1 << index)  # stale bit (cancellations)
                continue
            cascaded = False
            for level in range(1, _LEVELS):
                shift = _SLOT_BITS * level
                offset = (self._tick >> shift) & _SLOT_MASK
                mask = occupancy[level] >> offset
                if not mask:
                    continue
                index = offset + (mask & -mask).bit_length() - 1
                slot = levels[level][index]
                occupancy[level] &= ~(1 << index)
                if not slot:
                    cascaded = True  # stale bit; rescan from level 0
                    break
                entries = list(slot.values())
                slot.clear()
                # Nothing fires before this slot's span: move the clock to
                # its start (never backward — the containing slot's start
                # is in the past while the tick sits mid-window), then
                # re-bucket; every entry now lands at a strictly finer
                # level, so this terminates.
                base = self._tick >> (shift + _SLOT_BITS) << (shift + _SLOT_BITS)
                start = base | (index << shift)
                if start > self._tick:
                    self._tick = start
                for entry in entries:
                    entry._slot = None
                    self._place(entry)
                cascaded = True
                break
            if not cascaded:
                return None

    def _refill_from_overflow(self) -> None:
        """Jump the wheel to the earliest overflow deadline and re-bucket.

        Only called when every wheel level is empty, so the jump cannot
        skip a filed entry.  At least the earliest entry always lands in
        the wheel proper, so the caller's loop makes progress.
        """
        entries = list(self._overflow.values())
        self._overflow.clear()
        earliest = min(self.tick_of(entry.time) for entry in entries)
        if earliest > self._tick:
            self._tick = earliest
        for entry in entries:
            entry._slot = None
            self._place(entry)
