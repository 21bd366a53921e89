"""Pin the single record-layer receive loop by reading the source tree.

Every party receives through the bases in ``repro.io.endpoint``, and the
rule "open a run of application data in one batch, replay it record by
record on failure" lives once, in ``RecordPlane.open_runs``. A party that
grows its own receive loop or its own batching again fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent


def _sites(pattern: str) -> set[str]:
    """The source files (relative to ``repro/``) with a line matching ``pattern``."""
    regex = re.compile(pattern)
    return {
        path.relative_to(ROOT).as_posix()
        for path in ROOT.rglob("*.py")
        if any(regex.search(line) for line in path.read_text().splitlines())
    }


def test_receive_bytes_is_defined_only_in_io():
    sites = _sites(r"def receive_bytes\b")
    assert sites and all(site.startswith("io/") for site in sites), sites


def test_batched_opens_are_called_only_by_the_record_plane():
    sites = _sites(r"(?<!def )\bunprotect_many\(")
    assert sites <= {"io/record_plane.py", "bench/record_plane.py"}, sites


def test_duplex_receive_loops_are_the_known_ones():
    # The raw splice parses nothing; the mbTLS middlebox keeps its own
    # close path and drop-on-hostile-record policy for now.
    assert _sites(r"def _receive\b") == {
        "io/endpoint.py",
        "baselines/relay.py",
        "core/middlebox.py",
    }
