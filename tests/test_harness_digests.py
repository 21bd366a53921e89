"""Pinned digests of the in-memory harnesses.

The fuzz and selftest digests hash every delivery (tag, length, bytes) and
every event, in order, so they move whenever the pump's delivery schedule,
the adversary placement or the recorded events change. The chain flight
counts move whenever the pump sweeps hops in another order. A refactor of
the pumps must keep all three; a deliberate schedule change updates them
here and says why in CHANGES.md.
"""

from __future__ import annotations

import pytest

from repro.bench import fuzzing
from repro.bench.chains import COMPARE_CASES, measure_case
from repro.bench.fuzzing import corpus_digest, run_case, smoke_corpus
from repro.bench.selftest import run_selftest
from repro.netsim.fuzz import FuzzCase

SMOKE_CORPUS_DIGEST = "7dee67e7d228244a6f10dd8de75d767b4c8f1b71f6579b691f12a6280367fe84"
SELFTEST_DIGEST = "c3f7330c9245c0e4aef0298c7f3921a0987434511f6f90c9aff397e4429ff6ed"


def test_smoke_fuzz_corpus_digest_is_pinned():
    assert corpus_digest(smoke_corpus()) == SMOKE_CORPUS_DIGEST


def test_selftest_report_digest_is_pinned():
    assert run_selftest().digest() == SELFTEST_DIGEST


@pytest.mark.parametrize("case", COMPARE_CASES)
def test_chain_flight_count_is_pinned(case):
    # mcTLS here is the pre-keyed record layer: it has no handshake flights.
    assert measure_case(case).flights == (0 if case == "mctls" else 4)


def test_case_digest_does_not_depend_on_earlier_cases(monkeypatch):
    """A replayed case matches the same case run after others in one process.

    The per-seed CA numbers its certificates in issue order, so the leaves
    must not be issued in whatever order earlier cases happened to ask.
    """
    case = FuzzCase(b"issue-order", 1, "bit_flip")
    alone = run_case("mdtls", case).digest
    monkeypatch.setattr(fuzzing, "_PKI_CACHE", {})
    monkeypatch.setattr(fuzzing, "_FAB_CACHE", {})
    run_case("tls", case)
    assert run_case("mdtls", case).digest == alone
