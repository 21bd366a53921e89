"""``repro selftest`` — the downgrade gauntlet scoring service.

Drives the seeded :class:`~repro.netsim.downgrade.DowngradeAdversary`
corpus against every :class:`repro.io.Connection` implementation the fuzz
harness knows (the same twelve ``tests/test_connection_contract.py`` pins) and
scores each run against the paper's security properties P1–P7. The contract
under test is the one Table 1 implies: an on-path downgrade attempt must be

* **detected** — an origin-attributed fatal alert tears the session down,
  or the forged party is visibly rejected and never joins; or
* **fallback** — a path member was excluded, but the decision is accounted
  (a ``session.fallback`` counter and the engine's fallback ledger); or
* **stalled** — the attack only denies service: nothing tampered was
  delivered, and the session simply never completes; or
* **harmless** — the session outcome is equivalent to the attack-free
  baseline (same establishment, suite, party set, delivered plaintext).

Anything else is a **silent downgrade** — the one verdict that fails the
selftest. Every case is replayable from ``(seed, case_index)`` alone;
``python -m repro selftest --seed S --index I [--impl NAME]`` re-runs one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro import obs
from repro.bench.fuzzing import (
    CASE_NAMES,
    UNAUTHENTICATED_CASES,
    build_parties,
    leaks,
    one_hop_tap,
)
from repro.core.config import MiddleboxRejected, SessionEstablished
from repro.netsim.downgrade import (
    ATTACK_KINDS,
    AppliedAttack,
    DowngradeCase,
)
from repro.tls.events import ApplicationData, MiddleboxJoined

__all__ = [
    "PROPERTIES",
    "CaseVerdict",
    "ImplScorecard",
    "SelftestReport",
    "run_case",
    "run_selftest",
]

_C2S_PAYLOADS = (b"selftest-ping-one", b"selftest-ping-two")
_S2C_PAYLOADS = (b"selftest-pong",)

#: The paper's security properties, as scored by this harness.
PROPERTIES = {
    "P1": "cipher-suite negotiation cannot be silently downgraded",
    "P2": "no tampered plaintext is ever delivered as authentic",
    "P3": "announcements confer nothing: forged/replayed parties never join",
    "P4": "forced fallback is detected or accounted, never silent",
    "P5": "stripping mbTLS signals is harmless to legacy sessions",
    "P6": "stripping the discovery signal from an mbTLS session is detected",
    "P7": "the attack-free baseline establishes and round-trips data",
}

#: Attack kinds feeding each property (P7 uses the baseline run instead).
_PROPERTY_KINDS = {
    "P1": ("suite_delete", "suite_inject"),
    "P2": ATTACK_KINDS,
    "P3": ("forge_announcement", "replay_announcement", "tamper_delegation"),
    "P4": ("suppress_announcement", "corrupt_secondary"),
    "P5": ("strip_support", "strip_server_hello"),
    "P6": ("strip_support",),
    "P7": (),
}

#: Implementations whose ClientHello carries a private-use signal (the
#: mbTLS discovery extension, or mdTLS delegation certificates): the
#: signal is present, so stripping it must be *detected* (P6); for
#: everything else stripping is vacuous and P6 is not applicable.
_MBTLS_IMPLS = frozenset({"mbtls", "mbtls_middlebox", "mdtls", "mdtls_middlebox"})

#: Where each attack's adversary sits. ``(direction, edge)``: the left edge
#: is hop 0 (the client's hop), the right edge hop n (the server's). Hello
#: rewrites happen as the bytes leave the client; injection toward the
#: server's announcement window happens on the last hop; secondary
#: corruption happens on the hop entering the client, where the
#: encapsulated ServerHello rides.
_PLACEMENT = {
    "strip_support": ("c2s", "left"),
    "suite_delete": ("c2s", "left"),
    "suite_inject": ("c2s", "left"),
    "forge_announcement": ("c2s", "right"),
    "replay_announcement": ("c2s", "right"),
    "suppress_announcement": ("c2s", "right"),
    "strip_server_hello": ("s2c", "right"),
    "corrupt_secondary": ("s2c", "left"),
    "tamper_delegation": ("c2s", "left"),
}

_VERDICT_OK = frozenset({"detected", "fallback", "stalled", "harmless"})


@dataclass(frozen=True)
class CaseVerdict:
    """One (implementation, downgrade case) run, scored.

    ``verdict`` is one of ``detected`` / ``fallback`` / ``stalled`` /
    ``harmless`` / ``silent-downgrade``; only the last fails. ``origin``
    names the hop that originated the fatal alert when the verdict is
    ``detected`` via the alert plane (empty for rejection-based detection).
    """

    impl: str
    seed: bytes
    case_index: int
    kind: str
    verdict: str
    origin: str
    detail: str
    attacks: tuple[AppliedAttack, ...]
    digest: str

    @property
    def ok(self) -> bool:
        return self.verdict in _VERDICT_OK

    def describe(self) -> str:
        status = self.verdict if self.ok else f"FAIL {self.verdict}"
        origin = f" origin={self.origin}" if self.origin else ""
        return (
            f"{self.impl} seed={self.seed!r} index={self.case_index} "
            f"kind={self.kind}: {status}{origin} ({self.detail})"
        )

    def to_json(self) -> dict:
        return {
            "impl": self.impl,
            "seed": self.seed.decode("latin-1"),
            "case_index": self.case_index,
            "kind": self.kind,
            "verdict": self.verdict,
            "origin": self.origin,
            "detail": self.detail,
            "attacks": [
                {"record": a.record_index, "kind": a.kind, "detail": a.detail}
                for a in self.attacks
            ],
            "digest": self.digest,
        }


@dataclass(frozen=True)
class ImplScorecard:
    """Per-implementation P1–P7 pass/fail row.

    ``properties`` maps ``P1``..``P7`` to ``"pass"`` / ``"FAIL"`` /
    ``"n/a"`` (the property does not apply to this implementation: P2 for
    the by-design unauthenticated baselines, P6 for non-mbTLS stacks).
    """

    impl: str
    properties: dict[str, str]
    verdicts: tuple[CaseVerdict, ...]

    @property
    def ok(self) -> bool:
        return "FAIL" not in self.properties.values()

    def to_json(self) -> dict:
        return {
            "impl": self.impl,
            "properties": dict(self.properties),
            "cases": [v.to_json() for v in self.verdicts],
        }


@dataclass(frozen=True)
class SelftestReport:
    """The whole gauntlet: one scorecard per implementation."""

    scorecards: tuple[ImplScorecard, ...]
    seeds: tuple[bytes, ...]

    @property
    def ok(self) -> bool:
        return all(card.ok for card in self.scorecards)

    @property
    def silent_downgrades(self) -> tuple[CaseVerdict, ...]:
        return tuple(
            verdict
            for card in self.scorecards
            for verdict in card.verdicts
            if verdict.verdict == "silent-downgrade"
        )

    def digest(self) -> str:
        """Deterministic fingerprint of every verdict in the report."""
        h = hashlib.sha256()
        for card in self.scorecards:
            for verdict in card.verdicts:
                h.update(verdict.digest.encode())
                h.update(verdict.verdict.encode())
        return h.hexdigest()

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "digest": self.digest(),
            "seeds": [seed.decode("latin-1") for seed in self.seeds],
            "scorecards": [card.to_json() for card in self.scorecards],
        }

    def render(self) -> str:
        """The scorecard table ``python -m repro selftest`` prints."""
        props = tuple(PROPERTIES)
        width = max(len(card.impl) for card in self.scorecards) + 2
        lines = ["impl".ljust(width) + "  ".join(p.ljust(4) for p in props)]
        lines.append("-" * (width + 6 * len(props)))
        for card in self.scorecards:
            cells = []
            for prop in props:
                value = card.properties[prop]
                cells.append(
                    {"pass": "pass", "FAIL": "FAIL", "n/a": "-"}[value].ljust(4)
                )
            lines.append(card.impl.ljust(width) + "  ".join(cells))
        failures = self.silent_downgrades
        lines.append("")
        if failures:
            lines.append(f"{len(failures)} silent downgrade(s):")
            lines.extend("  " + verdict.describe() for verdict in failures)
        else:
            lines.append("zero silent downgrades")
        lines.append(f"report digest {self.digest()[:16]}")
        return "\n".join(lines)


# --------------------------------------------------------------------- runs


@dataclass
class _Outcome:
    """What one session run produced, attack or baseline."""

    established: bool
    suite: int | None
    middleboxes: tuple[str, ...]
    delivered_left: tuple[bytes, ...]
    delivered_right: tuple[bytes, ...]
    tampered: tuple[bytes, ...]
    aborts: tuple[tuple[str, str, str], ...]  # (party, alert, origin)
    rejected: tuple[int, ...]  # subchannels visibly rejected
    joined: tuple[int, ...]  # subchannels that completed a secondary
    fallbacks: tuple[str, ...]  # accounted fallback reasons
    leaked: tuple[str, ...]  # non-ReproError crashes: always a failure
    quiesced: bool
    digest: str

    def equivalent(self, other: "_Outcome") -> bool:
        """Same session, security-wise, as ``other`` (the baseline)."""
        return (
            self.established == other.established
            and self.suite == other.suite
            and self.middleboxes == other.middleboxes
            and self.delivered_left == other.delivered_left
            and self.delivered_right == other.delivered_right
            and not self.aborts
            and not self.tampered
        )


def _party_suite(party) -> int | None:
    engine = getattr(party, "primary", party)
    suite = getattr(engine, "suite", None)
    return getattr(suite, "code", None)


def _collect(name: str, parties, chain, established, quiesced, plane) -> _Outcome:
    allowed = set(_C2S_PAYLOADS) | set(_S2C_PAYLOADS)
    delivered = {"left": [], "right": []}
    tampered: list[bytes] = []
    rejected: list[int] = []
    joined: list[int] = []
    aborts: list[tuple[str, str, str]] = []
    for party_name, event in chain.events:
        if isinstance(event, ApplicationData) and party_name in delivered:
            delivered[party_name].append(event.data)
            if name not in UNAUTHENTICATED_CASES and event.data not in allowed:
                tampered.append(event.data)
        elif isinstance(event, MiddleboxRejected):
            rejected.append(event.subchannel_id)
        elif isinstance(event, MiddleboxJoined):
            joined.append(event.subchannel_id)
        elif isinstance(event, SessionEstablished):
            joined.extend(info.subchannel_id for info in event.middleboxes)
    # The endpoints' own abort ledgers catch detections whose ConnectionClosed
    # events a broken pump never surfaced.
    for party_name, party in zip(chain.names, chain.parties):
        abort = getattr(party, "abort", None)
        if abort is not None and getattr(abort, "alert", "") != "close_notify":
            aborts.append(
                (party_name, getattr(abort, "alert", ""), getattr(abort, "origin", ""))
            )
    fallbacks: list[str] = []
    for party in (parties.left, parties.right):
        fallbacks.extend(
            reason for _, reason in getattr(party, "fallback_decisions", ())
        )
    for labels, value in plane.metrics.iter_counters("session.fallback"):
        if value:
            fallbacks.append(labels.get("reason", "unknown"))
    middleboxes = tuple(
        sorted(
            {
                info.name
                for endpoint in (parties.left, parties.right)
                for info in getattr(endpoint, "middleboxes", ())
            }
        )
    )
    leaked = leaks(chain)
    chain.hash.update(b"|".join(f.encode() for f in leaked))
    return _Outcome(
        established=established,
        suite=_party_suite(parties.left),
        middleboxes=middleboxes,
        delivered_left=tuple(delivered["left"]),
        delivered_right=tuple(delivered["right"]),
        tampered=tuple(tampered),
        aborts=tuple(sorted(set(aborts))),
        rejected=tuple(sorted(set(rejected))),
        joined=tuple(sorted(set(joined))),
        fallbacks=tuple(sorted(set(fallbacks))),
        leaked=tuple(leaked),
        quiesced=quiesced,
        digest=chain.hash.hexdigest(),
    )


def _execute(name: str, seed: bytes, adversary, placement) -> _Outcome:
    with obs.scoped() as plane:
        parties = build_parties(name, seed)
        # Stamp alert-plane labels on the plain TLS engines so detection is
        # origin-attributed across every implementation, not just mbTLS.
        for party, label in ((parties.left, "client"), (parties.right, "server")):
            if getattr(party, "origin_label", None) == "":
                party.origin_label = label
        tap = None
        if adversary is not None:
            direction, edge = placement
            # With no middlebox both edges are hop 0: the adversary still
            # sits on exactly one hop.
            hop = 0 if edge == "left" else len(parties.middles)
            tap = one_hop_tap(hop, direction, adversary.process_chunk)
        chain = parties.chain(tap)
        established, quiesced = parties.converse(chain, _C2S_PAYLOADS, _S2C_PAYLOADS)
        return _collect(name, parties, chain, established, quiesced, plane)


# Baselines are deterministic per (impl, seed); cache them so a corpus
# sweep does not re-run ten attack-free sessions per attack kind.
_BASELINE_CACHE: dict[tuple[str, bytes], _Outcome] = {}


def baseline_outcome(name: str, seed: bytes) -> _Outcome:
    key = (name, seed)
    if key not in _BASELINE_CACHE:
        _BASELINE_CACHE[key] = _execute(name, seed, None, None)
    return _BASELINE_CACHE[key]


def _classify(
    name: str, kind: str, outcome: _Outcome, baseline: _Outcome
) -> tuple[str, str, str]:
    """Score one attacked run: ``(verdict, origin, detail)``."""
    if outcome.leaked:
        return "silent-downgrade", "", outcome.leaked[0]
    if outcome.tampered:
        return (
            "silent-downgrade",
            "",
            f"tampered plaintext delivered: {outcome.tampered[0][:32]!r}",
        )
    if not outcome.quiesced:
        return "silent-downgrade", "", "pump did not quiesce"
    if outcome.aborts:
        # Origin-attributed detection. Prefer the self-reported originator
        # (its abort names itself); receivers echo the same origin.
        origins = sorted({origin for _, _, origin in outcome.aborts if origin})
        alerts = sorted({alert for _, alert, _ in outcome.aborts if alert})
        origin = origins[0] if origins else ""
        return (
            "detected",
            origin,
            f"fatal {'/'.join(alerts) or 'alert'} attributed to "
            f"{origin or 'unknown'}",
        )
    unauthorized = set(outcome.joined) - set(baseline.joined)
    if unauthorized:
        return (
            "silent-downgrade",
            "",
            f"unauthorized subchannel(s) {sorted(unauthorized)} joined",
        )
    if outcome.rejected and outcome.middleboxes == baseline.middleboxes:
        return (
            "detected",
            "",
            f"forged subchannel(s) {list(outcome.rejected)} visibly rejected; "
            "party set unchanged",
        )
    if outcome.equivalent(baseline):
        return "harmless", "", "session outcome equivalent to baseline"
    if outcome.fallbacks or outcome.rejected:
        reasons = ", ".join(outcome.fallbacks) or "rejection"
        return "fallback", "", f"degradation accounted ({reasons})"
    delivered = len(outcome.delivered_left) + len(outcome.delivered_right)
    expected = len(baseline.delivered_left) + len(baseline.delivered_right)
    if not outcome.established or delivered < expected:
        return "stalled", "", "denial of service only: no data tampered"
    return (
        "silent-downgrade",
        "",
        f"session weakened without detection (suite={outcome.suite!r}, "
        f"middleboxes={outcome.middleboxes!r})",
    )


def run_case(name: str, case: DowngradeCase) -> CaseVerdict:
    """Run one implementation against one downgrade case and score it."""
    adversary = case.adversary()
    outcome = _execute(
        name, case.seed, adversary, _PLACEMENT[adversary.kind]
    )
    baseline = baseline_outcome(name, case.seed)
    verdict, origin, detail = _classify(name, adversary.kind, outcome, baseline)
    if not adversary.applied and verdict in ("harmless", "stalled"):
        detail = "attack never fired (no-op on this implementation)"
        verdict = "harmless"
    return CaseVerdict(
        impl=name,
        seed=case.seed,
        case_index=case.case_index,
        kind=adversary.kind,
        verdict=verdict,
        origin=origin,
        detail=detail,
        attacks=tuple(adversary.applied),
        digest=outcome.digest,
    )


def _score_properties(
    name: str, verdicts: list[CaseVerdict], baseline_ok: bool
) -> dict[str, str]:
    properties: dict[str, str] = {}
    for prop, kinds in _PROPERTY_KINDS.items():
        if prop == "P7":
            properties[prop] = "pass" if baseline_ok else "FAIL"
            continue
        if prop == "P2" and name in UNAUTHENTICATED_CASES:
            properties[prop] = "n/a"
            continue
        if prop == "P6" and name not in _MBTLS_IMPLS:
            properties[prop] = "n/a"
            continue
        relevant = [v for v in verdicts if v.kind in kinds]
        if prop == "P2":
            failed = [
                v for v in relevant if "tampered plaintext" in v.detail
            ]
        elif prop == "P6":
            # The signal is present on these stacks, so stripping it must
            # be *detected* — a quiet no-op would be the downgrade winning.
            failed = [v for v in relevant if v.verdict != "detected"]
        else:
            failed = [v for v in relevant if not v.ok]
        properties[prop] = "FAIL" if failed else "pass"
    return properties


def run_selftest(
    impls=CASE_NAMES,
    seeds=(b"st-0", b"st-1"),
    kinds=ATTACK_KINDS,
) -> SelftestReport:
    """The full gauntlet: every impl × every attack kind × every seed."""
    scorecards = []
    for name in impls:
        verdicts: list[CaseVerdict] = []
        for seed in seeds:
            for kind in kinds:
                # case_index == position in ATTACK_KINDS, so a bare
                # (seed, case_index) pair reproduces the kind too.
                case_index = ATTACK_KINDS.index(kind)
                verdicts.append(run_case(name, DowngradeCase(seed, case_index)))
        base = baseline_outcome(name, seeds[0])
        baseline_ok = (
            base.established
            and not base.aborts
            and not base.leaked
            and base.quiesced
            and len(base.delivered_right) >= len(_C2S_PAYLOADS)
            and len(base.delivered_left) >= len(_S2C_PAYLOADS)
        )
        scorecards.append(
            ImplScorecard(
                impl=name,
                properties=_score_properties(name, verdicts, baseline_ok),
                verdicts=tuple(verdicts),
            )
        )
    return SelftestReport(scorecards=tuple(scorecards), seeds=tuple(seeds))
