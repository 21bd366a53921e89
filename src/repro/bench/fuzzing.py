"""Fuzz-conformance harness: every party versus the mutation corpus.

Builds an in-memory session for each of the twelve
:class:`repro.io.Connection` / :class:`~repro.io.DuplexConnection`
implementations (the same twelve ``tests/test_connection_contract.py`` pins),
applies one deterministic :class:`~repro.netsim.fuzz.ChunkMutator` to the
client-to-server byte stream, and checks the abort invariant:

* no party ever leaks a non-:class:`~repro.errors.ReproError` exception;
* the pump always quiesces (a mutation may stall a session, never hang it);
* authenticated protocols never deliver plaintext that was not sent
  (BlindBox is exempt by design — it has no record integrity, which is the
  point the §2.2 comparison makes);
* both endpoints end the run closed — cleanly or via the alert plane,
  never half-open.

Every run is replayable: :func:`run_case` with an equal
:class:`~repro.netsim.fuzz.FuzzCase` produces a byte-identical transcript
digest. ``python -m repro fuzz`` runs the smoke corpus and prints failing
``(seed, mutation_index)`` pairs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.baselines.blindbox import (
    BlindBoxDetector,
    BlindBoxInspectorConnection,
    BlindBoxStreamConnection,
    RuleAuthority,
    TokenStream,
)
from repro.baselines.mctls import (
    ContextPermission,
    McTLSMiddleboxConnection,
    McTLSRecordConnection,
    McTLSSession,
)
from repro.baselines.mdtls import MdTLSDeployment
from repro.baselines.relay import SpliceRelay
from repro.baselines.shared_key import KeySharingConnection, KeySharingMiddlebox
from repro.baselines.split_tls import SplitTLSMiddlebox
from repro.bench.scenarios import Pki
from repro.core.client import MbTLSClientEngine
from repro.core.config import MbTLSEndpointConfig, MiddleboxConfig, MiddleboxRole
from repro.core.middlebox import MbTLSMiddlebox
from repro.core.server import MbTLSServerEngine
from repro.crypto.drbg import HmacDrbg
from repro.errors import ReproError
from repro.io import DEFAULT_PUMP_ROUNDS, HopChain
from repro.netsim.fuzz import MUTATION_KINDS, AppliedMutation, FuzzCase
from repro.tls.config import TLSConfig
from repro.tls.engine import TLSClientEngine, TLSServerEngine
from repro.tls.events import ApplicationData

__all__ = [
    "CASE_NAMES",
    "UNAUTHENTICATED_CASES",
    "FuzzReport",
    "build_parties",
    "corpus_digest",
    "leaks",
    "one_hop_tap",
    "run_case",
    "run_corpus",
    "smoke_corpus",
]

_C2S_PAYLOADS = (b"fuzz-ping-one", b"fuzz-ping-two")
_S2C_PAYLOADS = (b"fuzz-pong",)

#: Cases whose data plane carries no integrity protection: tampered bytes
#: reaching the application are the *documented* weakness, not a harness
#: failure.
UNAUTHENTICATED_CASES = frozenset({"blindbox", "blindbox_inspector"})


@dataclass
class _Parties:
    """One session's cast: ``left - middles - right`` plus phase hooks."""

    left: object
    middles: list
    right: object
    after_handshake: object = None  # callable, e.g. shared-key installation
    needs_handshake: bool = True

    def chain(self, tap=None) -> HopChain:
        return HopChain(self.left, self.middles, self.right, tap)

    def established(self) -> bool:
        """Both endpoints finished the handshake (trivially, if none runs)."""
        return not self.needs_handshake or all(
            getattr(party, "established", False)
            or getattr(party, "handshake_complete", False)
            for party in (self.left, self.right)
        )

    def converse(self, chain: HopChain, c2s, s2c) -> tuple[bool, bool]:
        """Handshake, exchange the payloads if established, close both ends.

        Returns ``(established, quiesced)``: establishment is sampled before
        the close (closing wipes it), and ``quiesced`` is whether every pump
        came to rest within :data:`~repro.io.DEFAULT_PUMP_ROUNDS`.
        """
        chain.start()
        quiesced = chain.pump()
        if self.after_handshake is not None:
            chain.guard("harness", self.after_handshake)
        established = self.established()
        if established:
            for payload in c2s:
                quiesced &= chain.send("left", payload)
            for payload in s2c:
                quiesced &= chain.send("right", payload)
        quiesced &= chain.close("left")
        quiesced &= chain.close("right")
        return established, quiesced


def one_hop_tap(hop: int, direction: str, process):
    """A :class:`~repro.io.HopChain` tap: ``process(data)`` on one hop only."""

    def tap(at_hop: int, at_direction: str, data: bytes) -> list:
        if (at_hop, at_direction) == (hop, direction):
            return [process(data)]
        return [data]

    return tap


def leaks(chain: HopChain) -> list[str]:
    """The chain's errors that are crashes, not typed refusals.

    The sans-IO contract prefers alerts over raises, but a raised
    :class:`~repro.errors.ReproError` is still a typed refusal; anything
    else escaping a party is a finding.
    """
    return [
        f"{name} leaked {type(exc).__name__}: {exc}"
        for name, exc in chain.errors
        if not isinstance(exc, ReproError)
    ]


# One PKI per seed (RSA generation dominates otherwise); the engine DRBGs
# are derived independently so caching cannot perturb replay determinism.
# The CA numbers certificates in issue order, so every leaf a case can use
# is issued when the seed's PKI is built, in one fixed order; otherwise a
# case's bytes would depend on which cases ran earlier in the process. The
# order (server, mbox, split TLS's fabricated server leaf, client) is the
# one a fresh run of CASE_NAMES in order issues them in.
_PKI_CACHE: dict[bytes, Pki] = {}
_FAB_CACHE: dict[bytes, object] = {}


def _pki(seed: bytes) -> Pki:
    if seed not in _PKI_CACHE:
        pki = Pki(rng=HmacDrbg(seed, personalization=b"fuzz-pki"))
        pki.credential("server")
        pki.credential("mbox")
        _FAB_CACHE[seed] = pki.ca.issue_credential(
            "server",
            rng=HmacDrbg(seed, personalization=b"fuzz-split-leaf"),
            key_bits=pki.key_bits,
        )
        pki.credential("client")
        _PKI_CACHE[seed] = pki
    return _PKI_CACHE[seed]


def _tls_config(rng, pki, label: bytes, *, client: bool) -> TLSConfig:
    if client:
        return TLSConfig(
            rng=rng.fork(label), trust_store=pki.trust, server_name="server"
        )
    return TLSConfig(rng=rng.fork(label), credential=pki.credential("server"))


def _build_tls(pki, rng, seed) -> _Parties:
    return _Parties(
        left=TLSClientEngine(_tls_config(rng, pki, b"cli", client=True)),
        middles=[],
        right=TLSServerEngine(_tls_config(rng, pki, b"srv", client=False)),
    )


def _mbtls_endpoints(pki, rng):
    client = MbTLSClientEngine(
        MbTLSEndpointConfig(
            tls=_tls_config(rng, pki, b"cli", client=True),
            middlebox_trust_store=pki.trust,
            tamper_policy="abort",
        )
    )
    server = MbTLSServerEngine(
        MbTLSEndpointConfig(
            tls=_tls_config(rng, pki, b"srv", client=False),
            middlebox_trust_store=pki.trust,
            tamper_policy="abort",
        )
    )
    return client, server


def _build_mbtls(pki, rng, seed) -> _Parties:
    client, server = _mbtls_endpoints(pki, rng)
    return _Parties(left=client, middles=[], right=server)


def _build_mctls(pki, rng, seed) -> _Parties:
    session = McTLSSession(rng.fork(b"c"), rng.fork(b"s"), [1])
    return _Parties(
        left=McTLSRecordConnection(session.endpoint_party(), default_context=1),
        middles=[],
        right=McTLSRecordConnection(session.endpoint_party(), default_context=1),
        needs_handshake=False,
    )


def _build_blindbox(pki, rng, seed) -> _Parties:
    key = rng.fork(b"tok").random_bytes(32)
    return _Parties(
        left=BlindBoxStreamConnection(TokenStream(key)),
        middles=[],
        right=BlindBoxStreamConnection(TokenStream(key)),
        needs_handshake=False,
    )


def _build_mbtls_middlebox(pki, rng, seed) -> _Parties:
    client, server = _mbtls_endpoints(pki, rng)
    middlebox = MbTLSMiddlebox(
        MiddleboxConfig(
            name="mbox",
            tls=TLSConfig(rng=rng.fork(b"mb"), credential=pki.credential("mbox")),
            role=MiddleboxRole.AUTO,
            process=lambda direction, data: data,
            tamper_policy="abort",
        ),
        destination="server",
    )
    return _Parties(left=client, middles=[middlebox], right=server)


def _build_split_tls(pki, rng, seed) -> _Parties:
    middlebox = SplitTLSMiddlebox(
        pki.ca,
        "server",
        rng.fork(b"split"),
        upstream_trust=pki.trust,
        fabricated_credential=_FAB_CACHE[seed],
    )
    return _Parties(
        left=TLSClientEngine(_tls_config(rng, pki, b"cli", client=True)),
        middles=[middlebox],
        right=TLSServerEngine(_tls_config(rng, pki, b"srv", client=False)),
    )


def _build_splice_relay(pki, rng, seed) -> _Parties:
    return _Parties(
        left=TLSClientEngine(_tls_config(rng, pki, b"cli", client=True)),
        middles=[SpliceRelay()],
        right=TLSServerEngine(_tls_config(rng, pki, b"srv", client=False)),
    )


def _build_shared_key(pki, rng, seed) -> _Parties:
    client = TLSClientEngine(_tls_config(rng, pki, b"cli", client=True))
    server = TLSServerEngine(_tls_config(rng, pki, b"srv", client=False))
    middlebox = KeySharingMiddlebox()

    def share_keys() -> None:
        if client.handshake_complete and not middlebox.keys_installed:
            suite, key_block = client.export_key_block()
            middlebox.install_keys(suite.code, key_block)

    return _Parties(
        left=client,
        middles=[KeySharingConnection(middlebox)],
        right=server,
        after_handshake=share_keys,
    )


def _build_mctls_inspector(pki, rng, seed) -> _Parties:
    session = McTLSSession(rng.fork(b"c"), rng.fork(b"s"), [1])
    return _Parties(
        left=McTLSRecordConnection(session.endpoint_party(), default_context=1),
        middles=[
            McTLSMiddleboxConnection(
                session.middlebox_party({1: ContextPermission.READ})
            )
        ],
        right=McTLSRecordConnection(session.endpoint_party(), default_context=1),
        needs_handshake=False,
    )


def _build_blindbox_inspector(pki, rng, seed) -> _Parties:
    key = rng.fork(b"tok").random_bytes(32)
    authority = RuleAuthority(key)
    detector = BlindBoxDetector([authority.encrypt_rule("rule", b"suspicious")])
    return _Parties(
        left=BlindBoxStreamConnection(TokenStream(key)),
        middles=[BlindBoxInspectorConnection(detector)],
        right=BlindBoxStreamConnection(TokenStream(key)),
        needs_handshake=False,
    )


def _mdtls_deployment(pki, rng, middleboxes=()) -> MdTLSDeployment:
    return MdTLSDeployment(
        rng=rng.fork(b"mdtls"),
        trust_store=pki.trust,
        client_credential=pki.credential("client"),
        server_credential=pki.credential("server"),
        middleboxes=[(name, pki.credential(name)) for name in middleboxes],
    )


def _build_mdtls(pki, rng, seed) -> _Parties:
    deployment = _mdtls_deployment(pki, rng)
    return _Parties(
        left=deployment.build_client(),
        middles=[],
        right=deployment.build_server(),
    )


def _build_mdtls_middlebox(pki, rng, seed) -> _Parties:
    deployment = _mdtls_deployment(pki, rng, middleboxes=("mbox",))
    return _Parties(
        left=deployment.build_client(),
        middles=[deployment.build_middlebox(0)],
        right=deployment.build_server(),
    )


_BUILDERS = {
    "tls": _build_tls,
    "mbtls": _build_mbtls,
    "mctls": _build_mctls,
    "blindbox": _build_blindbox,
    "mbtls_middlebox": _build_mbtls_middlebox,
    "split_tls": _build_split_tls,
    "splice_relay": _build_splice_relay,
    "shared_key": _build_shared_key,
    "mctls_inspector": _build_mctls_inspector,
    "blindbox_inspector": _build_blindbox_inspector,
    "mdtls": _build_mdtls,
    "mdtls_middlebox": _build_mdtls_middlebox,
}

CASE_NAMES = tuple(_BUILDERS)


def build_parties(name: str, seed: bytes) -> _Parties:
    """Build the party chain for one implementation, deterministically."""
    rng = HmacDrbg(seed, personalization=b"fuzz-parties")
    return _BUILDERS[name](_pki(seed), rng, seed)


@dataclass
class FuzzReport:
    """The outcome of one fuzz case against one implementation."""

    name: str
    case: FuzzCase
    kind: str
    failures: tuple[str, ...]
    digest: str
    mutations: tuple[AppliedMutation, ...]
    events: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL " + "; ".join(self.failures)
        return f"{self.name} {self.case.describe()} kind={self.kind}: {status}"


def run_case(name: str, case: FuzzCase) -> FuzzReport:
    """Run one implementation through one mutated session."""
    parties = build_parties(name, case.seed)
    mutator = case.mutator()
    chain = parties.chain(one_hop_tap(0, "c2s", mutator.process_chunk))
    _, quiesced = parties.converse(chain, _C2S_PAYLOADS, _S2C_PAYLOADS)
    failures = leaks(chain)
    if not quiesced:
        failures.append(f"pump did not quiesce within {DEFAULT_PUMP_ROUNDS} rounds")
    if name not in UNAUTHENTICATED_CASES:
        allowed = set(_C2S_PAYLOADS) | set(_S2C_PAYLOADS)
        failures += [
            f"{party_name} delivered tampered plaintext {event.data[:32]!r}"
            for party_name, event in chain.events
            if party_name in ("left", "right")
            and isinstance(event, ApplicationData)
            and event.data not in allowed
        ]
    failures += [
        f"{party_name} left half-open"
        for party_name in ("left", "right")
        if not chain.party(party_name).closed
    ]
    chain.hash.update(b"|".join(f.encode() for f in failures))
    return FuzzReport(
        name=name,
        case=case,
        kind=mutator.kind,
        failures=tuple(failures),
        digest=chain.hash.hexdigest(),
        mutations=tuple(mutator.applied),
        events=tuple(
            f"{who}:{type(event).__name__}" for who, event in chain.events
        ),
    )


def corpus_digest(reports) -> str:
    """One sha256 over every report's transcript digest, in corpus order."""
    h = hashlib.sha256()
    for report in reports:
        h.update(report.digest.encode())
    return h.hexdigest()


def run_corpus(
    names=CASE_NAMES,
    seeds=(b"fz-0", b"fz-1", b"fz-2", b"fz-3", b"fz-4"),
    kinds=MUTATION_KINDS,
    mutation_indices=(1, 3),
) -> list[FuzzReport]:
    """The full conformance sweep: implementations x kinds x seeds."""
    reports = []
    for name in names:
        for kind in kinds:
            for seed in seeds:
                for index in mutation_indices:
                    reports.append(
                        run_case(name, FuzzCase(seed, index, kind))
                    )
    return reports


def smoke_corpus(seeds=(b"smoke-0", b"smoke-1")) -> list[FuzzReport]:
    """A CI-sized sweep: DRBG-chosen kinds over a small seed matrix."""
    reports = []
    for name in CASE_NAMES:
        for seed in seeds:
            for index in (0, 2):
                reports.append(run_case(name, FuzzCase(seed, index)))
    return reports
