"""Layer-split tracing: wrap each layer's entry points and fold self time.

A :class:`Tracer` patches the public functions and methods of every module
that belongs to a layer (plus the private functions named in ``probes``)
with wrappers that keep a span stack.  Entering a layer from another layer
opens a span; a call into the layer already on top of the stack passes
through untimed.  A layer's self time is the time of its spans minus the
time of the spans they opened, so the self times of all layers plus the
time spent outside every span add up to the traced wall time.

Probes count calls of chosen functions and time them inclusively.  A probe
counts only its outermost call, so ``seal_many`` calling ``encrypt`` counts
one batch, not a batch and its records again.

The tracer is for one thread, and it changes module and class attributes
process-wide while it is installed: use it as a context manager so the
originals are restored.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict
from typing import Callable

__all__ = ["LAYERS", "PROBES", "Tracer", "layer_metrics"]

#: Layers, named after the modules they cover.  An entry is a module prefix
#: (the module and every module below it) or ``module:Name`` for one class
#: or function of a module that otherwise belongs to no layer.
LAYERS: dict[str, tuple[str, ...]] = {
    "crypto.aead": (
        "repro.crypto.aes",
        "repro.crypto.bitsliced",
        "repro.crypto.gcm",
        "repro.crypto.chacha",
        "repro.crypto.pool",
        "repro.tls.record_layer:aead_for",
    ),
    "crypto.pk": (
        "repro.crypto.rsa",
        "repro.crypto.x25519",
        "repro.crypto.dh",
        "repro.crypto.kdf",
        "repro.tls.keyschedule",
        "repro.pki.store",
    ),
    "wire": ("repro.wire",),
    "io": ("repro.io", "repro.tls.record_layer:ConnectionState"),
    "engine": (
        "repro.tls.engine",
        "repro.core.client",
        "repro.core.server",
        "repro.core.middlebox",
        "repro.core.keys",
        "repro.core.resumption",
    ),
    "netsim": (
        "repro.netsim.sim",
        "repro.netsim.wheel",
        "repro.netsim.network",
        "repro.netsim.driver",
    ),
    "orchestrator": ("repro.core.orchestrator", "repro.core.drivers"),
    "obs": ("repro.obs",),
}

# Probe amounts are computed from the positional arguments and the result.
Amount = Callable[[tuple, object], int]


def _one(args: tuple, result: object) -> int:
    return 1


def _count(args: tuple, result: object) -> int:
    return len(result)


def _sealed_bytes(args: tuple, result: object) -> int:
    return len(result) - 16


def _batch_sealed_bytes(args: tuple, result: object) -> int:
    return sum(len(record) - 16 for record in result)


def _batch_opened_bytes(args: tuple, result: object) -> int:
    return sum(len(record) for record in result)


def _full(args: tuple, result: object) -> int:
    return 0 if args[0].resumed else 1


def _resumed(args: tuple, result: object) -> int:
    return 1 if args[0].resumed else 0


def _nonempty(args: tuple, result: object) -> int:
    return 1 if result else 0


# AEAD records and plaintext bytes, from what each call returns (a tag is
# 16 bytes in both suites).
_SEAL = (("aead.records", _one), ("aead.bytes", _sealed_bytes))
_OPEN = (("aead.records", _one), ("aead.bytes", _count))
_SEAL_MANY = (("aead.records", _count), ("aead.bytes", _batch_sealed_bytes))
_OPEN_MANY = (("aead.records", _count), ("aead.bytes", _batch_opened_bytes))
_KEY_SETUP = (("aead.key_setup", _one), ("aead.cache_miss", _one, "aead.cache_lookup"))

#: ``target -> ((key, amount[, within]), ...)``.  A probe with ``within``
#: counts only while the probe named ``within`` is open.
PROBES: dict[str, tuple[tuple, ...]] = {
    "repro.crypto.gcm:AESGCM.__init__": _KEY_SETUP,
    "repro.crypto.gcm:AESGCM.encrypt": _SEAL,
    "repro.crypto.gcm:AESGCM.decrypt": _OPEN,
    "repro.crypto.gcm:AESGCM.seal_many": _SEAL_MANY,
    "repro.crypto.gcm:AESGCM.open_many": _OPEN_MANY,
    "repro.crypto.chacha:ChaCha20Poly1305.__init__": _KEY_SETUP,
    "repro.crypto.chacha:ChaCha20Poly1305.encrypt": _SEAL,
    "repro.crypto.chacha:ChaCha20Poly1305.decrypt": _OPEN,
    "repro.crypto.chacha:ChaCha20Poly1305.seal_many": _SEAL_MANY,
    "repro.crypto.chacha:ChaCha20Poly1305.open_many": _OPEN_MANY,
    "repro.tls.record_layer:aead_for": (("aead.cache_lookup", _one),),
    "repro.crypto.rsa:RSAPrivateKey.sign": (("pk.rsa_private", _one),),
    "repro.crypto.rsa:RSAPrivateKey.decrypt": (("pk.rsa_private", _one),),
    "repro.crypto.rsa:RSAPublicKey.verify": (("pk.rsa_public", _one),),
    "repro.crypto.rsa:RSAPublicKey.encrypt": (("pk.rsa_public", _one),),
    "repro.crypto.x25519:x25519": (("pk.kex", _one),),
    "repro.crypto.dh:DHPrivateKey.__init__": (("pk.kex", _one),),
    "repro.crypto.dh:DHPrivateKey.exchange": (("pk.kex", _one),),
    "repro.crypto.kdf:p_hash": (("pk.kdf", _one),),
    "repro.crypto.kdf:hkdf_extract": (("pk.kdf", _one),),
    "repro.crypto.kdf:hkdf_expand": (("pk.kdf", _one),),
    "repro.pki.store:TrustStore.validate_chain": (("pk.chain_validate", _one),),
    "repro.wire.records:RecordBuffer.pop_records": (("wire.records_parsed", _count),),
    "repro.wire.records:RecordBuffer.pop_record_views": (
        ("wire.records_parsed", _count),
    ),
    "repro.io.record_plane:RecordPlane.pop_records": (("io.records_in", _count),),
    "repro.io.record_plane:RecordPlane._append": (("io.records_out", _one),),
    "repro.io.record_plane:RecordPlane.data_to_send": (("io.flushes", _nonempty),),
    "repro.tls.engine:TLSEngine._complete": (
        ("engine.full_handshakes", _full),
        ("engine.resumed_handshakes", _resumed),
    ),
    "repro.netsim.sim:Simulator.schedule": (("netsim.scheduled", _one),),
    "repro.netsim.sim:Simulator._discard": (("netsim.cancelled", _one),),
    "repro.netsim.sim:Simulator._fire": (("netsim.fired", _one),),
    "repro.core.orchestrator:SessionOrchestrator.submit": (("orch.submits", _one),),
    "repro.core.drivers:SessionSupervisor._redial": (("orch.redials", _one),),
}

# Codec calls are counted by name: every wire function or method whose name
# starts with one of these prefixes is a decode or an encode.
_WIRE_NAME_PROBES = (
    (("decode", "from_"), "wire.decode"),
    (("encode", "to_"), "wire.encode"),
)


def _module_matches(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


class Tracer:
    """Span-stack tracer over the layers of a set of modules.

    Args:
        layers: layer name -> module prefixes / ``module:Name`` entries.
        probes: ``module:qualname`` -> probe specs (see :data:`PROBES`).
        clock: a nanosecond clock; tests substitute a fake one.
    """

    def __init__(
        self,
        layers: dict[str, tuple[str, ...]] = LAYERS,
        probes: dict[str, tuple[tuple, ...]] = PROBES,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.layers = layers
        self.probes = probes
        self.clock = clock
        self.self_ns = dict.fromkeys(layers, 0)
        self.entries = dict.fromkeys(layers, 0)
        self.calls: dict[str, int] = defaultdict(int)
        self.amount: dict[str, int] = defaultdict(int)
        self.probe_ns: dict[str, int] = defaultdict(int)
        self.wall_ns = 0
        # Each frame is [layer, nanoseconds spent in child spans].
        self._stack: list[list] = [[None, 0]]
        self._depth: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []
        self._started = 0

    # ------------------------------------------------------------ results

    @property
    def attributed_ns(self) -> int:
        """Time spent inside any layer span."""
        return sum(self.self_ns.values())

    # ----------------------------------------------------------- wrappers

    def _boundary(self, fn: Callable, layer: str) -> Callable:
        stack = self._stack
        clock = self.clock
        self_ns = self.self_ns
        entries = self.entries

        def traced(*args, **kwargs):
            if stack[-1][0] is layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[1]
                stack[-1][1] += elapsed
                entries[layer] += 1

        return traced

    def _probe(
        self, fn: Callable, key: str, amount: Amount, within: str | None = None
    ) -> Callable:
        depth = self._depth
        clock = self.clock
        calls, totals, probe_ns = self.calls, self.amount, self.probe_ns

        def probed(*args, **kwargs):
            if depth[key] or (within is not None and not depth[within]):
                return fn(*args, **kwargs)
            depth[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[key] -= 1
                probe_ns[key] += clock() - start
            calls[key] += 1
            totals[key] += amount(args, result)
            return result

        return probed

    def _wrap(self, fn: Callable, layer: str, qualified: str) -> Callable:
        wrapped = self._boundary(fn, layer)
        probes = list(self.probes.get(qualified, ()))
        if layer == "wire":
            name = fn.__name__
            probes += [
                (key, _one) for prefixes, key in _WIRE_NAME_PROBES
                if name.startswith(prefixes)
            ]
        for spec in reversed(probes):
            wrapped = self._probe(wrapped, *spec)
        return functools.update_wrapper(wrapped, fn)

    # ------------------------------------------------------------ install

    def _layer_of(self, module: str, name: str) -> str | None:
        for layer, entries in self.layers.items():
            if f"{module}:{name}" in entries:
                return layer
        for layer, entries in self.layers.items():
            if any(":" not in entry and _module_matches(module, entry) for entry in entries):
                return layer
        return None

    def _wanted(self, module: str, qualname: str, name: str) -> bool:
        return not name.startswith("_") or f"{module}:{qualname}" in self.probes

    def _patch_class(self, module: str, cls: type, layer: str) -> None:
        for name, member in list(vars(cls).items()):
            qualname = f"{cls.__qualname__}.{name}"
            if name != "__init__" and not self._wanted(module, qualname, name):
                continue
            kind = type(member)
            fn = member.__func__ if kind in (staticmethod, classmethod) else member
            if not isinstance(fn, types.FunctionType) or inspect.isgeneratorfunction(fn):
                continue
            if name == "__init__" and fn.__module__ != module:
                continue
            wrapped = self._wrap(fn, layer, f"{module}:{qualname}")
            self._patched.append((cls, name, member))
            setattr(cls, name, kind(wrapped) if fn is not member else wrapped)

    def install(self) -> None:
        """Patch every layer's entry points, including their aliases."""
        replacements: dict[int, tuple[Callable, Callable]] = {}
        for module_name, module in sorted(sys.modules.items()):
            if module is None:
                continue
            for name, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module_name:
                    continue
                layer = self._layer_of(module_name, name)
                if layer is None:
                    continue
                if isinstance(value, type) and value.__qualname__ == name:
                    self._patch_class(module_name, value, layer)
                elif (
                    isinstance(value, types.FunctionType)
                    and self._wanted(module_name, name, name)
                    and not inspect.isgeneratorfunction(value)
                ):
                    replacements[id(value)] = (
                        value, self._wrap(value, layer, f"{module_name}:{name}")
                    )
        # ``from x import f`` copies the function object into other modules:
        # replace every attribute that *is* a wrapped function.
        for module in list(sys.modules.values()):
            if module is None:
                continue
            namespace = vars(module)
            for name, value in list(namespace.items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, name, value))
                    setattr(module, name, entry[1])

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        self._started = self.clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_ns += self.clock() - self._started
        self.uninstall()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Fold a finished trace into the per-layer metrics it measures, keyed by name."""
    ms = 1e-6
    wall = tracer.wall_ns or 1
    calls, amount, probe_ns = tracer.calls, tracer.amount, tracer.probe_ns

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, float] = {}
    for layer, self_ns in tracer.self_ns.items():
        metrics[f"{layer}.self_ms"] = self_ns * ms
        metrics[f"{layer}.share"] = self_ns / wall
    metrics.update({
        "crypto.aead.records": amount["aead.records"],
        "crypto.aead.bytes": amount["aead.bytes"],
        "crypto.aead.ns_per_byte": ratio(
            tracer.self_ns.get("crypto.aead", 0), amount["aead.bytes"]),
        "crypto.aead.batch_records_mean": ratio(
            amount["aead.records"], calls["aead.records"]),
        "crypto.aead.key_setups": calls["aead.key_setup"],
        "crypto.aead.key_setup_ms": probe_ns["aead.key_setup"] * ms,
        "crypto.aead.cache_hit_ratio": ratio(
            calls["aead.cache_lookup"] - calls["aead.cache_miss"],
            calls["aead.cache_lookup"]),
    })
    for name, key in (
        ("rsa_private", "pk.rsa_private"),
        ("rsa_public", "pk.rsa_public"),
        ("kex", "pk.kex"),
        ("kdf", "pk.kdf"),
    ):
        metrics[f"crypto.pk.{name}_calls"] = calls[key]
        metrics[f"crypto.pk.{name}_ms"] = probe_ns[key] * ms
    metrics["crypto.pk.chain_validations"] = calls["pk.chain_validate"]
    metrics["crypto.pk.chain_validate_ms"] = probe_ns["pk.chain_validate"] * ms
    metrics.update({
        "wire.decode_calls": calls["wire.decode"],
        "wire.encode_calls": calls["wire.encode"],
        "wire.records_parsed": amount["wire.records_parsed"],
        "io.records_in": amount["io.records_in"],
        "io.records_out": calls["io.records_out"],
        "io.flushes": amount["io.flushes"],
        "io.records_per_flush": ratio(calls["io.records_out"], amount["io.flushes"]),
        "engine.calls": tracer.entries.get("engine", 0),
        "engine.full_handshakes": amount["engine.full_handshakes"],
        "engine.resumed_handshakes": amount["engine.resumed_handshakes"],
        "netsim.events_scheduled": calls["netsim.scheduled"],
        "netsim.events_cancelled": calls["netsim.cancelled"],
        "netsim.cancel_ratio": ratio(calls["netsim.cancelled"], calls["netsim.scheduled"]),
        "netsim.us_per_event": ratio(
            tracer.self_ns.get("netsim", 0) * 1e-3, calls["netsim.fired"]),
        "orchestrator.submits": calls["orch.submits"],
        "orchestrator.redials": calls["orch.redials"],
        "obs.calls": tracer.entries.get("obs", 0),
        "trace.unattributed_share": 1.0 - tracer.attributed_ns / wall,
    })
    return metrics
