"""Tests for the layer tracer: self-time arithmetic, aliases, probes, restore.

Run from the repository root:

    PYTHONPATH=src python -m pytest perf/test_trace.py
"""

from __future__ import annotations

import sys
import types

import pytest

from perf.trace import LAYERS, PROBES, Tracer, layer_metrics


class FakeClock:
    """A nanosecond clock that only moves when code under test spends time."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def spend(self, ns: int) -> None:
        self.now += ns


INNER = '''
def work(ns):
    clock.spend(ns)
    return ns

def nested(ns):
    work(ns)
    return work(ns)

def _private(ns):
    clock.spend(ns)

def counted(items):
    clock.spend(len(items))
    if len(items) > 1:
        counted(items[1:])
    return items

class Box:
    protect_many = None

    def __init__(self, ns):
        clock.spend(ns)

    def open(self, ns):
        return work(ns)

    def batch(self, items):
        for item in items:
            self.open(item)
        return items
'''

OUTER = '''
import fake_inner as inner
from fake_inner import work

def handle():
    clock.spend(10)
    work(30)
    clock.spend(5)
    inner.nested(20)

def via_alias(ns):
    return work(ns)
'''


@pytest.fixture
def fakes():
    clock = FakeClock()
    modules = {}
    for name, source in (("fake_inner", INNER), ("fake_outer", OUTER)):
        module = types.ModuleType(name)
        module.clock = clock
        sys.modules[name] = module
        exec(source, module.__dict__)
        modules[name] = module
    yield clock, modules["fake_inner"], modules["fake_outer"]
    for name in modules:
        del sys.modules[name]


LAYERS_UNDER_TEST = {"outer": ("fake_outer",), "inner": ("fake_inner",)}


def test_self_time_excludes_child_spans(fakes):
    clock, inner, outer = fakes
    with Tracer(LAYERS_UNDER_TEST, probes={}, clock=clock) as tracer:
        clock.spend(100)  # outside every layer
        outer.handle()
    # handle: 10 + 5 of its own; work(30) and nested(20) -> 30 + 40 inner.
    assert tracer.self_ns == {"outer": 15, "inner": 70}
    assert tracer.wall_ns == 185
    assert tracer.attributed_ns == 85
    # nested() enters the inner layer once; its own work() calls pass through.
    assert tracer.entries == {"outer": 1, "inner": 2}


def test_shares_and_unattributed_add_up(fakes):
    clock, inner, outer = fakes
    with Tracer(LAYERS_UNDER_TEST, probes={}, clock=clock) as tracer:
        clock.spend(100)
        outer.handle()
    shares = {layer: ns / tracer.wall_ns for layer, ns in tracer.self_ns.items()}
    unattributed = 1 - tracer.attributed_ns / tracer.wall_ns
    assert sum(shares.values()) + unattributed == pytest.approx(1.0)
    assert unattributed == pytest.approx(100 / 185)


def test_from_import_aliases_are_traced_and_restored(fakes):
    clock, inner, outer = fakes
    original = inner.work
    assert outer.work is original
    with Tracer(LAYERS_UNDER_TEST, probes={}, clock=clock) as tracer:
        assert outer.work is inner.work is not original
        outer.via_alias(7)
    assert tracer.self_ns["inner"] == 7
    assert inner.work is original and outer.work is original


def test_methods_and_init_are_traced_and_restored(fakes):
    clock, inner, outer = fakes
    methods = dict(vars(inner.Box))
    with Tracer(LAYERS_UNDER_TEST, probes={}, clock=clock) as tracer:
        box = inner.Box(3)
        box.open(4)
        assert inner.Box.protect_many is None
    assert tracer.self_ns["inner"] == 7
    assert tracer.entries["inner"] == 2
    assert dict(vars(inner.Box)) == methods


def test_private_functions_are_wrapped_only_when_probed(fakes):
    clock, inner, outer = fakes
    original = inner._private
    with Tracer(LAYERS_UNDER_TEST, probes={}, clock=clock):
        assert inner._private is original
    probes = {"fake_inner:_private": (("private", lambda args, result: 1),)}
    with Tracer(LAYERS_UNDER_TEST, probes=probes, clock=clock) as tracer:
        inner._private(5)
    assert tracer.calls["private"] == 1 and tracer.probe_ns["private"] == 5


def test_probe_counts_only_the_outermost_call(fakes):
    clock, inner, outer = fakes
    probes = {
        "fake_inner:counted": (("items", lambda args, result: len(result)),),
        "fake_inner:Box.batch": (("records", lambda args, result: len(result)),),
        "fake_inner:Box.open": (("records", lambda args, result: 1),),
    }
    with Tracer(LAYERS_UNDER_TEST, probes=probes, clock=clock) as tracer:
        inner.counted([1, 2, 3])  # recurses twice
        box = inner.Box(0)
        box.batch([1, 1, 1, 1])  # opens four, counted once as a batch of four
        box.open(2)
    assert tracer.calls["items"] == 1 and tracer.amount["items"] == 3
    assert tracer.probe_ns["items"] == 3 + 2 + 1
    assert tracer.calls["records"] == 2 and tracer.amount["records"] == 5


def test_within_probe_counts_only_inside_the_named_probe(fakes):
    clock, inner, outer = fakes
    probes = {
        "fake_inner:nested": (("lookup", lambda args, result: 1),),
        "fake_inner:work": (("miss", lambda args, result: 1, "lookup"),),
    }
    with Tracer(LAYERS_UNDER_TEST, probes=probes, clock=clock) as tracer:
        inner.work(1)  # no lookup open: not counted
        inner.nested(1)  # two work() calls inside the lookup
    assert tracer.calls["lookup"] == 1
    assert tracer.calls["miss"] == 2


def test_exceptions_keep_the_stack_balanced(fakes):
    clock, inner, outer = fakes

    def boom(ns):
        clock.spend(ns)
        raise ValueError("boom")

    inner.boom = boom
    boom.__module__ = "fake_inner"
    with Tracer(LAYERS_UNDER_TEST, probes={}, clock=clock) as tracer:
        with pytest.raises(ValueError):
            inner.boom(4)
        inner.work(6)
    assert tracer.self_ns["inner"] == 10
    assert tracer.entries["inner"] == 2


def test_library_is_patched_and_restored():
    pytest.importorskip("repro")
    from repro.crypto import kdf, rsa
    from repro.tls import keyschedule
    from repro.tls.record_layer import ConnectionState

    prf, sign, protect = kdf.prf, rsa.RSAPrivateKey.sign, ConnectionState.protect
    assert keyschedule.prf is prf
    with Tracer():
        assert kdf.prf is not prf and keyschedule.prf is kdf.prf
        assert rsa.RSAPrivateKey.sign is not sign
        assert ConnectionState.protect is not protect
    assert kdf.prf is prf and keyschedule.prf is prf
    assert rsa.RSAPrivateKey.sign is sign and ConnectionState.protect is protect


def test_probe_targets_name_existing_functions():
    pytest.importorskip("repro")
    import importlib

    for target in PROBES:
        module_name, qualname = target.split(":")
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            owner = getattr(owner, part)
        assert callable(owner), target
    for entries in LAYERS.values():
        for entry in entries:
            importlib.import_module(entry.split(":")[0])


def test_layer_metrics_cover_every_layer():
    tracer = Tracer(clock=FakeClock())
    tracer.wall_ns = 10
    metrics = layer_metrics(tracer)
    for layer in LAYERS:
        assert metrics[f"{layer}.self_ms"] == 0
        assert metrics[f"{layer}.share"] == 0
    assert metrics["trace.unattributed_share"] == 1.0
