"""Command-line interface: regenerate the paper's experiments without pytest.

Usage::

    python -m repro threats              # Table 1, executed attacks
    python -m repro viability            # Table 2, 241 client sites
    python -m repro interop --sites 100  # §5.1 legacy interop (Alexa-style)
    python -m repro cpu --trials 5       # Figure 5, handshake CPU per party
    python -m repro latency              # Figure 6, WAN handshake latency
    python -m repro sgx                  # Figure 7, enclave throughput model
    python -m repro fuzz                 # protocol-fuzz smoke corpus
    python -m repro selftest             # downgrade gauntlet, P1-P7 scorecard
    python -m repro bench --quick        # bulk-crypto + record-plane benches
    python -m repro fleet --quick        # fleet-scale session churn
    python -m repro fleet --chaos --quick  # chaos fleet: failover + shedding
    python -m repro fleet --check-baseline  # gate vs committed BENCH_fleet.json
    python -m repro metrics              # observability plane vs wiretap
    python -m repro all                  # everything
"""

from __future__ import annotations

import argparse
import sys


def _cmd_threats(args) -> None:
    from repro.bench.tables import render_table
    from repro.bench.threats import run_all_threats

    outcomes = run_all_threats()
    rows = [
        [o.threat, o.protocol, "DEFENDED" if o.defended else "VULNERABLE", o.mechanism]
        for o in outcomes
    ]
    print(render_table("Table 1 — Threats and Defenses (executed)",
                       ["threat", "protocol", "outcome", "mechanism"], rows))


def _cmd_viability(args) -> None:
    from repro.bench.population import generate_population
    from repro.bench.scenarios import Pki
    from repro.bench.tables import render_table
    from repro.bench.viability import run_population
    from repro.crypto.drbg import HmacDrbg

    rng = HmacDrbg(args.seed.encode())
    pki = Pki(rng=rng.fork(b"pki"))
    sites = generate_population(rng.fork(b"pop"))
    if args.sites:
        sites = sites[: args.sites]
    print(f"running mbTLS handshakes from {len(sites)} client sites ...")
    results, by_type = run_population(sites, pki, rng.fork(b"run"))
    rows = [[t, f"{ok}/{total}"] for t, (ok, total) in sorted(by_type.items())]
    rows.append(["Total", f"{sum(ok for ok, _ in by_type.values())}/{len(sites)}"])
    print(render_table("Table 2 — handshake viability by network type",
                       ["network type", "successful"], rows))


def _cmd_interop(args) -> None:
    from repro.bench.alexa import PAPER_COUNTS, generate_alexa_population
    from repro.bench.interop import FetchOutcome, run_alexa
    from repro.bench.scenarios import Pki
    from repro.bench.tables import render_table
    from repro.crypto.drbg import HmacDrbg

    rng = HmacDrbg(args.seed.encode())
    pki = Pki(rng=rng.fork(b"pki"))
    servers = generate_alexa_population(rng.fork(b"pop"))
    if args.sites:
        servers = servers[: args.sites]
    print(f"fetching from {len(servers)} legacy servers through an mbTLS proxy ...")
    counts = run_alexa(servers, pki, rng.fork(b"run"))
    rows = [[outcome.value, counts.get(outcome, 0)] for outcome in FetchOutcome]
    print(render_table("§5.1 legacy interoperability", ["outcome", "sites"], rows))
    if not args.sites:
        print(f"(paper: {PAPER_COUNTS['success']} successes of "
              f"{PAPER_COUNTS['total']})")


def _cmd_cpu(args) -> None:
    from repro.bench.cpu import measure_all
    from repro.bench.tables import render_table

    print(f"measuring handshake CPU, {args.trials} trials per configuration ...")
    results = measure_all(trials=args.trials)
    rows = [
        [r.configuration, f"{r.client*1000:.2f}", f"{r.middlebox*1000:.2f}",
         f"{r.server*1000:.2f}"]
        for r in results
    ]
    print(render_table("Figure 5 — handshake CPU per party (ms, median)",
                       ["configuration", "client", "middlebox", "server"], rows))


def _cmd_latency(args) -> None:
    from repro.bench.scenarios import Pki, run_fetch
    from repro.bench.tables import render_table
    from repro.bench.topologies import build_wan, path_permutations
    from repro.core.config import MiddleboxRole
    from repro.crypto.drbg import HmacDrbg

    rng = HmacDrbg(args.seed.encode())
    pki = Pki(rng=rng.fork(b"pki"))
    rows = []
    deltas = []
    for client, mbox, server in path_permutations():
        label = f"{client}-{mbox}-{server}"
        tls = run_fetch(build_wan(client, mbox, server), pki,
                        rng.fork(b"t" + label.encode()), protocol="tls")
        mbtls = run_fetch(
            build_wan(client, mbox, server), pki, rng.fork(b"m" + label.encode()),
            protocol="mbtls",
            middlebox_hosts=[("mbox", MiddleboxRole.CLIENT_SIDE)],
            server_is_mbtls=False,
        )
        delta = (mbtls.handshake_seconds - tls.handshake_seconds) / tls.handshake_seconds
        deltas.append(delta)
        rows.append([label, f"{tls.handshake_seconds*1000:.0f}",
                     f"{mbtls.handshake_seconds*1000:.0f}", f"{delta*100:+.1f}%"])
    print(render_table("Figure 6 — handshake latency over 12 WAN paths (ms)",
                       ["path", "TLS", "mbTLS", "delta"], rows))
    print(f"mean delta: {sum(deltas)/len(deltas)*100:+.2f}%")


def _cmd_sgx(args) -> None:
    from repro.bench.tables import render_series
    from repro.sgx.syscalls import SgxCostModel

    model = SgxCostModel()
    series = {}
    for label, enc, encl in (
        ("no-enc / no-enclave", False, False),
        ("no-enc / enclave", False, True),
        ("enc / no-enclave", True, False),
        ("enc / enclave", True, True),
    ):
        series[label] = [
            (size, model.throughput(size, enclave=encl, encryption=enc).throughput_gbps)
            for size in (512, 1024, 2048, 4096, 8192, 12288)
        ]
    print(render_series("Figure 7 — throughput (Gbps) vs buffer size",
                        series, "buffer bytes", "Gbps"))


def _cmd_fuzz(args) -> None:
    from repro.bench.fuzzing import CASE_NAMES, corpus_digest, run_case, smoke_corpus
    from repro.netsim.fuzz import MUTATION_KINDS, FuzzCase

    if args.replay:
        if args.replay not in CASE_NAMES:
            raise SystemExit(
                f"unknown implementation {args.replay!r}; "
                f"choose from {', '.join(CASE_NAMES)}"
            )
        index = 1 if args.index is None else args.index
        case = FuzzCase(args.seed.encode(), index, args.kind)
        report = run_case(args.replay, case)
        print(report.describe())
        for mutation in report.mutations:
            print(f"  applied: {mutation}")
        for entry in report.events:
            print(f"  event:   {entry}")
        print(f"  digest:  {report.digest}")
        if not report.ok:
            raise SystemExit(1)
        return

    print(f"fuzz smoke corpus: {len(CASE_NAMES)} implementations, "
          f"kinds drawn from {{{', '.join(MUTATION_KINDS)}}} ...")
    reports = smoke_corpus()
    failures = [r for r in reports if not r.ok]
    print(f"{len(reports) - len(failures)}/{len(reports)} cases ok")
    print(f"corpus digest {corpus_digest(reports)[:16]}")
    if failures:
        print("failing (seed, mutation_index) pairs, replay with "
              "`python -m repro fuzz --replay NAME --seed SEED --index N`:")
        for report in failures:
            print(f"  {report.describe()}")
        raise SystemExit(1)


def _cmd_selftest(args) -> None:
    import json

    from repro.bench.fuzzing import CASE_NAMES
    from repro.bench.selftest import run_case, run_selftest
    from repro.netsim.downgrade import ATTACK_KINDS, DowngradeCase

    impls = CASE_NAMES
    if args.impl:
        if args.impl not in CASE_NAMES:
            raise SystemExit(
                f"unknown implementation {args.impl!r}; "
                f"choose from {', '.join(CASE_NAMES)}"
            )
        impls = (args.impl,)

    if args.index is not None:
        # Replay one case: everything rebuilds from (seed, case_index).
        if not args.impl:
            raise SystemExit("selftest replay needs --impl NAME")
        case = DowngradeCase(args.seed.encode(), args.index, args.kind)
        verdict = run_case(args.impl, case)
        if args.json:
            print(json.dumps(verdict.to_json(), indent=2, sort_keys=True))
        else:
            print(verdict.describe())
            for attack in verdict.attacks:
                print(f"  applied: {attack}")
        if not verdict.ok:
            raise SystemExit(1)
        return

    seeds = (b"st-0",) if args.quick else (b"st-0", b"st-1")
    cases = len(impls) * len(seeds) * len(ATTACK_KINDS)
    if not args.json:
        print(
            f"downgrade gauntlet: {len(impls)} implementation(s) x "
            f"{len(ATTACK_KINDS)} attack kinds x {len(seeds)} seed(s) "
            f"= {cases} cases ..."
        )
    report = run_selftest(impls=impls, seeds=seeds)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
        print(
            "replay any case with `python -m repro selftest --impl NAME "
            "--seed SEED --index N`"
        )
    if not report.ok:
        raise SystemExit(1)


def _cmd_metrics(args) -> None:
    import json

    from repro.bench.observability import metrics_report, run_observed
    from repro.bench.tables import render_table

    flights = 1 if args.quick else 3
    workers = args.workers or None
    # With a pool, size the response so each flight fragments into eight
    # 16 KiB records — the smallest pool-eligible batch — so the pooled
    # open path is actually exercised on every hop.
    response_size = 128 * 1024 if workers else 2048
    run = run_observed(
        seed=args.seed, flights=flights, workers=workers,
        response_size=response_size,
    )
    report = metrics_report(run, include_trace=not args.quick)

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return

    scenario = report["scenario"]
    print(f"observed scenario: {' -> '.join(scenario['path'])}, "
          f"{scenario['flights']} request/response flights, "
          f"seed {scenario['seed']!r} (schema v{report['schema_version']})")
    print(f"established={scenario['established']} "
          f"degraded={scenario['degraded']} "
          f"reply={scenario['reply_bytes']} bytes "
          f"in {scenario['sim_seconds']*1000:.1f} virtual ms")
    rows = []
    mismatches = 0
    for hop in report["per_hop"]:
        ok = (hop["wire_application_data"] == hop["sealed_application_data"]
              == hop["opened_application_data"])
        mismatches += 0 if ok else 1
        rows.append([
            hop["hop"], hop["wire_application_data"],
            f"{hop['sealed_application_data']} ({hop['sealed_by']})",
            f"{hop['opened_application_data']} ({hop['opened_by']})",
            "ok" if ok else "MISMATCH",
        ])
    print(render_table(
        "Per-hop application-data records: wiretap vs metrics",
        ["hop", "wire", "sealed by", "opened by", "check"], rows))
    counters = report["metrics"]["counters"]
    interesting = ("key_installs", "alerts_sent", "seal_flushes",
                   "supervisor_outcomes", "driver_timeouts")
    rows = []
    for name in interesting:
        for entry in counters.get(name, []):
            labels = ", ".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
            rows.append([name, labels, entry["value"]])
    if rows:
        print(render_table("Selected session counters",
                           ["counter", "labels", "value"], rows))
    pool = report.get("pool")
    if pool:
        rows = [[f"chunk {t['chunk']}", t["op"], t["value"]]
                for t in pool["tasks"]]
        rows.append(["total records", "seal", pool["records"]["seal"]])
        rows.append(["total records", "open", pool["records"]["open"]])
        print(render_table(
            f"AEAD pool ({pool['workers']} workers)",
            ["series", "op", "count"], rows))
        # Cross-check the pool against the same wiretap-verified counters
        # the per-hop table uses: every pooled record is also a sealed /
        # opened record, so the pool totals are bounded by them, and a
        # pooled run with flights sized for eligibility must actually have
        # routed records through the workers.
        total_sealed = sum(h["sealed_application_data"] for h in report["per_hop"])
        total_opened = sum(h["opened_application_data"] for h in report["per_hop"])
        problems = []
        if pool["records"]["seal"] > total_sealed:
            problems.append(
                f"pooled seals {pool['records']['seal']} exceed the "
                f"{total_sealed} application-data records sealed on the wire")
        if pool["records"]["open"] > total_opened:
            problems.append(
                f"pooled opens {pool['records']['open']} exceed the "
                f"{total_opened} application-data records opened on the wire")
        if pool["records"]["seal"] <= 0 or pool["records"]["open"] <= 0:
            problems.append("pool configured but no records were pooled")
        for op in ("seal", "open"):
            tasked = sum(t["value"] for t in pool["tasks"] if t["op"] == op)
            if tasked <= 0:
                problems.append(f"no {op} tasks reached any chunk slot")
        if problems:
            raise SystemExit("pool cross-check failed: " + "; ".join(problems))
    if mismatches:
        raise SystemExit(f"{mismatches} hop(s) disagree with the wiretap")
    print("all hops agree with the adversary's ground truth"
          + (" (pooled counters reconciled)" if pool else ""))


def _cmd_bench(args) -> None:
    import json
    from pathlib import Path

    from repro.bench import crypto as crypto_bench
    from repro.bench import record_plane as record_plane_bench
    from repro.bench.tables import render_table

    root = Path.cwd()
    crypto_path = root / "BENCH_crypto.json"

    mode = "quick" if args.quick else "full"
    workers = args.workers or None
    # One stamp for both reports, taken before either is written: writing
    # BENCH_crypto.json dirties the tree the record-plane run would see.
    stamp = crypto_bench.git_describe()
    print(f"crypto bench ({mode}): primitives at 16 KiB records, "
          f"then a 2-middlebox chain"
          f"{f' (+{workers}-worker pooled leg)' if workers else ''} ...")
    report = crypto_bench.run(stamp, quick=args.quick, workers=workers)

    rows = [
        [p["suite"], f"{p['seal_mb_per_s']:.1f}", f"{p['open_mb_per_s']:.1f}",
         f"{p.get('seal_speedup', '-')}"]
        for p in report["primitives"]
    ]
    print(render_table("Bulk crypto — 16 KiB records",
                       ["suite", "seal MB/s", "open MB/s", "vs scalar"], rows))
    rows = [
        [p["suite"], str(p["record_bytes"]), f"{p['seal_us_per_record']:,.0f}",
         f"{p['legacy_seal_us_per_record']:,.0f}", f"{p['seal_speedup']}"]
        for p in report["small_records"]
    ]
    print(render_table("AES-GCM seal — small records",
                       ["suite", "bytes", "µs/record", "scalar µs", "vs scalar"],
                       rows))
    rows = [
        [p["suite"], str(p["record_bytes"]),
         f"{p['setup_and_first_seal_us']:,.0f}", f"{p['second_seal_us']:,.0f}"]
        for p in report["short_lived"]
    ]
    print(render_table("AES-GCM short-lived keys — GHASH tables absent",
                       ["suite", "bytes", "key + first seal µs",
                        "second seal µs"], rows))
    rows = [
        [p["tables"], f"{p['table_kib']:,}", f"{p['hot_ns_per_byte']}",
         f"{p['chain_ns_per_byte']}"]
        for p in report["ghash"]
    ]
    print(render_table(f"GHASH — {report['ghash'][0]['record_bytes']} B records",
                       ["tables", "KiB per key", "ns/B one key",
                        "ns/B in a chain"], rows))
    kex = report["kex"]
    print(f"X25519: {kex['base_us']:,.0f} µs keygen (comb), "
          f"{kex['exchange_us']:,.0f} µs exchange (ladder), "
          f"{kex['ladder_base_us']:,.0f} µs ladder at u = 9 "
          f"({kex['base_speedup']}x); comb table "
          f"{kex['table_build_ms']} ms and {kex['table_kib']} KiB once")
    chain = report["chain"]
    print(f"chain ({chain['middleboxes']} middleboxes): "
          f"{chain['records_per_sec']:,.0f} rec/s fast, "
          f"{chain['scalar_records_per_sec']:,.0f} rec/s scalar "
          f"({chain['speedup']}x)")
    pool = chain.get("pool")
    if pool:
        print(f"chain pool ({pool['workers']} workers): "
              f"{pool['records_per_sec']:,.0f} rec/s "
              f"({pool['speedup_vs_serial']}x vs serial, "
              f"{pool['pooled_records']} records pooled)")

    if args.check_baseline:
        if not crypto_path.exists():
            raise SystemExit(f"no baseline at {crypto_path}")
        baseline = json.loads(crypto_path.read_text())
        problems = crypto_bench.check_regression(report, baseline)
        if problems:
            for problem in problems:
                print(f"PERF REGRESSION: {problem}")
            raise SystemExit(1)
        print("perf gate: ok (within 30% of the checked-in baseline)")
        return  # a gate run never rewrites the baselines

    crypto_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {crypto_path}")

    plane_report = record_plane_bench.run(git=stamp)
    plane_path = root / "BENCH_record_plane.json"
    plane_path.write_text(json.dumps(plane_report, indent=2) + "\n")
    print(f"wrote {plane_path} "
          f"({plane_report['record_plane']['records_per_sec']:,} rec/s framed)")


def _cmd_fleet(args) -> None:
    import dataclasses
    import json
    from pathlib import Path

    from repro.bench.fleet import (
        FleetConfig,
        chaos_config,
        check_fleet_baseline,
        full_config,
        quick_config,
        run_fleet,
    )
    from repro.bench.tables import render_table

    if args.check_baseline:
        # Gate mode: rebuild the committed baseline's exact configuration
        # (seed and all) and compare machine-independent ratios.  Never
        # rewrites the baseline.
        baseline_path = Path.cwd() / "BENCH_fleet.json"
        baseline = json.loads(baseline_path.read_text())
        recorded = baseline["config"]
        config = FleetConfig(
            seed=recorded["seed"].encode("latin-1"),
            num_shards=recorded["num_shards"],
            sessions=recorded["sessions"],
            servers_per_shard=recorded["servers_per_shard"],
            arrival_ramp=recorded["arrival_ramp"],
            session_lifetime=recorded["session_lifetime"],
            middlebox_every=recorded["middlebox_every"],
            max_inflight_per_shard=recorded["max_inflight_per_shard"],
        )
        print(f"fleet baseline gate: replaying {config.sessions} sessions "
              f"from {baseline_path.name} ...", file=sys.stderr)
        report = run_fleet(config=config, quick=baseline.get("quick", False))
        problems = check_fleet_baseline(report, baseline)
        if problems:
            for problem in problems:
                print(f"FLEET REGRESSION: {problem}")
            raise SystemExit(1)
        print("fleet gate: ok (virtual latencies, resumption, and "
              "events/session within tolerance of the checked-in baseline)")
        return

    if args.chaos:
        config = chaos_config(args.seed.encode(), quick=args.quick)
    elif args.quick:
        config = quick_config(args.seed.encode())
    else:
        config = full_config(args.seed.encode())
    if args.sessions:
        config = dataclasses.replace(config, sessions=args.sessions)
    print(f"fleet churn: {config.sessions} sessions across "
          f"{config.num_shards} shards, "
          f"{config.servers_per_shard} servers/shard"
          f"{' under chaos' if config.chaos else ''} ...",
          file=sys.stderr)
    report = run_fleet(
        config=config, quick=args.quick, workers=args.workers or None
    )

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return

    sessions = report["sessions"]
    resumption = report["resumption"]
    latency = report["handshake_seconds"]
    wall = report["wall"]
    rows = [
        ["submitted", sessions["submitted"]],
        ["established", sessions["established"]],
        ["failed", sessions["failed"]],
        ["peak concurrent", report["concurrency"]["peak_concurrent"]],
        ["resumption hit-rate", f"{resumption['hit_rate']:.1%}"
         if resumption["hit_rate"] is not None else "-"],
        ["handshake p50 (virtual ms)", f"{latency['p50']*1000:.1f}"],
        ["handshake p99 (virtual ms)", f"{latency['p99']*1000:.1f}"],
        ["sessions/sec (wall)", wall["sessions_per_sec"]],
        ["wall seconds", wall["seconds"]],
    ]
    if config.chaos:
        chaos = report["chaos"]
        rows += [
            ["verdicts", " ".join(
                f"{name}={count}"
                for name, count in sorted(chaos["verdicts"].items())
            )],
            ["failovers (activate/restore)",
             f"{chaos['failover']['activations']}/"
             f"{chaos['failover']['restores']}"],
            ["shed", sum(report["admission"]["shed"].values())],
            ["retry denied (breaker/budget)",
             f"{chaos['retry_denied']['breaker']}/"
             f"{chaos['retry_denied']['budget']}"],
            ["recovery (virtual s)", chaos["recovery_virtual_seconds"]],
            ["stuck after drain", chaos["stuck_sessions"]],
        ]
        title = "Fleet-scale chaos resilience"
    else:
        title = "Fleet-scale session churn"
    print(render_table(title, ["metric", "value"], rows))
    print(f"fleet digest: {report['digests']['fleet']}")

    name = "BENCH_fleet_chaos.json" if config.chaos else "BENCH_fleet.json"
    path = Path.cwd() / name
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


_COMMANDS = {
    "threats": _cmd_threats,
    "fleet": _cmd_fleet,
    "viability": _cmd_viability,
    "interop": _cmd_interop,
    "cpu": _cmd_cpu,
    "latency": _cmd_latency,
    "sgx": _cmd_sgx,
    "fuzz": _cmd_fuzz,
    "selftest": _cmd_selftest,
    "bench": _cmd_bench,
    "metrics": _cmd_metrics,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the mbTLS paper's tables and figures.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS) + ["all"],
                        help="which experiment to run")
    parser.add_argument("--sites", type=int, default=0,
                        help="limit population size (viability/interop)")
    parser.add_argument("--sessions", type=int, default=0,
                        help="fleet: override the total bulk-arrival count")
    parser.add_argument("--trials", type=int, default=3,
                        help="trials per configuration (cpu)")
    parser.add_argument("--seed", default="repro-cli",
                        help="deterministic seed for all randomness")
    parser.add_argument("--replay", default="",
                        help="fuzz: replay one case against this "
                             "implementation (e.g. mbtls_middlebox)")
    parser.add_argument("--impl", default="",
                        help="selftest: score only this implementation "
                             "(with --index: replay one case)")
    parser.add_argument("--index", type=int, default=None,
                        help="fuzz/selftest replay: case index "
                             "(fuzz default: 1)")
    parser.add_argument("--kind", default=None,
                        help="fuzz/selftest replay: mutation or attack kind "
                             "(default: derived from the case index)")
    parser.add_argument("--quick", action="store_true",
                        help="bench/metrics: fewer repeats/flights (CI smoke)")
    parser.add_argument("--json", action="store_true",
                        help="metrics: emit the schema-versioned JSON report "
                             "instead of tables")
    parser.add_argument("--check-baseline", action="store_true",
                        help="bench/fleet: compare against the checked-in "
                             "BENCH_crypto.json / BENCH_fleet.json and fail "
                             "on >30%% regression instead of rewriting it")
    parser.add_argument("--chaos", action="store_true",
                        help="fleet: run the deterministic fault schedule "
                             "(middlebox failover, brownouts, degradation) "
                             "and write BENCH_fleet_chaos.json")
    parser.add_argument("--workers", type=int, default=0,
                        help="bench: add a pooled chain leg with this many "
                             "AEAD worker processes; fleet: run shards in "
                             "worker processes; metrics: pool the scenario's "
                             "seal/open batches and cross-check the pooled "
                             "counters (0 = serial)")
    args = parser.parse_args(argv)

    if args.command == "all":
        for name in ("threats", "viability", "interop", "cpu", "latency", "sgx"):
            _COMMANDS[name](args)
            print()
    else:
        _COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
