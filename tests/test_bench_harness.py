"""The benchmark harness itself: populations, runners, topologies, tables."""


import pytest

from repro.bench.alexa import PAPER_COUNTS, ServerDefect, generate_alexa_population
from repro.bench.cpu import CONFIGURATIONS, measure_configuration
from repro.bench.interop import FetchOutcome, fetch_site
from repro.bench.population import NETWORK_TYPE_COUNTS, generate_population
from repro.bench.scenarios import Pki, build_chain_network, run_fetch
from repro.bench.tables import render_series, render_table
from repro.bench.topologies import build_wan, path_permutations
from repro.bench.viability import run_site
from repro.core.config import MiddleboxRole
from repro.crypto.drbg import HmacDrbg
from repro.netsim.filters import FilterPolicy


class TestPopulations:
    def test_table2_counts_match_paper(self, rng):
        sites = generate_population(rng)
        assert len(sites) == 241 == sum(NETWORK_TYPE_COUNTS.values())
        by_type = {}
        for site in sites:
            by_type[site.network_type] = by_type.get(site.network_type, 0) + 1
        assert by_type == NETWORK_TYPE_COUNTS

    def test_observed_world_has_no_strict_filters(self, rng):
        sites = generate_population(rng)
        policies = {site.filter_policy for site in sites}
        assert FilterPolicy.RESET_ON_UNKNOWN not in policies
        assert FilterPolicy.DROP_UNKNOWN_TYPES not in policies

    def test_strict_fraction_ablation(self, rng):
        sites = generate_population(rng, strict_fraction=1.0)
        assert all(
            site.filter_policy == FilterPolicy.RESET_ON_UNKNOWN for site in sites
        )

    def test_alexa_counts_match_paper(self, rng):
        servers = generate_alexa_population(rng)
        assert len(servers) == PAPER_COUNTS["total"]
        counts = {}
        for server in servers:
            counts[server.defect] = counts.get(server.defect, 0) + 1
        assert counts[ServerDefect.NONE] == PAPER_COUNTS["success"]
        assert counts[ServerDefect.EXPIRED_CERT] == PAPER_COUNTS["bad_certificate"]
        assert counts[ServerDefect.NO_AES256] == PAPER_COUNTS["no_common_cipher"]
        assert counts[ServerDefect.REDIRECT] == PAPER_COUNTS["redirect"]
        assert counts[ServerDefect.BROKEN] == PAPER_COUNTS["unknown"]

    def test_alexa_shuffle_deterministic(self):
        a = generate_alexa_population(HmacDrbg(b"x"))
        b = generate_alexa_population(HmacDrbg(b"x"))
        assert [s.defect for s in a] == [s.defect for s in b]


class TestInteropClassification:
    @pytest.mark.parametrize(
        "defect,expected",
        [
            (ServerDefect.NONE, FetchOutcome.SUCCESS),
            (ServerDefect.NO_HTTPS, FetchOutcome.NO_HTTPS),
            (ServerDefect.EXPIRED_CERT, FetchOutcome.BAD_CERTIFICATE),
            (ServerDefect.NO_AES256, FetchOutcome.NO_COMMON_CIPHER),
            (ServerDefect.REDIRECT, FetchOutcome.REDIRECT),
            (ServerDefect.BROKEN, FetchOutcome.UNKNOWN),
        ],
    )
    def test_each_defect_classified(self, rng, pki, defect, expected):
        from repro.bench.alexa import SyntheticServer

        site = SyntheticServer(rank=1, hostname="probe.example", defect=defect)
        assert fetch_site(site, pki, rng) == expected


class TestViability:
    @pytest.mark.parametrize(
        "policy,handshake_ok,data_ok",
        [
            (FilterPolicy.PASSTHROUGH, True, True),
            (FilterPolicy.GRAMMAR_CHECK, True, True),
            # A strict normalizer dropping unknown ContentTypes starves the
            # middlebox of its secondary handshake: the primary session
            # still establishes, but the data plane stalls at the keyless
            # middlebox — operationally a failure.
            (FilterPolicy.DROP_UNKNOWN_TYPES, True, False),
            (FilterPolicy.RESET_ON_UNKNOWN, False, False),
        ],
    )
    def test_policy_outcomes(self, rng, pki, policy, handshake_ok, data_ok):
        from repro.bench.population import ClientSite

        site = ClientSite(
            name="probe", network_type="Test", filter_policy=policy,
            latency_to_core=0.005,
        )
        result = run_site(site, pki, rng)
        assert result.handshake_ok == handshake_ok
        assert result.data_ok == data_ok
        if data_ok:
            assert result.middlebox_joined


class TestScenarioRunner:
    def test_tls_fetch_timing(self, rng, pki):
        network = build_chain_network([0.010, 0.020])
        result = run_fetch(network, pki, rng, protocol="tls")
        assert result.ok
        # TCP (1 RTT) + TLS (2 RTT), RTT = 60 ms.
        assert result.handshake_seconds == pytest.approx(0.180, abs=0.005)

    def test_mbtls_fetch_with_middlebox(self, rng, pki):
        network = build_chain_network([0.010, 0.020], ["client", "mb", "server"])
        result = run_fetch(
            network, pki, rng, protocol="mbtls",
            middlebox_hosts=[("mb", MiddleboxRole.CLIENT_SIDE)],
            server_is_mbtls=False,
        )
        assert result.ok
        assert len(result.client_middleboxes) == 1

    def test_split_fetch(self, rng, pki):
        network = build_chain_network([0.010, 0.020], ["client", "mb", "server"])
        result = run_fetch(
            network, pki, rng, protocol="split",
            middlebox_hosts=[("mb", MiddleboxRole.CLIENT_SIDE)],
        )
        assert result.ok


class TestCpuHarness:
    def test_tls_configuration_measures(self, rng):
        pki = Pki(rng=rng.fork(b"pki"))
        result = measure_configuration("tls", pki, rng, trials=1)
        assert result.client > 0 and result.server > 0
        assert result.middlebox == 0.0

    def test_all_configurations_defined(self):
        assert set(CONFIGURATIONS) == {
            "tls", "mbtls-0", "split-1", "mbtls-1c", "mbtls-1s", "mbtls-2s",
            "mbtls-3s",
        }


class TestWanTopology:
    def test_twelve_permutations(self):
        assert len(path_permutations()) == 12

    def test_latencies_symmetric_and_complete(self):
        from repro.bench.topologies import REGIONS, one_way

        for a in REGIONS:
            for b in REGIONS:
                if a != b:
                    assert one_way(a, b) == one_way(b, a) > 0

    def test_build_wan(self):
        network = build_wan("au", "usw", "use")
        latency, _ = network.path_metrics(["client", "mbox", "server"])
        assert latency == pytest.approx(0.070 + 0.035)


class TestRenderers:
    def test_render_table(self):
        output = render_table("Title", ["a", "bb"], [[1, 22], [333, 4]])
        lines = output.splitlines()
        assert lines[0] == "Title"
        assert "333" in output and "22" in output

    def test_render_series(self):
        output = render_series("Fig", {"s1": [(512, 1.5)]}, "bytes", "gbps")
        assert "s1" in output and "512" in output


class TestCryptoBenchGate:
    """The perf-smoke regression gate (pure logic; no timing here)."""

    def _report(self, seal=6.0, chain=5.0):
        return {
            "primitives": [
                {"suite": "aes-128-gcm", "seal_speedup": seal},
                {"suite": "chacha20-poly1305"},  # no scalar comparison
            ],
            "chain": {"speedup": chain},
        }

    def test_identical_reports_pass(self):
        from repro.bench.crypto import check_regression

        report = self._report()
        assert check_regression(report, report) == []

    def test_regression_beyond_tolerance_fails(self):
        from repro.bench.crypto import check_regression

        problems = check_regression(
            self._report(seal=4.0), self._report(seal=8.0)
        )
        assert any("regressed" in p for p in problems)

    def test_small_wobble_within_tolerance_passes(self):
        from repro.bench.crypto import check_regression

        assert check_regression(
            self._report(seal=6.0, chain=4.5), self._report(seal=7.0, chain=5.0)
        ) == []

    def test_hard_floors_enforced_without_baseline(self):
        from repro.bench.crypto import check_regression

        problems = check_regression(self._report(seal=2.5, chain=1.5), {})
        assert any("3x floor" in p for p in problems)
        assert any("2x floor" in p for p in problems)

    def test_gate_ignores_short_lived_and_kex_legs(self):
        from repro.bench.crypto import check_regression

        fresh = dict(self._report(), short_lived=[{
            "suite": "aes-128-gcm", "record_bytes": 16,
            "setup_and_first_seal_us": 1e9, "second_seal_us": 1e9,
        }], kex={"base_us": 1e9})
        assert check_regression(fresh, self._report()) == []

    def test_kex_speedup_gated_against_baseline(self):
        from repro.bench.crypto import check_regression

        baseline = dict(self._report(), kex={"base_speedup": 6.0})
        slower = dict(self._report(), kex={"base_speedup": 4.1})
        wobble = dict(self._report(), kex={"base_speedup": 4.3})
        problems = check_regression(slower, baseline)
        assert [p for p in problems if p.startswith("kex:")] == [
            "kex: base speedup 4.1x regressed >30% from baseline 6.0x"]
        assert check_regression(wobble, baseline) == []
        # A baseline without the leg gates nothing.
        assert check_regression(slower, self._report()) == []

    def test_short_lived_leg_shape(self):
        from repro.bench.crypto import bench_short_lived

        legs = bench_short_lived(sizes=(16,), repeats=1, keys=2)
        assert [(leg["suite"], leg["record_bytes"]) for leg in legs] == [
            ("aes-128-gcm", 16), ("aes-256-gcm", 16)]
        for leg in legs:
            assert leg["setup_and_first_seal_us"] > 0 and leg["second_seal_us"] > 0

    def test_fresh_key_phases_leg_shape(self):
        from repro.bench.crypto import bench_fresh_key_phases

        report = bench_fresh_key_phases(repeats=1, calls=2)
        assert [s["suite"] for s in report["suites"]] == [
            "aes-128-gcm", "aes-256-gcm"]
        for suite in report["suites"]:
            assert set(suite["round_keys_us"]) == {"1", "2", "4", "8"}
            assert [p["blocks"] for p in suite["passes"]] == [1, 2, 3, 4]
            assert suite["context_us"] > 0 and suite["shoup_table_us"] > 0
        assert [row["lanes"] for row in report["unslice"]] == [1, 2, 4, 8]

    def test_ghash_leg_shape_and_restores_the_cutover(self):
        from repro.bench.crypto import bench_ghash
        from repro.crypto import gcm

        saved = (gcm._digest_h1, gcm._digest_aggregate,
                 gcm._AGGREGATE_MIN_BYTES)
        rows = bench_ghash(repeats=1, calls=1, flights=100, chain_repeats=1)
        assert [row["tables"] for row in rows] == ["h1", "aggregate"]
        assert rows[0]["table_kib"] < rows[1]["table_kib"]
        for row in rows:
            assert row["hot_ns_per_byte"] > 0 and row["chain_ns_per_byte"] > 0
        assert (gcm._digest_h1, gcm._digest_aggregate,
                gcm._AGGREGATE_MIN_BYTES) == saved

    def test_legacy_gcm_seal_matches_fast_path(self):
        from repro.bench.crypto import _legacy_gcm_seal
        from repro.crypto.gcm import AESGCM

        gcm = AESGCM(bytes(range(16)))
        nonce, aad = bytes(12), b"hdr"
        plaintext = bytes(range(256)) * 4  # past both fast-path thresholds
        assert _legacy_gcm_seal(gcm, nonce, plaintext, aad) == gcm.encrypt(
            nonce, plaintext, aad
        )
