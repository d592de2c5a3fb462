"""Observability layer: tracing, unified metrics, profiling, structured logs.

Covers the `repro.obs` subsystem end to end:

* trace context — ids, wire form, tolerant parsing, the bounded span
  ring, and cross-layer propagation (client → router → shard → kernel
  under ONE trace id through a real 2-shard inproc cluster);
* unified metrics — typed primitives, the *exact* fixed-boundary
  histogram merge (property-tested against the histogram of the
  concatenated samples), the structured wire form, the stats-snapshot
  adapters, Prometheus text exposition (scrape-parsed), and the
  `metrics` wire op / HTTP scrape endpoint;
* profiling — `ProfileScope` phase accounting through the solver
  facade, zero-cost when disabled;
* structured logs — gating, `_force`, the slow-request log, and the
  autoscale decision event;
* the protocol-boundary NaN sanitisation (idle stats round-trip as
  `null`);
* the pinned key sets of the `stats` payload (service idle and busy,
  cluster, tenant slices);
* the family cap of the latency histograms (client-controlled names
  cannot grow memory without bound);
* the `repro stats` / `repro top` / `repro trace dump` CLI clients.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _render_stats, build_parser, main
from repro.core.instance import Instance
from repro.obs.adapters import (
    add_profile_metrics,
    build_metrics_registry,
    registry_from_router,
    registry_from_service_stats,
)
from repro.obs.httpd import CONTENT_TYPE, start_metrics_server
from repro.obs.logging import LOG, CapturedEvents, log_event, set_log_sink
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import (
    PROFILER,
    ProfileScope,
    disable_profiling,
    enable_profiling,
)
from repro.obs.trace import (
    RECORDER,
    SpanRecorder,
    disable_tracing,
    enable_tracing,
    new_span_id,
    new_trace_id,
    parse_wire_trace,
    wire_trace,
)
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.protocol import (
    sanitize_non_finite,
    solve_request,
)
from repro.service.server import serve_tcp
from repro.service.service import MAX_FAMILIES, SolverService

from _service_helpers import make_sleepy_entry, registered

pytestmark = pytest.mark.obs


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def inst():
    return Instance.from_lists(p=[4, 3, 2, 2, 1], s=[1, 5, 2, 4, 3], m=2)


@pytest.fixture(autouse=True)
def _reset_obs_state():
    """Every test leaves the process-global observability state off/empty."""
    yield
    disable_tracing(clear=True)
    disable_profiling(reset=True)
    LOG.enabled = False
    set_log_sink(None)


# --------------------------------------------------------------------------- #
# trace context: ids, wire form, tolerant parsing
# --------------------------------------------------------------------------- #
class TestTraceContext:
    def test_id_formats(self):
        tid, sid = new_trace_id(), new_span_id()
        assert re.fullmatch(r"[0-9a-f]{16}", tid)
        assert re.fullmatch(r"[0-9a-f]{8}", sid)
        assert new_trace_id() != tid  # vanishing collision odds

    def test_wire_round_trip(self):
        field = wire_trace("abc123", "def456")
        assert field == {"id": "abc123", "span": "def456"}
        assert parse_wire_trace(field) == ("abc123", "def456")

    @pytest.mark.parametrize("garbage", [
        None, 42, "abc", [], {}, {"span": "x"}, {"id": ""}, {"id": 7},
        {"id": "ok", "span": 9}, {"id": "ok", "span": ""},
    ])
    def test_tolerant_parse(self, garbage):
        parsed = parse_wire_trace(garbage)
        if isinstance(garbage, dict) and garbage.get("id") == "ok":
            assert parsed == ("ok", None)  # bad span degrades, id survives
        else:
            assert parsed is None

    def test_wire_field_absent_when_untraced(self, inst):
        # The byte-identical contract: no ingress → no trace key at all.
        payload = solve_request(inst, "lpt")
        assert "trace" not in payload
        assert payload == solve_request(inst, "lpt", trace=None)


# --------------------------------------------------------------------------- #
# the span ring
# --------------------------------------------------------------------------- #
class TestSpanRecorder:
    def test_disabled_by_default(self):
        assert SpanRecorder().enabled is False
        assert RECORDER.enabled is False

    def test_record_and_filter(self):
        rec = SpanRecorder()
        rec.record("kernel", "service", "t1", "s1", "p1", 0.0, 0.5, family="lpt")
        rec.record("route", "router", "t2", "s2", None, 1.0, 0.1)
        assert len(rec) == 2
        only = rec.snapshot("t1")
        assert [s["name"] for s in only] == ["kernel"]
        assert only[0]["family"] == "lpt"
        assert only[0]["parent"] == "p1"

    def test_ring_bound_and_dropped(self):
        rec = SpanRecorder(capacity=4)
        for i in range(10):
            rec.record("recv", "wire", "t", f"s{i}", None, float(i), 0.0)
        assert len(rec) == 4
        assert rec.dropped == 6
        # Keeps the most recent spans.
        assert [s["span"] for s in rec.snapshot()] == ["s6", "s7", "s8", "s9"]
        rec.clear()
        assert len(rec) == 0 and rec.dropped == 0

    def test_jsonl_export(self):
        rec = SpanRecorder()
        rec.record("encode", "wire", "t", "s", None, 0.0, 0.001, nbytes=42)
        lines = rec.to_jsonl().splitlines()
        assert len(lines) == 1
        span = json.loads(lines[0])
        assert span["name"] == "encode" and span["nbytes"] == 42

    def test_span_context_manager_records_errors(self):
        rec = SpanRecorder()
        with pytest.raises(ValueError):
            with rec.span("kernel", "service", "t9", parent_id="p"):
                raise ValueError("boom")
        (span,) = rec.snapshot()
        assert span["error"] == "ValueError"
        assert span["parent"] == "p" and span["dur"] >= 0.0

    def test_enable_disable_helpers(self):
        enable_tracing(capacity=8)
        assert RECORDER.enabled and RECORDER.capacity == 8
        RECORDER.record("recv", "wire", "t", "s", None, 0.0, 0.0)
        disable_tracing(clear=True)
        assert not RECORDER.enabled and len(RECORDER) == 0


# --------------------------------------------------------------------------- #
# metric primitives
# --------------------------------------------------------------------------- #
class TestMetricPrimitives:
    def test_counter_monotone(self):
        c = Counter("x_total", "help", ("k",))
        c.inc(2, "a")
        c.inc(3, "a")
        assert c.value("a") == 5
        with pytest.raises(ValueError):
            c.inc(-1, "a")
        with pytest.raises(ValueError):
            c.inc(1)  # label arity mismatch

    def test_gauge_up_down(self):
        g = Gauge("depth")
        g.set(4)
        g.dec()
        assert g.value() == 3

    def test_histogram_observe_and_quantile(self):
        h = Histogram("lat", boundaries=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.05, 0.5, 5.0):
            h.observe(v)
        data = h.collect()[()]
        assert data["count"] == 5
        assert data["buckets"] == [1, 2, 1, 1]  # last = +Inf overflow
        assert h.quantile(0.5) == 0.1
        # +Inf hits report the largest finite boundary.
        assert h.quantile(1.0) == 1.0
        assert math.isnan(Histogram("empty", boundaries=(1.0,)).quantile(0.5))

    def test_histogram_rejects_bad_boundaries(self):
        for bad in ((), (1.0, 1.0), (2.0, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError):
                Histogram("h", boundaries=bad)

    def test_registry_type_conflicts(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        with pytest.raises(ValueError):
            reg.gauge("a_total")
        with pytest.raises(ValueError):
            reg.counter("a_total", labelnames=("k",))
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_render_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "h", ("k",)).inc(1, 'we"ird\nname')
        text = reg.render()
        assert 'k="we\\"ird\\nname"' in text


# --------------------------------------------------------------------------- #
# the exact histogram merge (the property the count-weighted percentile
# merge in repro.cluster.stats could never make)
# --------------------------------------------------------------------------- #
_BOUNDS = (0.001, 0.01, 0.1, 1.0)


def _hist_of(samples):
    h = Histogram("lat", labelnames=("f",), boundaries=_BOUNDS)
    for v in samples:
        h.observe(v, "x")
    return h


class TestHistogramMergeProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=5.0,
                               allow_nan=False, allow_infinity=False),
                     max_size=40),
            min_size=1, max_size=5,
        )
    )
    def test_merge_equals_concatenation(self, shards):
        """Per-shard histograms merged == histogram of all samples."""
        merged = _hist_of([])
        for chunk in shards:
            for key, data in _hist_of(chunk).collect().items():
                merged.merge_series(key, data["buckets"], data["sum"], data["count"],
                                    data["max"])
        combined = _hist_of([v for chunk in shards for v in chunk])
        got = merged.collect()
        want = combined.collect()
        if not want:
            assert got == want  # no samples anywhere → no series anywhere
            return
        assert got[("x",)]["buckets"] == want[("x",)]["buckets"]
        assert got[("x",)]["count"] == want[("x",)]["count"]
        assert got[("x",)]["sum"] == pytest.approx(want[("x",)]["sum"])
        # Estimated quantiles agree too (same buckets → same estimate).
        for q in (0.5, 0.9, 0.99):
            assert merged.quantile(q, "x") == combined.quantile(q, "x")

    def test_merge_series_rejects_mismatched_buckets(self):
        h = Histogram("lat", boundaries=_BOUNDS)
        with pytest.raises(ValueError):
            h.merge_series((), [1, 2], 0.1, 3)


# --------------------------------------------------------------------------- #
# adapters: stats snapshots → registry
# --------------------------------------------------------------------------- #
class TestAdapters:
    def test_flat_service_shape(self):
        source = Histogram("lat", labelnames=("family",))
        for value in (0.004, 0.02, 0.02, 0.3):
            source.observe(value, "lpt")
        payload = {
            "submitted": 10, "completed": 8, "queue_depth": 2,
            "latency_count": 4,
            "families": {"lpt": source.summary("lpt"),
                         "idle": source.summary("idle")},
            "phases": {"exec": {"lpt": source.summary("lpt")}, "queue_wait": {}},
            "tenants": {"acme": {"admitted": 5, "in_flight": 1, "weight": 2.0}},
        }
        reg = registry_from_service_stats(payload)
        assert reg.get("repro_submitted_total").value() == 10
        assert reg.get("repro_queue_depth").value() == 2
        assert reg.get("repro_family_requests_total").value("lpt") == 4
        # The latency histograms are rebuilt exactly from the summaries.
        series = reg.get("repro_request_latency_seconds").collect()
        assert series[("lpt",)] == source.collect()[("lpt",)]
        assert series[("idle",)]["count"] == 0
        phase = reg.get("repro_phase_latency_seconds").collect()
        assert phase[("exec", "lpt")]["buckets"] == source.collect()[("lpt",)]["buckets"]
        assert reg.get("repro_family_latency_seconds") is None  # no gauge mirror
        assert reg.get("repro_tenant_admitted_total").value("acme") == 5

    def test_cluster_shape_reads_nested_keys(self):
        payload = {
            "cluster": True,
            "totals": {"submitted": 4, "in_flight": 1},
            "router": {"routed": 4, "lost": 0, "shards_alive": 2},
            "shards": {"shard-0": {}, "shard-1": {}},
            "families": {},
        }
        reg = registry_from_service_stats(payload)
        assert reg.get("repro_submitted_total").value() == 4
        assert reg.get("repro_router_routed_total").value() == 4
        assert reg.get("repro_shards_alive").value() == 2
        assert reg.get("repro_shards_reporting").value() == 2

    def test_router_counters_split_gauges(self):
        reg = registry_from_router({"routed": 9, "shards_draining": 1})
        assert reg.get("repro_router_routed_total").value() == 9
        assert reg.get("repro_shards_draining").value() == 1

    def test_profile_adapter(self):
        enable_profiling()
        with ProfileScope("sbo", "kernel"):
            pass
        reg = add_profile_metrics(MetricsRegistry())
        assert reg.get("repro_profile_calls_total").value("sbo", "kernel") == 1
        assert reg.get("repro_profile_seconds_total").value("sbo", "kernel") >= 0


# --------------------------------------------------------------------------- #
# the `stats` wire shape (every key the payload had before the histograms)
# --------------------------------------------------------------------------- #
SERVICE_KEYS = {
    "submitted", "completed", "failed", "rejected", "timed_out", "cancelled",
    "coalesced", "abandoned", "cache_hits", "cache_misses", "inline", "queue_depth",
    "in_flight", "pending", "lost", "latency_count", "latency_p50",
    "latency_p90", "latency_p99", "latency_mean", "latency_max", "families",
    "phases", "tenants", "sessions_open", "sessions_opened", "sessions_closed",
    "sessions_expired", "sessions_rejected", "sessions_restored", "session_tasks",
}
#: A latency summary: the parent's keys plus the mergeable buckets / sum.
SUMMARY_KEYS = {"count", "p50", "p90", "p99", "mean", "max", "buckets", "sum"}
TENANT_KEYS = {
    "submitted", "admitted", "rejected", "completed", "failed", "abandoned",
    "cache_hits", "coalesced", "rejected_by", "in_use", "queued", "busy_s",
    "queue_wait", "lost", "config",
}
CLUSTER_KEYS = {"cluster", "totals", "families", "phases", "tenants", "router", "shards"}
CLUSTER_TOTALS_KEYS = (SERVICE_KEYS - {
    "latency_p50", "latency_p90", "latency_p99", "latency_mean", "latency_max",
    "families", "phases", "tenants",
})
ROUTER_KEYS = {
    "routed", "completed", "retried", "lost", "router_cache_hits",
    "router_cache_misses", "handoffs", "handoff_failures", "sessions_lost",
    "sessions_replayed", "replays_failed", "probes", "probe_failures",
    "sessions_pinned", "sessions_journaled", "shards_alive", "shards_draining",
    "shards_started", "shards_attached", "shards_retired", "shards_lost",
}
TENANTS = {"default": "a", "tenants": [{"name": "a"}, {"name": "b"}]}


def _assert_summary(summary):
    assert set(summary) == SUMMARY_KEYS
    if summary["count"]:
        assert summary["p50"] <= summary["p90"] <= summary["p99"] <= summary["max"]
        assert sum(summary["buckets"]) == summary["count"]


def _assert_breakdowns(stats):
    assert set(stats["phases"]) == {"queue_wait", "exec"}
    for breakdown in (stats["families"], *stats["phases"].values()):
        for summary in breakdown.values():
            _assert_summary(summary)
    assert set(stats["tenants"]) == {"a", "b"}
    for snap in stats["tenants"].values():
        assert set(snap) == TENANT_KEYS
        _assert_summary(snap["queue_wait"])


def _assert_service_shape(stats):
    assert set(stats) == SERVICE_KEYS
    _assert_breakdowns(stats)
    if stats["latency_count"]:
        assert stats["latency_p50"] <= stats["latency_p90"] \
            <= stats["latency_p99"] <= stats["latency_max"]


class TestStatsWireShape:
    def test_service_idle_and_busy(self, inst):
        async def scenario():
            with registered(make_sleepy_entry()):
                config = ServiceConfig(workers=1, tenants=TENANTS)
                async with SolverService(config) as svc:
                    idle = (await svc.handle({"op": "stats"}))["stats"]
                    await svc.solve(inst, "lpt")
                    slow = asyncio.create_task(svc.solve(inst, "sleepy(seconds=0.3)"))
                    while svc.load_summary()["in_flight"] == 0:
                        await asyncio.sleep(0.01)
                    busy = (await svc.handle({"op": "stats"}))["stats"]
                    await slow
            return idle, busy

        idle, busy = run(scenario())
        _assert_service_shape(idle)
        assert idle["families"] == {} and idle["latency_count"] == 0
        _assert_service_shape(busy)
        assert busy["in_flight"] == 1 and busy["latency_count"] == 1
        assert busy["families"]["lpt"]["count"] == 1
        assert busy["tenants"]["a"]["queue_wait"]["count"] == 2
        assert busy["tenants"]["b"]["queue_wait"]["count"] == 0  # idle slice

    @pytest.mark.cluster
    def test_cluster_payload(self, inst):
        from repro.cluster.config import ClusterConfig
        from repro.cluster.router import ClusterRouter

        async def scenario():
            config = ClusterConfig(shards=2, backend="inproc", workers=1,
                                   cache=False, tenants=TENANTS)
            async with ClusterRouter(config) as router:
                for spec in ("lpt", "sbo(delta=1.0)", "lpt"):
                    response = await router.handle(solve_request(inst, spec))
                    assert response["ok"], response
                return (await router.handle({"op": "stats", "id": 1}))["stats"]

        stats = run(scenario())
        assert set(stats) == CLUSTER_KEYS
        assert set(stats["totals"]) == CLUSTER_TOTALS_KEYS
        assert set(stats["router"]) == ROUTER_KEYS
        _assert_breakdowns(stats)
        # The repeat is answered by the router tier, before any shard and
        # without an admission slot, so it waits in no queue.
        assert stats["families"]["lpt"]["count"] == 1
        assert stats["router"]["router_cache_hits"] == 1
        assert stats["tenants"]["a"]["queue_wait"]["count"] == 2
        assert stats["tenants"]["a"]["cache_hits"] == 1
        for shard in stats["shards"].values():
            assert set(shard) == SERVICE_KEYS


# --------------------------------------------------------------------------- #
# NaN sanitisation at the protocol boundary
# --------------------------------------------------------------------------- #
class TestNonFiniteSanitisation:
    def test_sanitize_unit(self):
        value = {"a": float("nan"), "b": [1.0, float("inf")],
                 "c": {"d": -float("inf"), "e": "x"}, "f": 3}
        assert sanitize_non_finite(value) == {
            "a": None, "b": [1.0, None], "c": {"d": None, "e": "x"}, "f": 3,
        }

    def test_idle_stats_round_trip(self):
        """An idle service's NaN-filled latency snapshot arrives as null."""
        async def scenario():
            async with SolverService(workers=1) as svc:
                shutdown = asyncio.Event()
                server = await serve_tcp(svc, "127.0.0.1", 0, shutdown)
                port = server.sockets[0].getsockname()[1]
                try:
                    client = await ServiceClient.connect("127.0.0.1", port)
                    stats = await client.stats()
                    await client.close()
                finally:
                    shutdown.set()
                    server.close()
                    await server.wait_closed()
                return stats

        stats = run(scenario())
        for quantile in ("p50", "p90", "p99", "mean", "max"):
            assert stats[f"latency_{quantile}"] is None  # was nan; wire-safe null
        json.dumps(stats)  # strict-JSON clean all the way through


# --------------------------------------------------------------------------- #
# family cap of the latency histograms (client-controlled family names)
# --------------------------------------------------------------------------- #
class TestFamilyLatencyCap:
    def test_eviction_is_least_recently_recorded(self):
        fam = Histogram("lat", labelnames=("family",), max_series=3)
        for name in ("a", "b", "c"):
            fam.observe(0.1, name)
        fam.observe(0.2, "a")   # refresh a → b is now oldest
        fam.observe(0.3, "d")   # evicts b
        snap = fam.summaries()
        assert sorted(key[0] for key in snap) == ["a", "c", "d"]
        assert fam.evicted == 1
        assert snap[("a",)]["count"] == 2  # refreshed family kept its series

    def test_cap_bounds_memory_under_churn(self):
        fam = Histogram("lat", labelnames=("family",), max_series=5)
        for i in range(100):
            fam.observe(0.01, f"family-{i}")
        assert len(fam.summaries()) == 5
        assert fam.evicted == 95

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram("lat", labelnames=("family",), max_series=0)

    def test_service_bounds_families_by_module_cap(self):
        async def scenario():
            async with SolverService(ServiceConfig(workers=1)) as svc:
                for i in range(MAX_FAMILIES + 3):
                    svc._latency.observe(0.01, f"family-{i}")
                return svc.stats(), svc._latency.evicted

        stats, evicted = run(scenario())
        assert MAX_FAMILIES == 64
        assert len(stats.families) == MAX_FAMILIES
        assert evicted == 3
        assert "family-0" not in stats.families  # the oldest went first


# --------------------------------------------------------------------------- #
# structured logs + slow-request log
# --------------------------------------------------------------------------- #
class TestStructuredLog:
    def test_gated_by_default(self):
        events = []
        set_log_sink(events.append)
        log_event("shard_dead", shard="s-1")
        assert events == []
        log_event("slow_request", _force=True, family="lpt")
        assert len(events) == 1
        assert events[0]["event"] == "slow_request"
        assert "ts" in events[0]

    def test_captured_events_helper(self):
        with CapturedEvents() as events:
            log_event("autoscale", action="up", shards=3)
            log_event("other")
        assert len(events.of("autoscale")) == 1
        assert events.of("autoscale")[0]["shards"] == 3
        assert LOG.enabled is False  # restored on exit

    def test_autoscale_decisions_are_logged(self):
        from repro.cluster.autoscaler import Autoscaler

        class _StubRouter:
            from repro.cluster.config import ClusterConfig
            config = ClusterConfig()
            def shard_names(self, include_draining=True):
                return ["shard-0", "shard-1"]

        scaler = Autoscaler(_StubRouter())
        with CapturedEvents() as events:
            scaler._record("up", 8.25)
        (record,) = events.of("autoscale")
        assert record["action"] == "up"
        assert record["avg"] == 8.25
        assert record["shards"] == 2
        assert scaler.log[-1]["action"] == "up"

    def test_slow_request_log_through_the_service(self, inst):
        async def scenario():
            config = ServiceConfig(workers=1, slow_request_threshold=1e-9)
            async with SolverService(config) as svc:
                with CapturedEvents() as events:
                    await svc.solve(inst, "lpt")
            return events

        events = run(scenario())
        slow = events.of("slow_request")
        assert len(slow) >= 1
        assert slow[0]["family"] == "lpt"
        assert slow[0]["seconds"] > 0
        assert "trace" in slow[0]  # null when untraced, the id when traced

    def test_slow_request_threshold_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(slow_request_threshold=0.0)
        assert ServiceConfig(slow_request_threshold=0.5).slow_request_threshold == 0.5


# --------------------------------------------------------------------------- #
# profiling through the solver facade
# --------------------------------------------------------------------------- #
class TestProfiling:
    def test_disabled_is_inert(self, inst):
        from repro.solvers import solve

        solve(inst, "lpt", cache=False)
        assert PROFILER.snapshot() == {}

    def test_facade_phases(self, inst, tmp_path):
        from repro.solvers import solve

        enable_profiling()
        solve(inst, "lpt", cache=str(tmp_path / "cache"))
        snap = PROFILER.snapshot()["lpt"]
        for phase in ("validation", "hashing", "kernel", "serialization"):
            assert snap[phase]["count"] >= 1
            assert snap[phase]["seconds"] >= 0.0
        # A cache hit skips the kernel but still validates and hashes.
        solve(inst, "lpt", cache=str(tmp_path / "cache"))
        snap = PROFILER.snapshot()["lpt"]
        assert snap["kernel"]["count"] == 1
        assert snap["validation"]["count"] == 2

    def test_scope_is_reentrant_and_exception_safe(self):
        enable_profiling()
        with pytest.raises(RuntimeError):
            with ProfileScope("f", "kernel"):
                raise RuntimeError
        assert PROFILER.snapshot()["f"]["kernel"]["count"] == 1


# --------------------------------------------------------------------------- #
# Prometheus exposition: scrape-parse validation
# --------------------------------------------------------------------------- #
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?\d+(\.\d+)?([eE][+-]?\d+)?|NaN|[+-]Inf)$"
)


def assert_valid_exposition(text: str) -> None:
    """Minimal Prometheus text-format (0.0.4) parser/validator."""
    typed = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram", "untyped")
            typed[name] = kind
            continue
        if line.startswith("#"):
            continue
        assert _SAMPLE_RE.match(line), f"malformed sample line: {line!r}"
        metric = line.split("{")[0].split(" ")[0]
        base = re.sub(r"_(bucket|sum|count|total)$", "", metric)
        assert metric in typed or base in typed or metric.rsplit("_", 1)[0] in typed, (
            f"sample {metric!r} has no TYPE header"
        )


class TestExposition:
    def test_render_is_scrape_parseable(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "X", ("k",)).inc(2, "a b")
        reg.gauge("repro_g", "G").set(1.5)
        h = reg.histogram("repro_h_seconds", "H", boundaries=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        text = reg.render()
        assert_valid_exposition(text)
        # Histogram invariants: cumulative buckets, +Inf == count.
        assert 'repro_h_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_h_seconds_count 2" in text

    def test_build_metrics_registry_combines_sources(self):
        payload = {"cluster": True, "totals": {"submitted": 2}, "families": {},
                   "router": {"routed": 2}}
        reg = build_metrics_registry(payload)
        text = reg.render()
        assert_valid_exposition(text)
        assert "repro_submitted_total 2" in text
        assert "repro_router_routed_total 2" in text


# --------------------------------------------------------------------------- #
# the HTTP scrape endpoint
# --------------------------------------------------------------------------- #
class TestMetricsHttpd:
    async def _http(self, port, request):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(request)
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        head, _, body = raw.partition(b"\r\n\r\n")
        return head.decode("latin-1"), body.decode()

    def test_get_scrapes_and_post_is_405(self):
        async def scenario():
            server = await start_metrics_server(
                lambda: "repro_up 1\n", host="127.0.0.1", port=0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                ok = await self._http(
                    port, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                bad = await self._http(
                    port, b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            finally:
                server.close()
                await server.wait_closed()
            return ok, bad

        (ok_head, ok_body), (bad_head, _) = run(scenario())
        assert "200 OK" in ok_head
        assert CONTENT_TYPE in ok_head
        assert ok_body == "repro_up 1\n"
        assert "405" in bad_head

    def test_async_provider(self):
        async def scenario():
            async def provider():
                return "repro_async 7\n"

            server = await start_metrics_server(provider, port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                _, body = await self._http(
                    port, b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            finally:
                server.close()
                await server.wait_closed()
            return body

        assert run(scenario()) == "repro_async 7\n"


# --------------------------------------------------------------------------- #
# service wire ops: trace + metrics end to end over TCP
# --------------------------------------------------------------------------- #
class TestServiceObservabilityOps:
    def test_traced_solve_metrics_and_trace_dump(self, inst):
        async def scenario():
            config = ServiceConfig(workers=1, trace=True)
            async with SolverService(config) as svc:
                shutdown = asyncio.Event()
                server = await serve_tcp(svc, "127.0.0.1", 0, shutdown)
                port = server.sockets[0].getsockname()[1]
                try:
                    client = await ServiceClient.connect(
                        "127.0.0.1", port, trace=True)
                    await client.solve(inst, "lpt")
                    text = await client.metrics()
                    spans = await client.trace_dump()
                    await client.close()
                finally:
                    shutdown.set()
                    server.close()
                    await server.wait_closed()
                return text, spans

        text, spans = run(scenario())
        assert_valid_exposition(text)
        assert 'repro_request_latency_seconds_count{family="lpt"}' in text
        names = {s["name"] for s in spans}
        assert {"recv", "admission", "queue_wait", "kernel",
                "dispatch", "encode"} <= names
        # One trace id covers the whole request (plus the client root).
        trace_ids = {s["trace"] for s in spans}
        assert len(trace_ids) == 1
        # The worker phases nest under the dispatch span.
        by_name = {s["name"]: s for s in spans}
        assert by_name["kernel"]["parent"] == by_name["dispatch"]["span"]
        assert by_name["queue_wait"]["parent"] == by_name["dispatch"]["span"]
        # The client recorded its root span locally under the same id.
        client_spans = RECORDER.snapshot(next(iter(trace_ids)))
        assert any(s["name"] == "request" for s in client_spans)

    def test_trace_op_filter_and_clear(self, inst):
        async def scenario():
            config = ServiceConfig(workers=1, trace=True)
            async with SolverService(config) as svc:
                shutdown = asyncio.Event()
                server = await serve_tcp(svc, "127.0.0.1", 0, shutdown)
                port = server.sockets[0].getsockname()[1]
                try:
                    client = await ServiceClient.connect("127.0.0.1", port)
                    tid = new_trace_id()
                    await client.request(solve_request(
                        inst, "lpt", trace=wire_trace(tid, new_span_id())))
                    mine = await client.trace_dump(trace_id=tid)
                    nothing = await client.trace_dump(trace_id="absent", clear=True)
                    after = await client.trace_dump()
                    await client.close()
                finally:
                    shutdown.set()
                    server.close()
                    await server.wait_closed()
                return tid, mine, nothing, after

        tid, mine, nothing, after = run(scenario())
        assert mine and all(s["trace"] == tid for s in mine)
        assert nothing == []
        assert after == []  # clear=True emptied the ring


# --------------------------------------------------------------------------- #
# cross-layer propagation: one trace id through a 2-shard cluster
# --------------------------------------------------------------------------- #
@pytest.mark.cluster
class TestClusterTracePropagation:
    def test_one_trace_id_router_to_kernel(self, inst):
        from repro.cluster.config import ClusterConfig
        from repro.cluster.router import ClusterRouter

        async def scenario():
            config = ClusterConfig(shards=2, max_shards=4, backend="inproc",
                                   workers=1, cache=False, trace=True)
            async with ClusterRouter(config) as router:
                tid = new_trace_id()
                request = solve_request(
                    inst, "lpt", trace=wire_trace(tid, new_span_id()))
                response = await router.handle(request)
                assert response["ok"], response
                metrics = await router.handle({"op": "metrics", "id": 1})
                return tid, RECORDER.snapshot(tid), metrics

        tid, spans, metrics = run(scenario())
        by_name = {}
        for span in spans:
            assert span["trace"] == tid
            by_name[span["name"]] = span
        # Router tier recorded the routing decision...
        assert by_name["route"]["component"] == "router"
        assert "shard" in by_name["route"]
        # ...and the shard's service spans nest under it: route → dispatch
        # (unique-job lifetime) → kernel (worker execution).
        assert by_name["dispatch"]["parent"] == by_name["route"]["span"]
        assert by_name["kernel"]["parent"] == by_name["dispatch"]["span"]
        assert by_name["admission"]["parent"] == by_name["route"]["span"]
        # The cluster `metrics` op renders the merged shard histograms.
        assert metrics["ok"]
        assert_valid_exposition(metrics["text"])

    def test_untraced_cluster_records_nothing(self, inst):
        from repro.cluster.config import ClusterConfig
        from repro.cluster.router import ClusterRouter

        async def scenario():
            config = ClusterConfig(shards=1, backend="inproc",
                                   workers=1, cache=False)
            async with ClusterRouter(config) as router:
                response = await router.handle(solve_request(inst, "lpt"))
                assert response["ok"]
                return len(RECORDER)

        assert run(scenario()) == 0

    @staticmethod
    def _spy(shard, seen, trace_answer=None):
        """Record the ops ``shard`` is sent; optionally rewrite its trace answers."""
        real = shard.request

        async def request(payload):
            seen.append((shard.name, dict(payload)))
            response = await real(payload)
            if payload.get("op") == "trace" and trace_answer is not None:
                response = trace_answer(response)
            return response

        shard.request = request

    def test_trace_op_fans_out_to_shards(self, inst):
        """The cluster trace op asks every shard; a shared ring counts once."""
        from repro.cluster.config import ClusterConfig
        from repro.cluster.router import ClusterRouter

        async def scenario():
            config = ClusterConfig(shards=2, max_shards=4, backend="inproc",
                                   workers=1, cache=False, trace=True)
            async with ClusterRouter(config) as router:
                RECORDER.clear()
                tid = new_trace_id()
                response = await router.handle(solve_request(
                    inst, "lpt", trace=wire_trace(tid, new_span_id())))
                assert response["ok"], response
                seen = []
                for name in router.shard_names():
                    self._spy(router._shards[name], seen)
                dump = await router.handle({"op": "trace", "trace_id": tid, "id": 3})
                cleared = await router.handle({"op": "trace", "clear": True})
                after = await router.handle({"op": "trace", "trace_id": tid})
                return tid, router.shard_names(), seen, dump, cleared, after

        tid, names, seen, dump, cleared, after = run(scenario())
        traced = [(name, payload) for name, payload in seen if payload["op"] == "trace"]
        assert sorted(name for name, _ in traced[:2]) == sorted(names)
        assert traced[0][1] == {"op": "trace", "clear": False, "trace_id": tid}
        assert dump["ok"] and dump["id"] == 3 and dump["enabled"] is True
        spans = dump["spans"]
        assert {s["trace"] for s in spans} == {tid}
        assert {"route", "admission", "dispatch", "kernel"} <= {s["name"] for s in spans}
        # In-process shards share the router's ring: no span comes back twice.
        assert len({s["span"] for s in spans}) == len(spans)
        assert dump["rings"] == 1
        assert cleared["ok"] and after["spans"] == []

    def test_trace_op_merges_a_separate_shard_ring(self, inst):
        """A shard with a ring of its own (a process shard) adds its spans."""
        from repro.cluster.config import ClusterConfig
        from repro.cluster.router import ClusterRouter

        foreign = {"trace": None, "span": "remote-kernel", "parent": None,
                   "name": "kernel", "component": "service", "start": 0.0, "dur": 0.5}

        async def scenario():
            config = ClusterConfig(shards=2, max_shards=4, backend="inproc",
                                   workers=1, cache=False, trace=True)
            async with ClusterRouter(config) as router:
                RECORDER.clear()
                tid = new_trace_id()
                response = await router.handle(solve_request(
                    inst, "lpt", trace=wire_trace(tid, new_span_id())))
                assert response["ok"], response
                foreign["trace"] = tid
                seen = []
                remote = router._shards[router.shard_names()[0]]
                self._spy(remote, seen, lambda answer: {
                    **answer, "ring": "elsewhere", "spans": [dict(foreign)], "dropped": 2})
                local = len(RECORDER.snapshot(tid))
                dump = await router.handle({"op": "trace", "trace_id": tid})
                return local, dump

        local, dump = run(scenario())
        assert dump["rings"] == 2
        assert len(dump["spans"]) == local + 1
        assert dump["spans"][-1] == foreign
        assert dump["dropped"] == 2


# --------------------------------------------------------------------------- #
# the CLI clients: repro stats / top / trace dump
# --------------------------------------------------------------------------- #
@contextmanager
def _live_service(**overrides):
    """A real TCP service in a daemon thread (the CLI runs its own loop)."""
    config = ServiceConfig(workers=1, **overrides)
    started = threading.Event()
    box = {}

    def runner():
        async def serve():
            async with SolverService(config) as svc:
                shutdown = asyncio.Event()
                server = await serve_tcp(svc, "127.0.0.1", 0, shutdown)
                box["port"] = server.sockets[0].getsockname()[1]
                box["loop"] = asyncio.get_running_loop()
                box["shutdown"] = shutdown
                started.set()
                try:
                    await shutdown.wait()
                finally:
                    server.close()
                    await server.wait_closed()

        try:
            asyncio.run(serve())
        except Exception as exc:  # pragma: no cover - startup failure
            box["error"] = exc
            started.set()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(30), "service thread failed to start"
    if "error" in box:
        raise box["error"]
    try:
        yield box["port"]
    finally:
        box["loop"].call_soon_threadsafe(box["shutdown"].set)
        thread.join(timeout=30)


class TestCliObservability:
    def test_parser_accepts_new_flags(self):
        parser = build_parser()
        args = parser.parse_args([
            "serve", "--port", "0", "--trace", "--metrics-port", "0",
            "--slow-request-threshold", "0.5",
        ])
        assert args.trace and args.metrics_port == 0
        assert args.slow_request_threshold == 0.5
        args = parser.parse_args(["cluster", "--trace", "--metrics-port", "9100"])
        assert args.trace and args.metrics_port == 9100
        args = parser.parse_args(["trace", "dump", "--port", "7", "--clear"])
        assert args.action == "dump" and args.clear

    def test_render_stats_service_shape(self):
        text = _render_stats({
            "submitted": 3, "completed": 2, "pending": 1,
            "families": {"lpt": {"count": 2, "p50": 0.004, "p99": None,
                                 "mean": 0.005, "p90": 0.004, "max": 0.01}},
        })
        assert "submitted=3" in text
        assert "lpt" in text and "4.00" in text
        assert "-" in text  # sanitized (null) percentile renders as a dash

    def test_render_stats_cluster_shape(self):
        text = _render_stats({
            "cluster": True,
            "router": {"shards_alive": 2, "routed": 5, "retried": 0, "lost": 0},
            "totals": {"submitted": 5, "completed": 5},
            "families": {},
            "tenants": {"acme": {"admitted": 4, "rejected": 1,
                                 "in_flight": 0, "backlog": 0}},
        })
        assert "2 shards alive" in text
        assert "acme" in text

    def test_stats_top_trace_against_live_service(self, inst, capsys):
        with _live_service(trace=True) as port:
            client_code = run(self._drive(port, inst))
            assert client_code is None

            assert main(["stats", "--port", str(port)]) == 0
            plain = capsys.readouterr().out
            assert "submitted=1" in plain and "lpt" in plain

            assert main(["stats", "--port", str(port), "--json"]) == 0
            snapshot = json.loads(capsys.readouterr().out)
            assert snapshot["submitted"] == 1

            assert main(["top", "--port", str(port), "--iterations", "2",
                         "--interval", "0.01", "--no-clear"]) == 0
            top_out = capsys.readouterr().out
            assert top_out.count("repro top") == 2

            assert main(["trace", "dump", "--port", str(port)]) == 0
            lines = [l for l in capsys.readouterr().out.splitlines() if l]
            spans = [json.loads(line) for line in lines]
            assert {"kernel", "dispatch"} <= {s["name"] for s in spans}

    async def _drive(self, port, inst):
        client = await ServiceClient.connect("127.0.0.1", port, trace=True)
        await client.solve(inst, "lpt")
        await client.close()

    def test_trace_dump_to_file(self, inst, tmp_path, capsys):
        out = tmp_path / "spans.jsonl"
        with _live_service(trace=True) as port:
            run(self._drive(port, inst))
            assert main(["trace", "dump", "--port", str(port),
                         "--output", str(out)]) == 0
        spans = [json.loads(line) for line in out.read_text().splitlines()]
        assert spans and all("trace" in s for s in spans)

    def test_stats_unreachable_is_clean(self, capsys):
        async def free_port():
            server = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            return port

        port = run(free_port())
        assert main(["stats", "--port", str(port)]) == 1
        assert "error:" in capsys.readouterr().err
