"""Command-line interface.

The sub-commands cover the typical workflows:

``generate``
    Create a synthetic instance (independent workload or DAG family) and
    write it to a JSON file that ``solve`` can read back.
``solve``
    Run any registered solver through the unified facade
    (:mod:`repro.solvers`) by spec string, e.g. ``"sbo(delta=1.0)"``;
    ``--list`` enumerates the registry with capability flags.
``experiments``
    Run one experiment of the DESIGN.md index (or all of them) and print
    its table and shape checks.
``report``
    Regenerate the full EXPERIMENTS.md-style Markdown report.
``serve``
    Run the asyncio solver service (:mod:`repro.service`): a persistent
    worker fleet shared by many clients over line-delimited JSON on
    stdin/stdout (default) or TCP (``--port``), including the streaming
    ``session_*`` ops of the online subsystem.
``cluster``
    Run the sharded cluster front end (:mod:`repro.cluster`): one TCP
    endpoint routing by content hash over N supervised ``repro serve``
    backend shards sharing a read-through cache, with queue-depth
    autoscaling (``--min-shards``/``--max-shards``/``--scale-up-at``/
    ``--scale-down-at``) and cross-shard session handoff.  Speaks the
    same wire protocol as ``serve`` — clients cannot tell the
    difference.
``stats`` / ``top`` / ``trace``
    Observability clients for a running service or cluster
    (:mod:`repro.obs`): one-shot stats snapshot (``stats``), a live
    refreshing terminal view (``top``), and a JSONL dump of recorded
    trace spans (``trace dump``).  The servers opt in with ``--trace``
    / ``--metrics-port`` / ``--slow-request-threshold``.
``online``
    Run an arrival trace through an online scheduler
    (:mod:`repro.online`): generate or load a trace, stream it, and
    report prefix-wise Cmax/Mmax with competitive ratios;
    ``--list`` enumerates the online registry.
``periodic``
    Periodic real-time workloads (:mod:`repro.periodic`): generate
    harmonic / log-uniform task sets, solve them with deadline-aware
    solvers (or any one-shot solver via hyperperiod unrolling), and run
    the EXT-P1 utilization sweep.

Examples::

    python -m repro generate --kind uniform --n 50 --m 4 --seed 1 --output inst.json
    python -m repro solve --input inst.json --solver "sbo(delta=1.0, inner=lpt)" --gantt
    python -m repro solve --input inst.json --solver "constrained(budget=120)"
    python -m repro solve --input inst.json --solver "rls(delta=2.5)" --cache .repro-cache
    python -m repro solve --list
    python -m repro experiments --id EXT-T1 --cache .repro-cache
    python -m repro experiments --id FIG-3
    python -m repro report > EXPERIMENTS.md
    python -m repro serve --port 8373 --workers 4 --cache .repro-cache
    python -m repro cluster --port 8373 --shards 4 --max-shards 8 \\
        --scale-up-at 8 --scale-down-at 1 --cache .repro-cache
    python -m repro serve --port 8373 --trace --metrics-port 9100 \\
        --slow-request-threshold 0.5
    python -m repro stats --port 8373
    python -m repro top --port 8373 --interval 1
    python -m repro trace dump --port 8373 --clear
    python -m repro online --arrival stochastic --n 50 --m 4 --seed 0 \\
        --scheduler "online_sbo(delta=1.0)" --save-trace trace.json
    python -m repro online --trace trace.json --scheduler online_greedy
    python -m repro periodic generate --family harmonic --n 5 --utilization 0.9 \\
        --output ptasks.json
    python -m repro periodic solve --input ptasks.json --solver periodic_edf
    python -m repro periodic sweep
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from repro.core.instance import DAGInstance, Instance
from repro.dag.generators import random_dag_suite
from repro.simulator.executor import simulate_schedule
from repro.simulator.trace import render_gantt
from repro.solvers import (
    DiskCache,
    SolverCapabilityError,
    SpecError,
    configure_cache,
    describe_solvers,
    solve,
)
from repro.utils.tables import format_table
from repro.workloads.independent import workload_suite

__all__ = ["main", "build_parser"]


# --------------------------------------------------------------------------- #
# generate
# --------------------------------------------------------------------------- #
_INDEPENDENT_KINDS = ("uniform", "correlated", "anti-correlated", "bimodal", "heavy-tailed")


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind in _INDEPENDENT_KINDS:
        instance: Instance = workload_suite(args.n, args.m, seed=args.seed)[args.kind]
    else:
        suite = random_dag_suite(args.m, seed=args.seed)
        if args.kind not in suite:
            print(f"error: unknown instance kind {args.kind!r}", file=sys.stderr)
            return 2
        instance = suite[args.kind]
    payload = instance.to_dict()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {instance.n} tasks ({args.kind}) to {args.output}")
    else:
        print(text)
    return 0


def _load_instance(path: str) -> Instance:
    data = json.loads(Path(path).read_text())
    if data.get("kind") == "dag":
        return DAGInstance.from_dict(data)
    if data.get("kind") == "periodic":
        from repro.periodic import PeriodicInstance

        return PeriodicInstance.from_dict(data)
    return Instance.from_dict(data)


# --------------------------------------------------------------------------- #
# solve (unified facade)
# --------------------------------------------------------------------------- #
def _cmd_solve(args: argparse.Namespace) -> int:
    if args.list:
        headers = ["solver", "params", "dag", "constraint", "bi-objective", "summary"]
        rows = [
            [
                rec["name"],
                rec["params"] or "-",
                "yes" if rec["supports_dag"] else "no",
                "yes" if rec["supports_constraint"] else "no",
                "yes" if rec["is_bi_objective"] else "no",
                rec["summary"],
            ]
            for rec in describe_solvers()
        ]
        print(format_table(headers, rows))
        return 0
    if not args.input:
        print("error: --input is required (or use --list)", file=sys.stderr)
        return 2
    instance = _load_instance(args.input)
    cache = None
    if args.cache:
        try:
            cache = DiskCache(args.cache)
        except OSError as exc:
            print(f"error: cannot use cache directory {args.cache!r}: {exc}", file=sys.stderr)
            return 2
    try:
        result = solve(instance, args.solver, cache=cache)
    except (SpecError, SolverCapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        # Solver-level failures (exact-solver size cap, infeasible RLS delta,
        # ...): a clean message and a distinct exit code from usage errors.
        print(f"solver failed: {exc}", file=sys.stderr)
        return 1
    print(f"instance: {instance.name or args.input} (n={instance.n}, m={instance.m})")
    print(f"spec: {result.spec}")
    if not result.feasible:
        reason = (
            "certified infeasible"
            if result.provenance.get("certified_infeasible")
            else "no feasible schedule found"
        )
        print(f"infeasible: {reason}")
        return 1
    print(f"Cmax = {result.cmax:g}")
    print(f"Mmax = {result.mmax:g}")
    print(f"sum Ci = {result.sum_ci:g}")
    guarantee = ", ".join(
        "inf" if math.isinf(v) else f"{v:.3f}" for v in result.guarantee
    )
    print(f"guarantee = ({guarantee})")
    print(f"wall time = {result.wall_time * 1e3:.2f} ms")
    if "cache" in result.provenance:
        print(f"cache = {result.provenance['cache']}")
    report = simulate_schedule(result.schedule)
    print(f"simulation check: {'OK' if report.ok else 'VIOLATIONS: ' + '; '.join(report.violations)}")
    if args.gantt:
        print(render_gantt(result.schedule, width=args.gantt_width))
    return 0 if report.ok else 1


# --------------------------------------------------------------------------- #
# experiments / report
# --------------------------------------------------------------------------- #
def _experiment_runners() -> Dict[str, Callable[[], object]]:
    from repro.experiments import (
        run_constrained_study,
        run_figure1,
        run_figure2,
        run_figure3,
        run_online_ratio,
        run_periodic_study,
        run_rls_ablation,
        run_rls_ratio,
        run_sbo_ablation,
        run_sbo_ratio,
        run_simulation_validation,
        run_trio_ratio,
    )

    return {
        "FIG-1": run_figure1,
        "FIG-2": run_figure2,
        "FIG-3": run_figure3,
        "EXT-T1": lambda: run_sbo_ratio(seeds=(0, 1)),
        "EXT-T2": lambda: run_rls_ratio(seeds=(0, 1)),
        "EXT-T3": lambda: run_trio_ratio(seeds=(0, 1)),
        "EXT-T4": lambda: run_constrained_study(seeds=(0, 1)),
        "EXT-A1": lambda: run_sbo_ablation(seeds=(0, 1)),
        "EXT-A2": lambda: run_rls_ablation(seeds=(0, 1)),
        "EXT-A3": lambda: run_simulation_validation(seeds=(0, 1)),
        "EXT-O1": lambda: run_online_ratio(seeds=(0,)),
        "EXT-P1": lambda: run_periodic_study(seeds=(0, 1)),
    }


def _configure_cli_cache(path: str) -> bool:
    """Install the process-default cache for an experiments/report run."""
    try:
        configure_cache(path)
    except OSError as exc:
        print(f"error: cannot use cache directory {path!r}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.cache and not _configure_cli_cache(args.cache):
        return 2
    runners = _experiment_runners()
    ids = list(runners) if args.id == "all" else [args.id]
    exit_code = 0
    for exp_id in ids:
        if exp_id not in runners:
            print(f"error: unknown experiment id {exp_id!r}; known ids: {', '.join(runners)}", file=sys.stderr)
            return 2
        result = runners[exp_id]()
        print(result.to_text())
        print()
        if not result.all_checks_pass:
            exit_code = 1
    return exit_code


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_experiments_report

    if args.cache and not _configure_cli_cache(args.cache):
        return 2

    text = generate_experiments_report(quick=not args.full)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return 0


# --------------------------------------------------------------------------- #
# serve (async solver service)
# --------------------------------------------------------------------------- #
def _print_metrics_banner(server: object) -> None:
    """Report the bound scrape endpoint (after the main banner line).

    Order matters: process-backend shards parse the *first* stderr line
    as the service banner, so the metrics line must never precede it.
    """
    if server is None:
        return
    sockname = server.sockets[0].getsockname()  # type: ignore[attr-defined]
    print(
        f"metrics exposition on http://{sockname[0]}:{sockname[1]}/metrics",
        file=sys.stderr, flush=True,
    )


async def _close_server(server: object) -> None:
    if server is None:
        return
    server.close()  # type: ignore[attr-defined]
    await server.wait_closed()  # type: ignore[attr-defined]


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import ServiceConfig, SolverService
    from repro.service.server import serve_stdio, serve_tcp

    if args.stdio and args.port is not None:
        print("error: --stdio and --port are mutually exclusive", file=sys.stderr)
        return 2
    try:
        config = ServiceConfig(
            workers=args.workers,
            max_pending=args.max_pending,
            backpressure=args.policy,
            default_timeout=args.timeout,
            cache=args.cache if args.cache else False,
            start_method=args.start_method,
            max_sessions=args.max_sessions,
            session_ttl=args.session_ttl if args.session_ttl else None,
            auto_timeouts=args.auto_timeouts,
            tenants=args.tenants,
            default_tenant=args.default_tenant,
            trace=args.trace,
            slow_request_threshold=args.slow_request_threshold,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def run() -> None:
        async with SolverService(config) as svc:
            metrics_server = None
            if args.metrics_port is not None:
                from repro.obs.adapters import build_metrics_registry
                from repro.obs.httpd import start_metrics_server

                def render_metrics() -> str:
                    return build_metrics_registry(svc.stats().to_dict()).render()

                metrics_server = await start_metrics_server(
                    render_metrics, host=args.host, port=args.metrics_port
                )
            if args.port is None:
                print(
                    f"repro service on stdio ({config.workers} workers, "
                    f"max_pending={config.max_pending}, policy={config.backpressure})"
                    + (f", cache={args.cache}" if args.cache else ""),
                    file=sys.stderr, flush=True,
                )
                _print_metrics_banner(metrics_server)
                try:
                    await serve_stdio(svc)
                finally:
                    await _close_server(metrics_server)
            else:
                shutdown = asyncio.Event()
                server = await serve_tcp(svc, args.host, args.port, shutdown)
                port = server.sockets[0].getsockname()[1]
                # The banner goes to stderr (stdout stays protocol-clean) and
                # reports the actual port so --port 0 is test/script friendly.
                print(
                    f"repro service listening on {args.host}:{port} "
                    f"({config.workers} workers, max_pending={config.max_pending}, "
                    f"policy={config.backpressure})"
                    + (f", cache={args.cache}" if args.cache else "")
                    + (f", tenants={len(config.tenants)}"
                       if config.tenants is not None else ""),
                    file=sys.stderr, flush=True,
                )
                _print_metrics_banner(metrics_server)
                try:
                    await shutdown.wait()
                finally:
                    server.close()
                    await server.wait_closed()
                    await _close_server(metrics_server)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("interrupted; shutting down", file=sys.stderr)
    return 0


# --------------------------------------------------------------------------- #
# cluster (sharded serving with autoscaling)
# --------------------------------------------------------------------------- #
def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster import Autoscaler, ClusterConfig, ClusterRouter, ShardStartError
    from repro.service.server import serve_tcp

    try:
        config = ClusterConfig(
            shards=args.shards,
            min_shards=args.min_shards,
            max_shards=args.max_shards,
            attach=tuple(args.attach or ()),
            probe_interval=args.probe_interval,
            probe_failures=args.probe_failures,
            backend=args.backend,
            workers=args.workers,
            max_pending=args.max_pending,
            backpressure=args.policy,
            default_timeout=args.timeout,
            cache=args.cache,
            auto_timeouts=args.auto_timeouts,
            max_sessions=args.max_sessions,
            session_ttl=args.session_ttl if args.session_ttl else None,
            scale_up_at=args.scale_up_at,
            scale_down_at=args.scale_down_at,
            scale_interval=args.scale_interval,
            hysteresis=args.hysteresis,
            drain_timeout=args.drain_timeout,
            tenants=args.tenants,
            default_tenant=args.default_tenant,
            trace=args.trace,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def run() -> None:
        async with ClusterRouter(config) as router:
            autoscaler = Autoscaler(router)
            if not args.no_autoscale:
                autoscaler.start()
            metrics_server = None
            if args.metrics_port is not None:
                from repro.obs.httpd import start_metrics_server

                async def render_metrics() -> str:
                    # Scrape the `metrics` wire op itself, so the HTTP and
                    # wire expositions cannot diverge.
                    response = await router.handle({"op": "metrics", "id": 0})
                    return str(response.get("text", ""))

                metrics_server = await start_metrics_server(
                    render_metrics, host=args.host, port=args.metrics_port
                )
            shutdown = asyncio.Event()
            server = await serve_tcp(
                None, args.host, args.port, shutdown, handler=router.handle
            )
            port = server.sockets[0].getsockname()[1]
            print(
                f"repro cluster listening on {args.host}:{port} "
                f"({len(router.shard_names())} {config.backend} shards, "
                f"workers={config.workers}/shard, "
                f"scale=[{config.min_shards},{config.max_shards}] "
                f"@ queue {config.scale_down_at:g}..{config.scale_up_at:g})"
                + (f", attached={len(config.attach)}" if config.attach else "")
                + (f", cache={args.cache}" if args.cache else "")
                + (f", tenants={len(config.tenants)}"
                   if config.tenants is not None else ""),
                file=sys.stderr, flush=True,
            )
            _print_metrics_banner(metrics_server)
            try:
                await shutdown.wait()
            finally:
                server.close()
                await server.wait_closed()
                await _close_server(metrics_server)
                await autoscaler.stop()

    try:
        asyncio.run(run())
    except ShardStartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("interrupted; shutting down", file=sys.stderr)
    return 0


# --------------------------------------------------------------------------- #
# stats / top / trace (observability clients)
# --------------------------------------------------------------------------- #
_STATS_COUNTER_KEYS = ("submitted", "completed", "failed", "rejected",
                       "timed_out", "coalesced", "cache_hits", "cache_misses")
_STATS_GAUGE_KEYS = ("pending", "queue_depth", "in_flight", "sessions_open")


def _fmt_num(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _fmt_ms(value: object) -> str:
    """Milliseconds with two decimals; ``-`` for absent/non-finite values.

    The protocol boundary sanitizes NaN percentiles (empty latency
    windows) to ``null``, which arrives here as ``None``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "-"
    if not math.isfinite(float(value)):
        return "-"
    return f"{float(value) * 1e3:.2f}"


def _render_stats(stats: Dict[str, object]) -> str:
    """Human-readable stats summary shared by ``repro stats`` and ``repro top``.

    Accepts both the flat service shape and the cluster shape
    (``{"cluster": true, "totals": {...}, "router": {...}, ...}``).
    """
    lines = []
    if stats.get("cluster"):
        router = stats.get("router") or {}
        if isinstance(router, dict):
            lines.append(
                f"cluster: {_fmt_num(router.get('shards_alive'))} shards alive, "
                f"{_fmt_num(router.get('routed'))} routed, "
                f"{_fmt_num(router.get('retried'))} retried, "
                f"{_fmt_num(router.get('lost'))} lost"
            )
        body = stats.get("totals") or {}
    else:
        body = stats
    if not isinstance(body, dict):
        body = {}
    lines.append("counters: " + "  ".join(
        f"{key}={_fmt_num(body.get(key, 0))}" for key in _STATS_COUNTER_KEYS))
    lines.append("gauges:   " + "  ".join(
        f"{key}={_fmt_num(body.get(key, 0))}" for key in _STATS_GAUGE_KEYS))
    families = stats.get("families")
    if isinstance(families, dict) and families:
        headers = ["family", "count", "p50 ms", "p90 ms", "p99 ms", "mean ms", "max ms"]
        rows = [
            [name, _fmt_num(snap.get("count")), _fmt_ms(snap.get("p50")),
             _fmt_ms(snap.get("p90")), _fmt_ms(snap.get("p99")),
             _fmt_ms(snap.get("mean")), _fmt_ms(snap.get("max"))]
            for name, snap in sorted(families.items())
            if isinstance(snap, dict)
        ]
        lines.append(format_table(headers, rows))
    tenants = stats.get("tenants")
    if isinstance(tenants, dict) and tenants:
        headers = ["tenant", "admitted", "rejected", "in flight", "backlog"]
        rows = [
            [name, _fmt_num(snap.get("admitted")),
             _fmt_num(snap.get("rejected", snap.get("rejections"))),
             _fmt_num(snap.get("in_flight")), _fmt_num(snap.get("backlog"))]
            for name, snap in sorted(tenants.items())
            if isinstance(snap, dict)
        ]
        lines.append(format_table(headers, rows))
    return "\n".join(lines)


def _cmd_stats(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.client import ServiceClient

    async def fetch() -> Dict[str, object]:
        client = await ServiceClient.connect(args.host, args.port)
        try:
            return await client.stats()
        finally:
            await client.close()

    try:
        stats = asyncio.run(fetch())
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(_render_stats(stats))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.client import ServiceClient

    async def run() -> None:
        client = await ServiceClient.connect(args.host, args.port)
        try:
            remaining = args.iterations
            while True:
                stats = await client.stats()
                body = _render_stats(stats)
                if not args.no_clear:
                    sys.stdout.write("\x1b[2J\x1b[H")
                print(f"repro top — {args.host}:{args.port} "
                      f"(refresh {args.interval:g}s, ctrl-c to quit)")
                print(body)
                sys.stdout.flush()
                if args.iterations:
                    remaining -= 1
                    if remaining <= 0:
                        return
                await asyncio.sleep(args.interval)
        finally:
            await client.close()

    try:
        asyncio.run(run())
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.client import ServiceClient

    async def fetch() -> list:
        client = await ServiceClient.connect(args.host, args.port)
        try:
            return await client.trace_dump(
                trace_id=args.trace_id, clear=args.clear
            )
        finally:
            await client.close()

    try:
        spans = asyncio.run(fetch())
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    text = "\n".join(json.dumps(span, sort_keys=True) for span in spans)
    if args.output:
        Path(args.output).write_text(text + ("\n" if text else ""))
        print(f"wrote {len(spans)} spans to {args.output}", file=sys.stderr)
    elif text:
        print(text)
    return 0


# --------------------------------------------------------------------------- #
# online (streaming arrival traces)
# --------------------------------------------------------------------------- #
def _load_or_generate_trace(args: argparse.Namespace):
    from repro.online import adversarial_trace, stochastic_trace, trace_from_instance
    from repro.online.arrivals import ArrivalTrace

    if args.trace:
        return ArrivalTrace.load(args.trace)
    if args.arrival == "stochastic":
        return stochastic_trace(args.n, args.m, rate=args.rate, seed=args.seed)
    if args.arrival == "replay":
        if not args.input:
            raise ValueError("--arrival replay needs --input INSTANCE.json")
        return trace_from_instance(_load_instance(args.input))
    # adversarial permutation of a generated (or loaded) instance
    if args.input:
        instance = _load_instance(args.input)
    else:
        instance = workload_suite(args.n, args.m, seed=args.seed)["uniform"]
    return adversarial_trace(instance, mode=args.mode)


def _cmd_online(args: argparse.Namespace) -> int:
    from repro.online import competitive_report, describe_online_schedulers
    from repro.solvers import SpecError

    if args.list:
        headers = ["scheduler", "params", "summary"]
        rows = [
            [rec["name"], rec["params"] or "-", rec["summary"]]
            for rec in describe_online_schedulers()
        ]
        print(format_table(headers, rows))
        return 0
    try:
        trace = _load_or_generate_trace(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.save_trace:
        trace.save(args.save_trace)
        print(f"wrote {len(trace)} arrivals to {args.save_trace}")
    prefixes = None
    if args.prefixes:
        try:
            prefixes = [int(chunk) for chunk in args.prefixes.split(",") if chunk.strip()]
        except ValueError:
            print(f"error: --prefixes must be comma-separated integers, got {args.prefixes!r}",
                  file=sys.stderr)
            return 2
    try:
        report = competitive_report(
            trace, args.scheduler, prefixes=prefixes, reference=args.reference,
            oracle_inner=args.oracle_inner,
        )
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = report.run
    print(f"trace: {trace.name or args.trace} (n={len(trace)}, m={trace.m})")
    print(f"scheduler: {run.spec}")
    headers = ["prefix k", "Cmax", "Mmax", f"Cmax/{report.reference}", f"Mmax/{report.reference}"]
    rows = [
        [row.k, f"{row.cmax:g}", f"{row.mmax:g}",
         f"{row.cmax_ratio:.3f}", f"{row.mmax_ratio:.3f}"]
        for row in report.rows
    ]
    print(format_table(headers, rows))
    print(f"competitive ratios (worst prefix): Cmax {report.cmax_competitive:.3f}, "
          f"Mmax {report.mmax_competitive:.3f}")
    print(f"arrival-aware makespan (simulated): {run.sim_makespan:g}")
    print(run.result.summary())
    return 0


# --------------------------------------------------------------------------- #
# periodic (real-time workloads)
# --------------------------------------------------------------------------- #
def _cmd_periodic(args: argparse.Namespace) -> int:
    from repro.periodic import HyperperiodBudgetError

    try:
        if args.action == "generate":
            return _periodic_generate(args)
        if args.action == "solve":
            return _periodic_solve(args)
        if args.action == "sweep":
            return _periodic_sweep(args)
        return _periodic_report(args)
    except HyperperiodBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _periodic_taskset(args: argparse.Namespace):
    from repro.workloads.periodic import harmonic_taskset, loguniform_taskset

    maker = harmonic_taskset if args.family == "harmonic" else loguniform_taskset
    return maker(args.n, args.utilization, m=args.m, seed=args.seed)


def _periodic_generate(args: argparse.Namespace) -> int:
    pinst = _periodic_taskset(args)
    text = json.dumps(pinst.to_dict(), indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(
            f"wrote {pinst.n} periodic tasks ({args.family}, U={pinst.utilization:g}, "
            f"hyperperiod={pinst.hyperperiod:g}) to {args.output}"
        )
    else:
        print(text)
    return 0


def _periodic_solve(args: argparse.Namespace) -> int:
    if not args.input:
        print("error: --input is required for `periodic solve`", file=sys.stderr)
        return 2
    instance = _load_instance(args.input)
    if getattr(instance, "kind", None) != "periodic":
        print(f"error: {args.input!r} is not a periodic instance", file=sys.stderr)
        return 2
    try:
        result = solve(instance, args.solver)
    except (SpecError, SolverCapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"instance: {instance.name or args.input} (n={instance.n} tasks, m={instance.m}, "
        f"U={instance.utilization:g}, hyperperiod={instance.hyperperiod:g})"
    )
    print(f"spec: {result.spec}")
    print(f"Cmax = {result.cmax:g}")
    print(f"Mmax = {result.mmax:g} (job-level)")
    for key, label in (
        ("unrolled_jobs", "unrolled jobs"),
        ("deadline_misses", "deadline misses"),
        ("deadline_miss_ratio", "miss ratio"),
        ("max_lateness", "max lateness"),
        ("sim_makespan", "timed makespan"),
        ("task_mmax", "Mmax (task-level)"),
    ):
        if key in result.provenance:
            value = result.provenance[key]
            print(f"{label} = {value:g}" if isinstance(value, float) else f"{label} = {value}")
    return 0


def _periodic_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.periodic_study import run_periodic_study

    result = run_periodic_study(seeds=tuple(range(args.seeds)))
    print(result.to_text())
    return 0 if result.all_checks_pass else 1


def _periodic_report(args: argparse.Namespace) -> int:
    from repro.experiments.periodic_study import run_periodic_study

    result = run_periodic_study(seeds=tuple(range(args.seeds)))
    text = result.to_markdown()
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote periodic report to {args.output}")
    else:
        print(text)
    return 0 if result.all_checks_pass else 1


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bi-objective (makespan, memory) scheduling — IPDPS 2008 reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic instance as JSON")
    gen.add_argument("--kind", default="uniform",
                     help=f"workload family ({', '.join(_INDEPENDENT_KINDS)}) or DAG family (layered, fft, ...)")
    gen.add_argument("--n", type=int, default=50, help="number of tasks (independent workloads only)")
    gen.add_argument("--m", type=int, default=4, help="number of processors")
    gen.add_argument("--seed", type=int, default=0, help="random seed")
    gen.add_argument("--output", default=None, help="output JSON path (stdout when omitted)")
    gen.set_defaults(func=_cmd_generate)

    slv = sub.add_parser(
        "solve",
        help="run any solver by spec string, e.g. \"sbo(delta=1.0, inner=lpt)\"",
    )
    slv.add_argument("--input", default=None, help="instance JSON produced by `generate`")
    slv.add_argument("--solver", default="sbo(delta=1.0)",
                     help="solver spec, e.g. \"rls(delta=2.5, order=bottom-level)\"")
    slv.add_argument("--list", action="store_true",
                     help="list registered solvers with their capabilities and exit")
    slv.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    slv.add_argument("--gantt-width", type=int, default=60, help="Gantt chart width in characters")
    slv.add_argument("--cache", default=None, metavar="DIR",
                     help="persistent result-cache directory (repeat runs are served from it)")
    slv.set_defaults(func=_cmd_solve)

    exp = sub.add_parser("experiments", help="run a reproduced experiment by id")
    exp.add_argument("--id", default="all", help="experiment id (FIG-1 ... EXT-A3) or 'all'")
    exp.add_argument("--cache", default=None, metavar="DIR",
                     help="persistent result-cache directory shared by every solve of the run "
                          "(cheap re-runs of figure/ratio/ablation studies)")
    exp.set_defaults(func=_cmd_experiments)

    rep = sub.add_parser("report", help="regenerate the EXPERIMENTS.md report")
    rep.add_argument("--output", default=None, help="write to this path instead of stdout")
    rep.add_argument("--full", action="store_true", help="use the larger (slower) sweeps")
    rep.add_argument("--cache", default=None, metavar="DIR",
                     help="persistent result-cache directory shared by every solve of the run")
    rep.set_defaults(func=_cmd_report)

    srv = sub.add_parser(
        "serve",
        help="run the async solver service (line-delimited JSON over stdio or TCP)",
    )
    srv.add_argument("--stdio", action="store_true",
                     help="serve one client on stdin/stdout (the default transport)")
    srv.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    srv.add_argument("--port", type=int, default=None,
                     help="TCP port (0 picks a free one; omit for stdio mode)")
    srv.add_argument("--workers", type=int, default=2,
                     help="solver worker processes shared by all clients")
    srv.add_argument("--max-pending", type=int, default=64,
                     help="bound on admitted unfinished jobs (backpressure threshold)")
    srv.add_argument("--policy", default="wait", choices=["wait", "reject"],
                     help="backpressure policy once max-pending jobs are admitted")
    srv.add_argument("--timeout", type=float, default=None,
                     help="default per-request timeout in seconds (unlimited when omitted)")
    srv.add_argument("--cache", default=None, metavar="DIR",
                     help="persistent result-cache directory consulted before dispatch")
    srv.add_argument("--start-method", default=None,
                     choices=["fork", "spawn", "forkserver"],
                     help="multiprocessing start method for the worker pool")
    srv.add_argument("--max-sessions", type=int, default=64,
                     help="bound on concurrently open streaming sessions")
    srv.add_argument("--session-ttl", type=float, default=300.0,
                     help="idle seconds before an open session expires (0 disables expiry)")
    srv.add_argument("--auto-timeouts", action="store_true",
                     help="derive per-solver-family timeouts from observed p99 latency tails")
    srv.add_argument("--tenants", default=None, metavar="FILE",
                     help="tenant registry JSON enabling multi-tenant QoS "
                          "(quotas, rate limits, weighted-fair admission)")
    srv.add_argument("--default-tenant", default=None, metavar="NAME",
                     help="tenant charged for requests that name none "
                          "(requires --tenants; otherwise such requests are rejected)")
    srv.add_argument("--trace", action="store_true",
                     help="record request trace spans (bounded in-process ring, "
                          "dumped via `repro trace dump` or the `trace` wire op)")
    srv.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                     help="serve Prometheus text exposition over HTTP on this "
                          "port (0 picks a free one)")
    srv.add_argument("--slow-request-threshold", type=float, default=None,
                     metavar="SECONDS",
                     help="log one structured line for every request slower "
                          "than this many seconds")
    srv.set_defaults(func=_cmd_serve)

    clu = sub.add_parser(
        "cluster",
        help="run a sharded solver cluster: one TCP front end routing over N "
             "repro-serve backend shards, with queue-depth autoscaling",
    )
    clu.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    clu.add_argument("--port", type=int, default=8373,
                     help="TCP port of the cluster front end (0 picks a free one)")
    clu.add_argument("--shards", type=int, default=2,
                     help="initial number of local backend shards (0 allowed "
                          "when --attach supplies the capacity)")
    clu.add_argument("--attach", action="append", default=None,
                     metavar="HOST:PORT",
                     help="attach an already-running repro-serve at HOST:PORT "
                          "as a remote shard (repeatable; never spawned, "
                          "never retired, health-checked by periodic pings)")
    clu.add_argument("--probe-interval", type=float, default=2.0,
                     help="seconds between health probes of attached remote shards")
    clu.add_argument("--probe-failures", type=int, default=3,
                     help="consecutive failed probes before a remote shard "
                          "is declared dead")
    clu.add_argument("--min-shards", type=int, default=1,
                     help="autoscaler lower bound on the shard count")
    clu.add_argument("--max-shards", type=int, default=8,
                     help="autoscaler upper bound on the shard count")
    clu.add_argument("--scale-up-at", type=float, default=8.0,
                     help="average queue depth per shard at/above which a shard is added")
    clu.add_argument("--scale-down-at", type=float, default=1.0,
                     help="average queue depth per shard at/below which a shard is retired")
    clu.add_argument("--scale-interval", type=float, default=2.0,
                     help="seconds between autoscaler observations")
    clu.add_argument("--hysteresis", type=int, default=3,
                     help="consecutive same-direction observations before scaling")
    clu.add_argument("--no-autoscale", action="store_true",
                     help="keep the shard count fixed at --shards")
    clu.add_argument("--backend", default="process", choices=["process", "inproc"],
                     help="shard kind: repro-serve subprocesses or embedded services")
    clu.add_argument("--workers", type=int, default=1,
                     help="solver worker processes per shard")
    clu.add_argument("--max-pending", type=int, default=64,
                     help="per-shard bound on admitted unfinished jobs")
    clu.add_argument("--policy", default="wait", choices=["wait", "reject"],
                     help="per-shard backpressure policy")
    clu.add_argument("--timeout", type=float, default=None,
                     help="per-shard default request timeout in seconds")
    clu.add_argument("--cache", default=None, metavar="DIR",
                     help="read-through cache directory (each local shard gets "
                          "its own subdirectory; the router adds its own cache "
                          "tier on top — strongly recommended)")
    clu.add_argument("--auto-timeouts", action="store_true",
                     help="derive per-solver-family timeouts on every shard")
    clu.add_argument("--max-sessions", type=int, default=64,
                     help="per-shard bound on open streaming sessions")
    clu.add_argument("--session-ttl", type=float, default=300.0,
                     help="per-shard idle session expiry (0 disables)")
    clu.add_argument("--drain-timeout", type=float, default=30.0,
                     help="seconds a retiring shard gets to finish in-flight jobs")
    clu.add_argument("--tenants", default=None, metavar="FILE",
                     help="tenant registry JSON enabling cluster-wide multi-tenant "
                          "QoS, enforced at the router")
    clu.add_argument("--default-tenant", default=None, metavar="NAME",
                     help="tenant charged for requests that name none "
                          "(requires --tenants; otherwise such requests are rejected)")
    clu.add_argument("--trace", action="store_true",
                     help="record trace spans at the router and every shard "
                          "(one trace id covers route -> shard -> kernel)")
    clu.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                     help="serve cluster-wide Prometheus text exposition "
                          "(router counters and the shard-merged latency "
                          "histograms) over HTTP on this port")
    clu.set_defaults(func=_cmd_cluster)

    sts = sub.add_parser(
        "stats",
        help="fetch and pretty-print a running service/cluster stats snapshot",
    )
    sts.add_argument("--host", default="127.0.0.1", help="service/cluster host")
    sts.add_argument("--port", type=int, required=True, help="service/cluster port")
    sts.add_argument("--json", action="store_true",
                     help="print the raw JSON snapshot instead of tables")
    sts.set_defaults(func=_cmd_stats)

    top = sub.add_parser(
        "top",
        help="live terminal view of a running service/cluster (like top(1))",
    )
    top.add_argument("--host", default="127.0.0.1", help="service/cluster host")
    top.add_argument("--port", type=int, required=True, help="service/cluster port")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--iterations", type=int, default=0,
                     help="refresh count before exiting (0 = run until ctrl-c)")
    top.add_argument("--no-clear", action="store_true",
                     help="append refreshes instead of clearing the screen")
    top.set_defaults(func=_cmd_top)

    trc = sub.add_parser(
        "trace",
        help="dump recorded trace spans from a running service/cluster as JSONL",
    )
    trc.add_argument("action", choices=["dump"],
                     help="dump: fetch the span ring over the `trace` wire op")
    trc.add_argument("--host", default="127.0.0.1", help="service/cluster host")
    trc.add_argument("--port", type=int, required=True, help="service/cluster port")
    trc.add_argument("--trace-id", default=None,
                     help="only spans belonging to this trace id")
    trc.add_argument("--clear", action="store_true",
                     help="clear the server-side span ring after dumping")
    trc.add_argument("--output", default=None, metavar="FILE",
                     help="write the JSONL here instead of stdout")
    trc.set_defaults(func=_cmd_trace)

    onl = sub.add_parser(
        "online",
        help="stream an arrival trace through an online scheduler and report ratios",
    )
    onl.add_argument("--list", action="store_true",
                     help="list registered online schedulers and exit")
    onl.add_argument("--trace", default=None, metavar="FILE",
                     help="arrival-trace JSON (as written by --save-trace)")
    onl.add_argument("--arrival", default="stochastic",
                     choices=["stochastic", "adversarial", "replay"],
                     help="arrival model when no --trace file is given")
    onl.add_argument("--mode", default="alternating",
                     choices=["lpt_first", "memory_first", "alternating", "density_waves"],
                     help="adversarial permutation (with --arrival adversarial)")
    onl.add_argument("--input", default=None,
                     help="instance JSON to permute/replay (adversarial/replay models)")
    onl.add_argument("--n", type=int, default=50, help="number of arrivals (generated traces)")
    onl.add_argument("--m", type=int, default=4, help="number of processors")
    onl.add_argument("--rate", type=float, default=1.0,
                     help="mean arrivals per time unit (stochastic model)")
    onl.add_argument("--seed", type=int, default=0, help="random seed (stochastic model)")
    onl.add_argument("--scheduler", default="online_sbo(delta=1.0)",
                     help="online spec, e.g. \"online_greedy(objective=memory)\"")
    onl.add_argument("--prefixes", default=None, metavar="K1,K2,...",
                     help="prefix lengths to report (default: quartiles + full stream)")
    onl.add_argument("--reference", default="lb", choices=["lb", "oracle"],
                     help="ratio reference: Graham lower bounds or offline oracle solves")
    onl.add_argument("--oracle-inner", default="sbo(delta=1.0)",
                     help="offline spec the oracle reference solves each prefix with")
    onl.add_argument("--save-trace", default=None, metavar="FILE",
                     help="write the (generated) trace to this JSON file")
    onl.set_defaults(func=_cmd_online)

    per = sub.add_parser(
        "periodic",
        help="periodic real-time workloads: generate task sets, solve via "
             "deadline-aware or unrolling solvers, run the EXT-P1 sweep",
    )
    per.add_argument("action", choices=["generate", "solve", "sweep", "report"],
                     help="generate a task set, solve one, run the utilization "
                          "sweep, or render it as Markdown")
    per.add_argument("--family", default="harmonic", choices=["harmonic", "loguniform"],
                     help="period family of generated task sets")
    per.add_argument("--n", type=int, default=5, help="number of periodic tasks")
    per.add_argument("--m", type=int, default=1, help="number of processors")
    per.add_argument("--utilization", type=float, default=0.9,
                     help="total utilization of the generated task set")
    per.add_argument("--seed", type=int, default=0, help="random seed")
    per.add_argument("--input", default=None, help="periodic instance JSON (solve)")
    per.add_argument("--solver", default="periodic_edf",
                     help="solver spec; deadline-aware (periodic_edf/rm/list) or any "
                          "one-shot solver via transparent hyperperiod unrolling")
    per.add_argument("--seeds", type=int, default=2,
                     help="number of seeds per sweep cell (sweep/report)")
    per.add_argument("--output", default=None, help="output path (generate/report)")
    per.set_defaults(func=_cmd_periodic)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
