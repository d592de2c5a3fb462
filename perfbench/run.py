"""End-to-end and per-layer benchmark of the repro serving stack.

Starts the shipped entry points (``repro serve``, ``repro cluster``) as
subprocesses and drives them from this one load-generator process::

    python3 perfbench/run.py --workload warm_hits --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout (it imports ``src/`` and writes only
under ``.perfbench_out/``).  Workloads: ``warm_hits``, ``heavy_kernel``,
``cluster_mix``; each one's ``why`` in BENCHMARK.json says what it
isolates and which change it should and should not show.

``--trace 0`` runs two server launches.  Each launch pre-fills its
fresh cache where the workload has a warm set, warms up, then alternates
the same four rounds of a closed loop (fixed in-flight window on one
connection) and an open loop (Poisson arrivals at the workload's offered
rate, each request timed from its scheduled send).  Each round counts
once, from the launch it ran in with less host CPU steal (see
``Bench.measured``): throughput is those closed-loop responses over their
seconds, the latency percentiles are taken over those open-loop samples
together.  Set-up time is the median of five spawns.

``--trace 1`` runs one launch plus a depth-1 TCP pass, then replays the
same request lines in process through each layer's public functions with
spans on (and once with spans off, for the tracing overhead), and a pass
of in-process ``SolverService.solve`` warm hits on the launch's cache.
It prints the per-layer metrics and a self-time table, and writes the
spans to ``.perfbench_out/spans/``.

Every response, in both modes, is compared field by field with
``result_to_payload(solve(inst, spec, cache=False))``, ignoring only
``wall_time`` and ``provenance.cache``.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def contract_metrics(trace: int) -> list:
    """Names the final JSON line carries, as BENCHMARK.json lists them.

    ``error_rate`` is printed in the table only: it is 0 on a healthy
    run, and failures already travel in the ``failed``/``attempted`` counts.
    """
    return [m["name"] for m in contract()["per_layer" if trace else "end_to_end"]]


def workload_why(workload) -> str:
    """The workload's ``why`` in BENCHMARK.json, checked against the code.

    The ``why`` is the one record of the workload; it states the offered
    rate, window and tail percentile, and those must be the ones run.
    """
    why = next((x["why"] for x in contract()["workloads"] if x["name"] == workload.name), "")
    stated = (f"{workload.rate:g} req/s", f"window {workload.window}",
              f"tail p{workload.tail_pct:g}")
    missing = [x for x in stated if x not in why]
    if missing:
        raise ValueError(f"BENCHMARK.json's why of {workload.name} does not state "
                         f"{', '.join(missing)}, which the workload runs with")
    return why


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured seconds per run, shared over its launches")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def table(rows) -> str:
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(str(c).ljust(w) for c, w in zip(row, widths)) for row in rows)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def settle_heap() -> None:
    """Keep the prepared inputs out of later garbage collections.

    The generator holds every instance as Python objects; a full
    collection walking them mid-run stalls the open loop by milliseconds.
    """
    gc.collect()
    gc.freeze()


async def run_untraced(bench, seconds: float):
    from runner import EXTRA_SETUPS, LAUNCHES, ROUNDS

    per = seconds / (LAUNCHES * ROUNDS)
    closed_s, open_s = per * bench.w.closed_share, per * (1 - bench.w.closed_share)
    bench.prepare(closed_s, open_s, ROUNDS)
    settle_heap()
    launches = [await bench.launch(i, closed_s) for i in range(LAUNCHES)]
    bench.setups = [bench.setup_only(i) for i in range(EXTRA_SETUPS)]
    attempted, failed = bench.verify(launches)
    metrics = bench.end_to_end(launches, attempted, failed)
    for launch in launches:
        closed = launch.of("closed")
        print(f"launch {launch.index}: setup {launch.setup_s:.3f} s, closed "
              + ", ".join(f"{len(p.sends)} req in {p.wall_s:.2f} s (steal {p.steal:.1%})"
                          for p in closed)
              + f"; open {len(launch.sends('open'))} req (steal "
              + ", ".join(f"{p.steal:.1%}" for p in launch.of("open"))
              + f"); rss {launch.rss_mb:.1f} MB")
    print("setup-only spawns: " + ", ".join(f"{x:.3f} s" for x in bench.setups))
    lag = bench.loadgen_lag_p99_ms(launches)
    # Behind = the p99 send ran later than one mean arrival gap.
    behind = lag > 1e3 / bench.w.rate
    print(f"open loop: {bench.latency_samples} samples, tail = p{bench.tail_pct:g}, "
          f"generator lag p99 {lag:.2f} ms"
          + ("  ** generator fell behind its schedule: latency figures are suspect **"
             if behind else ""))
    return launches, attempted, failed, metrics


async def run_traced(bench, seconds: float):
    closed_s, open_s = seconds * 0.2, seconds * 0.3
    bench.prepare(closed_s, open_s, 1)
    settle_heap()
    launch = await bench.launch(0, closed_s, serial=True)
    attempted, failed = bench.verify([launch])
    e2e = bench.end_to_end([launch], attempted, failed)
    print(f"open loop: {bench.latency_samples} samples, tail = p{bench.tail_pct:g}")
    info = await bench.traced_replay(launch, budget_s=seconds * 0.1)
    metrics = bench.per_layer(launch, info)
    bench.recorder.write(OUT / "spans" / f"{bench.w.name}-seed{bench.seed}.jsonl")
    rows = [("span", "count", "self p50 us", "self total ms", "share")]
    total = sum(sum(v) for v in info["self_times"].values())
    for name, values in sorted(info["self_times"].items(), key=lambda kv: -sum(kv[1])):
        rows.append((name, len(values), fmt(statistics.median(values) * 1e6),
                     fmt(sum(values) * 1e3), f"{sum(values) / total:.1%}"))
    print(f"traced in-process replay of {info['replayed']} requests "
          f"(untraced p50 {info['untraced_us']:.1f} us, traced p50 {info['traced_us']:.1f} us):")
    print(table(rows))
    if bench.probed:
        print("taken from a probe, as this workload's path never calls them: "
              + ", ".join(bench.probed))
    if info["hit_path_us"]:
        serial_us = metrics["transport.serial_hit_us"][0]
        print(f"warm hit: {fmt(serial_us)} us over TCP depth-1, of which the in-process "
              f"layer path takes {fmt(info['hit_path_us'])} us; transport, event loop "
              f"and service bookkeeping take the other {fmt(serial_us - info['hit_path_us'])} us")
    print(f"end-to-end in this traced run: throughput {fmt(e2e['throughput_rps'][0])} req/s, "
          f"p50 {fmt(e2e['latency_p50_ms'][0])} ms")
    return [launch], attempted, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from loadgen import host_steal, steal_share
    from runner import Bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(workload, args.seed, ROOT, workdir)
    try:
        why = workload_why(workload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"workload {workload.name} ({workload.server}): {why}")
    steal0 = host_steal()
    # Servers run in their own sessions, so a signal to this process does
    # not reach them: turn SIGTERM into an exit that runs the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        mode = run_traced if args.trace else run_untraced
        launches, attempted, failed, metrics = asyncio.run(mode(bench, args.seconds))
    finally:
        for server in list(bench.live):
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"host CPU steal during the run: {steal_share(steal0, host_steal()):.1%}")
    service_lost, router_lost = bench.ledger_lost(launches)
    transport = [x.transport_error for x in launches if x.transport_error]
    orphans = bench.orphans + sum(len(x.survivors) for x in launches)
    for note in bench.notes + transport:
        print(f"note: {note}")
    # The tail's percentile and sample count sit next to it in the table;
    # the JSON line holds only value and unit per metric, as the contract says.
    extra = {}
    if "latency_tail_ms" in metrics:
        extra["latency_tail_ms"] = f"percentile={bench.tail_pct:g} samples={bench.latency_samples}"
    print(table([("metric", "value", "unit", "")]
                + [(name, fmt(value), unit, extra.get(name, ""))
                   for name, (value, unit) in metrics.items()]))
    print(f"checked {attempted} responses against the direct solve: {failed} failed; "
          f"service lost {service_lost}, router lost {router_lost}, "
          f"orphaned processes {orphans}")
    correct = not (failed or service_lost or router_lost or orphans or transport)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in contract_metrics(args.trace)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
