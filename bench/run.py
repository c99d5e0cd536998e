"""sizebias benchmark: one command, three seeded workloads, checked outputs.

    python3 bench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  cli-startup         one fresh ``python -m sizebias.cli`` process per operation
  lattice             in-process batches of integer-lattice kernels
  offlattice-grid-mc  in-process batches of real-support, grid and Monte Carlo kernels

All load comes from one client in a closed loop: the next operation
starts when the previous one has finished.  With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` a separate run reports per-layer metrics from in-memory
spans, the tracing overhead and the known-defect probes, and writes the
spans under ``.bench_out/``.  Lines before the last are a human-readable
run record.  Run from the root of a checkout; the package is loaded from
``src/``, not from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import subprocess
import sys
import time

from common import (BENCH_DIR, OUT_DIR, ROOT, TAIL_PERCENTILE, WORKLOADS, beyond,
                    child_env, median, metric, percentile, require_source_tree,
                    run_record, use_source_tree)

use_source_tree()      # before numpy loads, so the harness too uses one BLAS thread

import cli_startup  # noqa: E402
import defects  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_SAMPLES = 3          # set-ups per run; setup_s is their median
WORKER_SLACK_S = 60.0      # a worker may run this long past 3 x --seconds
INTERP_SAMPLES = 5
PHASE_DRIVER_RUNS = 3


def _worker_cmd(workload, seed, seconds, mode):
    return [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]


def start_worker(cmd, timeout):
    """Start a worker; returns (process, seconds until it printed READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else ""
    elapsed = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise RuntimeError(f"worker did not get ready: {' '.join(cmd[2:])}")
    return proc, elapsed


def finish_worker(proc, timeout):
    """The worker's JSON result line; the process is reaped in every case."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def stop(proc):
    proc.kill()
    proc.communicate()


def setup_samples(workload, seed, n):
    """Seconds from process start to READY for n set-up-only workers."""
    samples = []
    for _ in range(n):
        proc, secs = start_worker(_worker_cmd(workload, seed, 0, "setup"), WORKER_SLACK_S)
        try:
            proc.communicate(timeout=WORKER_SLACK_S)
        except subprocess.TimeoutExpired:
            stop(proc)
            raise
        samples.append(secs)
    return samples


def end_to_end(latencies, busy, setup, rss_mb):
    return {
        "setup_s": metric(median(setup), "s"),
        "ops_per_s": metric(len(latencies) / busy, "1/s"),
        "op_ms.p50": metric(1e3 * median(latencies), "ms"),
        "op_ms.tail": metric(1e3 * percentile(latencies, TAIL_PERCENTILE), "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


# -------------------------------------------------------------------
# cli-startup

def cli_loop(calls, seconds, runners):
    """Closed loop over the call cycle for ``seconds`` of operation time.

    Each step runs every runner on the same argv in turn.  With a plain
    and a traced runner, drift in the machine's speed cancels out of
    their paired differences.  Returns, per runner, a list of
    (call index, code, stdout, stderr, seconds, extra).
    """
    out = [[] for _ in runners]
    busy = 0.0
    i = 0
    while busy < seconds:
        k = i % len(calls)
        for runner, res in zip(runners, out):
            secs, code, stdout, stderr, extra = runner(calls[k].argv)
            res.append((k, code, stdout, stderr, secs, extra))
            busy += secs
        i += 1
    return out, busy


def plain_cli(argv):
    return (*cli_startup.run_cli(argv), None)


def phase_driver(argv_list, cap):
    """Run the phase-timing driver over argv_list in one fresh process."""
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "cli_phases.py"),
                        json.dumps(argv_list)], cwd=ROOT, env=child_env(),
                       capture_output=True, text=True, timeout=cap)
    wall = time.perf_counter() - t0
    if p.returncode != 0:
        raise RuntimeError(f"phase driver failed: {p.stderr.strip()[-300:]}")
    return wall, json.loads(p.stdout)


def driven_cli(argv):
    wall, doc = phase_driver([argv], cli_startup.CALL_CAP_S)
    c = doc["calls"][0]
    return wall, c["code"], c["out"], c["err"], {"import": doc["import"], **c["phases"]}


def run_cli_startup(args):
    setup = setup_samples("cli-startup", args.seed, SETUP_SAMPLES)
    calls = cli_startup.make_calls(args.seed)
    (results,), busy = cli_loop(calls, args.seconds, (plain_cli,))
    latencies = [r[4] for r in results]
    failed, errors = cli_startup.verify(calls, [r[:4] for r in results])
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return end_to_end(latencies, busy, setup, rss_mb), len(results), failed, errors, latencies


def run_library(args):
    probes = setup_samples(args.workload, args.seed, SETUP_SAMPLES - 1)
    limit = 3 * args.seconds + WORKER_SLACK_S
    proc, ready = start_worker(_worker_cmd(args.workload, args.seed, args.seconds, "measure"),
                               limit)
    res = finish_worker(proc, limit)
    metrics = end_to_end(res["latencies"], res["busy"], probes + [ready], res["rss_mb"])
    return metrics, res["attempted"], res["failed"], res["errors"], res["latencies"]


# -------------------------------------------------------------------
# traced run

def cli_layers(extras):
    """cli.* metrics from phase-driver results (one dict per call)."""
    m = {}
    for phase in ("import", "parse", "compute", "emit"):
        vals = [e[phase] for e in extras if phase in e]
        m[f"cli.{phase}_ms"] = metric(1e3 * median(vals), "ms")
    m["cli.driver_calls"] = metric(len(extras), "count")
    return m


def interp_ms():
    samples = []
    for _ in range(INTERP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(), check=True)
        samples.append(time.perf_counter() - t0)
    return 1e3 * median(samples)


def record_cli_spans(tracer, driven):
    """One span per driven call, with its measured phases as children.

    The phases are laid end to end at the end of the call; the rest of
    the call's wall time, interpreter start and exit, is its self time.
    """
    t = 0.0
    for op, (_, _, _, _, wall, extra) in enumerate(driven):
        tracer.op = op
        parent = tracer.add("cli.call", t, t + wall)
        phases = [p for p in ("import", "parse", "compute", "emit") if p in extra]
        start = t + wall - sum(extra[p] for p in phases)
        for p in phases:
            tracer.add(f"cli.{p}", start, start + extra[p], parent)
            start += extra[p]
        t += wall


def run_traced(args):
    """Per-layer metrics, tracing overhead and defect probes."""
    limit = 3 * args.seconds + WORKER_SLACK_S
    calls = cli_startup.make_calls(args.seed)
    checked = []                       # lists of (call index, code, out, err, ...)

    if args.workload == "cli-startup":
        (plain, driven), _ = cli_loop(calls, args.seconds, (plain_cli, driven_cli))
        extras = [r[5] for r in driven]
        tracer = Tracer()
        record_cli_spans(tracer, driven)
        tracer.dump(os.path.join(OUT_DIR, f"trace-cli-startup-seed{args.seed}-calls.json"),
                    {"workload": args.workload, "seed": args.seed})
        checked += [plain, driven]
        pairs = [(p[4], d[4]) for p, d in zip(plain, driven)]
        worker_mode = "fill-in"
    else:
        extras = []
        for _ in range(PHASE_DRIVER_RUNS):
            _, doc = phase_driver([c.argv for c in calls], limit)
            extras += [{"import": doc["import"], **c["phases"]} for c in doc["calls"]]
            checked.append([(i, c["code"], c["out"], c["err"]) for i, c in enumerate(doc["calls"])])
        worker_mode = args.workload
    m = cli_layers(extras)
    m["cli.interp_ms"] = metric(interp_ms(), "ms")

    proc, _ = start_worker(_worker_cmd(worker_mode, args.seed, args.seconds, "trace"), limit)
    res = finish_worker(proc, limit)
    for name, (value, unit) in res["layers"].items():
        m[name] = metric(value, unit)
    if args.workload != "cli-startup":
        pairs = list(zip(res["untraced"], res["traced"]))
    over = median([t - p for p, t in pairs])
    m["trace.overhead_ms"] = metric(1e3 * over, "ms")
    m["trace.overhead_pct"] = metric(100.0 * over / median([p for p, _ in pairs]), "%")
    m["trace.spans_per_op"] = metric(res["spans_per_op"], "count")

    d_att, d_fail, d_msgs = defects.probe()
    m["defects.attempted"] = metric(d_att, "count")
    m["defects.failed"] = metric(d_fail, "count")
    m["defects.error_rate"] = metric(d_fail / d_att, "ratio")
    for msg in d_msgs:
        print(f"known defect: {msg}")

    attempted, failed, errors = res["attempted"], res["failed"], res["errors"]
    for results in checked:
        f, e = cli_startup.verify(calls, [r[:4] for r in results])
        attempted, failed, errors = attempted + len(results), failed + f, errors + e
    return m, attempted, failed, errors, [t for _, t in pairs]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    require_source_tree()
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.trace:
        metrics, attempted, failed, errors, lat = run_traced(args)
    elif args.workload == "cli-startup":
        metrics, attempted, failed, errors, lat = run_cli_startup(args)
    else:
        metrics, attempted, failed, errors, lat = run_library(args)

    print("run record: " + json.dumps(run_record(args.workload, args.seed, args.seconds,
                                                  args.trace)))
    print(f"operations: {attempted} attempted, {failed} failed")
    if not args.trace:
        print(f"op_ms.tail is p{TAIL_PERCENTILE} of {len(lat)} timed operations, "
              f"with {beyond(lat, TAIL_PERCENTILE)} beyond it")
    for e in errors[:10]:
        print(f"FAILED: {e}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
