"""In-process runner for the two library workloads.

Started by ``run.py`` as a fresh process, so its set-up (interpreter
start, ``import sizebias``, building the seeded inputs) can be timed
from outside and its peak resident memory belongs to the workload alone.
It prints ``READY`` when set-up is done, then one JSON line of results.

    python3 bench/worker.py --workload lattice --seed 1 --seconds 30 --mode measure
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

from common import OUT_DIR, median, scaling_exp, use_source_tree

use_source_tree()

LIBRARY = ("lattice", "offlattice-grid-mc")

# kernel -> (size tag, size) pairs whose ratio gives a fitted exponent
SCALING = {
    "sum_bias.size_biased_sum_pmf": (("k6", 6), ("k12", 12)),
    "sum_bias.convolve_all": (("k8", 8), ("k24", 24)),
    "inf_div.pmf_recursion": (("N500", 500), ("N4000", 4000)),
    "inf_div.extract_increment": (("N500", 500), ("N4000", 4000)),
    "dist_core.merge_atoms": (("n50k", 50_000), ("n200k", 200_000)),
    "bounds.tv_distance": (("lam50", 50), ("lam400", 400)),
    "bounds.binomial_poisson_check": (("n100", 100), ("n700", 700)),
    "inf_div.dickman_solve": (("h1e-3", 1e3), ("h1e-4", 1e4)),
    "inf_div.buchstab_solve": (("h1e-3", 1e3), ("h1e-4", 1e4)),
    "stochastic.simulate_renewal_inspection": (("n20k", 20_000), ("n100k", 100_000)),
}
# task keys that get no per-call metric of their own (their spans still
# count toward layer self time)
UNREPORTED = {"inf_div.extract_increment.nondivisible"}


def load_workload(workload: str):
    if workload == "lattice":
        import lattice as mod
    else:
        import offlattice as mod
    return mod.build


def run_batch(tasks, tracer=None):
    """One operation: every task once, in order.  Returns (seconds, outputs)."""
    outs = []
    t0 = time.perf_counter()
    for task in tasks:
        if tracer is None:
            outs.append(task.fn(outs))
        else:
            tracer.task = task.key
            outs.append(tracer.span(task.span or "task", task.fn, outs))
    return time.perf_counter() - t0, outs


def check_batch(tasks, outs):
    """Oracle failures of one batch, as messages."""
    from oracles import CheckFailed
    errors = []
    for task, out in zip(tasks, outs):
        try:
            task.check(out)
        except CheckFailed as e:
            errors.append(f"{task.key}: {e}")
    return errors


class Measurement:
    """Closed loop over batches until ``seconds`` of operation time."""

    def __init__(self, tasks, op_base=0):
        self.tasks = tasks
        self.op_base = op_base
        self.latencies = []
        self.ops = []           # tracer op ids of the completed operations
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.busy = 0.0         # seconds spent inside operations

    def run(self, seconds, tracer=None, max_ops=None):
        tasks = self.tasks
        busy = self.busy
        wall_end = time.perf_counter() + 3 * seconds + 60
        while busy < seconds and time.perf_counter() < wall_end:
            if max_ops is not None and self.attempted >= max_ops:
                break
            op = self.op_base + self.attempted
            self.attempted += 1
            if tracer is not None:
                tracer.op, tracer.active = op, True
            t0 = time.perf_counter()
            try:
                dt, outs = run_batch(tasks, tracer)
            except Exception:
                busy += time.perf_counter() - t0
                self._fail([traceback.format_exc(limit=3)])
                continue
            else:
                busy += dt
            finally:
                if tracer is not None:
                    tracer.active = False
            errors = check_batch(tasks, outs)
            del outs
            if errors:
                self._fail(errors)
                continue
            self.latencies.append(dt)
            self.ops.append(op)
        self.busy = busy

    def _fail(self, errors):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.extend(errors[:3])


def layer_metrics(tracer, runs, counts):
    """Per-layer metrics from traced batches.

    ``runs`` maps workload -> Measurement of its traced batches.  Layer
    self time is the median self time per batch, summed over the two
    library workloads, so every layer is covered whichever workload ran.
    """
    from spans import LAYERS
    m = {}
    keys = []
    for workload, meas in runs.items():
        for task in meas.tasks:
            if task.key not in keys and task.key not in UNREPORTED:
                keys.append(task.key)
    for key in keys:
        fn = ".".join(key.split(".")[:2])
        m[key + "_ms"] = (1e3 * median(tracer.durations(fn, task=key)), "ms")
    for fn, ((t1, s1), (t2, s2)) in SCALING.items():
        a, b = m.get(f"{fn}.{t1}_ms"), m.get(f"{fn}.{t2}_ms")
        if a and b:
            m[f"{fn}.scaling_exp"] = (scaling_exp(a[0], b[0], s1, s2), "1")
    # the cli layer's own numbers come from the phase driver, not from here
    self_ms = {layer: 0.0 for layer in LAYERS if layer != "cli"}
    calls = dict.fromkeys(self_ms, 0.0)
    for workload, meas in runs.items():
        per = tracer.layer_self_per_op(meas.ops)
        for layer in self_ms:
            self_ms[layer] += 1e3 * median(per[layer])
        ops = set(meas.ops)
        for s in tracer.spans:
            layer = s[0].split(".", 1)[0]
            if s[5] in ops and layer in calls:
                calls[layer] += 1.0 / len(ops)
    for layer in self_ms:
        m[f"{layer}.self_ms"] = (self_ms[layer], "ms")
        m[f"{layer}.calls"] = (calls[layer], "count")
    for name, value in counts.items():
        unit = "ratio" if name.endswith("ratio") else "count"
        m[name] = (value, unit)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("cli-startup", "fill-in") + LIBRARY)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), default="measure")
    args = ap.parse_args(argv)

    if args.workload == "cli-startup":
        # the set-up of cli-startup's own harness: seeded argv and input files
        import cli_startup
        cli_startup.make_calls(args.seed)
        print("READY", flush=True)
        return 0

    # A traced run also makes one traced batch of the other library
    # workload (both, for "fill-in", which serves the traced cli-startup
    # run), so that every layer is measured in every traced run.
    workloads = (args.workload,) if args.mode != "trace" else LIBRARY
    built = {w: load_workload(w)(args.seed) for w in workloads}
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    result = {}
    if args.mode == "measure":
        tasks, _ = built[args.workload]
        meas = Measurement(tasks)
        meas.run(args.seconds)
        result["latencies"], result["busy"] = meas.latencies, meas.busy
        result["attempted"], result["failed"] = meas.attempted, meas.failed
        result["errors"] = meas.errors
    else:
        from spans import Tracer
        tracer = Tracer()
        runs = {}
        checked = []
        for i, w in enumerate(LIBRARY):
            tasks, _ = built[w]
            meas = runs[w] = Measurement(tasks, op_base=100_000 * i)
            checked.append(meas)
            if w != args.workload:
                undo = tracer.install()
                meas.run(float("inf"), tracer, max_ops=1)
                Tracer.uninstall(undo)
                continue
            # alternate untraced and traced batches, so that drift in the
            # machine's speed cancels out of the overhead estimate
            plain = Measurement(tasks)
            checked.append(plain)
            while plain.busy + meas.busy < args.seconds:
                plain.run(float("inf"), max_ops=plain.attempted + 1)
                undo = tracer.install()
                meas.run(float("inf"), tracer, max_ops=meas.attempted + 1)
                Tracer.uninstall(undo)
            result["untraced"], result["traced"] = plain.latencies, meas.latencies
        counts = {}
        for w in LIBRARY:
            counts.update(built[w][1])
        result["layers"] = layer_metrics(tracer, runs, counts)
        result["spans_per_op"] = len(tracer.spans) / max(1, sum(len(r.ops) for r in runs.values()))
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed})
        result["attempted"] = sum(r.attempted for r in checked)
        result["failed"] = sum(r.failed for r in checked)
        result["errors"] = [e for r in checked for e in r.errors]
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
