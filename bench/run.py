#!/usr/bin/env python3
"""Benchmark of kinpower: three closed-loop, single-caller workloads.

    python3 bench/run.py --workload sim_fullsib --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30      # each workload in turn

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs at one worker with the tracer installed and prints the
per-layer metrics (see ``spec.json`` for which end-to-end metric each one
should move). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with the environment, goes to ``.bench_out/`` at the repository root,
next to the span file of a traced run.

Inputs come from ``--seed`` only. The package is imported from ``src/``
of the checkout that holds this directory; nothing is installed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
# setup_s is the median of SETUPS setups. A setup builds the inputs and runs
# one untimed pass, so that work moved into a first call, such as a cache
# filled lazily, shows in setup_s rather than vanishing from the timed ops.
SETUPS = 3
WORKLOAD_NAMES = ("sim_fullsib", "casework_lr", "report_dump")


def load_spec() -> dict:
    return json.loads((BENCH_DIR / "spec.json").read_text(encoding="utf-8"))


def git_commit(root: Path):
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(W, table, workers: int, wl) -> dict:
    import numpy
    import scipy
    return {
        "cores": len(os.sched_getaffinity(0)),
        "workers": workers,
        "B": getattr(wl, "B", None),
        "pairs": getattr(wl, "PAIRS", None),
        "BLOCK": W.E.BLOCK,
        "allele_counts": W.allele_counts(table),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kinpower": getattr(W.kp, "__version__", None),
        "commit": git_commit(ROOT),
        "machine": platform.machine(),
    }


def tail_percentile(values: list[float]):
    """Highest percentile up to p99 with at least ten samples beyond it.

    Returns (value, percentile, n). With fewer than 20 samples that
    percentile falls below the median, and the median is returned.
    """
    xs = sorted(values)
    n = len(xs)
    idx = max(min(math.ceil(0.99 * n), n - 10), math.ceil(0.5 * n)) - 1
    return xs[idx], 100.0 * (idx + 1) / n, n


def peak_rss_mb() -> float:
    """Max RSS of this process and of its waited-for children (worker processes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Runner:
    """Runs, checks and counts the ops of one workload."""

    def __init__(self, wl, seed: int, tmp: Path):
        self.wl, self.seed, self.tmp = wl, seed, tmp
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def setup(self, n: int, tracer=None):
        """Build the inputs ``n`` times, each followed by one pass of ops.

        The tracer, when given, records the input building only.
        """
        times = []
        state = None
        for i in range(n):
            state = None
            gc.collect()
            if tracer is not None:
                tracer.run_id = f"setup-{i}"
                tracer.install()
            t0 = time.perf_counter()
            state = self.wl.setup(self.seed, self.tmp / f"setup-{i}")
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
            for arg in self.wl.pass_args(state):
                elapsed += self.one(state, arg)[0]
            times.append(elapsed)
        return state, times

    def one(self, state, arg, workers=None, before_check=None):
        """Run and check one op; returns (seconds, items)."""
        workdir = Path(tempfile.mkdtemp(dir=self.tmp)) if getattr(self.wl, "writes_files", False) \
            else None
        kwargs = {} if workers is None else {"workers": workers}
        items = 0
        t0 = time.perf_counter()
        try:
            op = self.wl.op(state, arg, workdir, **kwargs)
            dt = time.perf_counter() - t0
            items = op.items
            if before_check is not None:
                before_check()
            failures = self.wl.check(state, op, arg, workdir)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, the run goes on
            dt = time.perf_counter() - t0
            failures = [f"{type(exc).__name__}: {exc}"]
        finally:
            if workdir is not None:
                shutil.rmtree(workdir, ignore_errors=True)
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures[:5])
        return dt, items


def measure(wl, seed: int, seconds: float, tmp: Path) -> dict:
    """Untraced run: the end-to-end metrics."""
    run = Runner(wl, seed, tmp)
    state, setup_times = run.setup(SETUPS)
    pass_times, per_item, items_total = [], [], 0
    gc.collect()
    start = time.perf_counter()
    while True:
        pass_time = 0.0
        for arg in wl.pass_args(state):
            dt, items = run.one(state, arg)
            pass_time += dt
            items_total += items
            per_item.append(dt / max(items, 1))
        pass_times.append(pass_time)
        if time.perf_counter() - start >= seconds:
            break
    p99, pct, n = tail_percentile(per_item)
    # wall_s and items_per_s average over the whole timed phase: on a shared
    # host the speed shifts between regimes lasting seconds, and a time
    # average moves less with them than a median over passes does
    timed = sum(pass_times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (timed / len(pass_times), "s"),
        "items_per_s": (items_total / timed, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # Latency percentiles are printed and recorded but not in the metrics
    # line: a percentile lands on whichever speed regime held most of the run,
    # and spread more between runs than the bounds allow.
    info = {"setup_times": setup_times, "pass_times": pass_times, "ops": run.attempted,
            "items": items_total, "item_p50_ms": 1e3 * statistics.median(per_item),
            "item_p99_ms": 1e3 * p99, "item_p99_percentile": pct,
            "item_samples": n, "failed_frac": run.failed / max(run.attempted, 1)}
    return {"state": state, "run": run, "metrics": metrics, "info": info}


def measure_traced(wl, seed: int, seconds: float, tmp: Path, spec: dict, workers: int) -> dict:
    """Traced run at one worker: the per-layer metrics."""
    from tracing import Summary, Tracer, power_targets, wrapper_cost

    targets = dict(spec["traced"])
    targets.update(power_targets(targets))
    tracer = Tracer(targets)
    run = Runner(wl, seed, tmp)
    state, _ = run.setup(1, tracer)

    traced_times, untraced_times, items_traced, ops_traced = [], [], 0, 0
    rate_nw = None
    is_sim = wl.name == "sim_fullsib"
    start = time.perf_counter()
    op_index = 0
    while True:
        for arg in wl.pass_args(state):
            # single-process workloads alternate untraced and traced ops;
            # sim_fullsib runs traced at one worker throughout
            traced = is_sim or op_index % 2 == 1
            if traced:
                tracer.run_id = f"op-{op_index}"
                tracer.install()

                def to_check(i=op_index):
                    tracer.run_id = f"check-{i}"
                dt, items = run.one(state, arg, workers=1 if is_sim else None,
                                    before_check=to_check)
                tracer.uninstall()
                traced_times.append(dt)
                items_traced += items
                ops_traced += 1
            else:
                dt, _ = run.one(state, arg)
                untraced_times.append(dt)
            op_index += 1
        if time.perf_counter() - start >= seconds and ops_traced and (is_sim or untraced_times):
            break

    if is_sim:
        # one untraced op at the run's worker count: the scaling figure, and
        # its digest must equal the one-worker digest
        dt, items = run.one(state, None, workers=workers)
        rate_nw = items / dt

    s = Summary(tracer, "op-")
    setup = Summary(tracer, "setup-")
    n = max(ops_traced, 1)
    counts = tracer.counts()
    missing = list(tracer.missing) + [
        name for name, info in targets.items()
        if wl.name in info["workloads"] and counts.get(name, 0) == 0 and name not in tracer.missing]

    if is_sim:
        overhead_s = s.n_spans * wrapper_cost()
        overhead = overhead_s / max(sum(traced_times) - overhead_s, 1e-12)
    else:
        base = statistics.median(untraced_times)
        overhead = (statistics.median(traced_times) - base) / base

    def per_block(name):
        blocks = s.by_name_work.get(name, 0)
        return s.by_name_time.get(name, 0.0) / blocks if blocks else 0.0

    blocks = s.work.get("engine.simulate", 0)
    simulate_s = s.time.get("engine.simulate", 0.0)
    rate_1w = items_traced / sum(traced_times) if is_sim else 0.0
    metrics = {
        "ibd.kernel_s": (s.time.get("ibd.kernel", 0.0) / n, "s"),
        "ibd.kernel_calls": (s.calls.get("ibd.kernel", 0) / n, "count"),
        "ibd.kernel_evals": (s.work.get("ibd.kernel", 0) / n, "count"),
        "ibd.kernel_evals_per_rep": (s.work.get("ibd.kernel", 0) / max(items_traced, 1)
                                     if wl.name != "report_dump" else 0.0, "count"),
        "ibd.sample_s": (s.time.get("ibd.sample", 0.0) / n, "s"),
        "ibd.sample_calls": (s.calls.get("ibd.sample", 0) / n, "count"),
        "ibd.pair_prob_s": (s.time.get("ibd.pair_prob", 0.0) / n, "s"),
        "ibd.pair_prob_calls": (s.calls.get("ibd.pair_prob", 0) / n, "count"),
        "tables.load_s": (setup.time.get("tables.load", 0.0), "s"),
        "tables.profile_load_s": (s.time.get("tables.profile_load", 0.0) / n, "s"),
        "tables.pool_s": (s.time.get("tables.pool", 0.0) / n, "s"),
        "tables.pool_calls": (s.calls.get("tables.pool", 0) / n, "count"),
        "engine.simulate_s": (simulate_s / n, "s"),
        "engine.blocks": (blocks / n, "count"),
        "engine.block_s": (simulate_s / blocks if blocks else 0.0, "s"),
        "engine.block_null_s": (per_block("kinpower.engine.simulate_null"), "s"),
        "engine.block_alt_s": (per_block("kinpower.engine.simulate_alt"), "s"),
        "engine.self_s": (s.self_time.get("engine.simulate", 0.0) / n, "s"),
        "engine.rate_1w": (rate_1w, "1/s"),
        "engine.scaling_eff": (rate_nw / (workers * rate_1w) if rate_nw and rate_1w else 0.0,
                               "ratio"),
        "engine.dump_s": (s.time.get("engine.dump", 0.0) / n, "s"),
        "engine.dump_rows": (s.work.get("engine.dump", 0) / n, "count"),
        "engine.dump_bytes": (s.nbytes.get("engine.dump", 0) / n, "bytes"),
        "lrstats.lr_all_s": (s.time.get("lrstats.lr_all", 0.0) / n, "s"),
        "lrstats.self_s": (s.self_time.get("lrstats.lr_all", 0.0) / n, "s"),
        "power.stat_s": (s.time.get("power.stat", 0.0) / n, "s"),
        "power.stat_calls": (s.calls.get("power.stat", 0) / n, "count"),
        "power.write_s": (s.time.get("power.write", 0.0) / n, "s"),
        "power.write_bytes": (s.nbytes.get("power.write", 0) / n, "bytes"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.missing_spans": (len(missing), "count"),
    }
    spans_file = OUT_DIR / f"spans-{wl.name}-seed{seed}.csv"
    tracer.write(spans_file)
    info = {"ops": run.attempted, "traced_ops": ops_traced, "untraced_ops": len(untraced_times),
            "missing_spans": missing, "spans": len(tracer.spans), "spans_file": str(spans_file),
            "span_counts": counts, "rate_nw": rate_nw,
            "failed_frac": run.failed / max(run.attempted, 1)}
    return {"state": state, "run": run, "metrics": metrics, "info": info}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W

    spec = load_spec()
    workers = min(2, len(os.sched_getaffinity(0)))
    OUT_DIR.mkdir(exist_ok=True)
    digest_file = OUT_DIR / "digests.json"
    digests = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    for pin in spec["pinned_digests"].get(name, []):
        digests[W.digest_key(pin["seed"], pin["B"], pin["table_sha256"])] = pin["sha256"]
    wl = W.WORKLOADS[name](workers, digests)

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp, warnings.catch_warnings():
        # power_curve warns on every alpha*B < 10 grid point of DEFAULT_CURVE_GRID
        warnings.simplefilter("ignore", W.kp.errors.AlphaTooSmallForB)
        if trace:
            result = measure_traced(wl, seed, seconds, Path(tmp), spec, workers)
        else:
            result = measure(wl, seed, seconds, Path(tmp))

    # Same seed, same files: a different loaded table is reported, not
    # counted as a failed op (the ops are checked against their own table).
    table_sha = W.table_digest(result["state"]["table"])
    first_sha = digests.setdefault(f"table:{seed}", table_sha)
    notes = []
    if table_sha != first_sha:
        notes.append(f"load_frequency_table gave table {table_sha[:12]} for seed {seed}; "
                     f"an earlier run loaded the same files as {first_sha[:12]}")
    tmp_file = digest_file.with_suffix(".tmp")
    tmp_file.write_text(json.dumps(digests, indent=1, sort_keys=True))
    os.replace(tmp_file, digest_file)

    run = result["run"]
    record = {
        "workload": name, "item": wl.item, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "info": dict(result["info"], table_sha256=table_sha), "notes": notes,
        "failures": run.failures[:20],
        "environment": environment(W, result["state"]["table"],
                                   1 if trace and name == "sim_fullsib" else workers, wl),
    }
    out = OUT_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    return record


def summary(record: dict) -> list[str]:
    lines = [f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
             f"(an item is a {record['item']})"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    info = record["info"]
    lines.append(f"  {'failed_frac':28s} {info['failed_frac']:.6g} ratio  "
                 f"({record['failed']} of {record['attempted']} ops)")
    if "item_samples" in info:
        lines.append(f"  {'item_p50_ms':28s} {info['item_p50_ms']:.6g} ms")
        lines.append(f"  {'item_p99_ms':28s} {info['item_p99_ms']:.6g} ms  (the "
                     f"p{info['item_p99_percentile']:.4g} of {info['item_samples']} samples)")
    if info.get("missing_spans"):
        lines.append("  missing spans: " + ", ".join(info["missing_spans"]))
    for note in record["notes"]:
        lines.append(f"  NOTE: {note}")
    for failure in record["failures"][:5]:
        lines.append(f"  FAILED: {failure}")
    env = record["environment"]
    lines.append(f"  env: cores={env['cores']} workers={env['workers']} B={env['B']} "
                 f"BLOCK={env['BLOCK']} commit={env['commit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kinpower" / "__init__.py").is_file():
        print(f"error: no kinpower package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        # each workload in its own process, so peak RSS is per workload
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = value
        print(json.dumps(combined))
        return 0

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary(record)))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
