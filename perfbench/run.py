"""Time-to-verdict benchmark of the POWER envelope oracle.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus-plain --seed 1 \
        --seconds 28 --trace 0

Runs one named workload on inputs generated from ``--seed``, checks every
verdict against its reference, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reruns with layer wrappers
installed and reports the per-layer metrics instead (see README.md).
Exits non-zero when a verdict disagrees with its reference, when the
deterministic work counts differ from an earlier run of the same seed
on the same sources, or when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_NAMES  # noqa: E402

WORKLOADS = ("corpus-plain", "genwide-dpor", "service-mixed", "isa-sequential")

#: Wall-clock cap for one benchmark invocation, below the 180 s limit.
DEADLINE_SECONDS = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("complete_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = tuple(
    (f"{name}.{kind}", unit)
    for name in LAYER_NAMES
    for kind, unit in (("calls", "count"), ("self_pct", "%"))
) + (
    ("op.residual_pct", "%"),
    ("isa.memo_hit_ratio", "ratio"),
    ("search.states_visited", "count"),
    ("search.unique_states", "count"),
    ("search.transitions_taken", "count"),
    ("search.final_states", "count"),
    ("search.dedup_ratio", "ratio"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.http_overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _source_digest(root):
    """Hash of the program's and the benchmark's sources.

    Work counts are keyed by it: they must repeat across runs of the same
    code and may change with it.
    """
    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _kill(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _spawn_worker(command, env, cwd, deadline):
    """Run a worker to completion; returns its JSON result."""
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=cwd, text=True
    )
    try:
        line = proc.stdout.readline()
        if line.strip() != "READY":
            raise BenchError(f"worker failed during set-up: {line!r}")
        try:
            rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the benchmark deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with status {proc.returncode}")
    finally:
        _kill(proc)
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _run_child(command, env, cwd, deadline):
    """Run a child to completion and parse its last stdout line."""
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=cwd, text=True
    )
    try:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("client exceeded the benchmark deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"client exited with status {proc.returncode}")
    finally:
        _kill(proc)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("client printed no result")
    return json.loads(lines[-1])


def _collect(args, root, out_dir, trace_out):
    """Run the workload; returns its result dict with ``setup_samples``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    deadline = time.monotonic() + DEADLINE_SECONDS
    python = sys.executable
    if args.workload == "service-mixed":
        command = [
            python, str(HERE / "service_mixed.py"), "--seed", str(args.seed),
            "--trace", str(args.trace), "--out-dir", str(out_dir),
            "--trace-out", str(trace_out),
        ]
        return _run_child(command, env, root, deadline)
    command = [
        python, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--trace-out", str(trace_out),
    ]
    return _spawn_worker(command, env, root, deadline)


def _work_by_pass(ops):
    passes = {}
    for pass_index, _op_id, _ms, _ok, _complete, work in ops:
        passes.setdefault(pass_index, []).append(work)
    return passes


def _check_counts(args, root, out_dir, result):
    """Work counts must repeat across passes and across runs of one seed.

    Every pass runs the same inputs and must agree with pass 0.  Every
    pass's counts must agree with the same pass of earlier runs of the
    same workload and seed on the same code.  Returns a list of problems.
    """
    problems = []
    passes = _work_by_pass(result["ops"])
    for pass_index, work in sorted(passes.items()):
        if work != passes[0]:
            problems.append(f"pass {pass_index} work counts differ from pass 0")
    record = {
        f"work.{pass_index}": hashlib.sha256(json.dumps(work).encode()).hexdigest()
        for pass_index, work in passes.items()
    }
    if "layers" in result:
        record["calls"] = {
            name: calls for name, (calls, _self) in sorted(result["layers"].items())
        }
    counts_dir = out_dir / "counts"
    counts_dir.mkdir(exist_ok=True)
    path = counts_dir / f"{args.workload}-seed{args.seed}-{_source_digest(root)}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    for field, value in record.items():
        if field in stored and stored[field] != value:
            problems.append(f"{field} counts differ from an earlier run ({path.name})")
    if not problems:
        stored.update(record)
        stored["ops"] = passes[0]
        path.write_text(json.dumps(stored, indent=1))
    print(f"work digest {record['work.0'][:16]}", file=sys.stderr)
    return problems


def _timed_passes(result, traced):
    """Indexes of the passes that count, warm-up excluded."""
    return [
        index for index, p in enumerate(result["passes"])
        if p["traced"] == traced and not p.get("warmup")
    ]


def _fastest_ms(ops):
    """Each operation's fastest time over the timed passes, by op id.

    The host's speed shifts between regimes lasting seconds; an operation
    repeated across passes spread over the run meets the fast regime at
    least once, where a pass mean or a pooled median would report the
    share of the run spent in each regime.
    """
    fastest = {}
    for _pass, op_id, ms, *_rest in ops:
        fastest[op_id] = min(ms, fastest.get(op_id, ms))
    return list(fastest.values())


def _end_to_end(result):
    timed = _timed_passes(result, False)
    ops = [op for op in result["ops"] if op[0] in timed]
    # A cache hit repeats a verdict already counted at its miss.
    verdicts = [op for op in ops if op[5][0] != "hit"]
    fastest = _fastest_ms(ops)
    return {
        "setup_s": statistics.median(result["setup_samples"]),
        "wall_s": sum(fastest) / 1e3,
        "op_p50_ms": statistics.median(fastest),
        "complete_ratio": sum(op[4] for op in verdicts) / len(verdicts),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _print_latencies(label, ms):
    """Median and the highest of p90/p99 with ten samples beyond it."""
    if len(ms) < 20:
        return
    top = 99 if len(ms) >= 1000 else 90
    tail = statistics.quantiles(ms, n=100)[top - 1]
    print(
        f"{label}: n={len(ms)} p50 {statistics.median(ms):.3f} ms "
        f"p{top} {tail:.3f} ms", file=sys.stderr,
    )


def _per_layer(args, result, trace_out):
    """Per-layer metrics of the first traced pass, plus the report table."""
    layers = {name: tuple(value) for name, value in result["layers"].items()}
    traced_pass = result["trace_pass"]
    ops = [op for op in result["ops"] if op[0] == traced_pass]
    spans = json.loads(Path(trace_out).read_text())["spans"]
    if "op" in layers:
        op_total = sum(end - start for _id, name, start, end, *_ in spans if name == "op")
        residual = layers["op"][1]
        http = 0.0
    else:
        op_total = sum(op[2] for op in ops) / 1e3
        residual = op_total - sum(self_s for _calls, self_s in layers.values())
        http = residual

    metrics = {}
    for name in LAYER_NAMES:
        calls, self_s = layers.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_pct"] = 100.0 * self_s / op_total
    metrics["op.residual_pct"] = 100.0 * residual / op_total

    steps = layers.get("sail.step", (0, 0.0))[0]
    memo_calls = sum(layers.get(n, (0, 0.0))[0] for n in ("isa.run_to_outcome", "isa.resume"))
    metrics["isa.memo_hit_ratio"] = 1.0 - steps / memo_calls if memo_calls else 0.0

    searched = [
        work[-4:] for *_head, work in ops
        if len(work) >= 6 and work[0] != "hit"
    ]
    totals = [sum(column) for column in zip(*searched)] if searched else [0, 0, 0, 0]
    for key, value in zip(("states_visited", "unique_states", "transitions_taken",
                           "final_states"), totals):
        metrics[f"search.{key}"] = value
    metrics["search.dedup_ratio"] = totals[1] / totals[0] if totals[0] else 0.0

    kinds = [op[5][0] for op in ops if op[5] and op[5][0] in ("hit", "miss")]
    metrics["service.cache_hit_ratio"] = (
        kinds.count("hit") / len(kinds) if kinds else 0.0
    )
    metrics["service.http_overhead_pct"] = 100.0 * http / op_total

    passes = result["passes"]
    traced = statistics.mean(passes[i]["seconds"] for i in _timed_passes(result, True))
    base = statistics.mean(passes[i]["seconds"] for i in _timed_passes(result, False))
    metrics["trace.overhead_pct"] = 100.0 * (traced - base) / base

    driver = sum(end - start for _id, name, start, end, *_ in spans
                 if name == "search.driver")
    lines = [
        f"per-layer self time, {args.workload} seed {args.seed}, "
        f"traced pass {traced_pass} ({len(ops)} operations)",
        f"{'layer':32s} {'calls':>10s} {'self_s':>10s} {'self_%':>7s}",
    ]
    rows = sorted(
        ((name, *layers[name]) for name in layers if name != "op"),
        key=lambda row: -row[2],
    )
    for name, calls, self_s in rows:
        lines.append(f"{name:32s} {calls:10d} {self_s:10.4f} {100 * self_s / op_total:7.2f}")
    label = "residual (op self)" if "op" in layers else "residual (client+http)"
    lines.append(f"{label:32s} {'':10s} {residual:10.4f} {100 * residual / op_total:7.2f}")
    layer_sum = sum(row[2] for row in rows) + residual
    lines.append(
        f"{'layers + residual':32s} {'':10s} {layer_sum:10.4f}   vs operation spans "
        f"{op_total:.4f} s (difference {layer_sum - op_total:+.2e} s)"
    )
    if driver:
        lines.append(
            f"search.states_per_s {totals[0] / driver:.1f} "
            f"(states visited / search.driver span time)"
        )
    lines.append(
        f"tracing overhead: traced pass {traced:.3f} s vs untraced {base:.3f} s "
        f"({metrics['trace.overhead_pct']:+.1f}%)"
    )
    return metrics, "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: program sources (src/repro) not found", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    trace_out = out_dir / f"spans-{tag}.json"

    try:
        result = _collect(args, root, out_dir, trace_out)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    ops = result["ops"]
    failed = [op for op in ops if not op[3]]
    for op in failed[:10]:
        print(f"perfbench: wrong or failed verdict: {op[1]} {op[5]}", file=sys.stderr)
    problems = _check_counts(args, root, out_dir, result)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    timed = _timed_passes(result, False)
    _print_latencies("operations", [op[2] for op in ops if op[0] in timed])
    if args.workload == "service-mixed":
        for kind in ("hit", "miss"):
            _print_latencies(kind, [op[2] for op in ops if op[0] == 0 and op[5][0] == kind])

    if args.trace:
        values, report = _per_layer(args, result, trace_out)
        (out_dir / f"layers-{tag}.txt").write_text(report + "\n")
        print(report, file=sys.stderr)
        units = dict(PER_LAYER)
    else:
        values = _end_to_end(result)
        units = dict(END_TO_END)
    correct = not failed and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
