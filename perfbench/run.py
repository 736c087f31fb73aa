"""Benchmark entry point for the `dimercluster` CLI.

    python3 perfbench/run.py --workload {sweep,compute,verify-tran} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that has `src/dimercluster`; the package
is imported from that source tree.  Every workload runs in fresh child
interpreters (`worker.py`), one command at a time, with `--jobs 1`.

`--trace 0` measures the end-to-end metrics: set-up time (median of several
fresh interpreters), then whole rounds of commands for at least S seconds.
Times are read on CPU clocks, which for this single-threaded, CPU-bound
program equal wall time on an idle machine but leave out the time a shared
host takes the CPU away.  They are then scaled by the host speed sampled
while each command or set-up ran (`hostspeed.py`), to CPU seconds on a host
of a fixed reference speed.  Unscaled and wall-clock figures are printed
and recorded beside them.  `--trace 1` runs a fixed prefix of the workload twice
in fresh interpreters, untraced and traced, and reports the per-layer
metrics plus the tracing overhead.  Both check every answer.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Per-run records
(environment, every command's inputs, latency and verdict) and traced spans
go to `perfbench/out/`.  See `perfbench/README.md` for the workloads and what
each metric is expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PACKAGE = ROOT / "src" / "dimercluster"
SETUP_SAMPLES = 9
DEADLINE_S = 170  # a run must end within 180 s

sys.path.insert(0, str(HERE))
from hostspeed import REFERENCE_S  # noqa: E402
from workloads import TRACE_COMMANDS, WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    pass


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print("error: %s not found; run inside a dimercluster checkout" % PACKAGE, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            metrics, records, extra = _traced(args, deadline)
            wanted = declared["per_layer"]
        else:
            metrics, records, extra = _timed(args, deadline)
            wanted = declared["end_to_end"]
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if {m["name"]: m["unit"] for m in wanted} != {k: unit for k, (_, unit) in metrics.items()}:
        print("error: metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1

    failed = [r for r in records if not r["ok"]]
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    _write_record(OUT / ("run-%s.json" % tag), args, records, metrics, extra)
    for r in failed[:5]:
        print("FAILED %s: %s" % (" ".join(r["args"]), r["error"]))
    print("fail_ratio %d/%d = %.4f" % (len(failed), len(records), len(failed) / len(records)))
    for name, note in extra.items():
        print("%s %s" % (name, note))
    for name, (value, unit) in metrics.items():
        print("%-52s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _timed(args, deadline):
    """End-to-end metrics from `args.seconds` of untraced commands."""
    worker(["--setup-only"], deadline)  # warm-up: bytecode caches, page cache
    setup = [worker(["--setup-only"], deadline)[1:] for _ in range(SETUP_SAMPLES)]
    result = worker([args.workload, str(args.seed), "--seconds", str(args.seconds)], deadline)[0]
    records = result["commands"]
    # CPU seconds at the reference host speed, by the probes around each command.
    cpu = [r["cpu_s"] * REFERENCE_S / r["probe_s"] for r in records]
    wall = [r["wall_s"] for r in records]
    instances = sum(r["instances"] for r in records)
    metrics = {
        "setup_s": (statistics.median(c * REFERENCE_S / p for _, c, p in setup), "s"),
        "instances_per_s": (instances / sum(cpu), "1/s"),
        "latency_p50_s": (statistics.median(cpu), "s"),
        "latency_p90_s": (_p90(cpu), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_ratio": (sum(r["ok"] for r in records) / len(records), "ratio"),
    }
    raw = [r["cpu_s"] for r in records]
    extra = {
        "samples": "%d commands, %d instances" % (len(records), instances),
        "host_speed": "probe mean %.4g ms over %d samples"
        % (result["probe_mean_s"] * 1e3, result["probe_samples"]),
        "unscaled_cpu": "p50 %.4g s, p90 %.4g s, setup %.4g s, %.4g instances/s"
        % (statistics.median(raw), _p90(raw), statistics.median(c for _, c, _ in setup), instances / sum(raw)),
        "wall_clock": "p50 %.4g s, p90 %.4g s, wall/cpu %.3f, setup %.4g s"
        % (statistics.median(wall), _p90(wall), sum(wall) / sum(raw), statistics.median(w for w, *_ in setup)),
    }
    return metrics, records, extra


def _traced(args, deadline):
    """Per-layer metrics from a fixed command prefix, run untraced then traced."""
    count = str(TRACE_COMMANDS[args.workload])
    plain = worker([args.workload, str(args.seed), "--count", count], deadline)[0]
    spans = OUT / ("spans-%s-seed%d.json.gz" % (args.workload, args.seed))
    traced = worker([args.workload, str(args.seed), "--count", count, "--trace", "--spans", str(spans)], deadline)[0]
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    overhead = sum(r["cpu_s"] for r in traced["commands"]) - sum(r["cpu_s"] for r in plain["commands"])
    metrics["trace.overhead_s"] = (overhead, "s")
    # LAYERS entries the package does not have: their metrics read 0 because
    # they were never traced, not because nothing called them.
    extra = {
        "spans_file": str(spans.relative_to(ROOT)),
        "not_traced": ", ".join(traced["not_traced"]) or "none",
    }
    return metrics, plain["commands"] + traced["commands"], extra


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def worker(argv, deadline):
    """Run worker.py; return (its JSON result or None, wall and CPU seconds
    from launch until it was ready, mean probe seconds meanwhile)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE, cwd=str(ROOT), env=env, text=True,
    )
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s ran past the deadline" % " ".join(argv)) from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    word, *numbers = first.split()
    if word != "ready" or proc.returncode != 0:
        raise BenchError("worker %s exited with status %d" % (" ".join(argv), proc.returncode))
    lines = out.strip().splitlines()
    cpu, probe = map(float, numbers)
    return (json.loads(lines[-1]) if lines else None), ready, cpu, probe


def source_digest():
    """sha256 over the package sources, to tell program versions apart."""
    sources = sorted(PACKAGE.glob("*.py"))
    return hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in sources)).hexdigest()


def _write_record(path, args, records, metrics, extra):
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": extra,
        "commands": records,
    }
    path.write_text(json.dumps(record, indent=1) + "\n")


def _git_sha():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


if __name__ == "__main__":
    sys.exit(main())
