"""One benchmark run in a fresh interpreter: import, run commands, check.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py WORKLOAD SEED --seconds S | --count K [--trace]
        [--spans PATH]

`run.py` starts it with ``PYTHONPATH=src``.  As soon as ``dimercluster.cli``
(with numpy and click) is imported, which is where set-up ends, it prints
``ready``, the CPU seconds its main thread has used so far, less the
host-speed probes taken meanwhile, and the mean probe time
(`hostspeed.py`).  numpy's helper threads, which spin while numpy is
imported, run beside the main thread and are left out.  It then issues
the workload's commands in-process through the click entry point as a closed
loop with one client: whole rounds until S seconds have passed, or the first
K commands.  A timed run (S seconds) also samples the host's speed
(`hostspeed.py`).  Command outputs wait in a temporary file of the worker's own,
under `perfbench/out/`, until the answers are checked after the loop; the
result is printed as one JSON line.
"""

from __future__ import annotations

import sys
import time


def main(argv):
    import hostspeed  # imports only modules the package imports too

    with hostspeed.Sampler() as sampler:
        from dimercluster.cli import main as cli_main
    print("ready %r %r" % (time.thread_time() - sampler.spent, sampler.mean()), flush=True)
    if argv == ["--setup-only"]:
        return 0

    import argparse
    import contextlib
    import json
    import tempfile
    from pathlib import Path

    import answers
    import hostspeed
    import workloads

    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("seed", type=int)
    limit = ap.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--count", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    def invoke(cmd_args):
        return cli_main.main(args=cmd_args, prog_name="dimercluster", standalone_mode=False)

    tracer = None
    if args.trace:
        from tracing import COMMAND_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        invoke = tracer.wrap(COMMAND_SPAN, invoke)

    commands = workloads.WORKLOADS[args.workload](args.seed)
    result = {}
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    sampler = hostspeed.Sampler() if args.seconds is not None else None
    with tempfile.TemporaryFile("w+", dir=out_dir) as spool:
        with sampler if sampler is not None else contextlib.nullcontext():
            runs, result["peak_rss_mb"] = answers.run_loop(
                invoke, commands, spool, args.seconds, args.count, tracer, sampler
            )
        if sampler is not None:
            result["probe_mean_s"], result["probe_samples"] = sampler.mean(), len(sampler.samples)
        if tracer is not None:
            tracer.uninstall()  # the checks below are not part of the traced work
            result["layers"] = tracer.layer_metrics(sum(cmd.instances for cmd, *_ in runs))
            result["not_traced"] = tracer.not_traced
            if args.spans:
                tracer.write_spans(args.spans)
        spool.seek(0)
        result["commands"] = answers.check(runs, spool)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
