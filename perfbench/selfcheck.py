"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

For each workload, runs the traced command prefix twice on seed 1, in fresh
interpreters, and requires identical `.calls` counts.  On the program
as it stood when the benchmark was defined (recognised by its source digest)
the traced rank-6 sweep must also give the counts recorded then; a harness
that stops patching some binding shows up as a lower count.  On any other
program version those counts are printed for comparison only, and so are
the LAYERS entries the package no longer has.  Exits 1 on any failed check.
"""

from __future__ import annotations

import sys
import time

import run
from workloads import TRACE_COMMANDS, WORKLOADS

SEED = 1
RECORDED_SRC_SHA256 = "11bb6032393625f47e7f7dcdf4d07dc21c3bd76da70ad2063e776331e098df36"
RECORDED_SWEEP_CALLS = {
    "quiver_core.positive_roots.calls": 7744,
    "flip_poset.FlipPoset.calls": 1920,
    "mixed_dimer.e_from_config.calls": 8928,
    "mutation_oracle.walk_cluster_variables.calls": 32,
    "cluster_invariants.verify_root.calls": 960,
}


def traced_calls(workload):
    """The `.calls` counts of one traced run, and the LAYERS entries not traced."""
    argv = [workload, str(SEED), "--count", str(TRACE_COMMANDS[workload]), "--trace"]
    result = run.worker(argv, time.monotonic() + 600)[0]
    if not all(c["ok"] for c in result["commands"]):
        raise run.BenchError("%s: a traced command failed its answer check" % workload)
    calls = {k: v for k, (v, _) in result["layers"].items() if k.endswith(".calls")}
    return calls, result["not_traced"]


def main():
    pinned = run.source_digest() == RECORDED_SRC_SHA256
    failures = 0
    for workload in WORKLOADS:
        first, not_traced = traced_calls(workload)
        second, _ = traced_calls(workload)
        differing = sorted(k for k in first if first[k] != second.get(k))
        print("%-12s %d call counts, repeat exactly: %s" % (workload, len(first), "yes" if not differing else "NO"))
        for k in differing:
            print("  %s: %s then %s" % (k, first[k], second.get(k)))
        failures += bool(differing)
        if not_traced:
            print("  not traced: %s" % ", ".join(not_traced))
            failures += pinned
        if workload == "sweep":
            for k, want in RECORDED_SWEEP_CALLS.items():
                verdict = "ok" if first[k] == want else ("MISMATCH" if pinned else "differs (program changed)")
                print("  %-46s %6d recorded %6d  %s" % (k, first[k], want, verdict))
                failures += pinned and first[k] != want
    print("self-check %s" % ("passed" if not failures else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
