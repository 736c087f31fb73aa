"""The closed command loop and the answer checks that follow it.

A command fails on a nonzero exit, an exception, a `MISMATCH` summary, or an
answer that differs from the closed-form oracle.  Checks run after the timed
loop: `compute` answers are compared with `tran_f_polynomial`,
`tran_g_vector` and `expansion_from_f_and_g`; `verify` summaries must report
every instance ok.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import resource
from time import perf_counter, process_time


def run_loop(invoke, commands, spool, seconds=None, count=None, tracer=None, sampler=None):
    """Issue commands one after another until `count` ran, or until `seconds`
    have passed and the last command closed a round.  The CPU time of the
    `sampler`'s probes is taken out of the command each one interrupted.

    Returns (command, CPU seconds, wall seconds, exit status, error, mean
    probe seconds around it or None) per command, and the peak RSS in MB at
    the end of the first round: a fast machine fits more rounds into a run,
    and the peak would grow with them.
    Each command's standard output goes to `spool`, one JSON string per
    line, so outputs do not pile up in memory.
    """
    import click

    runs = []
    spans = []
    peak_rss_mb = None
    round_closed = True
    start = perf_counter()
    for index, cmd in enumerate(commands):
        if count is not None and index >= count:
            break
        if seconds is not None and round_closed and perf_counter() - start >= seconds:
            break
        round_closed = cmd.closes_round
        if tracer is not None:
            tracer.instance = index
        out = io.StringIO()
        status, error = 0, None
        before = sampler.spent if sampler is not None else 0.0
        t0, c0 = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(out):
                invoke(cmd.args)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except click.ClickException as exc:
            status, error = exc.exit_code, exc.format_message()
        except Exception as exc:  # the command failed; record it and go on
            status, error = -1, "%s: %s" % (type(exc).__name__, exc)
        t1, c1 = perf_counter(), process_time()
        probed = (sampler.spent if sampler is not None else 0.0) - before
        spool.write(json.dumps(out.getvalue()) + "\n")
        runs.append((cmd, c1 - c0 - probed, t1 - t0 - probed, status, error))
        spans.append((t0, t1))
        if round_closed and peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = [sampler.mean_around(*span) if sampler is not None else None for span in spans]
    return [run + (probe,) for run, probe in zip(runs, probes)], peak_rss_mb


def check(runs, spool):
    """One record per command: its input properties, latency and verdict."""
    records = []
    for (cmd, cpu, wall, status, error, probe), line in zip(runs, spool):
        record = {
            "args": cmd.args,
            "rank": cmd.rank,
            "root": list(cmd.root) if cmd.root is not None else None,
            "box": cmd.box,
            "poset_size": None,
            "instances": cmd.instances,
            "cpu_s": cpu,
            "wall_s": wall,
            "probe_s": probe,
            "status": status,
        }
        if error is None and status != 0:
            error = "exit status %d" % status
        if error is None:
            error = _check_answer(cmd, json.loads(line), record)
        record["ok"] = error is None
        record["error"] = error
        records.append(record)
    return records


def _check_answer(cmd, text, record):
    """None if the output is right, else what is wrong with it."""
    if cmd.args[0] == "compute":
        return _check_compute(cmd, text, record)
    if cmd.root is None:
        record["poset_size"] = _sweep_poset_total(cmd.rank)
        oracles = "tran+mutation"
    else:
        record["poset_size"] = _poset_size(cmd.quiver, cmd.root)
        oracles = "tran"
    want = "verified %d instances against %s: all ok" % (cmd.instances, oracles)
    if text.strip() != want:
        return "expected %r, got %r" % (want, text.strip()[:200])
    return None


def _check_compute(cmd, text, record):
    from dimercluster.mutation_oracle import expansion_from_f_and_g
    from dimercluster.quiver_core import parse_quiver
    from dimercluster.tran_oracle import tran_f_polynomial, tran_g_vector

    try:
        payload = json.loads(text)
    except ValueError:
        return "output is not JSON: %r" % text[:200]
    record["poset_size"] = payload.get("poset_size")
    quiver = parse_quiver(cmd.quiver)
    f = tran_f_polynomial(quiver, cmd.root)
    g = tran_g_vector(quiver, cmd.root)
    expected = {
        "quiver": cmd.quiver,
        "root": list(cmd.root),
        "f_polynomial": f.to_json(),
        "g_vector": list(g),
        "laurent_expansion": expansion_from_f_and_g(quiver, f, g).to_json(),
    }
    for key, value in json.loads(json.dumps(expected)).items():
        if payload.get(key) != value:
            return "%s differs from the closed-form oracle" % key
    return None


def _poset_size(quiver_text, root):
    from dimercluster.flip_poset import FlipPoset
    from dimercluster.quiver_core import parse_quiver

    return len(FlipPoset(parse_quiver(quiver_text), root).elements)


@functools.lru_cache(maxsize=None)
def _sweep_poset_total(n):
    from workloads import oriented_quiver, positive_roots

    patterns = ("".join(p) for p in itertools.product("<>", repeat=n - 1))
    return sum(_poset_size(oriented_quiver(n, p), d) for p in patterns for d in positive_roots(n))
