"""Command-line front end: build, compute, export, and verify.

Exit codes are a stable contract: 0 success, 1 verification mismatch,
2 parse/usage error, 3 semantic input error (well-formed values that do not
denote a quiver/root instance).  All JSON payloads carry ``"schema": 1``.
``verify -q`` with the mutation oracle exits 3 before any work on a quiver
of rank past MAX_WALK_RANK, whose walk would run for minutes.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
import sys

import click
from json.encoder import encode_basestring_ascii

from dimercluster.base_graph import BaseGraph
from dimercluster.cluster_invariants import ORACLE_NAMES, dimer_invariants, verify_quiver
from dimercluster.flip_poset import FlipPoset
from dimercluster.laurent_poly import LaurentPolynomial
from dimercluster.mutation_oracle import expansion_from_f_and_g, moved_atlas, walk_cluster_variables
from dimercluster.quiver_core import (
    MIN_RANK,
    QuiverSyntaxError,
    all_orientations,
    format_quiver,
    graded_lex_sorted,
    is_positive_root,
    parse_int,
    parse_quiver,
    positive_roots,
)
from dimercluster.tran_oracle import poset_size

EXIT_MISMATCH = 1
EXIT_SEMANTIC = 3

# The largest sweep `verify --n` runs, in instances: 2^(n-1) orientations
# times the n(n-1) positive roots.  Rank 10 (46,080) is within it, rank 11
# (112,640) is not.  `verify -q` without `-d` runs the n(n-1) roots of one
# quiver under the same limit: rank 224 (49,952) is within it, rank 225
# (50,400) is not.
MAX_SWEEP_INSTANCES = 50_000

# The largest flip poset `compute`, `poset` and `verify -q` build, counted
# exactly before the build (`poset_size`).  The alternating rank-14 highest
# root (49,427 elements) is within it, 1.1 s of CPU and 51 MB with
# `verify -q -d … --oracle tran` (2-vCPU Intel Xeon virtual machine, one
# run); the alternating rank-15 one (111,064) is not.
MAX_POSET_ELEMENTS = 100_000

# The most elements `verify -q` without -d may build over all of its roots,
# their exact sizes summed only until they pass it.  With `--oracle tran`,
# every root of the alternating rank-14 quiver (306,397) takes 5.5 s of CPU
# and of the linear rank-45 one (372,900) 15.8 s; linear rank 46 (406,410) is
# past it (2-vCPU Intel Xeon virtual machine, one run each).
MAX_TOTAL_ELEMENTS = 400_000

# The largest rank `verify -q` walks for the mutation oracle, as `--n` does.
# The alternating orientation walks slowest: 0.8-0.9 s of CPU at rank 9,
# 4.5-5.6 s and 53 MB at rank 10, 27-37 s and 159 MB at rank 11 (2-vCPU
# virtual machine, 2-4 runs each); the linear one walks rank 10 in 0.04 s and
# rank 20 in 1.8 s.  Building each side of an exchange binomial as one
# y-monomial times its cluster factors left the alternating walks where they
# were: `verify -q … -d <highest root> --oracle mutation` took 0.54-0.81 s of
# process CPU at rank 9 (0.55-0.69 s before) and 3.89-4.11 s and 55 MB at
# rank 10 (3.81-4.27 s and 54 MB before), in 6 and 4 alternating pairs on
# the same kind of machine; the exact division dominates there.
MAX_WALK_RANK = 10

# The largest flip poset `poset --lattice` diagnoses.  The witness searches
# are cubic in the element count; the slowest lattices are the distributive
# ones, where both run to the end: 0.15 s of CPU at 128 elements and 0.22 s
# at 150 on a 2-vCPU virtual machine (all-ones roots of
# `n=10; 0>1, 2>1, 3>2, 3>4, 4>5, 6>5, 7>6, 7>8, 7>9` and
# `n=11; 1>0, 1>2, 2>3, 4>3, 5>4, 5>6, 7>6, 7>8, 8>10, 9>8`, medians of 5).
MAX_LATTICE_ELEMENTS = 128


def _semantic_error(message):
    click.echo("error: %s" % message, err=True)
    sys.exit(EXIT_SEMANTIC)


def _parse_quiver_opt(spec):
    """Quiver from its text form; malformed text is a usage error (exit 2),
    well-formed text that is no type-D orientation a semantic one (exit 3)."""
    try:
        return parse_quiver(spec)
    except QuiverSyntaxError as exc:
        raise click.UsageError(str(exc))
    except ValueError as exc:
        _semantic_error(exc)


def _parse_root_opt(spec, n):
    """Root vector from csv; bad syntax exits 2, a non-root exits 3."""
    try:
        d = tuple(map(parse_int, spec.split(",")))
    except ValueError:
        raise click.UsageError("root must be a comma-separated integer vector")
    if not is_positive_root(n, d):
        _semantic_error("%r is not a positive root at rank %d" % (d, n))
    return d


def _check_sizes(quiver, roots):
    """The flip poset size of each root, counted in order; exit 3, before any
    poset is built, at the first root past MAX_POSET_ELEMENTS or that takes
    the running total past MAX_TOTAL_ELEMENTS."""
    sizes, total = [], 0
    for d in roots:
        size = poset_size(quiver, d)
        if size > MAX_POSET_ELEMENTS:
            _semantic_error(
                "the flip poset of root %s has %d elements, more than the %d allowed"
                % (",".join(map(str, d)), size, MAX_POSET_ELEMENTS)
            )
        sizes.append(size)
        total += size
        if total > MAX_TOTAL_ELEMENTS:
            _semantic_error(
                "the flip posets of the first %d of %d roots have %d elements in all, "
                "more than the %d -q allows without -d"
                % (len(sizes), len(roots), total, MAX_TOTAL_ELEMENTS)
            )
    return sizes


def _flip_poset(quiver, d, size):
    """The flip poset of d; AssertionError unless it has the counted size."""
    poset = FlipPoset(quiver, d)
    if len(poset.coefficients) != size:
        raise AssertionError(
            "root %r: the search found %d elements, Tran's count %d"
            % (d, len(poset.coefficients), size)
        )
    return poset


def _read_int(ctx, param, value):
    """An integer option read as -q and -d are (``parse_int``): click's int
    types also take ``0_4`` and non-ASCII digits."""
    try:
        return value if value is None else parse_int(value)
    except ValueError:
        raise click.BadParameter("%r is not a valid integer." % value) from None


def _check_output(ctx, param, value):
    """-o must name a file in an existing directory; checked before any work."""
    if value == "":
        raise click.BadParameter("must name a file")
    if value is not None:
        parent = os.path.dirname(value)
        if parent and not os.path.isdir(parent):
            raise click.BadParameter("directory %r does not exist" % parent)
    return value


_output_option = click.option(
    "-o", "--output", default=None, type=click.Path(dir_okay=False), callback=_check_output
)


def _write_json(value, newline, put):
    """Put ``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    the str, int, bool, None, dict, list and tuple trees the commands print;
    a LaurentPolynomial in the tree is written as its ``to_json()`` would be,
    its terms a table of rows (``_write_rows``), and a callable in it is
    called with ``(newline, put)`` to put its own value.

    The stdlib encoder falls back to pure Python whenever an indent is set;
    here each list of plain ints is one join.  ``newline`` is the line break
    and the indent of the current depth.  Any other type, and a non-str dict
    key, raises TypeError."""
    if isinstance(value, str):
        put(encode_basestring_ascii(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            put(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, put)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        if set(map(type, value)) == {int}:
            put("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            put(sep)
            _write_json(item, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif isinstance(value, LaurentPolynomial):
        terms = value.terms
        # %d would print 1.5 or True as 1
        if not set(map(type, itertools.chain(terms.values(), *terms))) <= {int}:
            raise TypeError("exponents and coefficients must be int to be written as JSON")
        fields = (("coefficient", None), ("exponents", len(value.context)))
        rows = ((terms[e],) + e for e in graded_lex_sorted(terms))
        document = {
            "schema": 1,
            "terms": functools.partial(_write_rows, fields, rows),
            "variables": list(value.context),
        }
        _write_json(document, newline, put)
    elif callable(value):  # a value that writes itself, row by row
        value(newline, put)
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def _write_rows(fields, rows, newline, put):
    """Put the list of dicts that ``rows`` stands for as ``_write_json``
    would, at the depth of ``newline``, each row ``%`` of one template.
    ``fields`` are a row's (name, width) pairs in name order, no name
    holding a ``%``, width None for one int and n for a list of n ints; a
    row is the flat tuple of its ints in field order."""
    item = newline + "  "
    field = item + "  "
    entry = field + "  "
    parts = []
    for name, width in fields:
        if width is None:
            value = "%d"
        elif width:
            value = "[" + entry + ("," + entry).join(["%d"] * width) + field + "]"
        else:
            value = "[]"
        parts.append(encode_basestring_ascii(name) + ": " + value)
    row = "," + item + "{" + field + ("," + field).join(parts) + item + "}"
    template = "[" + row[1:]
    for values in rows:
        put(template % values)
        template = row
    put(newline + "]" if template is row else "[]")  # no row: an empty list


def _emit(out, parts):
    """Write each part and a newline straight to stdout, or to the file
    ``out`` (opened only now that the output is computed).  A str part is
    written as it is, any other part as indented JSON."""
    if out is None:
        _write_parts(parts, sys.stdout.write)
        sys.stdout.flush()
        return
    try:
        with open(out, "w") as fh:
            _write_parts(parts, fh.write)
    except OSError as exc:
        raise click.UsageError("cannot write %s: %s" % (out, exc.strerror))


def _write_parts(parts, put):
    for part in parts:
        if isinstance(part, str):
            put(part)
        else:
            _write_json(part, "\n", put)
        put("\n")


def _oracle_list(spec):
    """Oracle names from csv, each once in first-seen order; an empty list is
    a usage error."""
    names = tuple(dict.fromkeys(x.strip() for x in spec.split(",") if x.strip()))
    if not names:
        raise click.UsageError("--oracle needs at least one of %s" % ", ".join(ORACLE_NAMES))
    for name in names:
        if name not in ORACLE_NAMES:
            raise click.UsageError(
                "unknown oracle %r (choose from %s)" % (name, ", ".join(ORACLE_NAMES))
            )
    return names


@click.group()
def main():
    """Mixed-dimer model of cluster variables on type-D quivers."""


# ---- basegraph -----------------------------------------------------------------------


@main.command()
@click.option("-q", "--quiver", "quiver_spec", required=True, help='e.g. "n=5; 1>0,2>1,3>2,2>4"')
@click.option("-d", "--root", "root_spec", default=None, help="positive root, csv")
@click.option("-f", "--format", "fmt", type=click.Choice(["text", "json", "dot"]), default="text")
@_output_option
def basegraph(quiver_spec, root_spec, fmt, output):
    """Build the hexagon-square base graph of a quiver."""
    quiver = _parse_quiver_opt(quiver_spec)
    graph = BaseGraph(quiver)
    d = _parse_root_opt(root_spec, quiver.n) if root_spec is not None else None
    if fmt == "dot":
        _emit(output, [graph.to_dot(d)])
    elif fmt == "text":
        parts = [graph.describe()]
        if d is not None:
            labels = graph.node_labels(d)
            parts.append("nodes for d=%s: %s" % (
                ",".join(map(str, d)),
                " ".join("%s=%s" % (v, c) for v, c in sorted(labels.items())),
            ))
        _emit(output, parts)
    else:
        weights = dict(graph.weighted_edges)
        payload = {
            "schema": 1,
            "quiver": format_quiver(quiver),
            "tiles": [
                {"index": t.index, "kind": t.kind, "cells": t.cells, "corners": t.corners}
                for t in graph.tiles
            ],
            "edges": [
                {
                    "ends": e,
                    "tiles": [t for t in sorted(pair) if t < quiver.n],
                    "weight": weights.get(k),
                }
                for k, (e, pair) in enumerate(zip(graph.edges, graph.closed_form_plan))
            ],
            "nodes": None,
        }
        if d is not None:
            payload["nodes"] = [
                {"corner": v, "color": c} for v, c in sorted(graph.node_labels(d).items())
            ]
        _emit(output, [payload])


# ---- compute -------------------------------------------------------------------------


@main.command()
@click.option("-q", "--quiver", "quiver_spec", required=True)
@click.option("-d", "--root", "root_spec", required=True)
@click.option("-f", "--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--explain", is_flag=True, help="list every configuration with its weight data")
@_output_option
def compute(quiver_spec, root_spec, fmt, explain, output):
    """F-polynomial, g-vector, and Laurent expansion for one root."""
    quiver = _parse_quiver_opt(quiver_spec)
    d = _parse_root_opt(root_spec, quiver.n)
    (size,) = _check_sizes(quiver, [d])
    poset = _flip_poset(quiver, d, size)
    f, g = dimer_invariants(poset)
    laurent = expansion_from_f_and_g(quiver, f, g)
    histogram = {}
    for coeff in f.terms.values():  # the poset's coefficients, one per element
        c = coeff.bit_length() - 1  # coeff is 2^cycles
        histogram[c] = histogram.get(c, 0) + 1
    if fmt == "json":
        payload = {
            "schema": 1,
            "quiver": format_quiver(quiver),
            "root": d,
            "f_polynomial": f,
            "g_vector": g,
            "laurent_expansion": laurent,
            "poset_size": len(poset.coefficients),
            "cycle_histogram": {str(k): v for k, v in sorted(histogram.items())},
        }
        if explain:
            fields = (("coefficient", None), ("e", quiver.n), ("x_exponents", quiver.n))
            rows = ((c,) + e + w for e, c, w in _configurations(laurent, d))
            payload["configurations"] = functools.partial(_write_rows, fields, rows)
        _emit(output, [payload])
        return
    lines = [
        "quiver: %s" % format_quiver(quiver),
        "root d: %s" % (",".join(map(str, d))),
        "F = %s" % f.render(),
        "g = (%s)" % ", ".join(map(str, g)),
        "x_d = %s" % laurent.render(),
        "poset size: %d" % len(poset.coefficients),
        "cycle histogram: %s"
        % ", ".join("%d cycles x%d" % (k, v) for k, v in sorted(histogram.items())),
    ]
    if explain:
        lines.append("configurations (e | coefficient | weight exponents):")
        rows = (
            "  %s | %d | %s" % (",".join(map(str, e)), c, ",".join(map(str, w)))
            for e, c, w in _configurations(laurent, d)
        )
        lines = itertools.chain(lines, rows)
    _emit(output, lines)


def _configurations(laurent, d):
    """(e, coefficient, weight exponents) of every poset element, in
    graded-lex order of e, one at a time: e's Laurent term is
    2^cycles * x^(wt - d) * y^e, so its y-part is e and its x-part plus d is
    the weight."""
    n = len(d)
    terms = laurent.terms
    for key in graded_lex_sorted(terms, key=lambda key: key[n:]):
        yield key[n:], terms[key], tuple(map(operator.add, key, d))


# ---- poset ---------------------------------------------------------------------------


@main.command()
@click.option("-q", "--quiver", "quiver_spec", required=True)
@click.option("-d", "--root", "root_spec", required=True)
@click.option("-f", "--format", "fmt", type=click.Choice(["text", "json", "dot"]), default="dot")
@click.option("--lattice", is_flag=True, help="append lattice diagnostics and witnesses")
@_output_option
def poset(quiver_spec, root_spec, fmt, lattice, output):
    """Hasse diagram of the flip poset for one root."""
    quiver = _parse_quiver_opt(quiver_spec)
    d = _parse_root_opt(root_spec, quiver.n)
    (size,) = _check_sizes(quiver, [d])
    if lattice and size > MAX_LATTICE_ELEMENTS:
        _semantic_error(
            "--lattice diagnoses posets of at most %d elements; this one has %d"
            % (MAX_LATTICE_ELEMENTS, size)
        )
    p = _flip_poset(quiver, d, size)
    diagnostics = None
    if lattice:
        ok, _ = p.is_lattice()
        n5 = p.n5_witness() if ok else None
        m3 = p.m3_witness() if ok else None
        diagnostics = {
            "is_lattice": ok,
            # Birkhoff: a lattice is distributive iff it has neither witness
            "distributive": (n5 is None and m3 is None) if ok else None,
            "n5_witness": n5,
            "m3_witness": m3,
        }
    if fmt == "dot":
        lines = []
        if diagnostics is not None:
            lines.append(
                "// lattice: %(is_lattice)s, distributive: %(distributive)s" % diagnostics
            )
            if diagnostics["n5_witness"]:
                lines.append("// N5 witness: %s" % (diagnostics["n5_witness"],))
        _emit(output, itertools.chain(p.hasse_dot(), lines))
    elif fmt == "text":
        lines = ["elements (%d):" % len(p.elements)]
        coeffs = p.coefficients
        for e in p.elements:
            ups = " ".join(",".join(map(str, v)) for v in p.covers[e])
            lines.append(
                "  %s coeff=%d -> %s" % (",".join(map(str, e)), coeffs[e], ups or "-")
            )
        if p.excluded:
            lines.append(
                "excluded: %s"
                % " ".join(",".join(map(str, e)) for e in sorted(p.excluded))
            )
        if diagnostics is not None:
            if diagnostics["is_lattice"] and not diagnostics["distributive"]:
                lines.append("lattice: non-distributive, N5 witness: %s" % (diagnostics["n5_witness"],))
            elif diagnostics["is_lattice"]:
                lines.append("lattice: distributive")
            else:
                lines.append("not a lattice")
        _emit(output, lines)
    else:
        payload = {
            "schema": 1,
            "quiver": format_quiver(quiver),
            "root": d,
            "elements": p.elements,
            "covers": {",".join(map(str, e)): p.covers[e] for e in p.elements},
            "excluded": sorted(p.excluded),
            "coefficients": {
                ",".join(map(str, e)): c for e, c in sorted(p.coefficients.items())
            },
        }
        if diagnostics is not None:
            payload["lattice"] = diagnostics
        _emit(output, [payload])


# ---- verify --------------------------------------------------------------------------


def _verify_one_orientation(args):
    """Worker: the reports of a task ``(orbit, oracles, roots)``, one list per
    member of the orbit, a tuple of ``Quiver.orbit``'s (quiver, moves) pairs;
    roots=None means every positive root.  With "mutation" the first member
    is walked once and each member gets ``moved_atlas`` of that walk, so
    ``verify_quiver`` walks none."""
    orbit, oracles, roots = args
    first, _ = orbit[0]
    atlas = walk_cluster_variables(first) if "mutation" in oracles else None
    return [
        verify_quiver(q, oracles, roots, moved_atlas(atlas, q.n, *moves)) for q, moves in orbit
    ]


@main.command()
@click.option(
    "--n", "rank", callback=_read_int, metavar="INTEGER", help="sweep every orientation at this rank"
)
@click.option("-q", "--quiver", "quiver_spec", default=None, help="verify a single quiver instead")
@click.option("-d", "--root", "root_spec", default=None, help="restrict to one root")
@click.option("--oracle", "oracle_spec", default="tran,mutation", help="comma-joined subset")
@click.option(
    "--jobs",
    callback=_read_int,
    metavar="INTEGER",
    help="parallel workers, at least 1 (default: cores, at most one per task: an orientation, "
    "or with the mutation oracle its orbit under tip swap and reversal)",
)
@click.option("-f", "--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--explain", is_flag=True, help="per-instance lines, not just the summary")
@_output_option
def verify(rank, quiver_spec, root_spec, oracle_spec, jobs, fmt, explain, output):
    """Cross-check the dimer model against the independent oracles."""
    if jobs is not None and jobs < 1:
        raise click.BadParameter("%d is not in the range x>=1." % jobs, param_hint="'--jobs'")
    oracles = _oracle_list(oracle_spec)
    if (rank is None) == (quiver_spec is None):
        raise click.UsageError("give exactly one of --n or --quiver")
    checked = None  # every root of every orientation
    if quiver_spec is None:
        if root_spec is not None:
            raise click.UsageError("--root requires --quiver")
        if rank < MIN_RANK:
            _semantic_error("rank must be at least %d" % MIN_RANK)
        # past the limit's bit length 2^(rank-1) alone exceeds it: a huge rank
        # builds no huge int
        if (
            rank > MAX_SWEEP_INSTANCES.bit_length()
            or 2 ** (rank - 1) * rank * (rank - 1) > MAX_SWEEP_INSTANCES
        ):
            _semantic_error(
                "a rank-%d sweep is 2^%d orientations x %d roots, more than the "
                "%d instances --n allows" % (rank, rank - 1, rank * (rank - 1), MAX_SWEEP_INSTANCES)
            )
        quivers = all_orientations(rank)
    else:
        quiver = _parse_quiver_opt(quiver_spec)
        n = quiver.n
        if root_spec is not None:
            checked = [_parse_root_opt(root_spec, n)]
        elif n * (n - 1) > MAX_SWEEP_INSTANCES:
            _semantic_error(
                "a rank-%d quiver has %d roots, more than the %d instances -q allows "
                "without -d" % (n, n * (n - 1), MAX_SWEEP_INSTANCES)
            )
        if "mutation" in oracles and n > MAX_WALK_RANK:
            _semantic_error(
                "the mutation oracle walks quivers of rank at most %d; this one has "
                "rank %d" % (MAX_WALK_RANK, n)
            )
        # no sweep needs the checks: at rank 10, its largest, every poset has
        # at most 1,937 elements and every quiver's posets at most 11,501
        if checked is None:
            checked = positive_roots(n)
        _check_sizes(quiver, checked)
        quivers = [quiver]
    orbits = [((q, (False, False)),) for q in quivers]
    if quiver_spec is None and "mutation" in oracles:
        # one walk per ``Quiver.orbit``, by its first quiver in sweep order
        orbits, grouped = [], set()
        for q in quivers:
            if q not in grouped:
                orbits.append(q.orbit())
                grouped.update(m for m, _ in orbits[-1])
    tasks = [(orbit, oracles, checked) for orbit in orbits]
    jobs = min(jobs or os.cpu_count() or 1, len(tasks))
    if jobs > 1:
        import multiprocessing  # only a pool needs it

        with multiprocessing.Pool(jobs) as pool:
            chunks = pool.map(_verify_one_orientation, tasks)
    else:
        chunks = [_verify_one_orientation(t) for t in tasks]
    members = (q for orbit in orbits for q, _ in orbit)
    reports = dict(zip(members, itertools.chain(*chunks)))
    results = [r for q in quivers for r in reports[q]]  # back in sweep order
    failures = [r for r in results if not r["ok"]]
    if fmt == "json":
        payload = {
            "schema": 1,
            "oracles": oracles,
            "instances": len(results),
            "failures": failures,
        }
        if explain:
            payload["results"] = results
        _emit(output, [payload])
    else:
        lines = []
        if explain:
            for r in results:
                lines.append(
                    "%s  d=%s  %s"
                    % (
                        r["quiver"],
                        ",".join(map(str, r["root"])),
                        "ok" if r["ok"] else "MISMATCH",
                    )
                )
        lines.append(
            "verified %d instances against %s: %s"
            % (
                len(results),
                "+".join(oracles),
                "all ok" if not failures else "%d FAILED" % len(failures),
            )
        )
        if failures:
            lines.append({"schema": 1, "failures": failures})
        _emit(output, lines)
    if failures:
        sys.exit(EXIT_MISMATCH)


if __name__ == "__main__":
    main()
