"""Command-line interface: formats, exit codes, golden snippets."""

import functools
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dimercluster.cli
import dimercluster.cluster_invariants
from dimercluster.cli import main
from dimercluster.cluster_invariants import dimer_invariants
from dimercluster.flip_poset import FlipPoset
from dimercluster.laurent_poly import LaurentPolynomial
from dimercluster.mutation_oracle import expansion_from_f_and_g, walk_cluster_variables
from dimercluster.quiver_core import (
    all_orientations,
    dynkin_edges,
    format_quiver,
    parse_quiver,
    positive_roots,
)
from dimercluster.tran_oracle import poset_size, tran_f_polynomial
from reference import arrow_valid_count

QC_SPEC = "n=5; 1>0,2>1,3>2,2>4"
QC_ROOT = "1,1,2,1,1"


@pytest.fixture()
def runner():
    return CliRunner()


# ---- compute -------------------------------------------------------------------------


def test_compute_text_golden(runner):
    result = runner.invoke(main, ["compute", "-q", QC_SPEC, "-d", QC_ROOT])
    assert result.exit_code == 0
    assert "g = (-1, 0, 0, 1, -1)" in result.output
    assert "2*u0*u1*u2*u4" in result.output
    assert "poset size: 13" in result.output
    assert "1 cycles x1" in result.output


def test_compute_json_schema(runner):
    result = runner.invoke(main, ["compute", "-q", QC_SPEC, "-d", QC_ROOT, "-f", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["schema"] == 1
    assert payload["g_vector"] == [-1, 0, 0, 1, -1]
    assert payload["poset_size"] == 13
    assert payload["cycle_histogram"] == {"0": 12, "1": 1}
    assert payload["f_polynomial"]["schema"] == 1
    assert len(payload["f_polynomial"]["terms"]) == 13
    assert len(payload["laurent_expansion"]["terms"]) == 13


def test_compute_explain_lists_configurations(runner):
    result = runner.invoke(
        main, ["compute", "-q", QC_SPEC, "-d", QC_ROOT, "--explain"]
    )
    assert result.exit_code == 0
    assert "configurations (e | coefficient | weight exponents):" in result.output
    assert "1,1,1,0,1 | 2 |" in result.output


# ---- basegraph -----------------------------------------------------------------------


def test_basegraph_dot_with_root_colors(runner):
    result = runner.invoke(
        main, ["basegraph", "-q", QC_SPEC, "-d", QC_ROOT, "-f", "dot"]
    )
    assert result.exit_code == 0
    assert result.output.startswith("graph basegraph {")
    assert "color=green" in result.output and "color=red" in result.output


def test_basegraph_json(runner):
    result = runner.invoke(main, ["basegraph", "-q", "n=4; 1>0,1>2,1>3", "-f", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["schema"] == 1
    kinds = [t["kind"] for t in payload["tiles"]]
    assert kinds.count("hexagon") == 1 and kinds.count("square") == 3
    assert all(len(e["tiles"]) in (1, 2) for e in payload["edges"])


def test_basegraph_text(runner):
    result = runner.invoke(main, ["basegraph", "-q", QC_SPEC])
    assert result.exit_code == 0
    assert "hexagon" in result.output


# ---- poset ---------------------------------------------------------------------------


def test_poset_dot_default(runner):
    result = runner.invoke(main, ["poset", "-q", QC_SPEC, "-d", QC_ROOT])
    assert result.exit_code == 0
    assert result.output.startswith("digraph hasse {")
    assert '"0,0,0,0,0" -> "1,0,0,0,0"' in result.output


def test_poset_text_lattice_diagnostics(runner):
    result = runner.invoke(
        main, ["poset", "-q", QC_SPEC, "-d", QC_ROOT, "-f", "text", "--lattice"]
    )
    assert result.exit_code == 0
    assert "elements (13):" in result.output
    assert "excluded: 0,0,1,0,0" in result.output
    assert "non-distributive, N5 witness" in result.output


def test_poset_json_lattice(runner):
    result = runner.invoke(
        main, ["poset", "-q", QC_SPEC, "-d", QC_ROOT, "-f", "json", "--lattice"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["schema"] == 1
    assert len(payload["elements"]) == 13
    assert payload["lattice"]["is_lattice"] is True
    assert payload["lattice"]["distributive"] is False
    assert payload["lattice"]["n5_witness"] is not None
    assert payload["lattice"]["m3_witness"] is None
    assert payload["coefficients"]["1,1,1,0,1"] == 2


def test_poset_two_element_chain(runner):
    result = runner.invoke(
        main, ["poset", "-q", "n=4; 1>0,1>2,1>3", "-d", "1,0,0,0", "-f", "json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["elements"] == [[0, 0, 0, 0], [1, 0, 0, 0]]


# ---- verify --------------------------------------------------------------------------


def test_verify_single_instance(runner):
    result = runner.invoke(
        main,
        ["verify", "-q", QC_SPEC, "-d", QC_ROOT, "--explain"],
    )
    assert result.exit_code == 0
    assert "verified 1 instances against tran+mutation: all ok" in result.output


def test_verify_single_quiver_tran_only_json(runner):
    result = runner.invoke(
        main, ["verify", "-q", "n=4; 0>1,1>2,1>3", "--oracle", "tran", "-f", "json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["schema"] == 1
    assert payload["oracles"] == ["tran"]
    assert payload["instances"] == 12
    assert payload["failures"] == []


def test_verify_rank4_sweep(runner):
    result = runner.invoke(main, ["verify", "--n", "4", "--jobs", "1"])
    assert result.exit_code == 0
    assert "verified 96 instances" in result.output


@pytest.mark.parametrize("spec", [QC_SPEC, "n=5; 0>1,2>1,2>3,4>2"])
def test_verify_one_root_matches_its_entry_in_the_full_report(runner, spec):
    full_text = runner.invoke(main, ["verify", "-q", spec, "--explain"])
    full_json = runner.invoke(main, ["verify", "-q", spec, "--explain", "-f", "json"])
    assert full_text.exit_code == 0 and full_json.exit_code == 0
    lines = full_text.output.splitlines()[:-1]
    entries = json.loads(full_json.output)["results"]
    assert len(lines) == len(entries) == 20
    for line, entry in zip(lines, entries):
        root = ",".join(map(str, entry["root"]))
        text = runner.invoke(main, ["verify", "-q", spec, "-d", root, "--explain"])
        assert text.output == line + "\nverified 1 instances against tran+mutation: all ok\n"
        one = runner.invoke(main, ["verify", "-q", spec, "-d", root, "--explain", "-f", "json"])
        payload = json.loads(one.output)
        assert payload["results"] == [entry]
        assert payload["instances"] == 1 and payload["failures"] == []


@pytest.mark.parametrize(
    "args, instances",
    [
        (["verify", "-q", QC_SPEC, "-d", QC_ROOT], 1),
        (["verify", "--n", "4", "--jobs", "1"], 96),
    ],
)
def test_verify_builds_one_poset_and_one_report_per_instance(runner, monkeypatch, args, instances):
    calls = {"FlipPoset": 0, "verify_root": 0}
    build = FlipPoset.__init__

    def counted_build(self, *a, **kw):
        calls["FlipPoset"] += 1
        build(self, *a, **kw)

    monkeypatch.setattr(FlipPoset, "__init__", counted_build)
    verify_root = dimercluster.cluster_invariants.verify_root

    def counted_verify_root(*a, **kw):
        calls["verify_root"] += 1
        return verify_root(*a, **kw)

    for name, module in list(sys.modules.items()):
        if name.startswith("dimercluster.") and getattr(module, "verify_root", None) is verify_root:
            monkeypatch.setattr(module, "verify_root", counted_verify_root)
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "verified %d instances" % instances in result.output
    assert calls == {"FlipPoset": instances, "verify_root": instances}


@pytest.mark.parametrize(
    "args",
    [
        ["compute", "-q", QC_SPEC, "-d", QC_ROOT],
        ["verify", "-q", QC_SPEC, "-d", QC_ROOT],
    ],
)
def test_f_and_g_are_computed_once_per_instance(runner, monkeypatch, args):
    calls = []
    original = dimercluster.cluster_invariants.dimer_invariants

    def counted(poset):
        calls.append(poset.d)
        return original(poset)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("dimercluster.") and (
            getattr(module, "dimer_invariants", None) is original
        ):
            monkeypatch.setattr(module, "dimer_invariants", counted)
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert calls == [(1, 1, 2, 1, 1)]


@pytest.mark.parametrize("spec", [",", "", " , ,"])
def test_verify_rejects_an_empty_oracle_list(runner, spec):
    result = runner.invoke(main, ["verify", "--n", "4", "--jobs", "1", "--oracle", spec])
    assert result.exit_code == 2
    assert "--oracle needs at least one of tran, mutation" in result.output
    assert "verified" not in result.output


@pytest.mark.parametrize(
    "spec, oracles",
    [("tran,tran", ["tran"]), ("mutation,tran,mutation", ["mutation", "tran"])],
)
def test_verify_runs_each_oracle_once(runner, monkeypatch, spec, oracles):
    calls = []
    tran = dimercluster.cluster_invariants.tran_f_polynomial

    def counted_tran(*a, **kw):
        calls.append(a[1])
        return tran(*a, **kw)

    monkeypatch.setattr(dimercluster.cluster_invariants, "tran_f_polynomial", counted_tran)
    args = ["verify", "-q", "n=4; 0>1,1>2,1>3", "--oracle", spec]
    text = runner.invoke(main, args)
    assert text.exit_code == 0
    assert text.output == "verified 12 instances against %s: all ok\n" % "+".join(oracles)
    assert len(calls) == 12
    payload = json.loads(runner.invoke(main, args + ["-f", "json"]).output)
    assert payload["oracles"] == oracles


# ---- output files and exit codes -------------------------------------------------------


def test_output_file_flag(runner, tmp_path):
    # -o writes exactly the bytes the same command prints, for every command
    # and format
    qd = ["-q", QC_SPEC, "-d", QC_ROOT]
    cases = [["basegraph"] + qd + ["-f", fmt] for fmt in ("text", "json", "dot")]
    for explain in ([], ["--explain"]):
        cases += [["compute"] + qd + ["-f", fmt] + explain for fmt in ("text", "json")]
        cases += [["verify", "-q", QC_SPEC, "-f", fmt] + explain for fmt in ("text", "json")]
    for lattice in ([], ["--lattice"]):
        cases += [["poset"] + qd + ["-f", fmt] + lattice for fmt in ("dot", "text", "json")]
    target = tmp_path / "out"
    for args in cases:
        printed = runner.invoke(main, args)
        written = runner.invoke(main, args + ["-o", str(target)])
        assert printed.exit_code == written.exit_code == 0, args
        assert written.stdout_bytes == b"", args
        assert target.read_bytes() == printed.stdout_bytes, args


def test_output_file_holds_the_mismatch_report(runner, tmp_path, wrong_tran):
    args = ["verify", "-q", QC_SPEC, "-d", QC_ROOT, "--oracle", "tran"]
    target = tmp_path / "out"
    printed = runner.invoke(main, args)
    written = runner.invoke(main, args + ["-o", str(target)])
    assert printed.exit_code == written.exit_code == 1
    assert target.read_bytes() == printed.stdout_bytes
    assert b'"failures": [' in target.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["basegraph", "-q", QC_SPEC],
        ["compute", "-q", QC_SPEC, "-d", QC_ROOT, "-f", "json"],
        ["poset", "-q", QC_SPEC, "-d", QC_ROOT],
        ["verify", "-q", QC_SPEC, "-d", QC_ROOT],
    ],
)
def test_output_into_a_missing_directory_is_a_usage_error(runner, tmp_path, args):
    target = tmp_path / "missing" / "out.txt"
    result = runner.invoke(main, args + ["-o", str(target)])
    assert result.exit_code == 2
    assert "does not exist" in result.output
    assert isinstance(result.exception, SystemExit)  # not an uncaught OSError
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["basegraph", "-q", QC_SPEC],
        ["compute", "-q", QC_SPEC, "-d", QC_ROOT, "-f", "json"],
        ["poset", "-q", QC_SPEC, "-d", QC_ROOT],
        ["verify", "-q", QC_SPEC, "-d", QC_ROOT],
    ],
)
def test_an_empty_output_name_is_a_usage_error_before_any_work(runner, monkeypatch, args):
    def no_build(*_args, **_kwargs):
        raise AssertionError("built before -o was checked")

    for module in (dimercluster.cli, dimercluster.cluster_invariants):
        monkeypatch.setattr(module, "BaseGraph", no_build)
        monkeypatch.setattr(module, "FlipPoset", no_build)
    result = runner.invoke(main, args + ["-o", ""])
    assert result.exit_code == 2
    assert "Invalid value for '-o' / '--output': must name a file" in result.output
    assert isinstance(result.exception, SystemExit)


def test_output_that_cannot_be_written_is_a_usage_error(runner, tmp_path):
    target = tmp_path / ("x" * 300)  # longer than a file name may be
    result = runner.invoke(main, ["poset", "-q", QC_SPEC, "-d", QC_ROOT, "-o", str(target)])
    assert result.exit_code == 2
    assert "cannot write" in result.output
    assert isinstance(result.exception, SystemExit)


def test_exit_2_on_parse_errors(runner):
    assert runner.invoke(main, ["basegraph", "-q", "garbage"]).exit_code == 2
    assert runner.invoke(main, ["basegraph"]).exit_code == 2
    assert runner.invoke(main, ["compute", "-q", QC_SPEC, "-d", "a,b,c"]).exit_code == 2
    assert runner.invoke(main, ["verify"]).exit_code == 2
    assert (
        runner.invoke(main, ["verify", "--n", "4", "-q", QC_SPEC]).exit_code == 2
    )
    assert (
        runner.invoke(main, ["verify", "--n", "4", "--oracle", "psychic"]).exit_code == 2
    )
    assert runner.invoke(main, ["verify", "--root", QC_ROOT]).exit_code == 2


@pytest.mark.parametrize("rank", ["3", "4", "11"])
def test_a_root_with_a_rank_is_a_usage_error_before_the_rank_is_judged(runner, rank):
    # --n with -d is refused as a usage error whatever the rank: below the
    # rank floor and past the sweep limit it exited 3 instead
    result = runner.invoke(main, ["verify", "--n", rank, "-d", "1,1,1,1"])
    assert result.exit_code == 2
    assert "--root requires --quiver" in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "args",
    [
        ["basegraph", "-q", QC_SPEC],
        ["compute", "-q", QC_SPEC],
        ["poset", "-q", QC_SPEC],
        ["verify", "-q", QC_SPEC],
    ],
)
def test_an_empty_root_is_a_usage_error(runner, args):
    # an empty -d is a root given empty, not a root left out
    result = runner.invoke(main, args + ["-d", ""])
    assert result.exit_code == 2
    assert "root must be a comma-separated integer vector" in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "quiver_spec, root, message",
    [
        ("n=4; 1>0,1>2,1>3", "\uff10,1,1,1", "root must be a comma-separated integer vector"),
        ("n=4; 1>0,1>2,1>3", "0_1,1,1,1", "root must be a comma-separated integer vector"),
        ("n=\uff104; 1>0,1>2,1>3", "0,1,1,1", "rank '\uff104' is not an integer"),
        ("n=4; 1>0,1>2,1>0_3", "0,1,1,1", "arrow '1>0_3' must be a pair of integers"),
    ],
    ids=["fullwidth-root-digit", "underscore-in-root", "fullwidth-rank-digit", "underscore-in-arrow"],
)
def test_only_ascii_digits_make_an_integer(runner, quiver_spec, root, message):
    # int() alone reads the fullwidth 0 as 0 and 0_1 as 1
    result = runner.invoke(main, ["compute", "-q", quiver_spec, "-d", root])
    assert result.exit_code == 2
    assert message in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "args, option",
    [
        (["--n", "0_4", "--jobs", "1"], "--n"),
        (["--n", "\uff14", "--jobs", "1"], "--n"),
        (["--n", "4", "--jobs", "0_1"], "--jobs"),
    ],
    ids=["underscore-in-rank", "fullwidth-rank", "underscore-in-jobs"],
)
def test_verify_options_take_only_ascii_digits(runner, args, option):
    # click's int types read 0_4 and the fullwidth 4 as 4, and ran the sweep
    result = runner.invoke(main, ["verify"] + args)
    assert result.exit_code == 2
    assert "Invalid value for '%s'" % option in result.output
    assert isinstance(result.exception, SystemExit)


def test_signs_and_surrounding_whitespace_still_make_an_integer(runner):
    plain = runner.invoke(main, ["compute", "-q", "n=4; 1>0,1>2,1>3", "-d", "0,1,1,1"])
    spaced = runner.invoke(main, ["compute", "-q", "n= 4 ; 1>0, +1> 2,1>3", "-d", " 0,+1, 1 ,1"])
    assert plain.exit_code == spaced.exit_code == 0
    assert spaced.output == plain.output
    plain = runner.invoke(main, ["verify", "--n", "4", "--jobs", "1"])
    spaced = runner.invoke(main, ["verify", "--n", " 4 ", "--jobs", " +1"])
    assert plain.exit_code == spaced.exit_code == 0
    assert spaced.output == plain.output


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_rejects_jobs_below_one(runner, monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    result = runner.invoke(main, ["verify", "--n", "4", "--jobs", jobs])
    assert result.exit_code == 2
    assert "--jobs" in result.output


def test_verify_caps_the_pool_at_the_orientation_count(runner, monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    result = runner.invoke(main, ["verify", "--n", "4", "--oracle", "tran", "--jobs", "64"])
    assert result.exit_code == 0
    assert "verified 96 instances" in result.output
    assert sizes == [8]


def test_a_worker_pool_prints_what_one_process_prints():
    # the only run of the pickled task path: two worker processes, no more
    code = (
        "import sys\n"
        "from dimercluster.cli import main\n"
        "main(['verify', '--n', '4', '--oracle', 'tran', '--jobs', sys.argv[1],"
        " '--explain', '-f', 'json'])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    outputs = []
    for jobs in ("2", "1"):
        result = subprocess.run(
            [sys.executable, "-c", code, jobs],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, "")
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["instances"] == 96


def test_a_worker_pool_verifies_tip_swap_pairs_as_one_process_does():
    # the pickled orbit task: each walked quiver and the rest of its ⟨σ, ρ⟩
    # orbit in one worker
    code = (
        "import sys\n"
        "from dimercluster.cli import main\n"
        "main(['verify', '--n', '5', '--jobs', sys.argv[1], '--explain', '-f', 'json'])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    outputs = []
    for jobs in ("2", "1"):
        result = subprocess.run(
            [sys.executable, "-c", code, jobs],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, "")
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert (payload["oracles"], payload["instances"]) == (["tran", "mutation"], 320)
    assert [r["quiver"] for r in payload["results"][::20]] == [
        format_quiver(q) for q in all_orientations(5)
    ]


@pytest.fixture()
def walked(monkeypatch):
    """The quivers walk_cluster_variables is called on, in call order."""
    calls = []

    def counted(quiver):
        calls.append(quiver)
        return walk_cluster_variables(quiver)

    monkeypatch.setattr(dimercluster.cli, "walk_cluster_variables", counted)
    monkeypatch.setattr(dimercluster.cluster_invariants, "walk_cluster_variables", counted)
    return calls


@pytest.mark.parametrize("oracles", ["tran,mutation", "mutation"])
@pytest.mark.parametrize("rank, walks", [(4, 3), (5, 6), (6, 12)])
def test_a_sweep_walks_the_first_quiver_of_each_tip_swap_and_reversal_orbit(
    runner, walked, oracles, rank, walks
):
    # one walk per ⟨σ, ρ⟩ orbit {Q, σQ, ρQ, σρQ}, by its first quiver in sweep order
    result = runner.invoke(main, ["verify", "--n", str(rank), "--oracle", oracles, "--jobs", "1"])
    assert result.exit_code == 0
    assert "all ok" in result.output
    quivers = all_orientations(rank)
    first = [
        q
        for i, q in enumerate(quivers)
        if all(
            quivers.index(m) >= i
            for m in (q.tips_swapped(), q.reversed(), q.tips_swapped().reversed())
        )
    ]
    assert walked == first
    assert len(walked) == walks


def test_a_tran_sweep_walks_no_quiver(runner, walked):
    result = runner.invoke(main, ["verify", "--n", "5", "--oracle", "tran", "--jobs", "1"])
    assert result.exit_code == 0
    assert walked == []


def test_a_single_quiver_is_walked_once(runner, walked):
    result = runner.invoke(main, ["verify", "-q", QC_SPEC, "-d", QC_ROOT])
    assert result.exit_code == 0
    assert walked == [parse_quiver(QC_SPEC)]


def test_importing_the_cli_does_not_import_multiprocessing():
    # verify imports it only when it starts a pool
    code = (
        "import sys\n"
        "import dimercluster.cli\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_exit_3_on_semantic_errors(runner):
    assert (
        runner.invoke(main, ["compute", "-q", QC_SPEC, "-d", "9,9,9,9,9"]).exit_code == 3
    )
    assert (
        runner.invoke(main, ["compute", "-q", QC_SPEC, "-d", "1,1"]).exit_code == 3
    )
    assert (
        runner.invoke(main, ["poset", "-q", QC_SPEC, "-d", "0,0,0,0,0"]).exit_code == 3
    )
    assert runner.invoke(main, ["verify", "--n", "3"]).exit_code == 3
    # well-formed quiver text that is no rank >= 4 type-D orientation
    for spec in (
        "n=3; 0>1, 1>2",  # rank below 4
        "n=5; 0>1, 1>2, 2>3",  # an edge left unoriented
        "n=4; 0>2, 1>2, 1>3",  # not an edge of the diagram
        "n=4; 0>1, 1>0, 1>2, 1>3",  # an edge oriented twice
    ):
        for args in (["verify", "-q", spec], ["basegraph", "-q", spec]):
            result = runner.invoke(main, args)
            assert result.exit_code == 3, (args, result.output)
            assert result.output.startswith("error: ") and result.output.count("\n") == 1


@pytest.mark.parametrize("rank", ["11", "40", "1000000"])
def test_verify_refuses_a_sweep_past_the_limit_at_once(runner, rank):
    start = time.perf_counter()
    result = runner.invoke(main, ["verify", "--n", rank, "--jobs", "1"])
    assert time.perf_counter() - start < 0.5
    assert result.exit_code == 3
    assert result.output.startswith("error: a rank-%s sweep" % rank)
    assert result.output.count("\n") == 1
    assert "Traceback" not in result.output


def test_sweep_limit_admits_rank_10():
    assert 2**9 * 10 * 9 <= dimercluster.cli.MAX_SWEEP_INSTANCES < 2**10 * 11 * 10


def alternating(n):
    """The orientation with every even vertex a source, as quiver text."""
    return "n=%d; %s" % (
        n,
        ", ".join("%d>%d" % ((a, b) if a % 2 == 0 else (b, a)) for a, b in dynkin_edges(n)),
    )


def linear(n):
    return "n=%d; %s" % (n, ", ".join("%d>%d" % (b, a) for a, b in dynkin_edges(n)))


def highest_root(n):
    return ",".join(map(str, (1,) + (2,) * (n - 3) + (1, 1)))


def test_verify_q_refuses_all_roots_past_the_sweep_limit_before_listing_them(
    runner, monkeypatch
):
    def no_roots(n):
        raise AssertionError("the roots were listed")

    monkeypatch.setattr(dimercluster.cli, "positive_roots", no_roots)
    start = time.perf_counter()
    result = runner.invoke(main, ["verify", "-q", linear(225)])
    assert time.perf_counter() - start < 0.5
    assert result.exit_code == 3
    assert result.output == (
        "error: a rank-225 quiver has 50400 roots, more than the 50000 instances "
        "-q allows without -d\n"
    )
    # rank 224 is within the limit
    assert 224 * 223 <= dimercluster.cli.MAX_SWEEP_INSTANCES < 225 * 224


def test_compute_checks_a_long_quiver_root_without_listing_the_roots(runner):
    start = time.perf_counter()
    result = runner.invoke(main, ["compute", "-q", linear(300), "-d", "1" + ",0" * 299])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 0
    assert "poset size: 2" in result.output


@pytest.mark.parametrize(
    "args, refusal",
    [
        (["compute", "-q", alternating(30), "-d", highest_root(30)], "the flip poset of root "),
        (["poset", "-q", alternating(30), "-d", highest_root(30)], "the flip poset of root "),
        (
            ["verify", "-q", alternating(30), "-d", highest_root(30), "--oracle", "tran"],
            "the flip poset of root ",
        ),
        # the roots' sum passes MAX_TOTAL_ELEMENTS before any one root passes
        # MAX_POSET_ELEMENTS
        (["verify", "-q", alternating(30), "--oracle", "tran"], "the flip posets of the first "),
    ],
    ids=["compute", "poset", "verify-root", "verify-all-roots"],
)
def test_a_poset_past_the_limit_is_refused_before_it_is_built(runner, monkeypatch, args, refusal):
    def no_build(*a, **kw):
        raise AssertionError("a flip poset was built")

    monkeypatch.setattr(FlipPoset, "__init__", no_build)
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 0.5
    assert result.exit_code == 3
    assert result.output.startswith("error: " + refusal)
    assert result.output.count("\n") == 1
    assert "Traceback" not in result.output


def test_the_poset_limit_is_on_size_not_rank(runner):
    # the linear rank-30 highest root: at most 521 elements
    result = runner.invoke(main, ["compute", "-q", linear(30), "-d", highest_root(30)])
    assert result.exit_code == 0
    assert "poset size: " in result.output


def roots_sum(spec, count=arrow_valid_count):
    """The sum of ``count`` over every root of a quiver: by default the frozen
    bound, which the limits read before they read exact sizes."""
    quiver = parse_quiver(spec)
    return sum(count(quiver, d) for d in positive_roots(quiver.n))


def test_verify_q_refuses_a_quiver_whose_roots_pass_the_total_limit(runner, monkeypatch):
    def no_build(*a, **kw):
        raise AssertionError("a flip poset was built")

    monkeypatch.setattr(FlipPoset, "__init__", no_build)
    start = time.perf_counter()
    result = runner.invoke(main, ["verify", "-q", linear(46), "--oracle", "tran"])
    assert time.perf_counter() - start < 2.0
    assert result.exit_code == 3
    assert result.output == (
        "error: the flip posets of the first 2065 of 2070 roots have 400870 elements "
        "in all, more than the 400000 -q allows without -d\n"
    )


def test_total_limit_admits_every_root_of_linear_rank_44_and_alternating_rank_14():
    # exact sizes: linear rank 45 is admitted too, and rank 46 is refused; the
    # bound refused rank 45 (425,876); a sweep never comes near the limit
    limit = dimercluster.cli.MAX_TOTAL_ELEMENTS
    assert roots_sum(alternating(14), poset_size) == 306_397 <= limit
    assert roots_sum(alternating(14)) == 342_655
    assert roots_sum(linear(45), poset_size) == 372_900 <= limit < roots_sum(linear(45)) == 425_876
    assert roots_sum(linear(46), poset_size) == 406_410 > limit
    assert max(roots_sum(format_quiver(q), poset_size) for q in all_orientations(10)) == 11_501


def test_poset_limit_admits_the_alternating_rank_14_highest_root():
    # the bound allowed 55,215 and 124,067
    rank14 = poset_size(parse_quiver(alternating(14)), map(int, highest_root(14).split(",")))
    rank15 = poset_size(parse_quiver(alternating(15)), map(int, highest_root(15).split(",")))
    assert rank14 == 49_427 <= dimercluster.cli.MAX_POSET_ELEMENTS < rank15 == 111_064


@pytest.mark.parametrize(
    "args, refusal",
    [
        (
            ["verify", "-q", linear(224), "--oracle", "tran"],
            "the flip posets of the first 10889 of 49952 roots have 400018 elements "
            "in all, more than the 400000 -q allows without -d",
        ),
        (
            ["verify", "-q", alternating(30), "--oracle", "tran"],
            "the flip posets of the first 465 of 870 roots have 400213 elements "
            "in all, more than the 400000 -q allows without -d",
        ),
        (
            ["verify", "-q", alternating(15), "--oracle", "tran"],
            "the flip posets of the first 207 of 210 roots have 447373 elements "
            "in all, more than the 400000 -q allows without -d",
        ),
        (
            ["compute", "-q", alternating(15), "-d", highest_root(15)],
            "the flip poset of root %s has 111064 elements, more than the 100000 allowed"
            % highest_root(15),
        ),
        (
            ["verify", "-q", linear(46), "--oracle", "tran"],
            "the flip posets of the first 2065 of 2070 roots have 400870 elements "
            "in all, more than the 400000 -q allows without -d",
        ),
    ],
    ids=["linear-224", "alternating-30", "alternating-15", "alternating-15-highest", "linear-46"],
)
def test_each_size_refusal_is_pinned(runner, monkeypatch, args, refusal):
    # exact counts from Tran's rules, each refused before any poset is built
    def no_build(*a, **kw):
        raise AssertionError("a flip poset was built")

    monkeypatch.setattr(FlipPoset, "__init__", no_build)
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert result.output == "error: %s\n" % refusal


@pytest.mark.parametrize(
    "args",
    [
        ["compute", "-q", QC_SPEC, "-d", QC_ROOT],
        ["poset", "-q", QC_SPEC, "-d", QC_ROOT, "-f", "text"],
    ],
    ids=["compute", "poset"],
)
def test_a_poset_that_is_not_the_counted_size_fails_the_self_check(runner, monkeypatch, args):
    # the search's element count against Tran's count, per built poset
    monkeypatch.setattr(dimercluster.cli, "poset_size", lambda quiver, d: poset_size(quiver, d) + 1)
    result = runner.invoke(main, args)
    assert isinstance(result.exception, AssertionError)
    assert str(result.exception) == (
        "root (1, 1, 2, 1, 1): the search found 13 elements, Tran's count 14"
    )


def test_lattice_diagnostics_past_the_limit_are_refused_before_any_order_query(
    runner, monkeypatch
):
    # the all-ones root of the rank-10 alternating orientation: a distributive
    # lattice of 157 elements
    args = ["poset", "-q", alternating(10), "-d", ",".join("1" * 10), "-f", "text"]
    plain = runner.invoke(main, args)
    assert plain.exit_code == 0
    assert plain.output.startswith("elements (157):")
    for name in ("is_lattice", "meet", "join", "n5_witness", "m3_witness"):
        monkeypatch.setattr(FlipPoset, name, lambda *a, **kw: pytest.fail("order query ran"))
    monkeypatch.setattr(FlipPoset, "__init__", lambda *a, **kw: pytest.fail("a poset was built"))
    result = runner.invoke(main, args + ["--lattice"])
    assert result.exit_code == 3
    assert result.output == (
        "error: --lattice diagnoses posets of at most %d elements; this one has 157\n"
        % dimercluster.cli.MAX_LATTICE_ELEMENTS
    )


def test_lattice_limit_admits_a_poset_of_its_size(runner, monkeypatch):
    # the rank-5 frozen poset has 13 elements
    args = ["poset", "-q", QC_SPEC, "-d", QC_ROOT, "-f", "text", "--lattice"]
    monkeypatch.setattr(dimercluster.cli, "MAX_LATTICE_ELEMENTS", 13)
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "lattice: non-distributive" in result.output
    monkeypatch.setattr(dimercluster.cli, "MAX_LATTICE_ELEMENTS", 12)
    assert runner.invoke(main, args).exit_code == 3


def test_verify_q_refuses_the_walk_past_its_rank_before_any_work(runner, monkeypatch):
    def no_walk(quiver):
        raise AssertionError("the quiver was walked")

    monkeypatch.setattr(dimercluster.cli, "walk_cluster_variables", no_walk)
    monkeypatch.setattr(dimercluster.cluster_invariants, "walk_cluster_variables", no_walk)
    rank = dimercluster.cli.MAX_WALK_RANK + 1
    args = ["verify", "-q", linear(rank), "-d", "1" + ",0" * (rank - 1)]
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 0.5
    assert result.exit_code == 3
    assert result.output == (
        "error: the mutation oracle walks quivers of rank at most %d; this one has rank %d\n"
        % (rank - 1, rank)
    )
    assert runner.invoke(main, args + ["--oracle", "tran"]).exit_code == 0


def test_walk_limit_admits_a_quiver_of_its_rank(runner, monkeypatch):
    args = ["verify", "-q", QC_SPEC, "-d", QC_ROOT, "--oracle", "mutation"]
    monkeypatch.setattr(dimercluster.cli, "MAX_WALK_RANK", 5)
    assert runner.invoke(main, args).exit_code == 0
    monkeypatch.setattr(dimercluster.cli, "MAX_WALK_RANK", 4)
    assert runner.invoke(main, args).exit_code == 3


def test_readme_states_every_cli_limit_at_its_value():
    # each "N (`cli.MAX_...`)" in the README, against the constant it names
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    stated = re.findall(r"([\d,]+)(?: \w+)?\s+\(`cli\.(MAX_[A-Z_]+)", text)
    limits = {name for name in vars(dimercluster.cli) if name.startswith("MAX_")}
    assert {name for _, name in stated} == limits
    for value, name in stated:
        assert int(value.replace(",", "")) == getattr(dimercluster.cli, name), name


@pytest.fixture()
def wrong_tran(monkeypatch):
    """Make the tran oracle's F-polynomial twice the true one."""

    def doubled(quiver, d):
        f = tran_f_polynomial(quiver, d)
        return f + f

    monkeypatch.setattr(dimercluster.cluster_invariants, "tran_f_polynomial", doubled)


def test_verify_names_the_mismatches_of_a_wrong_oracle(runner, wrong_tran):
    result = runner.invoke(main, ["verify", "-q", QC_SPEC, "-d", QC_ROOT, "--oracle", "tran", "-f", "json"])
    assert result.exit_code == 1
    [failure] = json.loads(result.output)["failures"]
    mismatches = failure["oracles"]["tran"]["mismatches"]
    assert mismatches["f"][0] == {"exponents": [0, 0, 0, 0, 0], "dimer": 1, "oracle": 2}
    assert len(mismatches["f"]) == dimercluster.cluster_invariants.MISMATCH_LIST_LIMIT
    assert mismatches["g"] == mismatches["laurent_dimer_only"] == mismatches["laurent_oracle_only"] == []


# sha256 of stdout; the output must not move.  The first three were taken
# before the flip poset computed each configuration's support once and closed
# its order lazily, the rest before the indented JSON of every command was
# written by ``cli._write_json`` instead of ``json.dumps``, the last before
# the closed-form roots and Tran's one-pass scorer.  The rank-9, -10 and -12
# instances are the alternating orientations with their highest roots; the
# rank-5 poset has an N5 witness, so its lattice diagnostics read the order
# closure.
PINNED_STDOUT = [
    (
        ["compute", "-q", "n=9; 0>1, 2>1, 2>3, 4>3, 4>5, 6>5, 6>7, 6>8",
         "-d", "1,2,2,2,2,2,2,1,1", "-f", "json", "--explain"],
        "3ffe1b99ca522b9c8b8a3f53048b6a10306e059396a77d64201cb405b7ea16d1",
    ),
    (
        ["compute", "-q", "n=10; 0>1, 2>1, 2>3, 4>3, 4>5, 6>5, 6>7, 8>7, 9>7",
         "-d", "1,2,2,2,2,2,2,2,1,1", "-f", "json", "--explain"],
        "97033609e9883609a87232a2095c115e76a764121fd0fd96616be043b6f4e611",
    ),
    (
        ["poset", "-q", "n=5; 1>0, 2>1, 3>2, 2>4", "-d", "1,1,2,1,1", "-f", "text", "--lattice"],
        "f510e2c2ead569ffe02a6a1e294e1175da89287cc955f812c1bfb2ab4f5134a2",
    ),
    (
        ["compute", "-q", "n=12; 0>1, 2>1, 2>3, 4>3, 4>5, 6>5, 6>7, 8>7, 8>9, 10>9, 11>9",
         "-d", "1,2,2,2,2,2,2,2,2,2,1,1", "-f", "json", "--explain"],
        "b14a69b89e360416bb69b4253075f966773117915904cbd8cc0753c26c2a6148",
    ),
    (
        ["basegraph", "-q", QC_SPEC, "-d", QC_ROOT, "-f", "json"],
        "6b946f8a036210f29cb43fdeb1446ee9c86bf2c5a13fe51d4b1579fbba0410c6",
    ),
    (
        ["poset", "-q", QC_SPEC, "-d", QC_ROOT, "-f", "json", "--lattice"],
        "e93f378c0a92342cbae73f40017146c33d8b86c23cb443b8daba5f876de2f026",
    ),
    (
        ["verify", "-q", QC_SPEC, "-f", "json", "--explain"],
        "042d125a32d60fca88cdda6c3030da45cb25b11a16300d09ebe0ff6d7aee4cf6",
    ),
    (
        ["verify", "--n", "5", "--explain", "-f", "json", "--jobs", "1"],
        "7b20f86aad81e976192903f15d926d5abec6d37d505b6263f35a31b42ba32dc0",
    ),
]


@pytest.mark.parametrize(
    "args, digest",
    PINNED_STDOUT,
    ids=[
        "compute-9", "compute-10", "poset-5",
        "compute-12", "basegraph-5", "poset-json-5", "verify-json-5", "verify-n5",
    ],
)
def test_stdout_is_pinned(runner, args, digest):
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


def test_rank5_lattice_output_is_pinned(runner):
    # poset --lattice in every format for every rank-5 orientation and root
    # with an entry 2, one digest over the concatenated stdout
    digest = hashlib.sha256()
    count = 0
    for quiver in all_orientations(5):
        for d in positive_roots(5):
            if 2 not in d:
                continue
            for fmt in ("json", "text", "dot"):
                root = ",".join(map(str, d))
                args = ["poset", "-q", format_quiver(quiver), "-d", root, "-f", fmt, "--lattice"]
                result = runner.invoke(main, args)
                assert result.exit_code == 0
                digest.update(result.output.encode())
            count += 1
    assert count == 48
    assert digest.hexdigest() == "36592f6bb34cf89d2b3627f7c2e79afe11c8b9898fcbbaae5d9c0b271b729f11"


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "131d9bc1d32205c2223e307f40044504ea849b3d69badcedd2392130ab8b21fd"),
        ("json", "54359bf94b1eb1ce3fcf2fbb516b84268f342b04fd95720f7ba4aa0303a2e105"),
        ("dot", "26fe378cf28753600b6dadb97eacd069ab56ff17c309228021c471d4ca427d24"),
    ],
)
def test_lattice_output_at_the_limit_is_pinned(runner, fmt, digest):
    # the all-ones root of this rank-10 orientation: a distributive lattice of
    # MAX_LATTICE_ELEMENTS = 128 elements, where both witness searches run to
    # the end; digests taken before the searches read the order masks
    quiver = "n=10; 0>1, 2>1, 3>2, 3>4, 4>5, 6>5, 7>6, 7>8, 7>9"
    args = ["poset", "-q", quiver, "-d", ",".join("1" * 10), "-f", fmt, "--lattice"]
    result = runner.invoke(main, args)
    assert (result.exit_code, result.stderr) == (0, "")
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def _basegraph_digest(runner, ranks):
    """(cases, digest): basegraph in every format for every orientation of
    the ranks, with no root and with each root that has an entry 2, one
    digest over the concatenated stdout."""
    digest = hashlib.sha256()
    count = 0
    for n in ranks:
        for quiver in all_orientations(n):
            for d in [None] + [d for d in positive_roots(n) if 2 in d]:
                for fmt in ("text", "json", "dot"):
                    args = ["basegraph", "-q", format_quiver(quiver), "-f", fmt]
                    if d is not None:
                        args += ["-d", ",".join(map(str, d))]
                    result = runner.invoke(main, args)
                    assert result.exit_code == 0
                    digest.update(result.output.encode())
                count += 1
    return count, digest.hexdigest()


def test_rank4_and_rank5_basegraph_output_is_pinned(runner):
    # taken before the per-edge record replaced the corner set, each edge's
    # tile list and the per-(edge, tile) classes
    assert _basegraph_digest(runner, (4, 5)) == (
        80,
        "71b63e44c61c139080d681fbe09ba89247b68e72ff85743f24e9cd289b1c6363",
    )


def test_rank6_and_rank7_basegraph_output_is_pinned(runner):
    # the first 2 of a root falls past position 2 and the brick sits at tile
    # 3 or 4, which ranks 4 and 5 never reach; taken before the tiles were
    # read off the staircase steps and the brick's sides
    assert _basegraph_digest(runner, (6, 7)) == (
        32 * 7 + 64 * 11,
        "de64cd6e533752ca882e19d7fb8986e3e2ae3e00fb8df895d8454d85cc65bd66",
    )


def test_mismatch_text_is_pinned(runner, wrong_tran):
    # the text report appends the failures as indented JSON
    result = runner.invoke(main, ["verify", "-q", QC_SPEC, "-d", QC_ROOT, "--oracle", "tran"])
    assert result.exit_code == 1
    assert (
        hashlib.sha256(result.output.encode()).hexdigest()
        == "734ff140f41db9b643e0d8c0d34441e5b6b9ad12be1b51abc05e29438651b6ed"
    )


# ---- indented JSON -------------------------------------------------------------------

_json_strings = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\x00\x08\t\n\x1f\x7f", "\u00e9\u2028\ud800\U0001f600", ""]
)
_json_ints = st.integers(min_value=-(2**80), max_value=2**80)
_json_trees = st.recursive(
    st.none() | st.booleans() | _json_ints | _json_strings,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.lists(_json_ints | st.booleans(), max_size=5)
    | st.dictionaries(_json_strings, kids, max_size=4),
    max_leaves=40,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_json_trees)
def test_write_json_is_json_dumps_byte_for_byte(tree):
    chunks = []
    dimercluster.cli._write_json(tree, "\n", chunks.append)
    assert "".join(chunks) == json.dumps(tree, indent=2, sort_keys=True)


# A polynomial is written from one %d row template (cli._write_rows):
# at depths 0-3 of a tree, widths 1-28 (and 0), negative exponents and
# coefficients up to 2^80, the zero polynomial included, it gives the bytes of
# its to_json.
_polynomials = st.integers(min_value=1, max_value=28).flatmap(
    lambda width: st.builds(
        LaurentPolynomial,
        st.lists(_json_strings, min_size=width, max_size=width),
        st.dictionaries(
            st.tuples(*[st.integers(min_value=-40, max_value=40)] * width), _json_ints, max_size=6
        ),
    )
)


def _inside(kids):
    return st.lists(kids | _json_ints, min_size=1, max_size=3) | st.dictionaries(
        _json_strings, kids | _json_ints, min_size=1, max_size=3
    )


_polynomial_trees = st.sampled_from([0, 1, 2, 3]).flatmap(
    lambda depth: functools.reduce(lambda kids, _: _inside(kids), range(depth), _polynomials)
)


def _as_tree(value):
    """value with each polynomial replaced by its to_json()."""
    if isinstance(value, LaurentPolynomial):
        return value.to_json()
    if isinstance(value, dict):
        return {k: _as_tree(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_tree(v) for v in value]
    return value


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_polynomial_trees)
@example(LaurentPolynomial(["u0", "u1"], {}))
@example({"constant": LaurentPolynomial([], {(): 3})})
@example({"f": [LaurentPolynomial(["x%d" % i for i in range(28)], {(-1,) * 28: -(2**80)})]})
@example([LaurentPolynomial(["u0"], {(0,): 2**80, (-3,): 1, (2,): -5})])
def test_write_json_writes_a_polynomial_as_its_to_json(tree):
    chunks = []
    dimercluster.cli._write_json(tree, "\n", chunks.append)
    assert "".join(chunks) == json.dumps(_as_tree(tree), indent=2, sort_keys=True)


# A table is written from one %d row template (cli._write_rows): at depths
# 0-3, with no row or up to 5, of ints and of int lists of width 0-28 under
# any names without a %, it gives the bytes of the list of dicts it stands for.
_row_fields = st.lists(
    st.tuples(
        _json_strings.filter(lambda name: "%" not in name),
        st.none() | st.integers(min_value=0, max_value=28),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda field: field[0],
).map(lambda fields: sorted(fields, key=lambda field: field[0]))
_row_tables = st.tuples(st.integers(min_value=0, max_value=3), _row_fields).flatmap(
    lambda table: st.tuples(
        st.just(table[0]),
        st.just(table[1]),
        st.lists(
            st.tuples(*[_json_ints] * sum(1 if w is None else w for _, w in table[1])),
            max_size=5,
        ),
    )
)


def _as_dicts(fields, rows):
    """The list of dicts that a flat row table stands for."""
    dicts = []
    for row in rows:
        values = iter(row)
        dicts.append({
            name: next(values) if width is None else [next(values) for _ in range(width)]
            for name, width in fields
        })
    return dicts


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_row_tables)
@example((0, [("coefficient", None), ("e", 0), ("x_exponents", 0)], [(1,)]))
@example((2, [("coefficient", None), ("exponents", 3)], []))
@example((1, [("x\n", 1), ("\u00e9", None)], [(-(2**80), 5)]))
def test_write_rows_is_json_dumps_of_its_dicts(table):
    depth, fields, rows = table
    newline = "\n" + "  " * depth
    chunks = []
    dimercluster.cli._write_rows(fields, iter(rows), newline, chunks.append)
    expected = json.dumps(_as_dicts(fields, rows), indent=2, sort_keys=True)
    assert "".join(chunks) == expected.replace("\n", newline)


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        {1, 2},
        {1: 2},
        [{"a": [0, 0.5]}],
        LaurentPolynomial(["u0", "u1"], {(0, 1.5): 1}),
        {"f": LaurentPolynomial(["u0", "u1"], {(True, 0): 1})},
        [LaurentPolynomial(["u0", "u1"], {(0, 0): 1, (1, 0): 2.5})],
    ],
    ids=[
        "float", "set", "int-key", "nested-float",
        "poly-float-exponent", "poly-bool-exponent", "poly-float-coefficient",
    ],
)
def test_write_json_refuses_what_the_commands_never_print(value):
    with pytest.raises(TypeError):
        dimercluster.cli._write_json(value, "\n", [].append)


@pytest.mark.parametrize("case", [0, 1], ids=["compute-9", "compute-10"])
def test_compute_writes_its_polynomials_without_their_json_trees(runner, monkeypatch, case):
    # the pinned compute output, byte for byte, with to_json unavailable
    def refuse(self):
        raise AssertionError("compute built a polynomial's JSON tree")

    monkeypatch.setattr(LaurentPolynomial, "to_json", refuse)
    args, digest = PINNED_STDOUT[case]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


UNSORTED_QUERIES = [
    ["compute", "-q", QC_SPEC, "-d", QC_ROOT, "-f", "json"],
    ["compute", "-q", QC_SPEC, "-d", QC_ROOT],
    PINNED_STDOUT[0][0][:-1],  # the alternating rank-9 highest root, no --explain
    ["verify", "-q", QC_SPEC, "-d", QC_ROOT, "--oracle", "tran"],
    ["verify", "-q", QC_SPEC, "-d", QC_ROOT, "--oracle", "tran", "-f", "json", "--explain"],
    ["verify", "-q", PINNED_STDOUT[0][0][2], "-d", "1,2,2,2,2,2,2,1,1", "--oracle", "tran"],
]


@pytest.mark.parametrize(
    "args", UNSORTED_QUERIES,
    ids=["compute-json", "compute-text", "compute-9", "verify", "verify-json", "verify-9"],
)
def test_a_query_sorts_no_elements_it_does_not_print(runner, monkeypatch, args):
    # compute without --explain and verify read the poset's coefficients
    # and never its graded-lex element list: the same bytes with it refused
    expected = runner.invoke(main, args)
    assert expected.exit_code == 0, expected.output

    def refuse(self):
        raise AssertionError("the query sorted the poset's elements")

    monkeypatch.setattr(FlipPoset, "elements", property(refuse))
    result = runner.invoke(main, args)
    assert (result.exit_code, result.output) == (0, expected.output)


def test_listed_elements_are_in_graded_lex_order(runner):
    # poset and compute --explain still list every element in graded-lex order
    spec, root = PINNED_STDOUT[0][0][2], "1,2,2,2,2,2,2,1,1"
    payload = json.loads(runner.invoke(main, ["poset", "-q", spec, "-d", root, "-f", "json"]).output)
    listed = [tuple(e) for e in payload["elements"]]
    assert listed == sorted(listed, key=lambda e: (sum(e), e)) and len(listed) == 861
    rows = json.loads(runner.invoke(main, PINNED_STDOUT[0][0]).output)["configurations"]
    assert [tuple(row["e"]) for row in rows] == listed
    text = runner.invoke(main, ["poset", "-q", spec, "-d", root, "-f", "text"]).output
    assert [line.split()[0] for line in text.splitlines()[1 : 1 + len(listed)]] == [
        ",".join(map(str, e)) for e in listed
    ]
    explained = runner.invoke(main, ["compute", "-q", spec, "-d", root, "--explain"]).output
    rows = explained.split("configurations (e | coefficient | weight exponents):\n")[1]
    assert [line.split(" | ")[0].strip() for line in rows.splitlines()] == [
        ",".join(map(str, e)) for e in listed
    ]


def test_the_output_is_written_as_it_is_made(tmp_path):
    # the compute payload of the alternating rank-10 highest root (1.1 MB of
    # JSON) and the Hasse diagram of the rank-11 one (1.3 MB of DOT) go to the
    # file without being held whole in memory: the writer peaks at 0.06x the
    # file (about 64 KB: buffers and one polynomial's sorted term list), a
    # joined string at 3.1x.  The parts are made inside the trace, so a
    # diagram built as one string shows, and the payload holds F and its
    # expansion themselves, as compute's does, so a JSON tree built from
    # them shows too.
    def instance(n):
        return FlipPoset(parse_quiver(alternating(n)), tuple(map(int, highest_root(n).split(","))))

    poset = instance(10)
    f, g = dimer_invariants(poset)
    laurent = expansion_from_f_and_g(poset.quiver, f, g)
    payload = {"f_polynomial": f, "laurent_expansion": laurent}
    hasse = instance(11)
    hasse.covers  # the poset's own table, read before the write is traced
    for name, make_parts in (("compute.json", lambda: [payload]), ("hasse.dot", hasse.hasse_dot)):
        target = tmp_path / name
        tracemalloc.start()
        try:
            dimercluster.cli._emit(str(target), make_parts())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert size > 1_000_000, name
        assert peak < size / 10, name
