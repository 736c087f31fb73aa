"""Fuzz the command line: whatever ``-q``, ``-d`` and ``--oracle`` text
``compute`` and ``verify`` receive, they exit 0, 2 (usage) or 3 (semantic),
and never with an uncaught exception or a traceback.

The text is drawn from near-valid quivers and roots at ranks 4 and 5, edited
token by token, and from free text over the characters the syntax uses.  A
rank written in the text may be huge (``n=1000000``), but then the arrows do
not fit it, so no case builds a large instance.  The profile is derandomized,
so every run draws the same cases.
"""

import time

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from dimercluster.cli import main
from dimercluster.cluster_invariants import ORACLE_NAMES
from dimercluster.quiver_core import all_orientations, positive_roots

SYNTAX = "n=0123456789;>, -+_\t٣"
EDITS = ("drop", "duplicate", "reverse", "garbage")


def free_text(max_size=24):
    return st.text(alphabet=SYNTAX, max_size=max_size)


@st.composite
def quiver_texts(draw, rank):
    quiver = draw(st.sampled_from(all_orientations(rank)))
    arrows = ["%d>%d" % a for a in sorted(quiver.arrows)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        edit = draw(st.sampled_from(EDITS))
        i = draw(st.integers(0, len(arrows) - 1))
        if edit == "drop":
            arrows.pop(i)
        elif edit == "duplicate":
            arrows.append(arrows[i])
        elif edit == "reverse":
            t, _, h = arrows[i].partition(">")
            arrows[i] = "%s>%s" % (h, t)
        else:
            arrows[i] = draw(free_text(6))
    head = draw(st.sampled_from(["n=%d" % rank] * 4 + ["n=%d " % rank, "n=%d" % (rank - 3), "n=1000000"]))
    return "%s; %s" % (head, ", ".join(arrows))


@st.composite
def root_texts(draw, rank):
    if draw(st.integers(0, 2)):
        d = draw(st.sampled_from(positive_roots(rank)))
    else:
        d = draw(st.lists(st.integers(-3, 3), min_size=rank - 1, max_size=rank + 1))
    return ",".join(map(str, d))


@st.composite
def instances(draw):
    """(quiver text, root text) of one rank, each of them possibly free text."""
    rank = draw(st.integers(4, 5))
    quiver = draw(quiver_texts(rank) if draw(st.integers(0, 3)) else free_text())
    root = draw(root_texts(rank) if draw(st.integers(0, 3)) else free_text(12))
    return quiver, root


oracle_texts = st.one_of(
    st.sampled_from(["tran", "mutation", "tran,mutation", "mutation, tran"]),
    st.lists(st.sampled_from(ORACLE_NAMES + ("bogus", " ", "")), max_size=3).map(",".join),
    free_text(8),
)


def assert_clean_exit(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3), (args, result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    assert "Traceback" not in result.output, args


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(instances())
def test_compute_exits_cleanly(instance):
    quiver, root = instance
    assert_clean_exit(["compute", "-q", quiver, "-d", root])


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(instances(), st.booleans(), oracle_texts)
def test_verify_exits_cleanly(instance, every_root, oracles):
    quiver, root = instance
    args = ["verify", "-q", quiver, "--oracle", oracles, "--jobs", "1"]
    if not every_root:
        args += ["-d", root]
    assert_clean_exit(args)


def test_huge_rank_fails_fast_with_one_short_line():
    start = time.perf_counter()
    result = CliRunner().invoke(main, ["compute", "-q", "n=1000000; 1>0", "-d", "1"])
    assert time.perf_counter() - start < 5
    assert result.exit_code == 3
    assert result.output.startswith("error: ") and result.output.count("\n") == 1
    assert len(result.output) < 120
