"""Unit tests for the seed-mutation engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dimercluster.mutation_oracle
from dimercluster import laurent_poly
from dimercluster.laurent_poly import LaurentPolynomial, divide_exact, u_context, xy_context
from dimercluster.mutation_oracle import (
    Seed,
    denominator_vector,
    expansion_from_f_and_g,
    f_polynomial_from_expansion,
    g_vector_from_expansion,
    initial_seed,
    moved_atlas,
    mutate_ext,
    mutate_seed,
    walk_cluster_variables,
)
from dimercluster.quiver_core import Quiver, all_orientations, positive_roots

from frozen import (
    D5,
    D6,
    F_QA_AT_ONES,
    F_QA_COEFF2,
    F_QA_DUPLICATE_FIX,
    F_QA_TERM_COUNT,
    F_QC,
    G_QA,
    G_QC,
    LAURENT_QC,
    QA,
    QC,
    SEED_COUNTS,
    YHAT_QC,
)
from reference import (
    enumerate_cluster_variables,
    exchange_matrix,
    mirror_atlas,
    mutate_seed_by_variables,
    reversed_atlas,
)


def laurent_from_triples(n, triples):
    ctx = xy_context(n)
    return LaurentPolynomial(ctx, {tuple(x) + tuple(y): c for x, y, c in triples})


# ---- [TRIVIAL] seed basics ---------------------------------------------------


def test_initial_seed_blocks():
    q = Quiver(4, [(0, 1), (1, 2), (1, 3)])
    seed = initial_seed(q)
    assert seed.ext[:4] == tuple(tuple(-b for b in row) for row in exchange_matrix(q))
    assert seed.ext[4:] == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert seed.cluster[2] == LaurentPolynomial.variable(xy_context(4), "x2")


def test_initial_seed_is_the_frozen_exchange_matrix_ranks_4_to_10():
    # the top block, read off the arrows, is -B of the frozen matrix, and the
    # bottom block the identity
    for n in range(4, 11):
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for q in all_orientations(n):
            top = tuple(tuple(-b for b in row) for row in exchange_matrix(q))
            assert initial_seed(q).ext == top + identity


def test_mutation_at_sink():
    # [DERIVED] at a sink k the exchange gives (y_k + prod of in-neighbors)/x_k
    q = Quiver(4, [(0, 1), (2, 1), (3, 1)])
    seed = mutate_seed(initial_seed(q), 1)
    ctx = xy_context(4)
    expected = LaurentPolynomial(
        ctx,
        {
            (0, -1, 0, 0, 0, 1, 0, 0): 1,  # y1 / x1
            (1, -1, 1, 1, 0, 0, 0, 0): 1,  # x0 x2 x3 / x1
        },
    )
    assert seed.cluster[1] == expected


def test_mutation_at_source():
    # [DERIVED] at a source k the exchange gives (1 + y_k prod of out-neighbors)/x_k
    q = Quiver(4, [(1, 0), (1, 2), (1, 3)])
    seed = mutate_seed(initial_seed(q), 1)
    ctx = xy_context(4)
    expected = LaurentPolynomial(
        ctx,
        {
            (0, -1, 0, 0, 0, 0, 0, 0): 1,  # 1 / x1
            (1, -1, 1, 1, 0, 1, 0, 0): 1,  # y1 x0 x2 x3 / x1
        },
    )
    assert seed.cluster[1] == expected


def test_mutation_is_involutive():
    q = Quiver(5, [(1, 0), (2, 1), (3, 2), (2, 4)])
    seed = initial_seed(q)
    for k in (0, 2, 4):
        back = mutate_seed(mutate_seed(seed, k), k)
        assert back.cluster == seed.cluster
        assert back.ext == seed.ext


def test_matrix_mutation_rank2_block():
    # [TRIVIAL] worked 2x2 check inside a rank-4 matrix: path 0->1->2
    q = Quiver(4, [(0, 1), (1, 2), (1, 3)])
    ext = exchange_matrix(q) + ((0,) * 4,) * 4
    out = mutate_ext(ext, 1)
    # arrows through 1 compose: mutating at 1 creates 0 -> 2 and 0 -> 3
    assert out[0][2] == 1 and out[2][0] == -1
    assert out[0][3] == 1 and out[3][0] == -1
    # incident arrows reverse
    assert out[0][1] == -1 and out[1][2] == -1 and out[1][3] == -1


@st.composite
def mutation_sequences(draw, low=4, high=9):
    n = draw(st.integers(low, high))
    quiver = draw(st.sampled_from(all_orientations(n)))
    ks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=30))
    return quiver, ks


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(mutation_sequences())
def test_matrix_mutation_properties_along_random_sequences(instance):
    # involution at every step, skew-symmetric top block, and sign-coherent
    # c-vectors (the columns of the bottom block)
    quiver, ks = instance
    n = quiver.n
    ext = initial_seed(quiver).ext
    for k in ks:
        nxt = mutate_ext(ext, k)
        assert mutate_ext(nxt, k) == ext
        ext = nxt
        top, bottom = ext[:n], ext[n:]
        assert all(top[i][j] == -top[j][i] for i in range(n) for j in range(n))
        for column in zip(*bottom):
            assert all(c >= 0 for c in column) or all(c <= 0 for c in column)


# ---- the frozen per-variable mutation ------------------------------------------


def same_seed(seed, k):
    """The package's mutation of seed at k, after checking it against the
    frozen per-variable one (with the per-entry matrix mutation), cluster
    and extended matrix."""
    got, want = mutate_seed(seed, k), mutate_seed_by_variables(seed, k)
    assert got.cluster == want.cluster and got.ext == want.ext
    return got


@pytest.mark.parametrize("rank", [4, 5, 6, 7])
def test_every_seed_of_every_walk_matches_the_per_variable_mutation(monkeypatch, rank):
    compared = []

    def checked(seed, k):
        compared.append(k)
        return same_seed(seed, k)

    monkeypatch.setattr(dimercluster.mutation_oracle, "mutate_seed", checked)
    for q in all_orientations(rank):
        assert set(walk_cluster_variables(q)) == set(positive_roots(rank))
    assert len(compared) == {4: 96, 5: 338, 6: 960, 7: 2818}[rank]


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(mutation_sequences(8, 9))
def test_mutation_matches_the_per_variable_mutation_at_ranks_8_and_9(instance):
    quiver, ks = instance
    seed = initial_seed(quiver)
    for k in ks:
        seed = same_seed(seed, k)


# ---- invariant extraction ----------------------------------------------------


def test_extractors_on_initial_variable():
    q = Quiver(4, [(0, 1), (1, 2), (1, 3)])
    x0 = initial_seed(q).cluster[0]
    one = LaurentPolynomial.monomial(u_context(4), (0, 0, 0, 0))
    assert f_polynomial_from_expansion(x0, 4) == one
    assert g_vector_from_expansion(x0, 4) == (1, 0, 0, 0)
    assert denominator_vector(x0, 4) == (-1, 0, 0, 0)


def test_hatted_coefficients_frozen():
    # [PAPER] all five published hatted coefficients for the rank-5 instance,
    # each read as x^0 * F(yhat) for F = u_i
    for i, exps in enumerate(YHAT_QC):
        u_i = LaurentPolynomial.variable(u_context(5), "u%d" % i)
        got = expansion_from_f_and_g(QC, u_i, (0,) * 5)
        assert got == LaurentPolynomial(xy_context(5), {exps: 1})


# ---- frozen instances --------------------------------------------------------


def test_rank5_instance_full_expansion():
    # [PAPER]/[DERIVED] Laurent expansion, F-polynomial, g-vector for (QC, D5)
    var = walk_cluster_variables(QC)[D5]
    assert var == laurent_from_triples(5, LAURENT_QC)
    f = f_polynomial_from_expansion(var, 5)
    assert f == LaurentPolynomial(u_context(5), F_QC)
    assert g_vector_from_expansion(var, 5) == G_QC
    assert denominator_vector(var, 5) == D5


def test_rank6_instance_f_and_g():
    # [DERIVED] corrected F-polynomial facts and g-vector for (QA, D6)
    var = walk_cluster_variables(QA)[D6]
    f = f_polynomial_from_expansion(var, 6)
    assert len(f.terms) == F_QA_TERM_COUNT
    assert sum(f.terms.values()) == F_QA_AT_ONES
    for e in F_QA_COEFF2:
        assert f.coefficient(e) == 2
    assert f.coefficient(F_QA_DUPLICATE_FIX) == 1
    assert sorted(f.terms.values()).count(2) == len(F_QA_COEFF2)
    assert g_vector_from_expansion(var, 6) == G_QA


def test_expansion_recombines_from_f_and_g():
    # x^g * F(yhat) reproduces the engine expansion exactly
    for quiver, d in ((QC, D5), (QA, D6)):
        var = walk_cluster_variables(quiver)[d]
        n = quiver.n
        f = f_polynomial_from_expansion(var, n)
        g = g_vector_from_expansion(var, n)
        assert expansion_from_f_and_g(quiver, f, g) == var


def test_expansion_refuses_an_f_or_g_of_another_width():
    # both gave terms of width 11 in the 10-variable context of rank 5
    var = walk_cluster_variables(QC)[D5]
    f, g = f_polynomial_from_expansion(var, 5), g_vector_from_expansion(var, 5)
    with pytest.raises(ValueError, match="g must have 5 entries, not 6"):
        expansion_from_f_and_g(QC, f, g + (7,))
    with pytest.raises(ValueError, match="g must have 5 entries, not 4"):
        expansion_from_f_and_g(QC, f, g[:4])
    rank6 = f_polynomial_from_expansion(walk_cluster_variables(QA)[D6], 6)
    with pytest.raises(laurent_poly.ContextError, match=r"F must live in u_context\(5\)"):
        expansion_from_f_and_g(QC, rank6, g)
    renamed = LaurentPolynomial(("v0", "v1", "v2", "v3", "v4"), f.terms)
    with pytest.raises(laurent_poly.ContextError):
        expansion_from_f_and_g(QC, renamed, g)


def test_unknown_root_rejected():
    # (1,0,0,0,1) is no root, so no cluster variable has it as denominator
    assert (1, 0, 0, 0, 1) not in walk_cluster_variables(QC)


# ---- walk vs exhaustive enumeration ------------------------------------------


def test_walk_matches_bfs_rank4_all_orientations():
    # [DERIVED] the sweep walk and the full exchange-graph BFS agree exactly
    for q in all_orientations(4):
        walk = walk_cluster_variables(q)
        bfs, seed_count = enumerate_cluster_variables(q)
        assert walk == bfs
        assert seed_count == SEED_COUNTS[4]
        assert set(walk) == set(positive_roots(4))


def test_walk_matches_bfs_rank5_spot():
    walk = walk_cluster_variables(QC)
    bfs, seed_count = enumerate_cluster_variables(QC)
    assert walk == bfs
    assert seed_count == SEED_COUNTS[5]


def test_walk_matches_bfs_rank6_spot():
    walk = walk_cluster_variables(QA)
    bfs, seed_count = enumerate_cluster_variables(QA)
    assert walk == bfs
    assert seed_count == SEED_COUNTS[6]


@pytest.mark.parametrize("n, mutations", [(5, 338), (6, 960)])
def test_walk_returns_once_the_atlas_is_full(monkeypatch, n, mutations):
    # mutations over every orientation: the walk returns at the one that finds
    # the n(n - 1)-th variable (finishing the sweep took 440 at rank 5 and
    # 1,152 at rank 6)
    calls = []

    def counted(seed, k):
        calls.append(k)
        return mutate_seed(seed, k)

    monkeypatch.setattr(dimercluster.mutation_oracle, "mutate_seed", counted)
    for q in all_orientations(n):
        assert set(walk_cluster_variables(q)) == set(positive_roots(n))
    assert len(calls) == mutations


def test_the_rank6_walks_decode_only_quotient_terms(monkeypatch):
    # the division reads both operands' exponent boxes as they are carried,
    # so the walk decodes one key per quotient term and no numerator key
    # (reading the numerators' boxes off their terms decoded 55,674 more)
    decode = laurent_poly._Layout.decode
    counts = {"decodes": 0, "quotient terms": 0}

    def counted_decode(layout, key):
        counts["decodes"] += 1
        return decode(layout, key)

    def counted_divide(numerator, denominator):
        quotient = divide_exact(numerator, denominator)
        counts["quotient terms"] += len(quotient.terms)
        return quotient

    monkeypatch.setattr(laurent_poly._Layout, "decode", counted_decode)
    monkeypatch.setattr(dimercluster.mutation_oracle, "divide_exact", counted_divide)
    for q in all_orientations(6):
        walk_cluster_variables(q)
    assert counts == {"decodes": 8928, "quotient terms": 8928}


def test_walk_atlas_properties_rank6():
    # [DERIVED] every expansion is Laurent-positive with unit constant F-term
    # and top F-term u^d; denominators match the atlas key
    atlas = walk_cluster_variables(QA)
    assert set(atlas) == set(positive_roots(6))
    for d, var in atlas.items():
        assert all(c > 0 for c in var.terms.values())
        f = f_polynomial_from_expansion(var, 6)
        assert f.coefficient((0,) * 6) == 1
        assert f.coefficient(d) == 1
        assert max(f.terms, key=lambda e: (sum(e), e)) == d
        assert denominator_vector(var, 6) == d


# ---- the tip swap and the reversal ------------------------------------------------


@pytest.fixture(scope="module")
def rank7_atlases():
    return {q: walk_cluster_variables(q) for q in all_orientations(7)}


def sweep_atlases(request, rank):
    """Every rank-n orientation's walk: the sweep fixtures' at ranks 4-6,
    walked once per module at rank 7."""
    if rank < 7:
        entries = request.getfixturevalue("sweep%d" % rank).entries
        atlases = {entry.quiver: entry.atlas for entry in entries}
    else:
        atlases = request.getfixturevalue("rank7_atlases")
    assert len(atlases) == 2 ** (rank - 1)
    return atlases


def check_moved_atlases(request, rank, moves):
    """``moved_atlas`` of every rank-n walk, for each (swap, reverse) move:
    the walk of Q moved by it, and the frozen maps' atlas (σρ the mirror of
    the reversed atlas); no move gives the walk itself."""
    atlases = sweep_atlases(request, rank)
    for q, atlas in atlases.items():
        for swap, reverse in moves:
            moved = moved_atlas(atlas, rank, swap, reverse)
            member, frozen = q, atlas
            if reverse:
                member, frozen = member.reversed(), reversed_atlas(frozen, rank)
            if swap:
                member, frozen = member.tips_swapped(), mirror_atlas(frozen, rank)
            assert moved == atlases[member] == frozen, (q, swap, reverse)
            assert (moved is atlas) == (not (swap or reverse))


@pytest.mark.parametrize("rank", [4, 5, 6, 7])
def test_the_mirrored_atlas_is_the_walk_of_the_mirrored_quiver(request, rank):
    # [DERIVED] σ (n-2 <-> n-1) is an automorphism of the diagram carrying Q's
    # initial seed to σQ's: σQ's atlas is Q's with the tips' x and y variables
    # and key entries exchanged, keys and polynomials; Q's own is Q's walk
    check_moved_atlases(request, rank, [(False, False), (True, False)])


@pytest.mark.parametrize("rank", [4, 5, 6, 7])
def test_the_reversed_atlas_is_the_walk_of_the_reversed_quiver(request, rank):
    # [DERIVED] ρ reverses every arrow and dualizes the representations,
    # Gr_e(DM) ≅ Gr_{d-e}(M): ρQ's variable at d is Q's with y^b -> y^(d-b)
    # and the x-part kept; σρQ's is the mirror of that, in one pass
    check_moved_atlases(request, rank, [(False, True), (True, True)])
