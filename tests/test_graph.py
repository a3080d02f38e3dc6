"""Graph and hypergraph similarity construction."""

import time

import numpy as np
import pytest
from graph_reference import csgraph_lcc, dense_incidence, dense_similarity, id_pair
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from jointnmf.errors import DataError, EmptyGraph, IndexOutOfRange, ShapeMismatch, ZeroDegree
from jointnmf.graph import (
    _hypergraph_similarity,
    _largest_connected_component,
    normalized_adjacency,
    read_edge_list,
    read_hyperedges,
    similarity,
    symmetrize,
)
from jointnmf.matrix import read_records


def triangle():
    return symmetrize([(0, 1), (1, 2), (2, 0)], n_vertices=3)


def incidence(edge_lists, n):
    return sparse.csc_array(dense_incidence(edge_lists, n))


# ---------------------------------------------------------------------------
# construction and validation


def test_symmetrize_triangle():
    A = triangle().toarray()
    assert (A == A.T).all()
    assert (np.diag(A) == 0.0).all()
    assert A.sum() == 6.0


def test_symmetrize_drops_self_loops_and_duplicates():
    A = symmetrize([(0, 0), (0, 1), (1, 0), (0, 1)], n_vertices=2)
    assert isinstance(A, sparse.csc_array)
    assert (A.toarray() == np.array([[0.0, 1.0], [1.0, 0.0]])).all()


def test_symmetrize_takes_an_edge_array_as_it_takes_pairs():
    pairs = [(0, 0), (0, 1), (1, 0), (2, 1), (3, 1), (0, 1)]
    for n in (None, 6):
        expect = symmetrize(pairs, n_vertices=n)
        got = symmetrize(np.array(pairs, dtype=np.int64), n_vertices=n)
        assert got.shape == expect.shape
        assert (got != expect).nnz == 0


def test_symmetrize_takes_an_empty_edge_list():
    for edges in ([], np.empty((0, 2), dtype=np.int64)):
        assert symmetrize(edges).shape == (0, 0)
        A = symmetrize(edges, n_vertices=3)
        assert A.shape == (3, 3) and A.nnz == 0


def test_symmetrize_infers_vertex_count():
    assert symmetrize([(0, 3)]).shape == (4, 4)


def test_symmetrize_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        symmetrize([(0, 5)], n_vertices=3)
    with pytest.raises(IndexOutOfRange):
        symmetrize([(-1, 0)], n_vertices=3)
    for n in (3, None):
        for far in (2**64, 10**400):
            with pytest.raises(IndexOutOfRange):
                symmetrize([(0, 1), (1, far)], n_vertices=n)


def test_symmetrize_takes_only_pairs():
    with pytest.raises(ValueError, match=r"^edges must be pairs, got an array of shape \(1, 3\)$"):
        symmetrize([(0, 1, 2)])


@pytest.mark.parametrize("call, message", [
    (lambda: similarity(hyperedges=([0, 0.5, 1.7], [3]), n=None), "vertex id 0.5"),
    (lambda: symmetrize([(0, 1), (0.2, 1.8)]), "vertex id 0.2"),
    (lambda: similarity([(True, False)], n=None, raw_adjacency=True), "vertex id True"),
    (lambda: similarity(hyperedges=([0, 1, 2], [2.5, 1]), n=None), "hyperedge size 2.5"),
    (lambda: similarity([(0, 1), (1, 2)], n=3, within=[0, 1.2, 2.9]), "position 1.2"),
], ids=["hyperedge-ids", "symmetrize-ids", "boolean-ids", "hyperedge-sizes", "within"])
def test_a_value_that_is_not_an_integer_is_refused_by_name(call, message):
    # each used to be cast to int64 silently: ids 0.5 and 1.7 read as the
    # edge {0, 1}, and True and False as the pair (1, 0)
    with pytest.raises(ValueError, match=f"^{message} is not an integer$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: similarity([(0, 1), (1, 2)], n=3.5), "n must be an integer, got 3.5"),
    (lambda: similarity([(0, 1)], n=True), "n must be an integer, got True"),
    (lambda: similarity(hyperedges=([0, 1], [2]), n=True, dual=True),
     "n must be an integer, got True"),
    (lambda: similarity([(0, 1)], n=-1), "n must be at least 0"),
    (lambda: symmetrize([(0, 1), (1, 2)], n_vertices=2.7), "n_vertices must be an integer, got 2.7"),
], ids=["n-fraction", "n-bool", "dual-n-bool", "n-negative", "n_vertices-fraction"])
def test_a_vertex_count_passes_the_count_rule(call, message):
    # n=3.5 and n_vertices=2.7 used to fail inside scipy with a bare
    # TypeError, and n=True built S over one document
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_whole_floats_are_ids():
    for n in (None, 4):
        assert_identical(symmetrize([(0.0, 1.0), (3.0, 1.0)], n), symmetrize([(0, 1), (3, 1)], n))


def test_hypergraph_from_edges_dedupes_within_edge():
    # vertex 1 listed twice in the first edge is one incidence
    S, _ = similarity(hyperedges=id_pair([[0, 1, 1], [1, 2]]), n=3)
    expect, _ = similarity(hyperedges=id_pair([[0, 1], [1, 2]]), n=3)
    assert (S != expect).nnz == 0
    with pytest.raises(IndexOutOfRange):
        similarity(hyperedges=id_pair([[0, 9]]), n=3)


# ids around the range checks: negative, gaps, past n = 4 or 13, int64 max
# (whose vertex count does not fit 64 bits) and past int64
pair_ids = st.one_of(st.integers(-2, 12), st.sampled_from([2**63 - 1, 2**64]))


def raised(f, *args, **kwargs):
    """(error type, message) of the call, or None if it returns."""
    try:
        f(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def id_check(outcome):
    return outcome if outcome is not None and outcome[0] is IndexOutOfRange else None


@settings(max_examples=300)
@given(pairs=st.lists(st.tuples(pair_ids, pair_ids), max_size=5), n=st.sampled_from([None, 4, 13]))
@example(pairs=[(0, 5)], n=4)
def test_edges_and_two_vertex_hyperedges_pass_one_id_check(pairs, n):
    # what follows the id check differs by source (a self-loop is no edge
    # pair, but a one-vertex hyperedge), so only its outcome is compared
    got = raised(symmetrize, pairs, n)
    assert got is None or got[0] is IndexOutOfRange
    edges = raised(similarity, pairs, n=n, raw_adjacency=True)
    assert id_check(edges) == id_check(raised(similarity, hyperedges=id_pair(pairs), n=n))
    if n is not None:
        assert id_check(edges) == got


@settings(max_examples=300)
@given(pairs=st.lists(st.tuples(pair_ids, pair_ids), max_size=5))
@example(pairs=[(0, 1), (1, 300)])
@example(pairs=[])
@example(pairs=[(0, 0)])
def test_edges_and_two_vertex_hyperedges_infer_one_n(pairs):
    got = raised(similarity, pairs, n=None, raw_adjacency=True)
    want = raised(similarity, hyperedges=id_pair(pairs), n=None)
    if want is None and all(a == b for a, b in pairs):
        # the one n passed, but self-loops leave no edge pair, while a
        # one-vertex hyperedge is an edge
        want = EmptyGraph, "graph has no edges"
    assert got == want


def test_hypergraph_from_edges_names_the_first_edge_and_its_smallest_id_outside():
    with pytest.raises(IndexOutOfRange, match=r"^edge 1 references vertex -2 outside \[0, 3\)$"):
        similarity(hyperedges=id_pair([[0, 2], [5, -1, 1, -2], [-7]]), n=3)
    with pytest.raises(IndexOutOfRange, match="does not fit 64 bits"):
        similarity(hyperedges=id_pair([[0], [2**63]]), n=None)


# ---------------------------------------------------------------------------
# normalized adjacency


def test_normalized_adjacency_triangle():
    S = normalized_adjacency(triangle()).toarray()
    expect = 0.5 * (np.ones((3, 3)) - np.eye(3))
    assert np.max(np.abs(S - expect)) <= 1e-14


def test_normalized_adjacency_star():
    S = normalized_adjacency(symmetrize([(0, 1), (0, 2), (0, 3)], n_vertices=4)).toarray()
    assert abs(S[0, 1] - 1.0 / np.sqrt(3.0)) <= 1e-14
    assert S[1, 2] == 0.0


def test_normalized_adjacency_zero_degree():
    with pytest.raises(ZeroDegree):
        normalized_adjacency(symmetrize([(0, 1)], n_vertices=3))


def test_normalized_adjacency_empty_graph():
    with pytest.raises(EmptyGraph):
        normalized_adjacency(sparse.csc_array((0, 0)))


def test_normalized_adjacency_eigen_property():
    # sqrt(degree) is a fixed vector: S sqrt(d) = sqrt(d)
    rng = np.random.default_rng(21)
    for t in range(10):
        n = int(rng.integers(4, 12))
        pairs = {
            (int(a), int(b))
            for a, b in rng.integers(0, n, (3 * n, 2))
            if a != b
        }
        pairs.update((i, (i + 1) % n) for i in range(n))  # connected, all degrees > 0
        A = symmetrize(sorted(pairs), n_vertices=n)
        S = normalized_adjacency(A)
        v = np.sqrt(A.sum(axis=1))
        assert np.max(np.abs(S @ v - v)) <= 1e-12


# ---------------------------------------------------------------------------
# hypergraph similarity


def test_hypergraph_similarity_single_edge():
    S = _hypergraph_similarity(incidence([[0, 1]], 2)).toarray()
    assert np.max(np.abs(S - 0.5)) <= 1e-14


def test_hypergraph_similarity_triangle_exact():
    S = _hypergraph_similarity(incidence([[0, 1], [1, 2], [2, 0]], 3)).toarray()
    expect = 0.25 * np.ones((3, 3)) + 0.25 * np.eye(3)
    assert np.max(np.abs(S - expect)) <= 1e-14


def test_hypergraph_similarity_single_vertex():
    assert _hypergraph_similarity(incidence([[0]], 1)).toarray().tolist() == [[1.0]]


def test_hypergraph_similarity_errors():
    # similarity reaches this with a given n and a vertex in no edge
    with pytest.raises(ZeroDegree, match="^vertex 1 belongs to no edge$"):
        _hypergraph_similarity(incidence([[0]], 2))


def test_hypergraph_similarity_symmetric_on_random_instances():
    rng = np.random.default_rng(22)
    for _ in range(25):
        n = int(rng.integers(3, 10))
        edges = []
        for _ in range(int(rng.integers(2, 7))):
            size = int(rng.integers(1, n + 1))
            edges.append(list(rng.choice(n, size=size, replace=False)))
        edges.append(list(range(n)))  # no zero-degree vertices
        S = _hypergraph_similarity(incidence(edges, n)).toarray()
        assert np.max(np.abs(S - S.T)) <= 1e-14


def memberships(hyperedges):
    """The hyperedges of the dual: per vertex id, in order, the hyperedges it is in."""
    ids = sorted({v for e in hyperedges for v in e})
    return [[j for j, e in enumerate(hyperedges) if v in e] for v in ids]


def test_dual_hypergraph_swaps_roles_and_involutes():
    # the dual's documents are the hyperedges, its edges the vertex ids
    hyperedges = [[0, 1], [1, 2, 3]]
    S, kept = similarity(hyperedges=id_pair(hyperedges), n=2, dual=True)
    expect, _ = similarity(hyperedges=id_pair(memberships(hyperedges)), n=2)
    assert (S != expect).nnz == 0 and kept.tolist() == [0, 1]
    assert memberships(memberships(hyperedges)) == hyperedges
    S, _ = similarity(hyperedges=id_pair(memberships(hyperedges)), n=4, dual=True)
    assert (S != similarity(hyperedges=id_pair(hyperedges), n=4)[0]).nnz == 0


# ---------------------------------------------------------------------------
# the similarity builder


@st.composite
def similarity_calls(draw):
    """Keyword arguments of a similarity call whose ids pass the range
    check: either source, n given or inferred, with and without within,
    dual and raw_adjacency."""
    source = draw(st.sampled_from(["edges", "hyperedges", "dual"]))
    top = draw(st.integers(1, 8))
    vertex = st.integers(0, top - 1)
    if source == "edges":
        lists = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
        kw = {"edges": lists, "raw_adjacency": draw(st.booleans())}
    else:
        lists = draw(st.lists(st.lists(vertex, max_size=4), max_size=8))
        kw = {"hyperedges": id_pair(lists), "dual": source == "dual"}
    if source == "dual":
        size = len(lists)
        kw["n"] = draw(st.sampled_from([None, size]))
    else:
        kw["n"] = draw(st.one_of(st.none(), st.integers(top, top + 2)))
        size = kw["n"] if kw["n"] is not None else 1 + max((v for e in lists for v in e),
                                                           default=-1)
    if draw(st.booleans()):
        kw["within"] = sorted(draw(st.sets(st.integers(0, size - 1)))) if size else []
    return kw


@settings(max_examples=600)
@given(kw=similarity_calls())
@example(kw={"edges": [], "n": None, "raw_adjacency": True})
@example(kw={"edges": [(0, 1), (1, 2), (2, 3)], "n": 4, "raw_adjacency": False,
             "within": [1, 2, 3]})
@example(kw={"hyperedges": id_pair([[0, 1], [2, 3], [1, 2]]), "n": 4, "dual": False,
             "within": [0, 1]})
def test_similarity_equals_the_dense_formulas(kw):
    try:
        expect, kept = dense_similarity(**kw)
    except (ZeroDegree, EmptyGraph) as exc:
        with pytest.raises(type(exc)):
            similarity(**kw)
        return
    S, got = similarity(**kw)
    assert isinstance(S, sparse.csc_array) and S.shape == expect.shape
    assert got.tolist() == kept.tolist()
    assert np.array_equal(S.toarray() != 0, expect != 0)
    assert np.max(np.abs(S.toarray() - expect), initial=0.0) <= 1e-14


def random_sources(rng, n):
    """Edges with a ring (no zero degree) and hyperedges covering 0..n-1."""
    ring = [(i, (i + 1) % n) for i in range(n)]
    edges = ring + [tuple(int(v) for v in rng.choice(n, 2)) for _ in range(n)]
    hyperedges = [[i, int(rng.integers(n))] for i in range(n)]
    hyperedges += [list(rng.choice(n, int(rng.integers(1, 5)), replace=False))
                   for _ in range(n // 2)]
    return edges, hyperedges


def assert_identical(S, ref):
    assert S.shape == ref.shape
    assert np.array_equal(S.toarray(), ref.toarray())


def test_similarity_matches_the_chains_it_replaces():
    # the steps called one after another give what similarity gives
    rng = np.random.default_rng(41)
    for _ in range(8):
        n = int(rng.integers(5, 30))
        edges, hyperedges = random_sources(rng, n)
        A = symmetrize(edges, n_vertices=n)
        S, kept = similarity(edges, n=n)
        assert_identical(S, normalized_adjacency(A))
        assert kept.tolist() == list(range(n))
        S, _ = similarity(edges, n=n, raw_adjacency=True)
        assert_identical(S, A)
        M = incidence(hyperedges, n)
        S, _ = similarity(hyperedges=id_pair(hyperedges), n=n)
        assert_identical(S, _hypergraph_similarity(M))
        S, kept = similarity(hyperedges=id_pair(hyperedges), n=len(hyperedges), dual=True)
        assert_identical(S, _hypergraph_similarity(M.T.tocsc()))
        assert kept.tolist() == list(range(len(hyperedges)))


def test_similarity_within_matches_restrict_component_restrict():
    rng = np.random.default_rng(43)
    for _ in range(8):
        n = int(rng.integers(6, 30))
        edges, hyperedges = random_sources(rng, n)
        within = np.sort(rng.choice(n, int(rng.integers(n // 2, n)), replace=False))
        pos = {int(v): i for i, v in enumerate(within)}
        # a pair that leaves within is dropped whole
        pairs = [(pos[u], pos[v]) for u, v in edges if u in pos and v in pos and u != v]
        lcc, _ = _largest_connected_component(incidence(pairs, len(within)))
        A = symmetrize(pairs, n_vertices=len(within))[lcc][:, lcc]
        for raw in (False, True):
            S, kept = similarity(edges, n=n, raw_adjacency=raw, within=within)
            assert_identical(S, A if raw else normalized_adjacency(A))
            assert kept.tolist() == lcc.tolist()
        # a hyperedge is trimmed to within and dropped once empty
        trimmed = [t for t in ([pos[v] for v in e if v in pos] for e in hyperedges) if t]
        M = incidence(trimmed, len(within))
        lcc_v, lcc_e = _largest_connected_component(M)
        S, kept = similarity(hyperedges=id_pair(hyperedges), n=n, within=within)
        assert_identical(S, _hypergraph_similarity(M[lcc_v][:, lcc_e]))
        assert kept.tolist() == lcc_v.tolist()


def test_similarity_n_is_the_size_of_s():
    # documents 3 and 4 are in no hyperedge; with dual the 2 lines are
    # the documents, whatever the participant ids
    with pytest.raises(ZeroDegree):
        similarity(hyperedges=id_pair([[0, 1], [1, 2]]), n=5)
    S, _ = similarity(hyperedges=id_pair([[0, 1], [1, 2]]), n=5, within=np.arange(5))
    assert S.shape == (3, 3)
    S, _ = similarity(hyperedges=id_pair([[0, 7], [7, 9]]), n=2, dual=True)
    assert S.shape == (2, 2)
    with pytest.raises(ShapeMismatch):
        similarity(hyperedges=id_pair([[0, 7], [7, 9]]), n=3, dual=True)
    with pytest.raises(IndexOutOfRange):
        similarity([(0, 5)], n=3)


def test_similarity_rejects_a_flag_its_source_does_not_read():
    with pytest.raises(ValueError, match="dual needs hyperedges"):
        similarity([(0, 1)], n=2, dual=True)
    with pytest.raises(ValueError, match="dual needs hyperedges"):
        similarity(n=2, dual=True)
    with pytest.raises(ValueError, match="raw adjacency needs edges"):
        similarity(hyperedges=id_pair([[0, 1]]), n=2, raw_adjacency=True)
    with pytest.raises(ValueError, match="exactly one"):
        similarity(n=2)
    with pytest.raises(ValueError, match="exactly one"):
        similarity([(0, 1)], [[0, 1]], n=2)


def test_similarity_takes_hyperedges_as_one_id_pair(tmp_path):
    # the pair read_hyperedges returns, or any integer sequences of that form
    path = tmp_path / "h.txt"
    path.write_text("0 1 2\n\n2 3\n")
    S, _ = similarity(hyperedges=read_hyperedges(path), n=None)
    expect, _ = similarity(hyperedges=([0, 1, 2, 2, 3], (3, 2)), n=None)
    assert_identical(S, expect)
    for bad in (([0, 1, 2], [2]), ([0, 1], [3, -1]), ([[0, 1]], [2]), ([0, 1], [[2]])):
        with pytest.raises(ValueError, match="^hyperedges must be an id array and edge sizes"):
            similarity(hyperedges=bad, n=None)


def test_similarity_of_no_vertices_is_an_empty_graph_from_every_source():
    # the raw adjacency of no edges used to be a 0 x 0 S
    for kw in ({"raw_adjacency": True}, {}):
        with pytest.raises(EmptyGraph, match="^graph has no edges$"):
            similarity([], n=None, **kw)
    for dual in (False, True):
        with pytest.raises(EmptyGraph, match="^graph has no edges$"):
            similarity(hyperedges=id_pair([]), n=None, dual=dual)


def test_similarity_of_no_edge_left_is_one_empty_graph_whatever_n():
    # with n given, no edge used to be a ZeroDegree for normalized edges,
    # an n x n zero S for raw ones and another EmptyGraph for hyperedges;
    # self-loops, an empty hyperedge and edges leaving within leave none
    for kw in ({"edges": []}, {"edges": [], "raw_adjacency": True}, {"hyperedges": id_pair([])},
               {"edges": [(1, 1), (3, 3)]}, {"edges": [(2, 2)], "raw_adjacency": True},
               {"hyperedges": id_pair([[]])}, {"edges": [(0, 1), (2, 3)], "within": [1, 2]},
               {"hyperedges": id_pair([[0, 1]]), "within": [2, 3, 4]}):
        with pytest.raises(EmptyGraph, match="^graph has no edges$"):
            similarity(n=5, **kw)
    with pytest.raises(EmptyGraph, match="^graph has no edges$"):
        similarity(hyperedges=id_pair([[]]), n=None, dual=True)


def test_similarity_within_must_be_ascending_distinct_positions():
    # kept indexes into within, so within=[3, 1, 2] would name row 0 of S
    # (vertex 1) as within[0] = 3
    for within in ([3, 1, 2], [1, 1, 2]):
        for kw in ({"edges": [(0, 1), (1, 2), (2, 3)]},
                   {"hyperedges": id_pair([[0, 1], [1, 2], [2, 3]])}):
            with pytest.raises(ValueError, match="ascending"):
                similarity(n=4, within=within, **kw)
    for within in ([1, 4], [-1, 2], [4, 1]):
        with pytest.raises(IndexOutOfRange):
            similarity([(0, 1), (1, 2), (2, 3)], n=4, within=within)
    S, kept = similarity([(0, 1), (1, 2), (2, 3)], n=4, within=[1, 2, 3])
    assert kept.tolist() == [0, 1, 2] and S.shape == (3, 3)


# ---------------------------------------------------------------------------
# components and restriction


def test_lcc_disjoint_hyperedges():
    vertices, edges = _largest_connected_component(incidence([[0, 1], [2, 3, 4]], 5))
    assert vertices.tolist() == [2, 3, 4]
    assert edges.tolist() == [1]


def test_lcc_path_keeps_everything():
    vertices, edges = _largest_connected_component(incidence([(0, 1), (1, 2), (2, 3)], 4))
    assert vertices.tolist() == [0, 1, 2, 3]
    assert edges.tolist() == [0, 1, 2]


def test_lcc_tie_prefers_smallest_vertex():
    vertices, edges = _largest_connected_component(incidence([(0, 1), (2, 3)], 4))
    assert (vertices.tolist(), edges.tolist()) == ([0, 1], [0])
    vertices, edges = _largest_connected_component(incidence([[2, 3], [0, 1]], 4))
    assert (vertices.tolist(), edges.tolist()) == ([0, 1], [1])


@st.composite
def tied_components(draw, max_size=5):
    """n and vertex-id groups: components of drawn sizes, sizes often tied,
    under shuffled ids, plus ids in no group."""
    sizes = draw(st.lists(st.integers(1, max_size), min_size=1, max_size=8))
    n = sum(sizes) + draw(st.integers(0, 3))
    ids = draw(st.permutations(range(n)))
    starts = np.cumsum([0, *sizes])
    return n, [ids[a:b] for a, b in zip(starts[:-1], starts[1:])]


def assert_lcc_equals_csgraph(M):
    try:
        expected = csgraph_lcc(M)
    except EmptyGraph:
        return  # no incidence: similarity raises before it searches components
    vertices, edges = _largest_connected_component(M)
    assert (vertices.tolist(), edges.tolist()) == (expected[0].tolist(), expected[1].tolist())


@settings(max_examples=300)
@given(drawn=tied_components(), data=st.data())
@example(drawn=(4, [[0, 1], [2, 3]]), data=None)
@example(drawn=(5, [[4, 3], [1, 0], [2]]), data=None)
def test_graph_lcc_equals_csgraph(drawn, data):
    n, groups = drawn
    pairs = []
    for group in groups:
        # a random tree over the group (its first edge is a self-loop),
        # then random extra edges that may join groups
        pairs += [(v, group[data.draw(st.integers(0, i))] if data else group[0])
                  for i, v in enumerate(group)]
    if data:
        pairs += data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                    max_size=4))
    # the incidence of the pairs, self-loops dropped
    assert_lcc_equals_csgraph(incidence([p for p in pairs if p[0] != p[1]], n))


@settings(max_examples=300)
@given(drawn=tied_components(max_size=4), data=st.data())
@example(drawn=(4, [[2, 3], [0, 1]]), data=None)
def test_hypergraph_lcc_equals_csgraph(drawn, data):
    n, groups = drawn
    # each group is cut into edges that overlap in one vertex, so the group
    # is connected; empty edges and edges across groups are mixed in
    edges = [group[max(i - 1, 0):i + 1] for group in groups for i in range(len(group))]
    if data:
        edges += data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=3), max_size=4))
        edges = data.draw(st.permutations(edges))
    assert_lcc_equals_csgraph(incidence(edges, n))


def test_lcc_of_a_long_path_in_random_order_is_fast():
    # labels that only spread to neighbours need one round per hop, which
    # here is about 200k rounds; hooking roots takes about a dozen
    n = 200_000
    order = np.random.default_rng(5).permutation(n)
    # edge j joins order[j] and order[j + 1]
    rows = np.column_stack([order[:-1], order[1:]]).ravel()
    M = sparse.csc_array((np.ones(rows.size), (rows, np.arange(rows.size) // 2)), shape=(n, n - 1))
    start = time.perf_counter()
    vertices, edges = _largest_connected_component(M)
    assert time.perf_counter() - start < 2.0
    assert vertices.size == n and edges.size == n - 1


def test_induce_subgraph():
    # a pair that leaves within is dropped whole
    S, kept = similarity([(0, 1), (1, 2), (2, 3)], n=4, raw_adjacency=True, within=[1, 2, 3])
    assert S.toarray().tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    assert kept.tolist() == [0, 1, 2]
    with pytest.raises(IndexOutOfRange):
        similarity([(0, 1), (1, 2), (2, 3)], n=4, within=[0, 9])


def test_induce_subhypergraph_drops_emptied_edges():
    # [1, 2] is trimmed to [1]; [2, 3] is emptied and dropped, where it
    # would be an edge with no vertices
    S, kept = similarity(hyperedges=id_pair([[0, 1], [2, 3], [1, 2]]), n=4, within=[0, 1])
    expect, _ = similarity(hyperedges=id_pair([[0, 1], [1]]), n=2)
    assert (S != expect).nnz == 0 and kept.tolist() == [0, 1]


def test_lcc_then_induce_leaves_no_zero_degrees():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        edges = [
            list(rng.choice(n, size=int(rng.integers(2, 4)), replace=False))
            for _ in range(int(rng.integers(2, 6)))
        ]
        M = incidence(edges, n)
        vertices, kept = _largest_connected_component(M)
        S = _hypergraph_similarity(M[vertices][:, kept])  # would raise ZeroDegree on a bad cut
        assert S.shape == (len(vertices), len(vertices))


# ---------------------------------------------------------------------------
# file input


def test_read_edge_list(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("0\t1\n\n2\t3\n")
    edges = read_edge_list(path)
    assert edges.dtype == np.int64 and edges.shape == (2, 2)
    assert edges.tolist() == [[0, 1], [2, 3]]
    bad = tmp_path / "bad.tsv"
    bad.write_text("0,1\n")
    with pytest.raises(DataError):
        read_edge_list(bad)
    bad2 = tmp_path / "bad2.tsv"
    bad2.write_text("0\tx\n")
    with pytest.raises(DataError):
        read_edge_list(bad2)


def reference_edge_list(path):
    """The per-line reader: read_records and int() on each field, and
    each id must fit int64."""
    def pair(rec):
        ids = tuple(int(v) for v in rec)
        if not all(-2**63 <= v < 2**63 for v in ids):
            raise ValueError("id outside int64")
        return ids
    return np.array(list(read_records(path, sep=None, fields=2, convert=pair,
                                      expect="`src<TAB>dst` with integer ids")),
                    dtype=np.int64).reshape(-1, 2)


def outcome(read, path):
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


PLAIN_IDS = st.integers(-2, 40).map(str)
INT_IDS = st.one_of(  # ids in forms int() reads, inside int64
    PLAIN_IDS,
    st.integers(0, 40).map(lambda v: f"+{v}"),
    st.integers(10, 99).map(lambda v: f"{v // 10}_{v % 10}"),
    st.integers(0, 99).map(lambda v: str(v).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))),
    st.sampled_from([2**63 - 1, -2**63]).map(str),
)
BAD_IDS = st.one_of(
    INT_IDS,
    st.sampled_from([2**63, -2**63 - 1, 10**20]).map(str),
    st.sampled_from(["x", "1.0", "1e3", "0x1", "#", "-", "+-1", "1__0", "\x00"]),
)
SPACES = " \t\v"


@st.composite
def edge_files(draw, fields=None):
    """Edge-list bytes over whitespace, line ends, blank lines and id
    forms, with or without a final newline; files drawn with BAD_IDS
    also get wrong field counts, a BOM and bytes that are not UTF-8.
    fields, if given, draws the id count of each line instead."""
    ids = draw(st.sampled_from([PLAIN_IDS, INT_IDS, BAD_IDS]))
    bad = ids is BAD_IDS
    if fields is None:
        fields = st.sampled_from([2, 2, 2, 2, 1, 3] if bad else [2])
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            line = draw(st.text(SPACES, max_size=3))  # blank or whitespace only
        else:
            count = draw(fields)
            line = draw(st.text(SPACES, min_size=1, max_size=3)).join(
                draw(ids) for _ in range(count))
            line = draw(st.text(SPACES, max_size=2)) + line + draw(st.text(SPACES, max_size=2))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if bad and draw(st.integers(0, 3)) == 0:
        text = "\ufeff" + text
    raw = text.encode("utf-8")
    if bad and draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"])) + raw[at:]
    return raw


@settings(max_examples=400)
@given(raw=edge_files())
@example(raw=b"0\t1\v\n\v\n2 \t3\r\n4\r5\t6")
@example(raw=b"+7\t1_0\n")
@example(raw="٣\t١٢\n".encode())
@example(raw=b"\xef\xbb\xbf0\t1\n")
@example(raw=b"0 1\n1 2 3\n")
@example(raw=b"0 1 2\n")
@example(raw=b"0\t1\n\xff\t2\n")
@example(raw=b"5\t99999999999999999999\n")
@example(raw=b"5\t9223372036854775807\n-9223372036854775808\t5\n")
@example(raw=b"")
@example(raw=b" \n\t\n")
def test_read_edge_list_equals_the_line_reader(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "drawn_edges.tsv"
    path.write_bytes(raw)
    got, expect = outcome(read_edge_list, path), outcome(reference_edge_list, path)
    if isinstance(expect, str):
        assert got == expect
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.int64 and got.shape == expect.shape
        assert np.array_equal(got, expect)


def reference_hyperedges(path):
    """The per-line reader: read_records and int() on each field, each id
    within int64, as the (ids, sizes) pair."""
    def ids(rec):
        line = [int(v) for v in rec]
        if not all(-2**63 <= v < 2**63 for v in line):
            raise ValueError("id outside int64")
        return line
    lines = list(read_records(path, sep=None, convert=ids,
                              expect="whitespace-separated integer vertex ids"))
    return (np.array([v for line in lines for v in line], dtype=np.int64),
            np.array([len(line) for line in lines], dtype=np.int64))


@settings(max_examples=400)
@given(raw=edge_files(fields=st.integers(1, 4)))
@example(raw=b"0 1 2\n\n3\r\n4 5\r6")
@example(raw="+7 1_0 \u0663\n".encode())
@example(raw=b"\xef\xbb\xbf0 1\n")
@example(raw=b"0 1\n\xff 2\n")
@example(raw=b"5 1 99999999999999999999\n")
@example(raw=b"5 9223372036854775807\n-9223372036854775808\n")
@example(raw=b"")
@example(raw=b" \n\t\n")
def test_read_hyperedges_equals_the_line_reader(tmp_path_factory, raw):
    # a file the line reader rejects gives its message, which names the
    # first line with a token int() rejects or an id past int64
    path = tmp_path_factory.getbasetemp() / "drawn_hyperedges.txt"
    path.write_bytes(raw)
    got, expect = outcome(read_hyperedges, path), outcome(reference_hyperedges, path)
    if isinstance(expect, str):
        assert got == expect
    else:
        assert not isinstance(got, str) and got[0].dtype == got[1].dtype == np.int64
        assert np.array_equal(got[0], expect[0]) and np.array_equal(got[1], expect[1])


def test_read_hyperedges_names_a_bad_line_past_the_first_block(tmp_path):
    # the file is converted a block of lines at a time; the line reader
    # that names a failing line counts from the file's start
    lines = [" ".join(map(str, range(i % 7, i % 7 + 5))) for i in range(30_000)]
    path = tmp_path / "h.txt"
    path.write_text("\n".join(lines) + "\n")
    ids, sizes = read_hyperedges(path)
    expect = reference_hyperedges(path)
    assert np.array_equal(ids, expect[0]) and np.array_equal(sizes, expect[1])
    for bad in ("x", str(2**63)):
        lines[25_000] = f"1 {bad} 2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"^{path}:25001: expected whitespace-separated "):
            read_hyperedges(path)


def test_read_hyperedges(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("0 1 2\n\n3 4\n")
    ids, sizes = read_hyperedges(path)
    assert ids.dtype == sizes.dtype == np.int64
    assert (ids.tolist(), sizes.tolist()) == ([0, 1, 2, 3, 4], [3, 2])
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n\n0 oops\n")
    with pytest.raises(DataError, match=f"^{bad}:3: expected whitespace-separated integer "
                                        "vertex ids, got '0 oops'$"):
        read_hyperedges(bad)
