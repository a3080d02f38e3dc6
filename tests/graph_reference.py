"""Dense references for jointnmf.graph, shared by the test modules.

S is built on numpy arrays from the two formulas of the graph module's
docstring, and the largest component is taken from
scipy.sparse.csgraph, so nothing here goes through the package's own
incidence, restriction or component code.
"""

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from jointnmf.errors import EmptyGraph, ZeroDegree


def id_pair(edge_lists):
    """The (ids, sizes) pair graph.similarity takes for hyperedges, as
    plain lists: every list's ids end to end, and each list's length."""
    return [v for e in edge_lists for v in e], [len(e) for e in edge_lists]


def dense_incidence(edge_lists, n):
    """0/1 vertices x edges array; a vertex listed twice in an edge is one incidence."""
    M = np.zeros((n, len(edge_lists)))
    for j, edge in enumerate(edge_lists):
        M[list(edge), j] = 1.0
    return M


def csgraph_lcc(M):
    """Vertices of the largest component of incidence M (vertices that
    share an edge are joined), the one with the smallest vertex on ties,
    and the edges that touch it."""
    M = np.asarray(M.toarray() if sparse.issparse(M) else M)
    if not M.any():
        raise EmptyGraph("no incidence")
    _, labels = csgraph.connected_components(sparse.csr_array(M @ M.T), directed=False)
    sizes = np.bincount(labels)
    best = labels[np.flatnonzero(sizes[labels] == sizes.max())[0]]
    vertices = np.flatnonzero(labels == best)
    return vertices, np.flatnonzero((labels == best).astype(float) @ M > 0)


def dense_similarity(edges=None, hyperedges=None, *, n, dual=False, raw_adjacency=False,
                     within=None):
    """(S, kept) as graph.similarity documents them, as dense arrays.

    The ids must pass similarity's range check.  Where S is undefined
    this raises what similarity raises: ZeroDegree for an inferred n with
    a gap or a vertex of zero degree, EmptyGraph for no edge left after
    the restriction to within.
    """
    if edges is None:
        ids, sizes = hyperedges
        ends = np.cumsum(sizes, dtype=np.int64)
        lists = [list(ids[end - size:end]) for size, end in zip(sizes, ends)]
    else:
        lists = [list(e) for e in edges]
    ids = sorted({v for e in lists for v in e})
    if dual:
        rank = {v: i for i, v in enumerate(ids)}
        M = dense_incidence([[rank[v] for v in e] for e in lists], len(ids)).T
    else:
        if n is None:
            n = ids[-1] + 1 if ids else 0
            if len(ids) < n:
                raise ZeroDegree("a vertex below the largest id is on no edge")
        M = dense_incidence(lists, n)

    def surviving(M):
        # a pair needs both vertices (a self-loop has one), a hyperedge one
        counts = M.sum(axis=0)
        M = M[:, counts == 2] if edges is not None else M[:, counts > 0]
        if not M.shape[1]:
            raise EmptyGraph("no edges")
        return M

    kept = np.arange(M.shape[0])
    if within is not None:
        kept, _ = csgraph_lcc(surviving(M[list(within)]))
        M = M[list(within)][kept]
    M = surviving(M)
    if edges is not None:
        A = (M @ M.T > 0).astype(float)
        np.fill_diagonal(A, 0.0)
        if raw_adjacency:
            return A, kept
        d = A.sum(axis=1)
        if not d.all():
            raise ZeroDegree("a vertex has no edge")
        return A / np.sqrt(np.outer(d, d)), kept
    dv, de = M.sum(axis=1), M.sum(axis=0)
    if not dv.all():
        raise ZeroDegree("a vertex is on no edge")
    Mv = M / np.sqrt(dv)[:, None]
    return (Mv / de) @ Mv.T, kept
