"""Graphs, hypergraphs, and the similarity matrices built from them.

A Graph holds a symmetric 0/1 adjacency with empty diagonal.  A
Hypergraph holds a 0/1 incidence matrix with vertices as rows and
edges as columns.  Similarity for clustering is the degree-normalized
adjacency D^-1/2 A D^-1/2, or for hypergraphs

    S = Dv^-1/2 M De^-1 M^T Dv^-1/2

where Dv and De are the vertex and edge degree diagonals.  The dual
hypergraph (transposed incidence) swaps the roles of vertices and
edges, which is how a corpus of group events (each event one edge) is
clustered by the participants it shares.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy import sparse

from .errors import (
    EmptyGraph,
    IndexOutOfRange,
    LabelMissing,
    ShapeMismatch,
    ZeroDegree,
)
from .matrix import as_csc, read_records, require_nonnegative, require_symmetric

__all__ = [
    "Graph",
    "Hypergraph",
    "symmetrize",
    "normalized_adjacency",
    "hypergraph_similarity",
    "similarity",
    "dual_hypergraph",
    "largest_connected_component",
    "membership_counts",
    "induce_subgraph",
    "induce_subhypergraph",
    "hypergraph_from_edges",
    "read_edge_list",
    "read_hyperedges",
]


@dataclass
class Graph:
    """Undirected unweighted graph as a symmetric sparse adjacency."""

    adjacency: sparse.csc_array

    def __post_init__(self):
        A = as_csc(self.adjacency)
        A.eliminate_zeros()
        require_nonnegative(A, what="adjacency")
        require_symmetric(A, what="adjacency")
        if A.diagonal().any():
            raise ValueError("adjacency has nonzero diagonal entries")
        self.adjacency = A

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


@dataclass
class Hypergraph:
    """Hypergraph as a 0/1 incidence matrix, vertices x edges."""

    incidence: sparse.csc_array

    def __post_init__(self):
        M = as_csc(self.incidence)
        M.eliminate_zeros()
        if M.data.size and not np.all(M.data == 1.0):
            raise ValueError("incidence entries must be 0 or 1")
        self.incidence = M

    @property
    def n_vertices(self) -> int:
        return self.incidence.shape[0]

    @property
    def n_edges(self) -> int:
        return self.incidence.shape[1]


def symmetrize(edges, n_vertices: int | None = None) -> Graph:
    """Undirected graph from a directed edge list.

    edges is an (m, 2) integer array, as read_edge_list returns, or any
    iterable of pairs.  Either direction produces A_ij = A_ji = 1;
    self-loops are dropped and duplicates collapse.  Vertex count is
    inferred from the largest id unless given.
    """
    ids, sizes = _edge_ids(edges)
    return Graph(_adjacency(ids, _checked(ids, sizes, n_vertices)))


def _edge_ids(edges):
    # the ids of the edges end to end as one int64 array, two per edge,
    # and the number of ids in each edge
    try:
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    except OverflowError:
        raise IndexOutOfRange("an id does not fit 64 bits") from None
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValueError(f"edges must be pairs, got an array of shape {pairs.shape}")
    return pairs.ravel(), np.full(pairs.size // 2, 2)


def _checked(ids, sizes, n, gaps=False):
    """The vertex count of edge lists, where edge j holds the next
    sizes[j] entries of ids: n, or one more than the largest id.

    The first edge with an id outside [0, n) is an IndexOutOfRange
    naming its smallest such id.  With gaps, a vertex below the largest
    id that no edge names is a ZeroDegree; a self-loop names its id.
    A count past int64 is an IndexOutOfRange.  Nothing here is as large
    as n.
    """
    top = int(ids.max()) if ids.size else -1
    n = top + 1 if n is None else n
    outside = (ids < 0) | (ids >= n)
    if outside.any():
        edge = np.repeat(np.arange(sizes.size), sizes)
        j = edge[np.argmax(outside)]
        v = ids[outside & (edge == j)].min()
        raise IndexOutOfRange(f"edge {j} references vertex {v} outside [0, {n})")
    if gaps:
        distinct = np.unique(ids)
        if distinct.size < n:
            gap = int(np.argmax(np.append(distinct, -1) != np.arange(distinct.size + 1)))
            raise ZeroDegree(f"vertex {gap} belongs to no edge, but the largest id {top} "
                             f"sets {n} vertices")
    if n > _INT64.max:
        raise IndexOutOfRange(f"{n} vertices do not fit 64 bits")
    return n


def _adjacency(ids, n):
    pairs = ids.reshape(-1, 2)
    a, b = pairs[pairs[:, 0] != pairs[:, 1]].T  # self-loops dropped
    A = sparse.coo_array(
        (np.ones(2 * a.size), (np.concatenate([a, b]), np.concatenate([b, a]))), shape=(n, n)
    ).tocsc()
    A.data[:] = 1.0  # collapse duplicate edges
    return A


def normalized_adjacency(G: Graph) -> sparse.csc_array:
    """S = D^-1/2 A D^-1/2.  Every vertex must have positive degree."""
    A = G.adjacency
    deg = A.sum(axis=1)
    if A.shape[0] == 0:
        raise EmptyGraph("graph has no vertices")
    if np.any(deg == 0):
        bad = int(np.flatnonzero(deg == 0)[0])
        raise ZeroDegree(f"vertex {bad} has zero degree; restrict to a component first")
    d = sparse.diags_array(1.0 / np.sqrt(deg))
    return as_csc(d @ A @ d)


def hypergraph_similarity(Hg: Hypergraph) -> sparse.csc_array:
    """Vertex similarity Dv^-1/2 M De^-1 M^T Dv^-1/2.

    The diagonal is naturally nonzero and is kept.
    """
    M = Hg.incidence
    if M.shape[0] == 0 or M.shape[1] == 0:
        raise EmptyGraph("hypergraph has no vertices or no edges")
    dv = M.sum(axis=1)
    de = M.sum(axis=0)
    if np.any(dv == 0):
        bad = int(np.flatnonzero(dv == 0)[0])
        raise ZeroDegree(f"vertex {bad} belongs to no edge")
    if np.any(de == 0):
        bad = int(np.flatnonzero(de == 0)[0])
        raise ZeroDegree(f"edge {bad} has no vertices")
    dvi = sparse.diags_array(1.0 / np.sqrt(dv))
    dei = sparse.diags_array(1.0 / de)
    return as_csc(dvi @ M @ dei @ M.T @ dvi)


def similarity(edges=None, hyperedges=None, *, n, dual=False, raw_adjacency=False, within=None):
    """S over n documents from exactly one of edges or hyperedge lists.

    n is the size of S, or None to infer it; with dual=True the documents
    are the hyperedges.  Both sources pass one id check: an id outside
    [0, n) is an IndexOutOfRange, and an n inferred as one more than the
    largest id is a ZeroDegree if a smaller id is on no edge (a self-loop
    names its id), raised before anything that large is built.  With
    dual, the vertex ids are ranked first, so only their order counts,
    and a given n must be the number of hyperedges (a ShapeMismatch if
    not).  Edges give D^-1/2 A D^-1/2 (A itself with
    raw_adjacency), hyperedges hypergraph_similarity less any edge that
    joins no vertex.  With within (ascending positions), S is restricted
    to those documents and then to their largest connected component.
    Returns S and the kept indices into within (or range(n)).  A flag
    the chosen source does not read is a ValueError.
    """
    if dual and hyperedges is None:
        raise ValueError("dual needs hyperedges")
    if raw_adjacency and edges is None:
        raise ValueError("raw adjacency needs edges")
    if (edges is None) == (hyperedges is None):
        raise ValueError("give exactly one of edges or hyperedges")
    ids, sizes = _vertex_ids(hyperedges) if edges is None else _edge_ids(edges)
    if dual:
        # a vertex id in no hyperedge is an empty edge of the dual, which S
        # drops, so ids keep only their order
        ids = np.unique(ids, return_inverse=True)[1]
        hg = dual_hypergraph(_incidence(ids, sizes, _checked(ids, sizes, None)))
        if n is not None and hg.n_vertices != n:
            raise ShapeMismatch(f"{hg.n_vertices} hyperedges for {n} documents")
    else:
        # checked before anything as large as the largest id is built: an
        # inferred n with a gap more likely comes from a mistyped id than
        # from an isolated document
        n = _checked(ids, sizes, n, gaps=n is None)
        if edges is not None:
            g = Graph(_adjacency(ids, n))
            kept = np.arange(g.n)
            if within is not None:
                g = induce_subgraph(g, within)
                kept = largest_connected_component(g)
                g = induce_subgraph(g, kept)
            return (g.adjacency if raw_adjacency else normalized_adjacency(g)), kept
        hg = _incidence(ids, sizes, n)
    kept = np.arange(hg.n_vertices)
    # restricting to every vertex drops the edges that join none
    hg, _ = induce_subhypergraph(hg, kept if within is None else within)
    if within is not None:
        kept, lcc_edges = largest_connected_component(hg)
        hg, _ = induce_subhypergraph(hg, kept, lcc_edges)
    return hypergraph_similarity(hg), kept


def dual_hypergraph(Hg: Hypergraph) -> Hypergraph:
    """Transpose the incidence: vertices and edges swap roles."""
    return Hypergraph(as_csc(Hg.incidence.T))


def largest_connected_component(obj):
    """Vertex indices of the largest component, smallest-first on ties.

    Hypergraph vertices are connected when they share an edge; for
    hypergraphs the surviving edge indices (all endpoints inside the
    component) are returned as well.
    """
    if isinstance(obj, Graph):
        A = obj.adjacency
        if obj.n == 0 or A.nnz == 0:
            raise EmptyGraph("graph has no edges")
        coo = A.tocoo()
        labels = _component_labels(obj.n, coo.row, coo.col)
        return np.flatnonzero(labels == _best_component(labels))
    if isinstance(obj, Hypergraph):
        M = obj.incidence
        nv = M.shape[0]
        if nv == 0 or M.shape[1] == 0 or M.nnz == 0:
            raise EmptyGraph("hypergraph has no incidences")
        # edge j is node nv + j, joined to each of its vertices; an edge's
        # component is its node's, and an empty edge is a component alone
        coo = M.tocoo()
        labels = _component_labels(nv + M.shape[1], coo.row, nv + coo.col.astype(np.int64))
        best = _best_component(labels[:nv])
        return np.flatnonzero(labels[:nv] == best), np.flatnonzero(labels[nv:] == best)
    raise TypeError(f"expected Graph or Hypergraph, got {type(obj).__name__}")


def _component_labels(n, a, b):
    """Per node of 0..n-1 joined by the edges (a[i], b[i]), the smallest
    node of its component.

    Hook and compress (Shiloach & Vishkin, J. Algorithms 1982) over a
    forest whose roots are the smallest nodes of their trees.  Each round
    drops the edges inside one tree, hooks every root to the smallest
    root across its remaining edges, and points every node at its root.
    A root that hooks nowhere is smaller than its neighbours, which hook
    to roots smaller still, so it hooks in the next round: the trees that
    have an edge at least halve every two rounds.  A 200k-node path in
    random order takes 12 rounds.
    """
    parent = np.arange(n)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    while True:
        ra, rb = parent[a], parent[b]
        joins = ra != rb
        if not joins.any():
            return parent
        a, b, ra, rb = a[joins], b[joins], ra[joins], rb[joins]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def _best_component(labels):
    # largest component; ties go to the one containing the smallest vertex
    sizes = np.bincount(labels)
    biggest = np.flatnonzero(sizes == sizes.max())
    first_seen = np.full(sizes.size, labels.size, dtype=np.int64)
    np.minimum.at(first_seen, labels, np.arange(labels.size))
    return int(biggest[np.argmin(first_seen[biggest])])


def induce_subgraph(G: Graph, vertices) -> Graph:
    """Restriction of the graph to the given vertex subset (ascending)."""
    idx = _index_subset(vertices, G.n, "vertex")
    return Graph(G.adjacency[idx][:, idx])


def induce_subhypergraph(Hg: Hypergraph, vertices, edges=None):
    """Restrict a hypergraph to a vertex subset.

    With edges=None, edges that lose every endpoint are dropped.
    Returns the restricted hypergraph and the kept edge indices.
    """
    vidx = _index_subset(vertices, Hg.n_vertices, "vertex")
    M = Hg.incidence[vidx]
    if edges is None:
        eidx = np.flatnonzero(np.diff(M.tocsc().indptr) > 0)
    else:
        eidx = _index_subset(edges, Hg.n_edges, "edge")
    return Hypergraph(M[:, eidx]), eidx


def membership_counts(edge_labels, Hg: Hypergraph) -> np.ndarray:
    """Per vertex, how many distinct labels its incident edges carry."""
    labels = list(edge_labels)
    if len(labels) != Hg.n_edges:
        raise LabelMissing(
            f"{len(labels)} labels for {Hg.n_edges} edges; labels must cover all edges"
        )
    if Hg.n_edges == 0:
        return np.zeros(Hg.n_vertices, dtype=np.int64)
    _, codes = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
    coo = Hg.incidence.tocoo()
    pair = coo.row.astype(np.int64) * (codes.max() + 1) + codes[coo.col]
    vert = np.unique(pair) // (codes.max() + 1)
    return np.bincount(vert, minlength=Hg.n_vertices)


def hypergraph_from_edges(edge_vertex_lists, n_vertices: int | None = None) -> Hypergraph:
    """Build the incidence matrix from per-edge vertex id lists."""
    ids, sizes = _vertex_ids(edge_vertex_lists)
    return _incidence(ids, sizes, _checked(ids, sizes, n_vertices))


def _vertex_ids(edge_vertex_lists):
    # every edge's vertex ids end to end as one int64 array, and the
    # number of ids in each edge
    edges = list(edge_vertex_lists)
    sizes = np.fromiter(map(len, edges), dtype=np.int64, count=len(edges))
    try:
        ids = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=int(sizes.sum()))
    except OverflowError:
        raise IndexOutOfRange("an id does not fit 64 bits") from None
    return ids, sizes


def _incidence(ids, sizes, n_vertices) -> Hypergraph:
    # edge j holds the next sizes[j] entries of ids, each in [0, n_vertices)
    edge = np.repeat(np.arange(sizes.size), sizes)
    M = sparse.csc_array((np.ones(ids.size), (ids, edge)), shape=(n_vertices, sizes.size))
    M.sum_duplicates()
    M.data[:] = 1.0  # a vertex listed twice in one edge is one incidence
    return Hypergraph(M)


def read_edge_list(path) -> np.ndarray:
    """Parse `src<TAB>dst` lines (or any whitespace), 0-based, skipping blanks.

    Returns the pairs in file order as an (m, 2) int64 array.  numpy's
    loadtxt reads a well-formed file at once; a file it rejects is read
    again line by line, which also takes what int() takes (`1_0`,
    non-ASCII digits) and names the first malformed line.
    """
    try:
        # an open file, since loadtxt given a name would fetch URLs and
        # decompress .gz files, which the line reader does not
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file; read again below
            edges = np.loadtxt(fh, dtype=np.int64, comments=None, ndmin=2)
        if edges.shape[1] == 2:
            return edges
    except ValueError:  # a UnicodeDecodeError too
        pass
    pairs = list(read_records(path, sep=None, fields=2, convert=lambda r: (_id(r[0]), _id(r[1])),
                              expect="`src<TAB>dst` with integer ids"))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def read_hyperedges(path) -> list[list[int]]:
    """Parse one edge per line, whitespace-separated 0-based vertex ids."""
    return list(read_records(path, sep=None, convert=lambda r: [_id(v) for v in r],
                             expect="whitespace-separated integer vertex ids"))


_INT64 = np.iinfo(np.int64)


def _id(field) -> int:
    """int(field), which must fit int64 (a ValueError if not)."""
    v = int(field)
    if not _INT64.min <= v <= _INT64.max:
        raise ValueError(f"id {v} does not fit 64 bits")
    return v


def _index_subset(indices, limit, what):
    idx = np.unique(np.asarray(indices, dtype=np.int64))
    if idx.size and (idx[0] < 0 or idx[-1] >= limit):
        raise IndexOutOfRange(f"{what} index outside [0, {limit})")
    return idx
