"""Graphs, hypergraphs, and the similarity matrices built from them.

Edges and hyperedges arrive as one form, an int64 id array and the
number of ids in each edge (read_hyperedges returns that pair), and
become one structure: a 0/1 incidence M with vertices as rows and edges
as columns, an edge pair being a column with its two vertices.
`similarity` is the one builder of S from either source, and its steps
are private; `symmetrize` and `normalized_adjacency`, the two steps of
edge pairs, stay public for callers that build A themselves, as the
benchmark's set-up does.  Similarity for clustering is, for edge pairs, the adjacency A of the pairs or its
degree-normalized form D^-1/2 A D^-1/2, and for hyperedges

    S = Dv^-1/2 M De^-1 M^T Dv^-1/2

where Dv and De are the vertex and edge degree diagonals (Zhou, Huang &
Schölkopf, Learning with Hypergraphs, NeurIPS 2006).  The dual
hypergraph M^T swaps the roles of vertices and edges, which is how a
corpus of group events (each event one edge) is clustered by the
participants it shares.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import sparse

from .errors import EmptyGraph, IndexOutOfRange, ShapeMismatch, ZeroDegree
from .matrix import as_csc, read_records

__all__ = ["similarity", "read_edge_list", "read_hyperedges", "symmetrize", "normalized_adjacency"]


def symmetrize(edges, n_vertices: int | None = None) -> sparse.csc_array:
    """Symmetric 0/1 CSC adjacency of an undirected graph from an edge list.

    edges is an (m, 2) integer array, as read_edge_list returns, or any
    iterable of pairs.  Either direction produces A_ij = A_ji = 1;
    self-loops are dropped and duplicates collapse.  Vertex count is
    inferred from the largest id unless given.
    """
    ids, sizes = _edge_ids(edges)
    return _adjacency(_restrict(_incidence(ids, sizes, _checked(ids, sizes, n_vertices)),
                                pairs=True))


def _edge_ids(edges):
    # the ids of the edges end to end as one int64 array, two per edge,
    # and the number of ids in each edge
    pairs = _int64(edges if isinstance(edges, np.ndarray) else list(edges))
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValueError(f"edges must be pairs, got an array of shape {pairs.shape}")
    return pairs.ravel(), np.full(pairs.size // 2, 2)


def _hyperedge_ids(hyperedges):
    # the (ids, sizes) pair as int64 arrays, edge j holding the next
    # sizes[j] ids
    ids, sizes = hyperedges
    ids, sizes = _int64(ids), np.asarray(sizes, dtype=np.int64)
    if ids.ndim != 1 or sizes.ndim != 1 or np.any(sizes < 0) or sizes.sum() != ids.size:
        raise ValueError("hyperedges must be an id array and edge sizes that sum to its length")
    return ids, sizes


def _int64(ids):
    try:
        return np.asarray(ids, dtype=np.int64)
    except OverflowError:
        raise IndexOutOfRange("an id does not fit 64 bits") from None


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


def _incidence(ids, sizes, n_vertices) -> sparse.csc_array:
    # edge j holds the next sizes[j] entries of ids, each in [0, n_vertices)
    edge = np.repeat(np.arange(sizes.size), sizes)
    M = sparse.csc_array((np.ones(ids.size), (ids, edge)), shape=(n_vertices, sizes.size))
    M.sum_duplicates()
    M.data[:] = 1.0  # a vertex listed twice in one edge is one incidence
    return M


def _restrict(M, rows=None, *, pairs):
    """M on the given rows (all of them by default), less the edges that
    leave them: a pair once it loses a vertex (a self-loop, which lists
    one vertex twice, has lost one already), a hyperedge once it loses
    all."""
    if rows is not None:
        M = M[rows]
    counts = np.diff(M.indptr)
    return M[:, np.flatnonzero(counts == 2 if pairs else counts > 0)]


def _adjacency(M) -> sparse.csc_array:
    # every column of M holds a pair, joined both ways
    a, b = M.indices.reshape(-1, 2).T
    A = sparse.coo_array(
        (np.ones(2 * a.size), (np.concatenate([a, b]), np.concatenate([b, a]))),
        shape=(M.shape[0], M.shape[0]),
    ).tocsc()
    A.data[:] = 1.0  # collapse duplicate edges
    return A


def normalized_adjacency(A) -> sparse.csc_array:
    """S = D^-1/2 A D^-1/2.  Every vertex must have positive degree."""
    A = as_csc(A)
    deg = A.sum(axis=1)
    if A.shape[0] == 0:
        raise EmptyGraph("graph has no vertices")
    if np.any(deg == 0):
        bad = int(np.flatnonzero(deg == 0)[0])
        raise ZeroDegree(f"vertex {bad} has zero degree; restrict to a component first")
    d = sparse.diags_array(1.0 / np.sqrt(deg))
    return as_csc(d @ A @ d)


def _hypergraph_similarity(M) -> sparse.csc_array:
    """Vertex similarity Dv^-1/2 M De^-1 M^T Dv^-1/2 of a 0/1 CSC
    incidence M (vertices x edges) whose every edge has a vertex.

    The diagonal is naturally nonzero and is kept.
    """
    dv = M.sum(axis=1)
    if np.any(dv == 0):
        bad = int(np.flatnonzero(dv == 0)[0])
        raise ZeroDegree(f"vertex {bad} belongs to no edge")
    dvi = sparse.diags_array(1.0 / np.sqrt(dv))
    dei = sparse.diags_array(1.0 / M.sum(axis=0))
    return as_csc(dvi @ M @ dei @ M.T @ dvi)


def similarity(edges=None, hyperedges=None, *, n, dual=False, raw_adjacency=False, within=None):
    """S over n documents from exactly one of edges or hyperedges.

    edges are pairs, as read_edge_list returns them; hyperedges are the
    (ids, sizes) pair read_hyperedges returns, edge j holding the next
    sizes[j] ids (any integer sequences whose sizes sum to the number of
    ids; a ValueError if not).  An id past int64 in either is an
    IndexOutOfRange.

    n is the size of S, or None to infer it; with dual=True the documents
    are the hyperedges.  Both sources pass one id check: an id outside
    [0, n) is an IndexOutOfRange, and an n inferred as one more than the
    largest id is a ZeroDegree if a smaller id is on no edge (a self-loop
    names its id), raised before anything that large is built.  With
    dual, the vertex ids are ranked first, so only their order counts,
    and a given n must be the number of hyperedges (a ShapeMismatch if
    not).  Both sources then become one incidence, which is restricted to
    within (ascending distinct positions; a ValueError if not) and to its
    largest connected component, or without within kept whole.  An edge
    pair that leaves the kept documents is dropped whole, as is a
    self-loop; a hyperedge is trimmed, and dropped once it is empty.  No
    edge left is an EmptyGraph, whatever the source and n.  Edges give
    D^-1/2 A D^-1/2 of the remaining pairs (A itself with raw_adjacency),
    hyperedges Dv^-1/2 M De^-1 M^T Dv^-1/2, where a vertex in no edge is
    a ZeroDegree.  Returns S and the kept indices
    into within (or range(n)).  A flag the chosen source does not read is
    a ValueError.
    """
    if dual and hyperedges is None:
        raise ValueError("dual needs hyperedges")
    if raw_adjacency and edges is None:
        raise ValueError("raw adjacency needs edges")
    if (edges is None) == (hyperedges is None):
        raise ValueError("give exactly one of edges or hyperedges")
    pairs = edges is not None
    ids, sizes = _edge_ids(edges) if pairs else _hyperedge_ids(hyperedges)
    if dual:
        # a vertex id in no hyperedge is an empty edge of the dual, which S
        # drops, so ids keep only their order
        ids = np.unique(ids, return_inverse=True)[1]
        M = _incidence(ids, sizes, _checked(ids, sizes, None)).T.tocsc()
        if n is not None and M.shape[0] != n:
            raise ShapeMismatch(f"{M.shape[0]} hyperedges for {n} documents")
    else:
        # checked before anything as large as the largest id is built: an
        # inferred n with a gap more likely comes from a mistyped id than
        # from an isolated document
        M = _incidence(ids, sizes, _checked(ids, sizes, n, gaps=n is None))
    M = _restrict(M, None if within is None else _positions(within, M.shape[0]), pairs=pairs)
    if not M.shape[1]:
        raise EmptyGraph("graph has no edges")
    kept = np.arange(M.shape[0])
    if within is not None:
        kept, lcc_edges = _largest_connected_component(M)
        M = M[kept][:, lcc_edges]
    if not pairs:
        return _hypergraph_similarity(M), kept
    A = _adjacency(M)
    return (A if raw_adjacency else normalized_adjacency(A)), kept


def _largest_connected_component(M):
    """Vertices and edges of the largest component of a 0/1 incidence M
    (vertices x edges) with at least one incidence, smallest vertex
    first on ties.

    Vertices are connected when they share an edge.  The edges returned
    are those whose vertices all lie in the component; an empty edge
    lies in none.
    """
    coo = sparse.coo_array(M)
    nv, ne = coo.shape
    # edge j is node nv + j, joined to each of its vertices; an edge's
    # component is its node's, and an empty edge is a component alone
    labels = _component_labels(nv + ne, coo.row, nv + coo.col.astype(np.int64))
    # ties go to the component of the smallest vertex: a vertex's label
    # is the smallest vertex of its component (vertices are numbered
    # before edges), and argmax takes the first
    best = int(np.argmax(np.bincount(labels[:nv])))
    return np.flatnonzero(labels[:nv] == best), np.flatnonzero(labels[nv:] == best)


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


def read_hyperedges(path):
    """Parse one edge per line, whitespace-separated 0-based vertex ids,
    skipping blanks.

    Returns the (ids, sizes) pair similarity takes: every line's ids end
    to end as one int64 array, and the number of ids on each line.  The
    file is converted a block of lines at a time, each id as int() reads
    it; a file that fails to convert (a token int() rejects, an id past
    int64, bytes that are not UTF-8) is read again line by line, which
    names the first malformed line.
    """
    ids, sizes = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    try:
        with open(path, encoding="utf-8") as fh:
            # about 64k characters of lines at a time: the ids held as
            # strings stay few however long the file is
            while lines := fh.readlines(1 << 16):
                sizes.append(np.array([len(line.split()) for line in lines], dtype=np.int64))
                ids.append(np.array("".join(lines).split(), dtype=np.int64))
    except (ValueError, OverflowError):  # a UnicodeDecodeError too
        # the line reader converts each id as the blocks do, so it stops
        # at the first line that fails, with a DataError naming it
        for _ in read_records(path, sep=None, convert=lambda r: [_id(v) for v in r],
                              expect="whitespace-separated integer vertex ids"):
            pass
        raise
    sizes = np.concatenate(sizes)
    return np.concatenate(ids), sizes[sizes > 0]  # a blank line is no edge


_INT64 = np.iinfo(np.int64)


def _id(field) -> int:
    """int(field), which must fit int64 (a ValueError if not)."""
    v = int(field)
    if not _INT64.min <= v <= _INT64.max:
        raise ValueError(f"id {v} does not fit 64 bits")
    return v


def _positions(within, n):
    """within as an int64 array of ascending distinct positions in [0, n)."""
    idx = np.asarray(within, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexOutOfRange(f"vertex index outside [0, {n})")
    if np.any(np.diff(idx) <= 0):
        raise ValueError("within must be ascending positions without repeats")
    return idx
