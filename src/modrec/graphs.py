"""Undirected connected graphs on [0, n): adjacency, Laplacian, smoothness.

Vertices are 0-based.  Edges are stored once, as a read-only (E, 2) int64
array of rows (i, j), i < j, in lexicographic order: every edge-wise sum
accumulates in that order, whatever order the edges were given in.
The Laplacian is the combinatorial one, L = diag(W 1) - W, applied from the
edge list so that large sparse graphs never require a dense matrix.  The
apply is one scatter over both edge directions, which sums each vertex's
neighbours in one fixed order: +0, then the neighbours j > i ascending,
then the neighbours j < i ascending, so its floats are bit-identical to a
sum edge by edge.  A path_graph carries the eigenbasis of its Laplacian
(PathEigenbasis), in which the relaxations of baselines solve directly; a
radius-1 grid_graph in d >= 2 carries that of its axis edges' Laplacian
(GridAxisEigenbasis), which preconditions their conjugate gradients.  Both
are read from the lattice grid_graph records; explicit edges carry neither.
Dense W and L are available for small n: the dense lift of the certificate
and the tests use them, while the tightness verdict builds its matrix from
the edge list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np


@dataclass(frozen=True, eq=False)
class GraphSpec:
    """Connected graph; edges is any sequence of vertex pairs or an (E, 2)
    array, validated and stored as the module docstring says.  lattice is
    grid_graph's (d, m, r), else None.  Equality and hashing are by identity."""

    n: int
    edges: np.ndarray
    lattice: tuple | None = field(default=None, init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph must have at least one vertex")
        e = np.array(self.edges, dtype=np.int64)
        if e.size and e.shape[1:] != (2,):
            raise ValueError("edges must be vertex pairs")
        e = e.reshape(-1, 2)
        loops = e[:, 0] == e[:, 1]
        if loops.any():
            raise ValueError(f"self-loop at vertex {e[loops.argmax(), 0]}")
        outside = ((e < 0) | (e >= self.n)).any(axis=1)
        if outside.any():
            raise ValueError("edge ({},{}) outside vertex range".format(*e[outside.argmax()]))
        e = np.sort(e, axis=1)
        e = np.asfortranarray(e[np.lexsort((e[:, 1], e[:, 0]))])
        dup = (e[1:] == e[:-1]).all(axis=1)
        if dup.any():
            raise ValueError("duplicate edge ({}, {})".format(*e[dup.argmax()]))
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)
        if not _connected(self.n, *self._edge_arrays):
            raise ValueError("graph must be connected")

    @cached_property
    def _edge_arrays(self):
        return self.edges[:, 0], self.edges[:, 1]  # contiguous: edges is Fortran-ordered

    @cached_property
    def _path_eigenbasis(self) -> PathEigenbasis | None:
        """The DCT eigenbasis of the Laplacian if the lattice is a path, else None."""
        d, _, r = self.lattice or (0, 0, 0)
        return PathEigenbasis(self.n) if d == 1 and r <= 1 else None  # r = 0: one vertex

    @cached_property
    def _axis_eigenbasis(self) -> GridAxisEigenbasis | None:
        """The axis edges' Laplacian eigenbasis if the lattice is a radius-1 grid, d >= 2, else None."""
        d, m, r = self.lattice or (0, 0, 0)
        return GridAxisEigenbasis(d, m) if d >= 2 and r == 1 else None

    @cached_property
    def _scatter(self):
        """(targets, sources) of the one scatter in adjacency_apply: each edge
        (i, j) as i <- j, then each as j <- i, in edge order."""
        ei, ej = self._edge_arrays
        return np.concatenate([ei, ej]), np.concatenate([ej, ei])

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(order="K"), minlength=self.n)

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max())

    def adjacency(self) -> np.ndarray:
        W = np.zeros((self.n, self.n))
        ei, ej = self._edge_arrays
        W[ei, ej] = W[ej, ei] = 1.0
        return W

    def laplacian(self) -> np.ndarray:
        W = self.adjacency()
        return np.diag(W.sum(axis=1)) - W


class PathEigenbasis:
    """Eigenbasis of the Laplacian of the n-point path: the orthonormal DCT-II.

    The path Laplacian has the eigenvectors v_k(j) = s_k cos(pi k (2j + 1) / 2n),
    s_0 = sqrt(1/n) and s_k = sqrt(2/n) for k > 0, with the eigenvalues
    4 sin^2(pi k / 2n), ascending from exactly 0 (Strang, "The discrete cosine
    transform", SIAM Review 1999).  forward(v) gives the coefficients V^T v
    and inverse(c) the vector V c, each from one length-2n FFT of complex
    data: the FFT of v followed by its mirror image is
    2 exp(i pi k / 2n) (V^T v)_k / s_k, and the inverse FFT of the
    coefficients, twiddled and mirrored the same way, is V c.  numpy.fft is
    reached at call time, so no module loads it until a path is solved or a
    grid preconditioned.
    """

    def __init__(self, n: int):
        self.n = n
        k = np.arange(n)
        self.eigenvalues = 4.0 * np.sin(np.pi * k / (2 * n)) ** 2
        self.eigenvalues.setflags(write=False)
        half = np.where(k == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n)) / 2.0
        self._forward_twiddle = half * np.exp(-1j * np.pi * k / (2 * n))
        # Inverse-FFT input m in [0, 2n) is c[_mirror[m]] times its weight:
        # s_0 at m = 0 (both halves of the cosine), s_k exp(+-i pi k / 2n) / 2
        # at m = k and m = 2n - k, and 0 at m = n.
        self._mirror = np.concatenate([k, [0], k[:0:-1]])
        up = np.conj(self._forward_twiddle)
        self._inverse_twiddle = np.concatenate([2.0 * up[:1], up[1:], [0.0], self._forward_twiddle[:0:-1]])

    def forward(self, v: np.ndarray) -> np.ndarray:
        """V^T v, along the last axis."""
        return self._forward_twiddle * np.fft.fft(np.concatenate([v, v[..., ::-1]], axis=-1))[..., : self.n]

    def inverse(self, c: np.ndarray) -> np.ndarray:
        return np.fft.ifft(self._inverse_twiddle * c[self._mirror], norm="forward")[: self.n]

    @property
    def matrix(self) -> np.ndarray:
        """V, real: row j is forward(e_j) = V^T e_j."""
        return np.ascontiguousarray(self.forward(np.eye(self.n)).real)


class GridAxisEigenbasis:
    """Eigenbasis of the Laplacian L_axis of the axis edges of the m^d grid,
    the edges that join multi-indices one apart along one axis.

    L_axis is the Kronecker sum of d path Laplacians, so its eigenvectors
    are the tensor products of PathEigenbasis(m) vectors, one per axis, and
    its eigenvalues the sums of theirs; both are indexed by the
    lexicographic rank of the multi-index (k_1, ..., k_d).
    forward(v) applies V^T along every axis and inverse(c) applies V: each
    axis in turn is the leading one, a real m x m matrix multiplies the
    real and imaginary parts of all its columns at once, and the result is
    transposed so that the next axis leads, d times in all.
    """

    def __init__(self, d: int, m: int):
        path = PathEigenbasis(m)
        self.d, self.m = d, m
        self.eigenvalues = reduce(np.add.outer, [path.eigenvalues] * d).reshape(-1)
        self.eigenvalues.setflags(write=False)
        self._inverse_matrix = path.matrix
        self._forward_matrix = np.ascontiguousarray(self._inverse_matrix.T)

    def _along_every_axis(self, T: np.ndarray, v: np.ndarray) -> np.ndarray:
        x = np.asarray(v, dtype=complex)
        for _ in range(self.d):
            x = (T @ np.ascontiguousarray(x).reshape(self.m, -1).view(float)).view(complex).T
        return np.ascontiguousarray(x).reshape(-1)

    def forward(self, v: np.ndarray) -> np.ndarray:
        return self._along_every_axis(self._forward_matrix, v)

    def inverse(self, c: np.ndarray) -> np.ndarray:
        return self._along_every_axis(self._inverse_matrix, c)


def _connected(n: int, ei: np.ndarray, ej: np.ndarray) -> bool:
    """Label hooking and pointer jumping (Shiloach-Vishkin).  Each round hooks
    every root onto the smallest smaller root adjacent to its tree, then jumps
    pointers until each vertex points at its root.  A tree left unhooked has a
    smaller neighbour the next round, so unfinished trees halve every two rounds."""
    label = np.arange(n)
    while True:
        li, lj = label[ei], label[ej]
        if np.array_equal(li, lj):
            return bool((label == 0).all())
        np.minimum.at(label, np.maximum(li, lj), np.minimum(li, lj))
        while not np.array_equal(jumped := label[label], label):
            label = jumped


def path_graph(n: int) -> GraphSpec:
    return grid_graph(1, n)


def grid_graph(d: int, m: int, radius: int = 1) -> GraphSpec:
    """Neighborhood graph on the m^d grid: vertices are lexicographic ranks,
    edges join multi-indices at Chebyshev distance <= radius.  Max degree is
    (2*radius + 1)^d - 1 away from the boundary.  Each offset o in the
    positive half of {-r..r}^d pairs two slices of the rank array, a and a + o.
    The graph records its lattice (d, m, r), r = min(radius, m - 1), save
    that the complete graph on n = 2^k vertices (r = m - 1) is built as
    (k, 2, 1), or as the path (1, n, n - 1) when n <= 2."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    n, r = m ** d, min(radius, m - 1)
    if r == m - 1 and n & (n - 1) == 0:
        d, m, r = max(n.bit_length() - 1, 1), min(n, 2), min(n - 1, 1)
    ranks = np.arange(n).reshape((m,) * d)
    pairs = [np.empty((0, 2), dtype=np.int64)]
    for off in itertools.product(range(-r, r + 1), repeat=d):
        if off > (0,) * d:
            a = ranks[tuple(slice(max(0, -o), m - max(0, o)) for o in off)]
            b = ranks[tuple(slice(max(0, o), m - max(0, -o)) for o in off)]
            pairs.append(np.stack([a.ravel(), b.ravel()], axis=1))
    graph = GraphSpec(n=n, edges=np.concatenate(pairs))
    object.__setattr__(graph, "lattice", (d, m, r))
    return graph


def adjacency_apply(graph: GraphSpec, g: np.ndarray) -> np.ndarray:
    """(W g)_i = +0, plus g_j over the neighbours j > i ascending, plus g_j
    over the neighbours j < i ascending, added in that order.

    The lexicographic edge order makes the scatter add each vertex's terms
    in that order (np.add.at adds its indices in sequence), so the result is
    bit-identical to one pass per edge direction.
    """
    v = np.asarray(g)
    if v.shape != (graph.n,):
        raise ValueError(f"vector length {v.shape} does not match n = {graph.n}")
    out = np.zeros(graph.n, dtype=v.dtype)
    targets, sources = graph._scatter
    np.add.at(out, targets, v[sources])
    return out


def laplacian_apply(graph: GraphSpec, g: np.ndarray) -> np.ndarray:
    """(L g)_i = deg_i g_i - (W g)_i, with W g summed in adjacency_apply's
    per-vertex order."""
    v = np.asarray(g)
    w = adjacency_apply(graph, v)  # checks the length first
    return graph.degrees * v - w


def quadratic_form(graph: GraphSpec, g: np.ndarray) -> float:
    """g* L g as the edge sum of |g_i - g_j|^2 (always real)."""
    v = np.asarray(g)
    ei, ej = graph._edge_arrays
    return float((np.abs(v[ei] - v[ej]) ** 2).sum())


def edge_smoothness(h: np.ndarray, graph: GraphSpec) -> float:
    """Largest chordal gap max over edges of |h_i - h_j|, in [0, 2] for unit signals."""
    v = np.asarray(h)
    if v.shape != (graph.n,):
        raise ValueError(f"signal length {v.shape} does not match n = {graph.n}")
    ei, ej = graph._edge_arrays
    return float(np.max(np.abs(v[ei] - v[ej]), initial=0.0))
