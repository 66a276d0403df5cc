"""Undirected connected graphs on [0, n): adjacency, Laplacian, smoothness.

Vertices are 0-based.  Edges are stored once, as a read-only (E, 2) int64
array of rows (i, j), i < j, in lexicographic order: every edge-wise sum
accumulates in that order, whatever order the edges were given in.
The Laplacian is the combinatorial one, L = diag(W 1) - W, applied edge-wise
so that large sparse graphs never require a dense matrix.  Dense W and L are
available for small n: the dense lift of the certificate and the tests use
them, while the tightness verdict builds its matrix from the edge list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class GraphSpec:
    """Connected graph; edges is any sequence of vertex pairs or an (E, 2)
    array, validated and stored as the module docstring says.  Equality and
    hashing are by identity."""

    n: int
    edges: np.ndarray

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
    return GraphSpec(n=n, edges=np.stack([np.arange(n - 1), np.arange(1, n)], axis=1))


def grid_graph(d: int, m: int, radius: int = 1) -> GraphSpec:
    """Neighborhood graph on the m^d grid: vertices are lexicographic ranks,
    edges join multi-indices at Chebyshev distance <= radius.  Max degree is
    (2*radius + 1)^d - 1 away from the boundary.  Each offset o in the
    positive half of {-r..r}^d pairs two slices of the rank array, a and a + o."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    ranks = np.arange(m ** d).reshape((m,) * d)
    r = min(radius, m - 1)
    pairs = [np.empty((0, 2), dtype=np.int64)]
    for off in itertools.product(range(-r, r + 1), repeat=d):
        if off > (0,) * d:
            a = ranks[tuple(slice(max(0, -o), m - max(0, o)) for o in off)]
            b = ranks[tuple(slice(max(0, o), m - max(0, -o)) for o in off)]
            pairs.append(np.stack([a.ravel(), b.ravel()], axis=1))
    return GraphSpec(n=m ** d, edges=np.concatenate(pairs))


def adjacency_apply(graph: GraphSpec, g: np.ndarray) -> np.ndarray:
    v = np.asarray(g)
    if v.shape != (graph.n,):
        raise ValueError(f"vector length {v.shape} does not match n = {graph.n}")
    ei, ej = graph._edge_arrays
    out = np.zeros(graph.n, dtype=v.dtype)
    np.add.at(out, ei, v[ej])
    np.add.at(out, ej, v[ei])
    return out


def laplacian_apply(graph: GraphSpec, g: np.ndarray) -> np.ndarray:
    """(L g)_i = sum over neighbors j of (g_i - g_j), computed edge-wise."""
    v = np.asarray(g)
    w = adjacency_apply(graph, v)  # checks the length first
    return graph.degrees * v - w


def quadratic_form(graph: GraphSpec, g: np.ndarray) -> float:
    """g* L g as the edge sum of |g_i - g_j|^2 (always real)."""
    v = np.asarray(g)
    ei, ej = graph._edge_arrays
    return float(np.sum(np.abs(v[ei] - v[ej]) ** 2))


def edge_smoothness(h: np.ndarray, graph: GraphSpec) -> float:
    """Largest chordal gap max over edges of |h_i - h_j|, in [0, 2] for unit signals."""
    v = np.asarray(h)
    if v.shape != (graph.n,):
        raise ValueError(f"signal length {v.shape} does not match n = {graph.n}")
    ei, ej = graph._edge_arrays
    return float(np.max(np.abs(v[ei] - v[ej]), initial=0.0))
