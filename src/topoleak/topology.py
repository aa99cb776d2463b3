"""Overlay topologies: generation, loading, stats, and the aggregation matrix.

A topology is an undirected, connected, simple graph over nodes 0..N-1.
The neighbor-averaging step of the federation is governed by the
row-stochastic matrix ``P = D^-1 (A + I)`` where ``D_ii = degree(i) + 1``;
its second eigenvalue modulus controls how fast disagreement between node
models decays, so it is reported alongside the basic graph statistics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import (
    DisconnectedGraph,
    GenerationFailed,
    InvalidProbability,
    InvalidSize,
    ParseError,
)

ER_MAX_RESAMPLES = 10_000
EIG_TOL = 1e-10
EIG_MAX_ITER = 100_000


@dataclass(frozen=True)
class Topology:
    """Undirected simple graph; edges are canonical (i, j) pairs with i < j."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_nodes < 1:
            raise InvalidSize(f"n_nodes must be positive, got {self.n_nodes}")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < v < self.n_nodes):
                raise ValueError(f"edge ({u}, {v}) outside canonical range")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @staticmethod
    def from_pairs(n_nodes: int, pairs) -> "Topology":
        """Build a topology from arbitrary (u, v) pairs, canonicalizing order."""
        canon = sorted({(min(u, v), max(u, v)) for u, v in pairs})
        return Topology(n_nodes=n_nodes, edges=tuple(canon))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, i: int) -> list[int]:
        out = [v for u, v in self.edges if u == i]
        out += [u for u, v in self.edges if v == i]
        return sorted(out)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_nodes, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass(frozen=True)
class TopologyStats:
    n_nodes: int
    n_edges: int
    avg_degree: float
    density: float
    second_eigenvalue_modulus: float


def is_connected(t: Topology) -> bool:
    """BFS reachability from node 0."""
    if t.n_nodes == 1:
        return True
    adj = [[] for _ in range(t.n_nodes)]
    for u, v in t.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * t.n_nodes
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == t.n_nodes


def gen_ring(n: int) -> Topology:
    """Ring over n >= 3 nodes: node i joined to (i + 1) mod n."""
    if n < 3:
        raise InvalidSize(f"ring needs n >= 3, got {n}")
    return Topology.from_pairs(n, [(i, (i + 1) % n) for i in range(n)])


def gen_star(n: int) -> Topology:
    """Star over n >= 2 nodes with node 0 as the hub."""
    if n < 2:
        raise InvalidSize(f"star needs n >= 2, got {n}")
    return Topology.from_pairs(n, [(0, i) for i in range(1, n)])


def gen_erdos_renyi(n: int, p: float, seed: int) -> Topology:
    """G(n, p) conditioned on connectivity.

    Each unordered pair is included independently with probability p; the
    whole graph is resampled (up to ER_MAX_RESAMPLES times) until it comes
    out connected.  The edge set is a deterministic function of
    (n, p, seed).
    """
    if n < 2:
        raise InvalidSize(f"Erdos-Renyi needs n >= 2, got {n}")
    if not (0.0 < p <= 1.0):
        raise InvalidProbability(f"p must be in (0, 1], got {p}")
    rng = np.random.default_rng(seed)
    n_pairs = n * (n - 1) // 2
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(ER_MAX_RESAMPLES):
        mask = rng.random(n_pairs) < p
        t = Topology(n, tuple(pair for pair, keep in zip(pairs, mask) if keep))
        if is_connected(t):
            return t
    raise GenerationFailed(
        f"no connected G({n}, {p}) within {ER_MAX_RESAMPLES} resamples"
    )


def load_topology(text: str) -> Topology:
    """Parse the edge-list format: header "N M", then M lines "u v".

    Lines starting with '#' are comments.  Node indices must be in [0, N);
    duplicate edges and self-loops are rejected.  The parsed graph must be
    connected.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise ParseError(0, "empty document")

    lineno, header = rows[0]
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(lineno, f"header must be 'N M', got {header!r}")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(lineno, f"non-integer header {header!r}") from None
    if n < 1 or m < 0:
        raise ParseError(lineno, f"invalid sizes N={n} M={m}")

    body = rows[1:]
    if len(body) != m:
        raise ParseError(
            body[-1][0] if body else lineno,
            f"expected {m} edge lines, found {len(body)}",
        )

    edges = []
    seen = set()
    for lineno, line in body:
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(lineno, f"edge line must be 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(lineno, f"non-integer edge {line!r}") from None
        if u < 0 or v < 0 or u >= n or v >= n:
            raise ParseError(lineno, f"node index outside [0, {n}) in {line!r}")
        if u == v:
            raise ParseError(lineno, f"self-loop at node {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(lineno, f"duplicate edge {key}")
        seen.add(key)
        edges.append(key)

    t = Topology.from_pairs(n, edges)
    if not is_connected(t):
        raise DisconnectedGraph(f"loaded graph with {n} nodes is not connected")
    return t


def dump_topology(t: Topology) -> str:
    """Serialize to the same edge-list format load_topology reads."""
    lines = [f"{t.n_nodes} {t.n_edges}"]
    lines += [f"{u} {v}" for u, v in t.edges]
    return "\n".join(lines) + "\n"


def fixture_path(name: str):
    """Path to a bundled real-world topology edge list (e.g. 'abilene')."""
    return resources.files("topoleak") / "fixtures" / "topologies" / f"{name.lower()}.edges"


def load_fixture(name: str) -> Topology:
    return load_topology(fixture_path(name).read_text())


def adjacency_matrix(t: Topology) -> np.ndarray:
    """N x N symmetric 0/1 matrix with zero diagonal."""
    a = np.zeros((t.n_nodes, t.n_nodes), dtype=np.float64)
    for u, v in t.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def _check_adjacency(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency must be symmetric")
    if np.any(np.diag(a) != 0):
        raise ValueError("adjacency must have a zero diagonal")
    if not np.all((a == 0) | (a == 1)):
        raise ValueError("adjacency entries must be 0 or 1")


def aggregation_matrix(a: np.ndarray) -> np.ndarray:
    """Row-stochastic neighbor-averaging matrix ``D^-1 (A + I)``.

    Row i weighs node i itself and each of its neighbors by
    1 / (degree(i) + 1).  Requires a connected adjacency.
    """
    _check_adjacency(a)
    n = a.shape[0]
    t = Topology.from_pairs(n, [(i, j) for i in range(n) for j in range(i + 1, n) if a[i, j]])
    if not is_connected(t):
        raise DisconnectedGraph("aggregation matrix requires a connected graph")
    deg = a.sum(axis=1) + 1.0
    return (a + np.eye(n)) / deg[:, None]


def second_eigenvalue_modulus(p: np.ndarray) -> float:
    """|lambda_2| of the aggregation matrix via deflated power iteration.

    P is similar to the symmetric matrix S = D^-1/2 (A + I) D^-1/2 through
    D^1/2, so the iteration runs on S, whose dominant eigenvector (the image
    of the all-ones consensus direction) is deflated by projection at every
    step.  The modulus estimate is the norm growth ratio, which converges
    even when the second eigenvalue is negative or paired.
    """
    n = p.shape[0]
    if n == 1:
        return 0.0
    deg = 1.0 / np.diag(p)  # P_ii = 1/(degree+1) recovers D
    d_half = np.sqrt(deg)
    s = p * (d_half[:, None] / d_half[None, :])
    u1 = d_half / np.linalg.norm(d_half)

    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(n)
    v -= (u1 @ v) * u1
    norm = np.linalg.norm(v)
    if norm < 1e-300:
        return 0.0
    v /= norm

    estimate = 0.0
    for _ in range(EIG_MAX_ITER):
        w = s @ v
        w -= (u1 @ w) * u1
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            return 0.0
        new_estimate = norm
        v = w / norm
        if abs(new_estimate - estimate) <= EIG_TOL:
            return new_estimate
        estimate = new_estimate
    return estimate


def stats(t: Topology) -> TopologyStats:
    """Node/edge counts, average degree 2E/N, density 2E/(N(N-1)), |lambda_2|."""
    n, e = t.n_nodes, t.n_edges
    p = aggregation_matrix(adjacency_matrix(t))
    return TopologyStats(
        n_nodes=n,
        n_edges=e,
        avg_degree=2.0 * e / n,
        density=2.0 * e / (n * (n - 1)) if n > 1 else 0.0,
        second_eigenvalue_modulus=second_eigenvalue_modulus(p),
    )
