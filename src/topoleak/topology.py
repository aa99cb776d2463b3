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
    InvalidConfig,
    InvalidProbability,
    InvalidSize,
    ParseError,
    ShapeError,
)

ER_MAX_RESAMPLES = 10_000


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
                raise InvalidConfig(f"self-loop at node {u}")
            if not (0 <= u < v < self.n_nodes):
                raise InvalidConfig(f"edge ({u}, {v}) outside canonical range")
            if (u, v) in seen:
                raise InvalidConfig(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @staticmethod
    def from_pairs(n_nodes: int, pairs) -> "Topology":
        """Build a topology from arbitrary (u, v) pairs, canonicalizing order."""
        canon = sorted({(min(u, v), max(u, v)) for u, v in pairs})
        return Topology(n_nodes=n_nodes, edges=tuple(canon))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

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


def pair_index(n: int) -> np.ndarray:
    """The (n(n-1)/2, 2) array of unordered pairs i < j in row-major order:
    (0, 1), (0, 2), ..., (n-2, n-1), as ``np.triu_indices(n, 1)`` stacked.
    Every per-pair array in topoleak (ER draws, labeled pairs, scored pairs,
    pair scores) is in this order."""
    return np.argwhere(~np.tri(n, dtype=bool))  # the cells above the diagonal


def check_generator(kind: str, n: int, p: float | None = None) -> None:
    """What the generator of ``kind`` (ring, star or erdos_renyi) refuses
    before it draws: fewer nodes than it needs, or an ER p absent or outside
    (0, 1]; another kind is an InvalidConfig."""
    sizes = {"ring": (3, "ring"), "star": (2, "star"), "erdos_renyi": (2, "Erdos-Renyi")}
    if kind not in sizes:
        raise InvalidConfig(f"unknown topology kind {kind!r}")
    least, name = sizes[kind]
    if n < least:
        raise InvalidSize(f"{name} needs n >= {least}, got {n}")
    if kind == "erdos_renyi":
        if p is None:
            raise InvalidConfig("an Erdos-Renyi topology needs an edge probability p")
        if not (0.0 < p <= 1.0):
            raise InvalidProbability(f"p must be in (0, 1], got {p}")


def gen_ring(n: int) -> Topology:
    """Ring over n >= 3 nodes: node i joined to (i + 1) mod n."""
    check_generator("ring", n)
    return Topology.from_pairs(n, [(i, (i + 1) % n) for i in range(n)])


def gen_star(n: int) -> Topology:
    """Star over n >= 2 nodes with node 0 as the hub."""
    check_generator("star", n)
    return Topology.from_pairs(n, [(0, i) for i in range(1, n)])


def gen_erdos_renyi(n: int, p: float, seed: int) -> Topology:
    """G(n, p) conditioned on connectivity.

    Each unordered pair is included independently with probability p; the
    whole graph is resampled (up to ER_MAX_RESAMPLES times) until it comes
    out connected.  The edge set is a deterministic function of
    (n, p, seed).
    """
    check_generator("erdos_renyi", n, p)
    rng = np.random.default_rng(seed)
    pairs = pair_index(n)
    for _ in range(ER_MAX_RESAMPLES):
        keep = rng.random(len(pairs)) < p
        t = Topology(n, tuple(map(tuple, pairs[keep].tolist())))
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
        raise ShapeError(f"adjacency must be square, got {a.shape}")
    if not np.array_equal(a, a.T):
        raise InvalidConfig("adjacency must be symmetric")
    if np.any(np.diag(a) != 0):
        raise InvalidConfig("adjacency must have a zero diagonal")
    if not np.all((a == 0) | (a == 1)):
        raise InvalidConfig("adjacency entries must be 0 or 1")


def aggregation_matrix(a: np.ndarray) -> np.ndarray:
    """Row-stochastic neighbor-averaging matrix ``D^-1 (A + I)``.

    Row i weighs node i itself and each of its neighbors by
    1 / (degree(i) + 1).  Requires a connected adjacency.
    """
    _check_adjacency(a)
    n = a.shape[0]
    t = Topology.from_pairs(n, np.argwhere(np.triu(a) != 0).tolist())
    if not is_connected(t):
        raise DisconnectedGraph("aggregation matrix requires a connected graph")
    deg = a.sum(axis=1) + 1.0
    return (a + np.eye(n)) / deg[:, None]


def second_eigenvalue_modulus(p: np.ndarray) -> float:
    """|lambda_2| of the aggregation matrix, from an exact symmetric eigensolve.

    P is similar to the symmetric matrix S = D^-1/2 (A + I) D^-1/2 through
    D^1/2, so it has S's eigenvalues, which ``eigvalsh`` returns in ascending
    order. The last is the consensus eigenvalue 1; |lambda_2| is the largest
    modulus of the others, so a negative second eigenvalue counts too.
    """
    if p.shape[0] == 1:
        return 0.0
    d_half = np.sqrt(1.0 / np.diag(p))  # P_ii = 1/(degree+1) recovers D
    s = p * (d_half[:, None] / d_half[None, :])
    return float(np.abs(np.linalg.eigvalsh(s)[:-1]).max())


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
