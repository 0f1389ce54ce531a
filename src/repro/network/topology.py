"""Network topologies.

The paper's model is an *anonymous complete network*: every process can
contact every other process, but no global IDs exist — each process only has
its own private numbering of the others.  :class:`CompleteTopology` models
this; :class:`GraphTopology` generalizes to arbitrary connected graphs
(random regular, ring, torus, ...) for the "higher dimensions / robustness"
extensions the conclusion section calls out as future work.

A topology answers one question for the simulator: *which processes may
process ``i`` sample this round?*  For the complete topology the answer is
"everyone (including ``i`` itself)", matching the paper's sampling model.

The graph topologies need networkx (the ``graphs`` extra); it is imported
only when one is built, so the complete network and every importer of
this module run on NumPy alone.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Topology", "CompleteTopology", "GraphTopology", "ring_topology",
           "random_regular_topology", "torus_topology"]


class Topology(abc.ABC):
    """Abstract sampling-neighbourhood structure over ``n`` processes."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("topology needs at least one process")
        self.n = int(n)

    @abc.abstractmethod
    def sample_neighbors(self, process: int, k: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``k`` contact indices for ``process`` (with replacement)."""

    @abc.abstractmethod
    def neighbors(self, process: int) -> np.ndarray:
        """All processes that ``process`` may contact."""

    def degree(self, process: int) -> int:
        """Number of potential contacts of ``process``."""
        return int(self.neighbors(process).shape[0])

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(n={self.n})"


class CompleteTopology(Topology):
    """The paper's anonymous complete network.

    ``include_self=True`` (default) reproduces the paper's sampling model
    where a process may sample itself.
    """

    def __init__(self, n: int, include_self: bool = True) -> None:
        super().__init__(n)
        self.include_self = bool(include_self)

    def neighbors(self, process: int) -> np.ndarray:
        if not 0 <= process < self.n:
            raise IndexError("process index out of range")
        if self.include_self:
            return np.arange(self.n, dtype=np.int64)
        return np.concatenate(
            [np.arange(process, dtype=np.int64),
             np.arange(process + 1, self.n, dtype=np.int64)]
        )

    def sample_neighbors(self, process: int, k: int, rng: np.random.Generator) -> np.ndarray:
        if not 0 <= process < self.n:
            raise IndexError("process index out of range")
        if self.include_self:
            return rng.integers(0, self.n, size=k, dtype=np.int64)
        # sample uniformly among the other n-1 processes
        draws = rng.integers(0, self.n - 1, size=k, dtype=np.int64)
        return draws + (draws >= process)

    def sample_all(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Sample an ``(n, k)`` contact matrix for every process at once."""
        if self.include_self:
            return rng.integers(0, self.n, size=(self.n, k), dtype=np.int64)
        own = np.arange(self.n, dtype=np.int64)[:, None]
        draws = rng.integers(0, self.n - 1, size=(self.n, k), dtype=np.int64)
        return draws + (draws >= own)


class GraphTopology(Topology):
    """Sampling restricted to the neighbours of a (connected) graph.

    The process itself is always added to its own neighbourhood so that every
    neighbourhood is non-empty and the median rule's "including itself"
    convention carries over.
    """

    def __init__(self, graph: nx.Graph) -> None:
        import networkx as nx

        n = graph.number_of_nodes()
        super().__init__(n)
        if set(graph.nodes) != set(range(n)):
            raise ValueError("graph nodes must be labelled 0..n-1")
        if n > 1 and not nx.is_connected(graph):
            raise ValueError("topology graph must be connected")
        self.graph = graph
        self._neighbors: List[np.ndarray] = [
            np.array(sorted(set(graph.neighbors(i)) | {i}), dtype=np.int64)
            for i in range(n)
        ]

    def neighbors(self, process: int) -> np.ndarray:
        return self._neighbors[process]

    def sample_neighbors(self, process: int, k: int, rng: np.random.Generator) -> np.ndarray:
        nbrs = self._neighbors[process]
        picks = rng.integers(0, nbrs.shape[0], size=k)
        return nbrs[picks]


def ring_topology(n: int) -> GraphTopology:
    """A cycle of ``n`` processes (the 1-D 'higher dimensions' testbed)."""
    import networkx as nx

    return GraphTopology(nx.cycle_graph(n))


def random_regular_topology(
    n: int, degree: int,
    seed: Optional[int | np.random.Generator] = None,
) -> GraphTopology:
    """A random ``degree``-regular graph on ``n`` processes.

    The draw is always driven by a local ``numpy.random.Generator`` —
    ``seed=None`` means fresh OS entropy, never the ``random`` module's
    global state (rng-discipline: the process-wide stream stays untouched,
    and an integer ``seed`` fully determines the edge set).
    """
    import networkx as nx

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    graph = nx.random_regular_graph(degree, n, seed=rng)
    graph = nx.convert_node_labels_to_integers(graph)
    return GraphTopology(graph)


def torus_topology(side: int) -> GraphTopology:
    """A 2-D ``side × side`` torus (periodic grid)."""
    import networkx as nx

    graph = nx.grid_2d_graph(side, side, periodic=True)
    graph = nx.convert_node_labels_to_integers(graph, ordering="sorted")
    return GraphTopology(graph)
