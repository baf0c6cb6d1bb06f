"""Node catalogs: per-hierarchy-node densities, read costs, and sizes.

Every cut-selection algorithm consumes a :class:`NodeCatalog`, which maps
hierarchy nodes to the three quantities the paper's cost formulas need:

* **density** ``D_Bn`` — fraction of rows whose value falls under the node;
* **read cost** — the IO charge for fetching the node's bitmap (MB);
* **size** ``S_Bn`` — the bitmap's memory footprint for the Case-3 budget.

Two implementations:

* :class:`ModeledNodeCatalog` computes densities analytically from leaf
  value frequencies and prices them with a
  :class:`~repro.storage.costmodel.CostModel`.  This is how the
  experiments run at the paper's 150M-row scale without materializing
  150M-row bitmaps.
* :class:`MaterializedNodeCatalog` builds real WAH bitmaps from a column,
  serializes them into a :class:`~repro.storage.filestore.BitmapFileStore`,
  and reports *measured* file sizes.  Used for end-to-end execution tests
  and the Fig. 1 calibration.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..bitmap.builder import node_positions
from ..bitmap.serialization import deserialize_wah, serialize_wah
from ..bitmap.wah import WahBitmap
from ..errors import StorageError
from ..hierarchy.tree import Hierarchy
from .costmodel import MB, CostModel
from .filestore import BitmapFileStore

__all__ = [
    "NodeCatalog",
    "ModeledNodeCatalog",
    "MaterializedNodeCatalog",
    "node_file_name",
    "node_id_from_file_name",
]


def node_file_name(node_id: int) -> str:
    """Canonical bitmap file name for a hierarchy node."""
    return f"node_{node_id}.wah"


def node_id_from_file_name(name: str) -> int | None:
    """Inverse of :func:`node_file_name`.

    Returns the node id encoded in a canonical bitmap file name, or
    ``None`` when the name does not follow the ``node_<id>.wah``
    convention — used by the scrubber to decide whether a damaged file
    maps to a hierarchy node at all.
    """
    if not (name.startswith("node_") and name.endswith(".wah")):
        return None
    digits = name[len("node_"):-len(".wah")]
    if not digits.isdigit():
        return None
    return int(digits)


class NodeCatalog:
    """Shared bookkeeping for per-node densities, costs, and sizes.

    Subclasses populate ``_densities`` (array over node ids) and either
    rely on the cost model for costs/sizes or override them with
    measured values.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        densities: np.ndarray,
        read_costs_mb: np.ndarray,
        sizes_mb: np.ndarray,
        num_rows: int,
    ):
        self._hierarchy = hierarchy
        self._densities = np.asarray(densities, dtype=float)
        self._read_costs = np.asarray(read_costs_mb, dtype=float)
        self._sizes = np.asarray(sizes_mb, dtype=float)
        self._num_rows = int(num_rows)
        expected = hierarchy.num_nodes
        for label, array in (
            ("densities", self._densities),
            ("read costs", self._read_costs),
            ("sizes", self._sizes),
        ):
            if array.shape != (expected,):
                raise ValueError(
                    f"{label} must have one entry per node "
                    f"({expected}), got shape {array.shape}"
                )
        # Prefix sums of *leaf* read costs in leaf-value order enable
        # O(1) range-sum lookups inside the cost formulas.
        leaf_costs = np.array(
            [
                self._read_costs[node_id]
                for node_id in hierarchy.leaf_ids()
            ],
            dtype=float,
        )
        self._leaf_cost_prefix = np.concatenate(
            ([0.0], np.cumsum(leaf_costs))
        )
        leaf_sizes = np.array(
            [
                self._sizes[node_id]
                for node_id in hierarchy.leaf_ids()
            ],
            dtype=float,
        )
        self._leaf_size_prefix = np.concatenate(
            ([0.0], np.cumsum(leaf_sizes))
        )

    # ------------------------------------------------------------------
    @property
    def hierarchy(self) -> Hierarchy:
        """The hierarchy this catalog describes."""
        return self._hierarchy

    @property
    def num_rows(self) -> int:
        """Number of rows in the indexed column."""
        return self._num_rows

    def density(self, node_id: int) -> float:
        """Bit density of the node's bitmap."""
        return float(self._densities[node_id])

    def read_cost_mb(self, node_id: int) -> float:
        """IO cost (MB) of reading the node's bitmap from storage."""
        return float(self._read_costs[node_id])

    def size_mb(self, node_id: int) -> float:
        """Memory footprint ``S_Bn`` (MB) of the node's bitmap."""
        return float(self._sizes[node_id])

    def read_cost_array(self) -> np.ndarray:
        """Read costs (MB) indexed by node id (read-only view)."""
        view = self._read_costs.view()
        view.flags.writeable = False
        return view

    def size_array(self) -> np.ndarray:
        """Sizes (MB) indexed by node id (read-only view)."""
        view = self._sizes.view()
        view.flags.writeable = False
        return view

    def node_span_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node ``leaf_lo`` / ``leaf_hi`` arrays (cached views).

        These power the vectorized per-query statistics: one numpy
        expression computes every node's overlap with a range spec.
        """
        if not hasattr(self, "_span_lo"):
            nodes = self._hierarchy.nodes()
            self._span_lo = np.array(
                [node.leaf_lo for node in nodes], dtype=np.int64
            )
            self._span_hi = np.array(
                [node.leaf_hi for node in nodes], dtype=np.int64
            )
            self._span_lo.flags.writeable = False
            self._span_hi.flags.writeable = False
        return self._span_lo, self._span_hi

    @property
    def leaf_cost_prefix(self) -> np.ndarray:
        """Prefix sums of leaf read costs by leaf value (read-only):
        ``prefix[i]`` is the total cost of leaf values ``< i``."""
        view = self._leaf_cost_prefix.view()
        view.flags.writeable = False
        return view

    def leaf_range_cost(self, lo: int, hi: int) -> float:
        """Sum of leaf read costs over leaf values ``[lo, hi]`` inclusive.

        Empty ranges (``hi < lo``) cost zero.
        """
        if hi < lo:
            return 0.0
        return float(
            self._leaf_cost_prefix[hi + 1] - self._leaf_cost_prefix[lo]
        )

    def leaf_range_size(self, lo: int, hi: int) -> float:
        """Sum of leaf sizes (MB) over leaf values ``[lo, hi]``."""
        if hi < lo:
            return 0.0
        return float(
            self._leaf_size_prefix[hi + 1] - self._leaf_size_prefix[lo]
        )

    def subtree_leaf_cost(self, node_id: int) -> float:
        """Total read cost of all leaf bitmaps under a node."""
        node = self._hierarchy.node(node_id)
        return self.leaf_range_cost(node.leaf_lo, node.leaf_hi)


class ModeledNodeCatalog(NodeCatalog):
    """Analytic catalog: densities from leaf frequencies, costs from a
    :class:`CostModel`.

    This is the fast path used by all the paper-scale experiments: a
    150M-row dataset is represented by its leaf-value *distribution*, and
    every bitmap's density (hence modeled size/cost) follows from it.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        leaf_probabilities: np.ndarray,
        cost_model: CostModel,
        num_rows: int,
    ):
        probabilities = np.asarray(leaf_probabilities, dtype=float)
        if probabilities.shape != (hierarchy.num_leaves,):
            raise ValueError(
                f"need one probability per leaf "
                f"({hierarchy.num_leaves}), got shape "
                f"{probabilities.shape}"
            )
        if (probabilities < 0).any():
            raise ValueError("leaf probabilities must be non-negative")
        total = probabilities.sum()
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(
                f"leaf probabilities must sum to 1, got {total}"
            )
        prefix = np.concatenate(([0.0], np.cumsum(probabilities)))
        densities = np.empty(hierarchy.num_nodes, dtype=float)
        for node in hierarchy:
            mass = prefix[node.leaf_hi + 1] - prefix[node.leaf_lo]
            densities[node.node_id] = min(max(float(mass), 0.0), 1.0)
        costs = np.array(
            [
                cost_model.read_cost_mb(density)
                for density in densities
            ],
            dtype=float,
        )
        super().__init__(
            hierarchy,
            densities=densities,
            read_costs_mb=costs,
            sizes_mb=costs.copy(),
            num_rows=num_rows,
        )
        self._cost_model = cost_model
        self._leaf_probabilities = probabilities

    @property
    def cost_model(self) -> CostModel:
        """The cost model pricing this catalog."""
        return self._cost_model

    @property
    def leaf_probabilities(self) -> np.ndarray:
        """Per-leaf value frequencies (read-only view)."""
        view = self._leaf_probabilities.view()
        view.flags.writeable = False
        return view

    @classmethod
    def from_leaf_counts(
        cls,
        hierarchy: Hierarchy,
        leaf_counts: np.ndarray,
        cost_model: CostModel,
    ) -> "ModeledNodeCatalog":
        """Build from raw per-leaf row counts (e.g. a histogram)."""
        counts = np.asarray(leaf_counts, dtype=float)
        total = counts.sum()
        if total <= 0:
            raise ValueError("leaf counts must sum to a positive total")
        return cls(
            hierarchy, counts / total, cost_model, num_rows=int(total)
        )


class MaterializedNodeCatalog(NodeCatalog):
    """Catalog backed by real WAH bitmaps in a file store.

    Builds one bitmap per hierarchy node from a column of leaf ids
    (:func:`~repro.bitmap.builder.node_positions`), serializes each to
    ``node_<id>.wah`` in the given store, and reports **measured** file
    sizes as both read cost and memory footprint.  A column that is not
    a 1-D array of integral leaf ids in ``[0, num_leaves)`` raises
    :class:`~repro.errors.WorkloadError` before anything is written.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        column: np.ndarray,
        store: BitmapFileStore | None = None,
    ):
        column = np.asarray(column)
        groups = node_positions(hierarchy, column)
        self._store = store if store is not None else BitmapFileStore()
        densities = np.empty(hierarchy.num_nodes, dtype=float)
        sizes = np.empty(hierarchy.num_nodes, dtype=float)
        num_rows = int(column.size)
        with self._begin_write(hierarchy, num_rows) as write_file:
            for node_id, positions in groups:
                bitmap = WahBitmap.from_positions(positions, num_rows)
                payload = serialize_wah(bitmap)
                write_file(node_file_name(node_id), payload)
                densities[node_id] = (
                    positions.size / num_rows if num_rows else 0.0
                )
                sizes[node_id] = len(payload) / MB
        super().__init__(
            hierarchy,
            densities=densities,
            read_costs_mb=sizes,
            sizes_mb=sizes.copy(),
            num_rows=num_rows,
        )

    @contextmanager
    def _begin_write(self, hierarchy: Hierarchy, num_rows: int):
        """Yield a ``write(name, payload)`` callable for the build.

        On a :class:`~repro.storage.manifest.DurableBitmapStore` the
        whole build is staged and committed as one atomic generation
        (with the hierarchy fingerprint and row count recorded in the
        manifest) — a crash mid-build leaves the previous generation
        fully live.  On a plain store, files are written directly.
        """
        from .manifest import DurableBitmapStore, hierarchy_fingerprint

        if isinstance(self._store, DurableBitmapStore):
            with self._store.begin_build(
                hierarchy_fingerprint=hierarchy_fingerprint(hierarchy),
                num_rows=num_rows,
            ) as build:
                yield build.add
        else:
            yield self._store.write

    @classmethod
    def from_store(
        cls,
        hierarchy: Hierarchy,
        store: BitmapFileStore,
    ) -> "MaterializedNodeCatalog":
        """Reopen a catalog over already-materialized bitmaps.

        Rehydrates densities and measured sizes by reading every node's
        stored bitmap instead of rebuilding from a column — this is the
        crash-recovery path: build once, reopen after restart.  On a
        :class:`~repro.storage.manifest.DurableBitmapStore` the
        manifest's hierarchy fingerprint is verified first, so an index
        built for a different hierarchy is rejected up front.  Raises
        :class:`~repro.errors.StorageError` when a node's bitmap is
        absent.  A durable store's files are read as committed, the way
        the scrubber and compactor read them, not through its
        read-fault injector.
        """
        from .manifest import DurableBitmapStore

        read = store.read
        if isinstance(store, DurableBitmapStore):
            store.verify_hierarchy(hierarchy)
            read = store.read_physical
        catalog = cls.__new__(cls)
        catalog._store = store
        densities = np.empty(hierarchy.num_nodes, dtype=float)
        sizes = np.empty(hierarchy.num_nodes, dtype=float)
        num_rows = 0
        for node in hierarchy:
            name = node_file_name(node.node_id)
            if not store.exists(name):
                raise StorageError(
                    f"store has no bitmap for node {node.node_id} "
                    f"({name!r}); cannot reopen catalog"
                )
            payload = read(name)
            bitmap = deserialize_wah(payload)
            densities[node.node_id] = bitmap.density()
            sizes[node.node_id] = len(payload) / MB
            num_rows = max(num_rows, bitmap.num_bits)
        NodeCatalog.__init__(
            catalog,
            hierarchy,
            densities=densities,
            read_costs_mb=sizes,
            sizes_mb=sizes.copy(),
            num_rows=num_rows,
        )
        return catalog

    @property
    def store(self) -> BitmapFileStore:
        """The file store holding the serialized bitmaps."""
        return self._store

    def file_name(self, node_id: int) -> str:
        """Bitmap file name for a node."""
        return node_file_name(node_id)

    def bitmap(self, node_id: int) -> WahBitmap:
        """Deserialize and return a node's bitmap (bypassing any cache)."""
        name = node_file_name(node_id)
        if not self._store.exists(name):
            raise StorageError(f"no bitmap stored for node {node_id}")
        return deserialize_wah(self._store.read(name))
