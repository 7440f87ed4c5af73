"""MapReduce engine behind ``grouped by ... with map ... reduce ...``.

Large-scale orchestration "may involve masses of sensors, gathering large
amounts of data" (Section IV); the paper's answer is to leverage the
``grouped by`` construct to introduce the MapReduce programming model at
the design level.  This package is the processing substrate: the
:class:`~repro.mapreduce.api.MapReduce` interface implemented by context
components (Figure 10), the collectors their phases emit into, and an
engine whose map side (:func:`map_partition`) maps one partition of the
readings — a whole sweep in process, or a shard per worker process of a
sharded runtime, in parallel — and whose reduce merges the partitions.

The generated programming framework "exposes an interface that prevents
the specificities of a target MapReduce implementation to percolate to the
application logic" — accordingly, how the readings are partitioned never
changes results, which the property-based tests assert.
"""

from repro.mapreduce.api import (
    CombineCollector,
    FoldCollector,
    MapCollector,
    MapReduce,
    ReduceCollector,
    job_combiner,
)
from repro.mapreduce.engine import (
    MapReduceEngine,
    map_partition,
    run_mapreduce,
)

__all__ = [
    "CombineCollector",
    "FoldCollector",
    "MapCollector",
    "MapReduce",
    "MapReduceEngine",
    "ReduceCollector",
    "job_combiner",
    "map_partition",
    "run_mapreduce",
]
