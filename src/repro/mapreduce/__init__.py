"""MapReduce engine behind ``grouped by ... with map ... reduce ...``.

Large-scale orchestration "may involve masses of sensors, gathering large
amounts of data" (Section IV); the paper's answer is to leverage the
``grouped by`` construct to introduce the MapReduce programming model at
the design level.  This package is the processing substrate: the
:class:`~repro.mapreduce.api.MapReduce` interface implemented by context
components (Figure 10), the collectors their phases emit into, and an
engine with serial, thread-pool and process-pool executors.

The generated programming framework "exposes an interface that prevents
the specificities of a target MapReduce implementation to percolate to the
application logic" — accordingly, swapping executors never changes
results, which the property-based tests assert.
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
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    map_partition,
    run_mapreduce,
)
from repro.mapreduce.partition import partition_items

__all__ = [
    "CombineCollector",
    "FoldCollector",
    "MapCollector",
    "MapReduce",
    "MapReduceEngine",
    "ProcessExecutor",
    "ReduceCollector",
    "SerialExecutor",
    "ThreadExecutor",
    "job_combiner",
    "map_partition",
    "partition_items",
    "run_mapreduce",
]
