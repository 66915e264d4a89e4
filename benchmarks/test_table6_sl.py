"""Table 6 reproduction: subgraph listing."""
import pytest

from _bench_common import bench_cell
from repro import paper_numbers as paper
from repro.harness import table_cells

CELLS = table_cells(6)
IDS = [f"{s}-{'/'.join(str(x) for x in w)}-{g}" for (s, w, g) in CELLS]


@pytest.mark.parametrize("system,workload,graph", CELLS, ids=IDS)
def test_table6(spark, benchmark, record, cell_timeout, system, workload, graph):
    bench_cell(spark, benchmark, record, "table6", paper.TABLE6,
               system, workload, graph, cell_timeout)
