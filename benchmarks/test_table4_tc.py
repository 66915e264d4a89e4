"""Table 4 reproduction: triangle counting, 5 systems x 6 graphs."""
import pytest

from _bench_common import bench_cell
from repro import paper_numbers as paper
from repro.harness import table_cells

CELLS = table_cells(4)
IDS = [f"{s}-{g}" for (s, w, g) in CELLS]


@pytest.mark.parametrize("system,workload,graph", CELLS, ids=IDS)
def test_table4(spark, benchmark, record, cell_timeout, system, workload, graph):
    bench_cell(spark, benchmark, record, "table4", paper.TABLE4,
               system, workload, graph, cell_timeout)
