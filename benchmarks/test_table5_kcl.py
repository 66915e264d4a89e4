"""Table 5 reproduction: k-clique listing."""
import pytest

from _bench_common import bench_cell
from repro import paper_numbers as paper
from repro.harness import table_cells

CELLS = table_cells(5)
IDS = [f"{s}-{'/'.join(str(x) for x in w)}-{g}" for (s, w, g) in CELLS]


@pytest.mark.parametrize("system,workload,graph", CELLS, ids=IDS)
def test_table5(spark, benchmark, record, cell_timeout, system, workload, graph):
    bench_cell(spark, benchmark, record, "table5", paper.TABLE5,
               system, workload, graph, cell_timeout)
