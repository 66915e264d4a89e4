"""Table 8 reproduction: 3-FSM."""
import pytest

from _bench_common import bench_cell
from repro import paper_numbers as paper
from repro.harness import table_cells

CELLS = table_cells(8)
IDS = [f"{s}-{'/'.join(str(x) for x in w)}-{g}" for (s, w, g) in CELLS]


@pytest.mark.parametrize("system,workload,graph", CELLS, ids=IDS)
def test_table8(spark, benchmark, record, cell_timeout, system, workload, graph):
    bench_cell(spark, benchmark, record, "table8", paper.TABLE8,
               system, workload, graph, cell_timeout)
