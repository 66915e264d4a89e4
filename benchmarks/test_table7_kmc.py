"""Table 7 reproduction: k-motif counting."""
import pytest

from _bench_common import bench_cell
from repro import paper_numbers as paper
from repro.harness import table_cells

CELLS = table_cells(7)
IDS = [f"{s}-{'/'.join(str(x) for x in w)}-{g}" for (s, w, g) in CELLS]


@pytest.mark.parametrize("system,workload,graph", CELLS, ids=IDS)
def test_table7(spark, benchmark, record, cell_timeout, system, workload, graph):
    bench_cell(spark, benchmark, record, "table7", paper.TABLE7,
               system, workload, graph, cell_timeout)
