"""k-motif driver tests: per-motif counts vs oracle, plus the global
identity that induced motif counts partition all connected k-subsets."""
from itertools import combinations

import numpy as np
import pytest

from repro import memory as memmod
from repro.core import codegen
from repro.core.engine_bfs import BFSEngine
from repro.core.engine_dfs import DFSEngine
from repro.core.motifs import count_motifs
from repro.core.pattern import motifs
from repro.core.plan import build_plan
from repro.graph.csr import build_csr
from repro.graph.gen import adj_pdf, generate_graph
from repro.oracle import assert_equivalent

from test_engine_dfs import count_df

BIG = 1 << 40


@pytest.fixture(scope="module")
def g():
    e, _ = generate_graph("tiny")
    return build_csr(e)


def brute_connected_subsets(g, k):
    """#connected induced k-vertex subgraphs, by brute force."""
    n = g.n
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        adj[u, g.neighbors(u)] = True
    count = 0
    for sub in combinations(range(n), k):
        A = adj[np.ix_(sub, sub)]
        seen = {0}
        stack = [0]
        while stack:
            for j in np.nonzero(A[stack.pop()])[0]:
                if j not in seen:
                    seen.add(int(j))
                    stack.append(int(j))
        count += len(seen) == k
    return count


@pytest.mark.parametrize("k", [3, 4])
def test_motif_counts_partition_connected_subsets(spark, g, k):
    out = count_motifs(spark, g, k, DFSEngine(), meter=memmod.MemoryMeter(BIG))
    assert len(out) == (2 if k == 3 else 6)
    assert sum(out.values()) == brute_connected_subsets(g, k)


def test_motif_names_match_fig3(spark, g):
    out = count_motifs(spark, g, 4, DFSEngine(), meter=memmod.MemoryMeter(BIG))
    assert set(out) == {
        "4-path", "3-star", "tailed-triangle", "4-cycle", "diamond", "4-clique"
    }


@pytest.mark.parametrize("k", [3, 4])
def test_motifs_bfs_equals_dfs(spark, g, k):
    dfs = count_motifs(spark, g, k, DFSEngine(), meter=memmod.MemoryMeter(BIG))
    bfs = count_motifs(spark, g, k, BFSEngine(), meter=memmod.MemoryMeter(BIG))
    assert dfs == bfs


def test_each_motif_matches_oracle(spark, g):
    eng = DFSEngine()
    adj = adj_pdf("tiny")
    for p in motifs(3):
        df = count_df(spark, eng, g, p, induced=True, meter=memmod.MemoryMeter(BIG))
        sql = codegen.pattern_sql(build_plan(p, induced=True))
        assert_equivalent(df, sql, adj=adj)
