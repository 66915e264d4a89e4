"""The paper's primary contribution, ported to PySpark.

- ``pattern``    — pattern graphs, isomorphism, automorphism groups.
- ``plan``       — the pattern analyzer: matching order + symmetry order
                   + per-level constraint sets (the "search plan").
- ``codegen``    — pattern-aware code generation: executable DFS programs
                   and generated SQL (the CUDA-kernel analog).
- ``setops``     — the device-primitive library: vectorised / scalar set
                   operations.
- ``engine_dfs`` — the G2Miner execution engine: warp-centric (task-batched)
                   DFS over Spark on edge or vertex tasks, orientation.
- ``engine_bfs`` — the Pangolin/PBE-style BFS engine as Catalyst join chains.
- ``counting``   — counting-only pruning via pattern decomposition.
- ``motifs``     — k-motif counting drivers (multi-pattern).
- ``fsm``        — frequent subgraph mining with domain support.
"""
