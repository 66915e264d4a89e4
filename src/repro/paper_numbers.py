"""The paper's reported numbers (Tables 4-9), kept next to ours.

Values are seconds; "OoM" / "TO" markers reproduce the paper's cells.
EXPERIMENTS.md diffs these against measured results — absolute times are
not comparable (V100s vs a Spark local-mode simulator at ~1/2000 data
scale); the *shape* (ordering, OoM/TO pattern, rough factors) is.
"""

OOM = "OoM"
TO = "TO"

# Table 4: TC running time (sec).
TABLE4 = {
    "G2Miner": {"Lj": 0.03, "Or": 0.14, "Tw2": 1.6, "Tw4": 5.1, "Fr": 3.2, "Uk": 7.5},
    "Pangolin": {"Lj": 0.06, "Or": 0.25, "Tw2": 3.0, "Tw4": OOM, "Fr": 5.2, "Uk": OOM},
    "PBE": {"Lj": 0.27, "Or": 1.12, "Tw2": 13.4, "Tw4": 53.5, "Fr": 23.0, "Uk": 55.3},
    "Peregrine": {"Lj": 1.63, "Or": 7.25, "Tw2": 112.1, "Tw4": 8492.4, "Fr": 100.3, "Uk": 3640.9},
    "GraphZero": {"Lj": 0.61, "Or": 2.22, "Tw2": 24.4, "Tw4": 1399.3, "Fr": 49.0, "Uk": 1041.3},
}

# Table 5: k-CL running time (sec); keys are (k, graph).
TABLE5 = {
    "G2Miner": {(4, "Lj"): 0.32, (4, "Or"): 0.54, (4, "Tw2"): 113.3, (4, "Tw4"): 362.9,
                (4, "Fr"): 7.3, (5, "Lj"): 3.2, (5, "Or"): 1.7, (5, "Fr"): 13.1},
    "Pangolin": {(4, "Lj"): 1.48, (4, "Or"): 4.04, (4, "Tw2"): OOM, (4, "Tw4"): OOM,
                 (4, "Fr"): OOM, (5, "Lj"): OOM, (5, "Or"): OOM, (5, "Fr"): OOM},
    "PBE": {(4, "Lj"): 3.90, (4, "Or"): 11.11, (4, "Tw2"): 3640.1, (4, "Tw4"): TO,
            (4, "Fr"): 117.8, (5, "Lj"): 246.4, (5, "Or"): 99.2, (5, "Fr"): 399.8},
    "Peregrine": {(4, "Lj"): 15.90, (4, "Or"): 73.70, (4, "Tw2"): 39921.0, (4, "Tw4"): TO,
                  (4, "Fr"): 397.3, (5, "Lj"): 520.8, (5, "Or"): 782.1, (5, "Fr"): 957.6},
    "GraphZero": {(4, "Lj"): 3.48, (4, "Or"): 12.96, (4, "Tw2"): 2152.2, (4, "Tw4"): 20591.1,
                  (4, "Fr"): 177.7, (5, "Lj"): 60.0, (5, "Or"): 48.3, (5, "Fr"): 243.3},
}

# Table 6: SL running time (sec); keys are (pattern, graph).
TABLE6 = {
    "G2Miner": {("diamond", "Lj"): 0.29, ("diamond", "Or"): 0.75, ("diamond", "Tw2"): 26.8,
                ("diamond", "Tw4"): 183.1, ("diamond", "Fr"): 12.8,
                ("4-cycle", "Lj"): 2.7, ("4-cycle", "Or"): 33.7, ("4-cycle", "Fr"): 1291.2},
    "PBE": {("diamond", "Lj"): 0.48, ("diamond", "Or"): 1.71, ("diamond", "Tw2"): 26.3,
            ("diamond", "Tw4"): 102.0, ("diamond", "Fr"): 39.9,
            ("4-cycle", "Lj"): 17.3, ("4-cycle", "Or"): 177.8, ("4-cycle", "Fr"): 5211.3},
    "Peregrine": {("diamond", "Lj"): 5.38, ("diamond", "Or"): 10.24, ("diamond", "Tw2"): 553.6,
                  ("diamond", "Tw4"): 20898.4, ("diamond", "Fr"): 178.1,
                  ("4-cycle", "Lj"): 144.4, ("4-cycle", "Or"): 1867.2, ("4-cycle", "Fr"): 32276.8},
    "GraphZero": {("diamond", "Lj"): 1.73, ("diamond", "Or"): 7.27, ("diamond", "Tw2"): 165.1,
                  ("diamond", "Tw4"): 7938.6, ("diamond", "Fr"): 136.4,
                  ("4-cycle", "Lj"): 34.0, ("4-cycle", "Or"): 345.5, ("4-cycle", "Fr"): 9251.5},
}

# Table 7: k-MC running time (sec); keys are (k, graph).
TABLE7 = {
    "G2Miner": {(3, "Lj"): 0.17, (3, "Or"): 0.97, (3, "Tw2"): 33.3, (3, "Tw4"): 1703.6,
                (3, "Fr"): 22.0, (4, "Lj"): 138.1, (4, "Or"): 2068.4, (4, "Fr"): 15475.4},
    "Pangolin": {(3, "Lj"): 2.05, (3, "Or"): 22.62, (3, "Tw2"): 1165.5, (3, "Tw4"): OOM,
                 (3, "Fr"): OOM, (4, "Lj"): OOM, (4, "Or"): OOM, (4, "Fr"): OOM},
    "Peregrine": {(3, "Lj"): 9.36, (3, "Or"): 19.46, (3, "Tw2"): 418.7, (3, "Tw4"): 27954.9,
                  (3, "Fr"): 367.9, (4, "Lj"): 1435.4, (4, "Or"): 20219.1, (4, "Fr"): TO},
    "GraphZero": {(3, "Lj"): 1.50, (3, "Or"): 7.74, (3, "Tw2"): 276.5, (3, "Tw4"): 7439.4,
                  (3, "Fr"): 169.6, (4, "Lj"): 3039.6, (4, "Or"): 16394.6, (4, "Fr"): TO},
}

# Table 8: 3-FSM running time (sec); keys are (graph, sigma_paper).
TABLE8 = {
    "G2Miner": {("Mi", 300): 0.6, ("Mi", 500): 0.4, ("Mi", 1000): 0.3, ("Mi", 5000): 0.1,
                ("Pa", 300): 2.6, ("Pa", 500): 2.6, ("Pa", 1000): 2.6, ("Pa", 5000): 1.7,
                ("Yo", 300): 7.2, ("Yo", 500): 6.0, ("Yo", 1000): 6.0, ("Yo", 5000): 8.7},
    "Pangolin": {("Mi", 300): 0.6, ("Mi", 500): 0.5, ("Mi", 1000): 0.3, ("Mi", 5000): 0.2,
                 ("Pa", 300): 2.7, ("Pa", 500): 2.7, ("Pa", 1000): 2.7, ("Pa", 5000): 1.7,
                 ("Yo", 300): OOM, ("Yo", 500): OOM, ("Yo", 1000): OOM, ("Yo", 5000): OOM},
    "Peregrine": {("Mi", 300): 4.4, ("Mi", 500): 4.4, ("Mi", 1000): 4.2, ("Mi", 5000): 4.3,
                  ("Pa", 300): 94.2, ("Pa", 500): 103.8, ("Pa", 1000): 118.4, ("Pa", 5000): 94.3,
                  ("Yo", 300): 59.3, ("Yo", 500): 52.8, ("Yo", 1000): 69.9, ("Yo", 5000): 60.8},
    "DistGraph": {("Mi", 300): 56.1, ("Mi", 500): 61.0, ("Mi", 1000): 57.6, ("Mi", 5000): 57.0,
                  ("Pa", 300): 13.2, ("Pa", 500): 13.1, ("Pa", 1000): 13.0, ("Pa", 5000): 14.1,
                  ("Yo", 300): OOM, ("Yo", 500): OOM, ("Yo", 1000): OOM, ("Yo", 5000): OOM},
}

# Table 9: counting-only pruning enabled, G2Miner vs Peregrine; keys
# (workload, graph) with workload in {'diamond', '3-motif', '4-motif'}.
TABLE9 = {
    "G2Miner": {("diamond", "Lj"): 0.09, ("diamond", "Or"): 0.47, ("diamond", "Tw2"): 9.9,
                ("diamond", "Tw4"): 66.9, ("diamond", "Fr"): 10.4,
                ("3-motif", "Lj"): 0.06, ("3-motif", "Or"): 0.27, ("3-motif", "Tw2"): 6.8,
                ("3-motif", "Tw4"): 21.4, ("3-motif", "Fr"): 5.2,
                ("4-motif", "Lj"): 2.6, ("4-motif", "Or"): 34.2, ("4-motif", "Fr"): 1307.2},
    "Peregrine": {("diamond", "Lj"): 2.20, ("diamond", "Or"): 8.66, ("diamond", "Tw2"): 245.8,
                  ("diamond", "Tw4"): 16312.6, ("diamond", "Fr"): 158.8,
                  ("3-motif", "Lj"): 2.51, ("3-motif", "Or"): 4.90, ("3-motif", "Tw2"): 116.0,
                  ("3-motif", "Tw4"): 8447.4, ("3-motif", "Fr"): 165.3,
                  ("4-motif", "Lj"): 163.6, ("4-motif", "Or"): 1701.4, ("4-motif", "Fr"): TO},
}

#: Paper support thresholds -> ours (graphs are ~1000x smaller).
SIGMA_SCALE = {300: 3, 500: 5, 1000: 10, 5000: 50}
