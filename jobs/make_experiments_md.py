"""Format benchmarks/results/*.csv into the EXPERIMENTS.md result tables.

Run after ``pytest benchmarks/ --benchmark-only``; rewrites everything in
EXPERIMENTS.md below the ``<!-- RESULTS -->`` marker.
"""
from __future__ import annotations

import os

import pandas as pd

ROOT = os.path.join(os.path.dirname(__file__), "..")
RESULTS = os.path.join(ROOT, "benchmarks", "results")

TABLES = [
    ("table4", "Table 4 — Triangle counting (TC), seconds"),
    ("table5", "Table 5 — k-clique listing (k-CL), seconds"),
    ("table6", "Table 6 — Subgraph listing (SL), seconds"),
    ("table7", "Table 7 — k-motif counting (k-MC), seconds"),
    ("table8", "Table 8 — 3-FSM (σ scaled ÷100), seconds"),
    ("table9", "Table 9 — Counting-only pruning enabled, seconds"),
]


def cell_text(row) -> str:
    ours = row["status"] if row["status"] != "ok" else f"{row['seconds']:.2f}"
    pv = row["paper"]
    try:
        pv = f"{float(pv):g}"
    except (TypeError, ValueError):
        pv = str(pv)
    return f"{ours} / {pv}"


def render(name: str, title: str) -> str:
    path = os.path.join(RESULTS, f"{name}.csv")
    if not os.path.exists(path):
        return f"### {title}\n\n*(no results recorded)*\n"
    df = pd.read_csv(path)
    df["cell"] = df["workload"] + " " + df["graph"]
    cols = list(dict.fromkeys(df["cell"]))
    systems = list(dict.fromkeys(df["system"]))
    lines = [f"### {title}", "",
             "Each cell: **measured / paper**. OoM and TO are outcomes on both sides.", "",
             "| system | " + " | ".join(cols) + " |",
             "|" + "---|" * (len(cols) + 1)]
    for s in systems:
        sub = df[df["system"] == s].set_index("cell")
        vals = [cell_text(sub.loc[c]) if c in sub.index else "-" for c in cols]
        lines.append(f"| {s} | " + " | ".join(vals) + " |")
    lines.append("")
    return "\n".join(lines)


def render_sched() -> str:
    path = os.path.join(RESULTS, "sched_scaling.csv")
    if not os.path.exists(path):
        return ""
    df = pd.read_csv(path)
    lines = ["### Multi-GPU scaling (Fig 9/10 substance) — speedup vs 1 GPU", "",
             "| n GPUs | even-split | chunked-RR |", "|---|---|---|"]
    for n in sorted(df["n_gpus"].unique()):
        es = df[(df.policy == "even_split") & (df.n_gpus == n)]["speedup"].iloc[0]
        cr = df[(df.policy == "chunked_rr") & (df.n_gpus == n)]["speedup"].iloc[0]
        lines.append(f"| {n} | {es:.2f} | {cr:.2f} |")
    lines.append("")
    lines.append(
        "Paper: chunked round-robin scales linearly 1→8 GPUs; even-split "
        "stops scaling beyond 3 GPUs on skewed graphs (Figs 8–10). Here, "
        "from the measured work of every task of G²Miner's oriented TC "
        f"kernel on Tw2, at {n} GPUs chunked-RR reaches {cr:.2f} "
        f"({cr / n:.0%} of linear) and even-split {es:.2f} ({es / n:.0%})."
    )
    lines.append("")
    return "\n".join(lines)


def experiments_md(text: str) -> str:
    """EXPERIMENTS.md's ``text`` up to the ``<!-- RESULTS -->`` marker,
    followed by the tables rendered from the results CSVs."""
    parts = [text.split("<!-- RESULTS -->")[0] + "<!-- RESULTS -->", ""]
    for name, title in TABLES:
        parts.append(render(name, title))
    parts.append(render_sched())
    return "\n".join(parts)


def main():
    md_path = os.path.join(ROOT, "EXPERIMENTS.md")
    with open(md_path) as f:
        text = f.read()
    with open(md_path, "w") as f:
        f.write(experiments_md(text))
    print(f"wrote {md_path}")


if __name__ == "__main__":
    main()
