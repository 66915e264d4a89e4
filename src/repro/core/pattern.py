"""Pattern graphs (the user-facing ``Pattern`` of G2Miner's API, SS4.1).

A pattern is a small connected undirected graph on vertices ``0..k-1``.
This module provides the named patterns used throughout the paper's
evaluation (triangle, k-cliques, diamond, 4-cycle, all 3- and 4-motifs),
explicit patterns from edge lists (Listing 2), and the structural analyses
the pattern analyzer needs: isomorphism tests, the automorphism group,
clique detection.

Sizes are tiny (k <= 8) so brute-force permutation algorithms are exact and
fast; this mirrors the paper, whose analyzer also enumerates matching orders
exhaustively.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations


@dataclass(frozen=True)
class Pattern:
    """An explicit pattern P on vertices 0..k-1 with an edge set.

    ``name`` is cosmetic; equality/isomorphism are structural.
    """

    k: int
    edges: frozenset[frozenset[int]]
    name: str = ""

    def __post_init__(self):
        for e in self.edges:
            u, v = sorted(e)
            if not (0 <= u < v < self.k):
                raise ValueError(f"bad edge {sorted(e)} for k={self.k}")

    # -- basic structure -------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return frozenset((u, v)) in self.edges

    def degree(self, u: int) -> int:
        return sum(1 for e in self.edges if u in e)

    def neighbors(self, u: int) -> list[int]:
        return sorted(v for v in range(self.k) if self.has_edge(u, v))

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.degree(u) for u in range(self.k)))

    def is_connected(self) -> bool:
        if self.k == 0:
            return True
        seen, stack = {0}, [0]
        while stack:
            for v in self.neighbors(stack.pop()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.k

    # -- analyzer properties (SS4.2 "other important properties") --------

    def is_clique(self) -> bool:
        """Clique detection — enables orientation (opt A) and the oriented
        clique plan, whose levels search the (v0, v1) local graph."""
        return self.num_edges == self.k * (self.k - 1) // 2

    # -- isomorphism machinery ------------------------------------------

    def relabel(self, perm: tuple[int, ...]) -> "Pattern":
        """Relabel: vertex u becomes ``perm[u]``."""
        return Pattern(
            self.k,
            frozenset(frozenset(perm[v] for v in e) for e in self.edges),
            self.name,
        )

    def automorphisms(self) -> list[tuple[int, ...]]:
        """The full automorphism group Aut(P), by brute force (k <= 8)."""
        return [
            p
            for p in permutations(range(self.k))
            if self.relabel(p).edges == self.edges
        ]

    def is_isomorphic(self, other: "Pattern") -> bool:
        if self.k != other.k or self.num_edges != other.num_edges:
            return False
        if self.degree_sequence() != other.degree_sequence():
            return False
        return any(
            self.relabel(p).edges == other.edges
            for p in permutations(range(self.k))
        )


def from_edge_list(k: int, edge_list, name: str = "") -> Pattern:
    """Explicit pattern from an edge list (the Listing 2 ``pattern.el``)."""
    return Pattern(k, frozenset(frozenset(e) for e in edge_list), name)


# -- named patterns used in the paper's evaluation -----------------------

def clique(k: int) -> Pattern:
    """``generateClique(k)`` from Listing 1."""
    return from_edge_list(k, combinations(range(k), 2), f"{k}-clique")


def path(k: int) -> Pattern:
    return from_edge_list(k, [(i, i + 1) for i in range(k - 1)], f"{k}-path")


def cycle(k: int) -> Pattern:
    return from_edge_list(
        k, [(i, (i + 1) % k) for i in range(k)], f"{k}-cycle"
    )


def star(leaves: int) -> Pattern:
    return from_edge_list(
        leaves + 1, [(0, i) for i in range(1, leaves + 1)], f"{leaves}-star"
    )


def triangle() -> Pattern:
    return clique(3)


def wedge() -> Pattern:
    return path(3)


def diamond() -> Pattern:
    """Two triangles sharing an edge (Fig. 4/5): hubs 0,1; apexes 2,3."""
    return from_edge_list(
        4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], "diamond"
    )


def tailed_triangle() -> Pattern:
    return from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)], "tailed-triangle")


def motifs(k: int) -> list[Pattern]:
    """``generateAll(k)`` from Listing 3: all connected k-vertex motifs
    (Fig. 3: 2 three-motifs; 6 four-motifs)."""
    if k == 3:
        return [wedge(), triangle()]
    if k == 4:
        return [
            path(4),
            star(3),
            tailed_triangle(),
            cycle(4),
            diamond(),
            clique(4),
        ]
    # General fallback: enumerate all connected k-vertex graphs up to iso.
    out: list[Pattern] = []
    pairs = list(combinations(range(k), 2))
    for mask in range(1 << len(pairs)):
        p = from_edge_list(
            k, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        )
        if p.is_connected() and not any(p.is_isomorphic(q) for q in out):
            out.append(p)
    return out
