"""The pattern analyzer (paper SS4.2): matching order, symmetry order, and
the per-level constraint sets that together form the *search plan*.

A ``SearchPlan`` is the intermediate representation the code generator
consumes (SS5): for each level i it records which earlier levels to
intersect with (pattern neighbors), which to difference against (the
non-neighbors of a vertex-induced search, none otherwise), the
symmetry-breaking lower bounds, and which earlier vertices need an explicit
identity exclusion. It holds only what its consumers read (the generated
kernel, the batched kernel, the BFS joins and the pattern SQL), and each
consumer applies every constraint it lists: the search semantics is stated
once, by ``build_plan``. The matching order is applied by relabeling the
pattern into position space and is not kept.

Symmetry order uses the stabilizer-chain construction (the GraphZero
algorithm the paper adopts): walk positions in matching order; at each
position i, for every vertex j in i's orbit under the current automorphism
subgroup add the partial order v_i < v_j, then restrict the subgroup to the
stabilizer of i. This guarantees each automorphism class of matches has
exactly one representative satisfying the constraints — the completeness +
uniqueness requirement of SS2.1 (property-tested in tests/test_plan.py).
The subgroup at step i already fixes positions 0..i-1, so every orbit
member j is later than i: each constraint orders an earlier position below
a later one and is one set bound (SS6.1) that binds at the later level, a
*lower* bound. The plan states the order once, as those per-level bounds.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.pattern import Pattern, clique


@dataclass(frozen=True)
class SearchPlan:
    """Executable search plan for one pattern, in *position space*: the
    pattern has been relabeled so position i is the i-th matched vertex.

    For each level ``i`` (0-based; levels 1..k-1 are extensions):

    - ``conn[i]``  — earlier positions adjacent in P: candidate set =
                     intersection of their data-neighborhoods.
    - ``anti[i]``  — earlier positions whose data vertex must not be
                     adjacent: P's non-neighbours for a vertex-induced
                     search, empty for an edge-induced one.
    - ``lower[i]`` — symmetry bounds v_i > v_j: the whole symmetry order,
                     which has no upper bounds (see the module docstring).
    - ``excl[i]``  — earlier positions whose data vertex must merely be
                     *different* (identity exclusion not already implied by
                     a strict bound).
    """

    pattern: Pattern  # relabeled into position space
    conn: tuple[tuple[int, ...], ...]
    anti: tuple[tuple[int, ...], ...]
    lower: tuple[tuple[int, ...], ...]
    excl: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return self.pattern.k

    def first_edge_reduced(self) -> bool:
        """True iff the symmetry order bounds v1 below by v0 — enabling
        edgelist reduction (opt J, SS7.2(2)) to the edges with v0 < v1."""
        return bool(self.lower[1])

    def num_buffers(self) -> int:
        """Adaptive-buffering input (opt K): the number X = max(k - 3, 0)
        of per-warp buffers, one for each level 2..k-2, whose candidate set
        deeper levels loop over. The edge task supplies v0 and v1, and the
        leaf only counts its set.
        """
        return max(self.k - 3, 0)

    def leaf_reuse(self) -> bool:
        """Buffer-reuse analysis for the leaf (level L = k-1, parent P = k-2).

        True when the leaf draws from the same operand sets as its parent
        (same ``conn``, same bounds and exclusions apart from one lower
        bound v_L > v_P). The leaf's candidates are then the parent's
        candidate set itself, of size t, and the bound picks one side of
        v_P in it: the leaf is counted as C(t, 2) per parent set without a
        second expansion. For the diamond this is Algorithm 3's
        sum_e C(t_e, 2).

        Needs P >= 2, so that the parent is an expanded level whose
        candidates are grouped by prefix, and an empty ``anti[L]``: a leaf
        with its parent's ``conn`` is not adjacent to v_P in the pattern,
        so a vertex-induced leaf lists P in ``anti[L]``, a non-edge test
        the parent's set does not make.
        """
        L, P = self.k - 1, self.k - 2
        if P < 2 or self.anti[L] or self.conn[L] != self.conn[P]:
            return False
        if P not in self.lower[L]:
            return False
        return all(
            tuple(j for j in s[L] if j != P) == s[P] for s in (self.lower, self.excl)
        )


def matching_order(p: Pattern) -> tuple[int, ...]:
    """Pick a matching order with the connectivity-greedy cost heuristic:
    start at a max-degree vertex, then repeatedly add the vertex with the
    most connections into the partial subgraph (ties: higher pattern
    degree, then lower id). This reproduces the orders the paper shows
    (e.g. diamond: hub, hub, apex, apex) and guarantees every level
    extends by a connected vertex.
    """
    if not p.is_connected():
        raise ValueError("matching order requires a connected pattern")
    remaining = set(range(p.k))
    first = max(remaining, key=lambda u: (p.degree(u), -u))
    order = [first]
    remaining.remove(first)
    while remaining:
        nxt = max(
            remaining,
            key=lambda u: (
                sum(1 for v in order if p.has_edge(u, v)),
                p.degree(u),
                -u,
            ),
        )
        order.append(nxt)
        remaining.remove(nxt)
    return tuple(order)


def symmetry_order(p_pos: Pattern) -> tuple[tuple[int, int], ...]:
    """Stabilizer-chain symmetry breaking on the *position-space* pattern.

    Returns constraints ``(i, j)`` meaning data vertex at position i must be
    < the one at position j. Always i < j: the subgroup at step i fixes
    positions 0..i-1, so i's orbit holds only i and later positions.
    """
    auts = p_pos.automorphisms()
    cons: list[tuple[int, int]] = []
    for i in range(p_pos.k):
        if len(auts) == 1:
            break
        orbit = {phi[i] for phi in auts}
        for j in sorted(orbit - {i}):
            cons.append((i, j))
        auts = [phi for phi in auts if phi[i] == i]
    return tuple(cons)


def build_plan(p: Pattern, *, induced: bool) -> SearchPlan:
    """Full pattern analysis: matching order -> relabel to position space ->
    symmetry order -> per-level constraint sets. ``induced`` selects
    vertex-induced search, whose non-edge tests are the plan's ``anti``."""
    order = matching_order(p)
    # perm[original vertex] = position
    perm = [0] * p.k
    for pos, v in enumerate(order):
        perm[v] = pos
    p_pos = p.relabel(tuple(perm))
    sym = symmetry_order(p_pos)

    conn, anti, lower, excl = [], [], [], []
    for i in range(p.k):
        c = tuple(j for j in range(i) if p_pos.has_edge(i, j))
        a = tuple(j for j in range(i) if not p_pos.has_edge(i, j))
        lo = tuple(j for (j, ii) in sym if ii == i)
        conn.append(c)
        anti.append(a if induced else ())
        lower.append(lo)
        excl.append(tuple(j for j in a if j not in lo))
        if i >= 1 and not c:
            raise AssertionError("disconnected matching order")
    return SearchPlan(
        pattern=p_pos,
        conn=tuple(conn),
        anti=tuple(anti),
        lower=tuple(lower),
        excl=tuple(excl),
    )


def oriented_clique_plan(k: int) -> SearchPlan:
    """Search plan for a k-clique on the *oriented* graph: the clique plan
    with its bounds dropped. Every level intersects all earlier
    out-neighborhoods; the DAG replaces all symmetry bounds and on-the-fly
    checks (opt A's payoff)."""
    return replace(build_plan(clique(k), induced=False), lower=((),) * k)
