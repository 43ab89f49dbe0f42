"""Grid-to-LaTeX decoding through an expression graph.

Decoding runs in five steps, each exposed on its own so partial pipelines
can be inspected:

1. :func:`vat_extract` collects every non-blank argmax cell of a
   classification grid as a node, in raster order, scored with the grid's
   own value there.
2. :func:`expand_imaginary` appends the invisible group-end nodes that
   structural symbols imply; a grid can never predict them directly.
3. :func:`apply_corrections` re-labels every node from a per-node
   correction row and drops nodes whose row votes for deletion.
4. :func:`build_graph` scores directed edges between surviving nodes from
   the two neighbor heads, then :func:`prune_and_acyclify` removes weak
   edges and breaks cycles, never disconnecting start from end.  It keeps
   a witness start-to-end path and searches again only when a removal
   cuts the witness, since any other removal leaves the end reachable.
5. :func:`longest_path` picks the maximum-weight start-to-end path and
   renders it back to LaTeX.

Node indices are stable throughout: after expansion, node i sits at graph
position i+1, the virtual start at 0, the virtual end at N+1.  Score
matrices are indexed the same way, so deleting a node never reindexes the
others.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CycleDetected,
    NodeCountMismatch,
    NonStochasticRow,
    NoPath,
    check_finite,
    check_shape,
)
from .tokens import TokenVocab, emit_latex, repair_groups

ROW_SUM_TOL = 1e-4


@dataclass(frozen=True)
class Node:
    """One candidate symbol: class, cell, score, graph position.

    `score` is the grid's own value at the node's class and cell, whether
    the grid holds probabilities or logits; no stage reads it.  `index` is
    0 until :func:`expand_imaginary` assigns positions.  END nodes remember
    the position of the structural node that implied them.
    """

    class_id: int
    row: int
    col: int
    score: float
    index: int = 0
    parent: int | None = None


@dataclass
class ExprGraph:
    """Weighted digraph over surviving nodes plus virtual start/end.

    nodes: graph position -> Node (real nodes only).
    edges: (src, dst) -> weight.
    n_slots: node count before corrections; the virtual end sits at
        n_slots + 1 regardless of how many nodes were deleted.
    """

    nodes: dict[int, Node]
    edges: dict[tuple[int, int], float]
    n_slots: int

    @property
    def eos(self) -> int:
        return self.n_slots + 1


@dataclass
class PathResult:
    """Winning decode: graph positions, accumulated weight, rendered LaTeX."""

    path: list[int]
    weight: float
    latex: str


def vat_extract(P: np.ndarray, vocab: TokenVocab) -> list[Node]:
    """Collect non-blank argmax cells of a classification grid as nodes.

    Cells scan in raster order (row-major); an argmax tie within a cell
    resolves to the lowest class id.  A node's score is the grid's own
    value at its class and cell, so probabilities and logits extract the
    same nodes.

    Raises:
        ShapeMismatch: P is not (channels, H, W) with the vocabulary's
            channel count.
        NonFinite: P holds NaN or infinity.
    """
    check_shape(P, (vocab.grid_classes, None, None), "grid")
    check_finite(P, "grid")
    classes = np.argmax(P, axis=0)
    nodes = []
    for r, c in np.ndindex(classes.shape):
        cid = int(classes[r, c])
        if cid == vocab.none_id:
            continue
        nodes.append(Node(cid, int(r), int(c), float(P[cid, r, c])))
    return nodes


def expand_imaginary(nodes: list[Node], vocab: TokenVocab) -> list[Node]:
    """Insert implied group-end nodes and assign graph positions.

    Each structural node gains its group count of END nodes immediately
    after it, at the same cell, carrying the structural node's position as
    parent.  Positions are 1-based; 0 and N+1 stay virtual.
    """
    out: list[Node] = []
    for node in nodes:
        idx = len(out) + 1
        out.append(replace(node, index=idx))
        if vocab.is_structural(node.class_id):
            for _ in range(vocab.group_count(node.class_id)):
                out.append(
                    Node(vocab.end_id, node.row, node.col, node.score,
                         index=len(out) + 1, parent=idx)
                )
    return out


def apply_corrections(
    nodes: list[Node], self_probs: np.ndarray, vocab: TokenVocab
) -> list[Node]:
    """Re-label nodes from their correction rows; drop deletion votes.

    Row i belongs to the node at graph position i+1.  A row whose argmax is
    the none class deletes the node; deleting a structural node also deletes
    the END nodes it implied.  Surviving nodes keep their positions.

    Raises:
        ShapeMismatch: rows are not 2-d, or their width differs from the
            correction classes.
        NodeCountMismatch: row count differs from the node count.
        NonFinite: a row holds NaN or infinity.
    """
    check_shape(self_probs, (None, vocab.correction_classes), "correction rows")
    check_shape(self_probs, (len(nodes), None), "correction rows", NodeCountMismatch)
    check_finite(self_probs, "correction rows")
    votes = np.argmax(self_probs, axis=1)
    deleted: set[int] = set()
    out: list[Node] = []
    for node, vote in zip(nodes, votes.tolist()):
        if vote == vocab.none_id:
            deleted.add(node.index)
            continue
        if node.parent is not None and node.parent in deleted:
            continue
        out.append(node if vote == node.class_id else replace(node, class_id=vote))
    return out


def build_graph(
    nodes: list[Node],
    left: np.ndarray,
    right: np.ndarray,
    alpha_l2r: float = 1.0,
    alpha_r2l: float = 1.0,
) -> ExprGraph:
    """Score every admissible directed edge between nodes.

    The weight of i -> j combines both neighbor heads:
    ``alpha_l2r * right[i, j] + alpha_r2l * left[j, i]`` (j is i's right
    neighbor exactly when i is j's left neighbor).  Self-edges, edges into
    the virtual start, edges out of the virtual end, and the bare
    start -> end edge are never created.

    Raises:
        ShapeMismatch: a matrix is not 2-d.
        NodeCountMismatch: matrices not equal and square (N+2) with N >= 0,
            or node positions out of range.
        NonFinite: a score holds NaN or infinity.
        NonStochasticRow: a score row is not a probability distribution.
    """
    check_shape(left, (None, None), "left neighbor scores")
    n = max(len(left) - 2, 0)
    for name, m in (("left", left), ("right", right)):
        check_shape(m, (n + 2, n + 2), f"{name} neighbor scores", NodeCountMismatch)
        check_finite(m, f"{name} neighbor scores")
        sums = m.sum(axis=1)
        off = (np.abs(sums - 1.0) > ROW_SUM_TOL) | np.any(m < -ROW_SUM_TOL, axis=1)
        if np.any(off):
            bad = int(np.argmax(off))  # the first True
            raise NonStochasticRow(bad, float(sums[bad]))
    index_map: dict[int, Node] = {}
    for node in nodes:
        if not 1 <= node.index <= n:
            raise NodeCountMismatch(
                f"node position {node.index} outside 1..{n}"
            )
        index_map[node.index] = node
    sos, eos = 0, n + 1
    sources = [sos] + sorted(index_map)
    targets = sorted(index_map) + [eos]
    edges: dict[tuple[int, int], float] = {}
    for i in sources:
        for j in targets:
            if i == j or (i == sos and j == eos):
                continue
            w = alpha_l2r * float(right[i, j]) + alpha_r2l * float(left[j, i])
            edges[(i, j)] = w
    return ExprGraph(index_map, edges, n_slots=n)


def prune_and_acyclify(graph: ExprGraph, epsilon: float = 0.5) -> ExprGraph:
    """Remove weak edges, then break cycles, preserving start-to-end.

    Edges below `epsilon` are removed in ascending ``(weight, src, dst)``
    order; a removal that would disconnect the virtual end is skipped.
    While a directed cycle remains (the first one a depth-first search over
    ascending vertices and successors meets), the lightest cycle edge whose
    removal keeps the end reachable is dropped.

    One pass makes exactly these sequential decisions with few searches.
    It keeps a *witness*, a start-to-end path of the current graph.  A
    removal off the witness leaves it intact, so the end stays reachable
    and the removal goes ahead unsearched; a run of weak edges off the
    witness therefore goes at once.  Only a removal on the witness
    searches again: a new path becomes the witness, and if none exists the
    edge was the last route to the end and is kept.  The witness crosses
    as few undecided weak edges as possible, so when strong edges alone
    connect start to end the first search is the only one the weak-edge
    phase makes.

    Raises:
        NoPath: the end was unreachable before pruning started.
        CycleDetected: a cycle that cannot be broken (defensive; a
            reachable end always leaves one breakable edge per cycle).
    """
    edges = graph.edges
    n = graph.n_slots + 2
    live: list[list[int]] = [[] for _ in range(n)]  # successors over kept edges
    pending: list[list[int]] = [[] for _ in range(n)]  # over undecided weak edges
    for (s, d), w in edges.items():
        (pending if w < epsilon else live)[s].append(d)
    for out in live:
        out.sort()
    # Weak edges keyed (weight, src, dst) up to `cut` are decided: in `live`
    # when kept, otherwise gone.
    cut: tuple = (-math.inf,)
    witness = _witness_path(live, pending, edges, cut)
    if witness is None:
        raise NoPath("virtual end unreachable before pruning")
    # Undecided weak edges ordered before the witness's first one are off it,
    # so they go without a search; once none is on it, all the rest go.
    while on_witness := [k for e in witness if (k := (edges[e], *e)) > cut and k[0] < epsilon]:
        cut = min(on_witness)
        found = _witness_path(live, pending, edges, cut)
        if found is None:
            insort(live[cut[1]], cut[2])
        else:
            witness = found
    pending = [[]] * n  # every weak edge is decided
    while (cycle := _find_cycle(live)) is not None:
        for _, (s, d) in sorted((edges[e], e) for e in cycle):
            live[s].remove(d)
            if (s, d) not in witness:
                break
            found = _witness_path(live, pending, edges, cut)
            if found is not None:
                witness = found
                break
            insort(live[s], d)
        else:
            raise CycleDetected(f"cycle through {sorted({s for s, _ in cycle})} is unbreakable")
    kept = {(s, d): edges[(s, d)] for s, out in enumerate(live) for d in out}
    return ExprGraph(dict(graph.nodes), kept, graph.n_slots)


def _witness_path(live, pending, edges, cut) -> set[tuple[int, int]] | None:
    """Edges of a start-to-end path with the fewest undecided weak edges.

    `live[u]` lists u's successors over kept edges, which cost nothing;
    `pending[u]` lists those over weak edges, which cost one each and exist
    while their (weight, u, v) key is above `cut`.  The search goes level
    by level: all that kept edges reach, then one weak edge further.  None
    when the end (the last vertex) is unreachable.
    """
    end = len(live) - 1
    pred = [-1] * len(live)  # -1: not reached yet
    pred[0] = 0
    reached = [0]
    while reached:
        for u in reached:  # grows while it is walked
            for v in live[u]:
                if pred[v] < 0:
                    pred[v] = u
                    reached.append(v)
        if pred[end] >= 0:
            path, v = set(), end
            while v:
                path.add((pred[v], v))
                v = pred[v]
            return path
        frontier = []
        for u in reached:
            for v in pending[u]:
                if pred[v] < 0 and (edges[(u, v)], u, v) > cut:
                    pred[v] = u
                    frontier.append(v)
        reached = frontier
    return None


def _find_cycle(succ: list[list[int]]) -> list[tuple[int, int]] | None:
    """First directed cycle found by DFS over ascending vertices, as edges.

    Successor lists must be sorted.  Iterative so deep graphs cannot exhaust
    the interpreter stack.
    """
    color = [0] * len(succ)  # 0 unseen, 1 on the stack, 2 done
    for start in range(len(succ)):
        if color[start]:
            continue
        color[start] = 1
        stack = [(start, iter(succ[start]))]
        while stack:
            u, it = stack[-1]
            for v in it:
                if color[v] == 1:
                    on_stack = [frame[0] for frame in stack]
                    tail = on_stack[on_stack.index(v):]
                    return [(u, v), *zip(tail, tail[1:])]
                if color[v] == 0:
                    color[v] = 1
                    stack.append((v, iter(succ[v])))
                    break
            else:
                color[u] = 2
                stack.pop()
    return None


def longest_path(graph: ExprGraph, vocab: TokenVocab) -> PathResult:
    """Maximum-weight start-to-end path by DP over a topological order.

    Runs in O(V + E) over Kahn's order.  When two predecessors give a node
    the same distance, the smaller graph position wins, making the result
    deterministic.  The winning node sequence renders to LaTeX; a path
    whose group structure is ill-nested is repaired by dropping unopened
    ENDs and closing groups left open at the end.

    Raises:
        CycleDetected: the graph is not acyclic.
        NoPath: no start-to-end path exists.
    """
    n = graph.n_slots + 2
    succ: list[list[int]] = [[] for _ in range(n)]
    weights: list[list[float]] = [[] for _ in range(n)]
    indeg = [0] * n
    for (s, d), w in graph.edges.items():
        succ[s].append(d)
        weights[s].append(w)
        indeg[d] += 1
    dist = [-math.inf] * n
    pred = [n] * n  # n: no predecessor yet, larger than any position
    dist[0] = 0.0
    # Kahn's order, grown while it is walked; a vertex is walked only after
    # all its predecessors, so its distance is final by then.
    order = [v for v in range(n) if indeg[v] == 0]
    for u in order:
        du = dist[u]
        for v, w in zip(succ[u], weights[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
            if du == -math.inf:
                continue
            cand = du + w
            if cand > dist[v] or (cand == dist[v] and u < pred[v]):
                dist[v] = cand
                pred[v] = u
    if len(order) != n:
        raise CycleDetected("expression graph still holds a cycle")
    end = n - 1
    if dist[end] == -math.inf:
        raise NoPath("no start-to-end path after pruning")

    path = [end]
    while path[-1]:
        path.append(pred[path[-1]])
    path.reverse()
    seq = [graph.nodes[i].class_id for i in path[1:-1]]
    latex = emit_latex(repair_groups(seq, vocab), vocab)
    return PathResult(path, dist[end], latex)


def decode_with_graph(
    P: np.ndarray,
    self_probs: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    vocab: TokenVocab,
    epsilon: float = 0.5,
    alpha_l2r: float = 1.0,
    alpha_r2l: float = 1.0,
) -> tuple[PathResult, ExprGraph]:
    """Full grid-to-LaTeX decode, also returning the pruned graph.

    Raises:
        ShapeMismatch: an input has the wrong rank, or the wrong grid
            channel or correction class count.
        NodeCountMismatch: score matrices disagree with the node count the
            grid implies (correction rows N, neighbor matrices N+2).
        NonFinite: an input holds NaN or infinity.
        NoPath: nothing decodable, including an all-blank grid.
    """
    nodes = expand_imaginary(vat_extract(P, vocab), vocab)
    # build_graph holds `right` to the shape of `left`.
    check_shape(left, (len(nodes) + 2,) * 2, "left neighbor scores", NodeCountMismatch)
    kept = apply_corrections(nodes, self_probs, vocab)
    graph = build_graph(kept, left, right, alpha_l2r=alpha_l2r, alpha_r2l=alpha_r2l)
    pruned = prune_and_acyclify(graph, epsilon=epsilon)
    return longest_path(pruned, vocab), pruned
