"""Grid-to-LaTeX decoding through an expression graph.

Decoding runs in five steps, each exposed on its own so partial pipelines
can be inspected:

1. :func:`vat_extract` collects every non-blank argmax cell of a
   classification grid as a node, in raster order.  A cell is blank when
   its none channel beats every symbol channel strictly, so blank cells
   are found by one reduction over the symbol channels, and the argmax is
   taken only over the cells that remain.
2. :func:`expand_imaginary` appends the invisible group-end nodes that
   structural symbols imply; a grid can never predict them directly.
3. :func:`apply_corrections` re-labels every node from a per-node
   correction row and drops nodes whose row votes for deletion.
4. :func:`build_graph` scores directed edges between surviving nodes from
   the two neighbor heads, then :func:`prune_and_acyclify` removes weak
   edges and breaks cycles, never disconnecting start from end; its
   docstring argues why a bottleneck witness path bounds the searches.
   It prunes a weight matrix and edge mask, copied from the edge dict;
   :func:`decode_with_graph` hands over the matrix it scored, so a decode
   never builds the dense dict.  Weak edges are ranked only when strong
   edges alone miss the end.
5. :func:`longest_path` picks the maximum-weight start-to-end path and
   renders it back to LaTeX.

Each of steps 1-3 is a thin wrapper that builds :class:`Node` objects
from a private core on flat lists of class ids, rows, columns and
parents.  :func:`decode_with_graph` runs those cores directly, so it
builds a Node only for a node that survives corrections.

Node indices are stable throughout: after expansion, node i sits at graph
position i+1, the virtual start at 0, the virtual end at N+1.  Score
matrices are indexed the same way, so deleting a node never reindexes the
others.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import insort
from dataclasses import dataclass

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
    """One candidate symbol: class, cell, graph position.

    `index` is 0 until :func:`expand_imaginary` assigns positions.  END
    nodes remember the position of the structural node that implied them.
    """

    class_id: int
    row: int
    col: int
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
    resolves to the lowest class id.  The none class is the last channel,
    so a symbol that ties it wins the cell: a cell is blank only when its
    none value is strictly above every symbol value.  Only the argmax
    decides, so probabilities and logits extract the same nodes.  The
    nodes are built from the flat lists :func:`decode_with_graph` reads.

    Raises:
        ShapeMismatch: P is not (channels, H, W) with the vocabulary's
            channel count.
        NonFinite: P holds NaN or infinity.
    """
    return list(map(Node, *_extract(P, vocab)))


def _extract(P: np.ndarray, vocab: TokenVocab) -> tuple[list[int], list[int], list[int]]:
    """:func:`vat_extract` as flat lists: class ids, rows, columns."""
    check_shape(P, (vocab.grid_classes, None, None), "grid")
    check_finite(P, "grid")
    none = vocab.none_id
    if none == 0:  # no symbol channel: every cell is blank
        return [], [], []
    rows, cols = np.nonzero(P[:none].max(axis=0) >= P[none])  # raster order
    cids = P[:none, rows, cols].argmax(axis=0)
    return cids.tolist(), rows.tolist(), cols.tolist()


def expand_imaginary(nodes: list[Node], vocab: TokenVocab) -> list[Node]:
    """Insert implied group-end nodes and assign graph positions.

    Each structural node gains its group count of END nodes immediately
    after it, at the same cell, carrying the structural node's position as
    parent.  Positions are 1-based; 0 and N+1 stay virtual.  The nodes are
    built from the flat lists :func:`decode_with_graph` reads.

    Raises:
        VocabMiss: a node's class id is outside the vocabulary.
    """
    cids, rows, cols, parents = _expand(*_fields(nodes, "class_id", "row", "col", "parent"), vocab)
    return list(map(Node, cids, rows, cols, range(1, len(cids) + 1), parents))


def _expand(cids, rows, cols, parents, vocab: TokenVocab):
    """:func:`expand_imaginary` on flat lists: returns the class ids, rows,
    columns and parents of the expanded nodes, entry i at position i+1."""
    vocab.check_ids(cids)
    groups, end = vocab.group_table, vocab.end_id
    out_c, out_r, out_k, out_p = [], [], [], []
    for cid, row, col, parent in zip(cids, rows, cols, parents):
        out_c.append(cid)
        out_r.append(row)
        out_k.append(col)
        out_p.append(parent)
        if g := groups[cid]:
            idx = len(out_c)
            out_c += [end] * g
            out_r += [row] * g
            out_k += [col] * g
            out_p += [idx] * g
    return out_c, out_r, out_k, out_p


def apply_corrections(
    nodes: list[Node], self_probs: np.ndarray, vocab: TokenVocab
) -> list[Node]:
    """Re-label nodes from their correction rows; drop deletion votes.

    Row i belongs to the node at graph position i+1.  A row whose argmax is
    the none class deletes the node; deleting a structural node also deletes
    the END nodes it implied.  Surviving nodes keep their positions.  The
    survivors are the ones :func:`decode_with_graph` keeps from flat lists.

    Raises:
        ShapeMismatch: rows are not 2-d, or their width differs from the
            correction classes.
        NodeCountMismatch: row count differs from the node count.
        NonFinite: a row holds NaN or infinity.
    """
    kept = _correct(*_fields(nodes, "row", "col", "parent", "index"), self_probs, vocab)
    return list(kept.values())


def _fields(nodes: list[Node], *names: str) -> list[list]:
    """One list per field name, holding that field of every node."""
    return [[getattr(node, name) for node in nodes] for name in names]


def _correct(rows, cols, parents, positions, self_probs: np.ndarray, vocab: TokenVocab):
    """:func:`apply_corrections` on flat lists: returns i+1 -> Node for
    each surviving node i, the only nodes it builds.  Node i keeps
    ``positions[i]``, which is i+1 after :func:`expand_imaginary`."""
    check_shape(self_probs, (None, vocab.correction_classes), "correction rows")
    check_shape(self_probs, (len(rows), None), "correction rows", NodeCountMismatch)
    check_finite(self_probs, "correction rows")
    none = vocab.none_id
    deleted: set[int] = set()
    kept: dict[int, Node] = {}
    votes = np.argmax(self_probs, axis=1).tolist()
    for slot, pos, vote, row, col, parent in zip(
        itertools.count(1), positions, votes, rows, cols, parents
    ):
        if vote == none:
            deleted.add(pos)
        elif parent not in deleted:
            kept[slot] = Node(vote, row, col, pos, parent)
    return kept


def _edge_weights(
    index_map: dict[int, Node],
    left: np.ndarray,
    right: np.ndarray,
    alpha_l2r: float,
    alpha_r2l: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Checked inputs of :func:`build_graph` as arrays over graph positions.

    Returns the float64 weight of every i -> j and the mask of admissible
    edges, those between the positions of `index_map` and the virtual
    ends.  Raises as :func:`build_graph` documents.

    Each neighbor matrix is checked from one row-sum pass.  NaN or an
    infinity makes its row sum non-finite, so only a non-finite sum
    searches for the bad entry; only a sum off 1 or a negative entry
    searches for the bad row.  A NaN sum from finite entries needs entries
    of both signs, so the negative entry sends it to the row search.
    """
    check_shape(left, (None, None), "left neighbor scores")
    n = max(len(left) - 2, 0)
    with np.errstate(invalid="ignore"):  # inf - inf in a sum: check_finite names it
        for name, m in (("left", left), ("right", right)):
            check_shape(m, (n + 2, n + 2), f"{name} neighbor scores", NodeCountMismatch)
            sums = m.sum(axis=1)
            if not np.isfinite(sums).all():
                check_finite(m, f"{name} neighbor scores")
            if np.abs(sums - 1.0).max() > ROW_SUM_TOL or m.min() < -ROW_SUM_TOL:
                off = (np.abs(sums - 1.0) > ROW_SUM_TOL) | np.any(m < -ROW_SUM_TOL, axis=1)
                bad = int(np.argmax(off))  # the first True
                raise NonStochasticRow(bad, float(sums[bad]))
    for i in index_map:
        if not 1 <= i <= n:
            raise NodeCountMismatch(f"node position {i} outside 1..{n}")
    # float64 before scaling, so each weight rounds as the scalar formula would.
    weights = alpha_l2r * right.astype(np.float64)
    weights += alpha_r2l * left.T.astype(np.float64)
    src = np.zeros(n + 2, dtype=bool)
    src[list(index_map)] = True
    dst = src.copy()
    src[0] = dst[n + 1] = True
    valid = src[:, None] & dst
    np.fill_diagonal(valid, False)
    valid[0, n + 1] = False  # the bare start -> end edge
    return weights, valid


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
    start -> end edge are never created.  Edges are inserted in row-major
    ``(src, dst)`` order, though :func:`prune_and_acyclify` does not
    depend on it.

    Raises:
        ShapeMismatch: a matrix is not 2-d.
        NodeCountMismatch: matrices not equal and square (N+2) with N >= 0,
            or node positions out of range.
        NonFinite: a score holds NaN or infinity.
        NonStochasticRow: a score row is not a probability distribution.
    """
    index_map = {node.index: node for node in nodes}
    weights, valid = _edge_weights(index_map, left, right, alpha_l2r, alpha_r2l)
    r, c = np.nonzero(valid)  # row-major
    edges = dict(zip(zip(r.tolist(), c.tolist()), weights[r, c].tolist()))
    return ExprGraph(index_map, edges, n_slots=len(weights) - 2)


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
    witness therefore goes at once.  In the weak-edge phase the witness is
    a bottleneck path: its lowest-ranked undecided weak edge ranks as high
    as any start-to-end path allows.  Every path without that edge crosses
    a lower-ranked one, off the witness, and those go first; so when the
    removals reach the witness's lowest edge it is the last route to the
    end, and it is kept without a search.  Only then is the next witness
    searched for.  The weak-edge phase thus makes exactly one search more
    than the weak edges it keeps, and the cycle phase one per removal on
    the witness.  When strong edges alone connect start to end, the first
    search is the only one the weak-edge phase makes, and the weak edges
    are never even ranked.

    The edges are copied into the weight matrix and edge mask that
    :func:`decode_with_graph` prunes, so neither the decisions nor the
    kept edges' order (by source, then target) follow the dict's order.

    Raises:
        NodeCountMismatch: an edge end is neither the start, the end, nor
            a node's position within 1..n_slots.
        NoPath: the end was unreachable before pruning started.
        CycleDetected: a cycle that cannot be broken (defensive; a
            reachable end always leaves one breakable edge per cycle).
    """
    _check_edge_ends(graph)
    n = graph.n_slots + 2
    weights = np.zeros((n, n))
    valid = np.zeros((n, n), dtype=bool)
    for (s, d), w in graph.edges.items():
        weights[s, d] = w
        valid[s, d] = True
    return ExprGraph(dict(graph.nodes), _prune(weights, valid, epsilon), graph.n_slots)


def _check_edge_ends(graph: ExprGraph) -> None:
    """Name the first edge with an end that is not the start, the end, or
    a node's position within 1..n_slots."""
    ends = {0, graph.eos, *(v for v in graph.nodes if 1 <= v <= graph.n_slots)}
    if not ends.issuperset(itertools.chain.from_iterable(graph.edges)):
        bad = next(e for e in graph.edges if not ends.issuperset(e))
        raise NodeCountMismatch(f"edge {bad}: an end is not 0, {graph.eos} or a node position")


def _rows(n: int, src: np.ndarray, values: np.ndarray) -> list[list[int]]:
    """Per-vertex lists of `values` keyed by `src`, which is ascending."""
    bounds = np.searchsorted(src, np.arange(n + 1)).tolist()
    values = values.tolist()
    return [values[i:j] for i, j in zip(bounds, bounds[1:])]


def _prune(weights: np.ndarray, valid: np.ndarray, epsilon: float) -> dict[tuple[int, int], float]:
    """The pruning pass of :func:`prune_and_acyclify` on a weight matrix.

    `weights[s, d]` is the float64 weight of s -> d, an edge exactly where
    the bool mask `valid` holds.  Strong edges, those not below `epsilon`,
    become successor lists in ascending order.  Weak edges are ranked in
    ascending ``(weight, src, dst)`` order only when strong edges alone do
    not reach the end.  Returns the kept edges with their weights, by
    source and then target.

    The witness rule and its search count: see :func:`prune_and_acyclify`.
    """
    n = len(weights)
    below = weights < epsilon
    live = _rows(n, *np.nonzero(valid & ~below))  # row-major

    @functools.cache
    def weak():
        src, dst = np.nonzero(valid & below)  # row-major
        # A stable sort by weight leaves ties in (src, dst) order; reversed,
        # position 0 holds the highest rank.
        order = np.argsort(weights[src, dst], kind="stable")[::-1]
        src, dst = src[order], dst[order]
        pos = np.full((n, n), len(order))
        pos[src, dst] = np.arange(len(order))
        return src.tolist(), dst.tolist(), pos, pos.min(axis=1).tolist()

    witness = _witness_path(live, weak, -1)
    if witness is None:
        raise NoPath("virtual end unreachable before pruning")
    # Weak edges ranked up to `cut` are decided: in `live` when kept,
    # otherwise gone.  Why the witness's lowest is kept: prune_and_acyclify.
    cut = -1
    while on_witness := [(r, e) for e, r in witness.items() if r > cut]:
        cut, (s, d) = min(on_witness)
        insort(live[s], d)
        witness = _witness_path(live, weak, cut)

    while (cycle := _find_cycle(live)) is not None:
        for _, (s, d) in sorted((weights.item(e), e) for e in cycle):
            live[s].remove(d)
            if (s, d) not in witness:
                break
            found = _witness_path(live, None, cut)  # no weak edge is pending
            if found is not None:
                witness = found
                break
            insort(live[s], d)
        else:
            raise CycleDetected(f"cycle through {sorted({s for s, _ in cycle})} is unbreakable")
    return {(s, d): weights.item(s, d) for s, out in enumerate(live) for d in out}


def _witness_path(live, weak, cut) -> dict[tuple[int, int], int] | None:
    """A bottleneck start-to-end path over kept and undecided weak edges.

    The bottleneck is defined in :func:`prune_and_acyclify`.  Kept edges
    (`live`) rank above every weak edge; a weak edge from `weak()` exists
    while its rank is above `cut`.  The search reaches what kept
    edges reach, then walks the weak edges from the highest rank down.
    An edge from a reached vertex to an unreached one extends the reach,
    over kept edges and the weak edges already walked past, and the edge
    that reaches the end is the bottleneck.  So `weak()` is called only
    when kept edges alone miss the end, and only weak edges ranked at or
    above the bottleneck are touched; `weak` is None when no weak edge is
    pending.  Returns the path's edges, each mapped to its rank (-1 for a
    kept edge), or None when the end (the last vertex) is unreachable.
    """
    end = len(live) - 1
    pred = [-1] * len(live)  # -1: not reached yet
    rank = [-1] * len(live)  # of the weak edge that reached each vertex
    pred[0] = 0
    reached, p, walk = [0], 0, None
    while True:
        for w in reached:  # grows while it is walked
            for x in live[w]:
                if pred[x] < 0:
                    pred[x] = w
                    reached.append(x)
            if p and heaviest[w] < p:  # a weak edge out of w was walked past
                row = pos[w]
                for x in np.flatnonzero(row < p).tolist():
                    if pred[x] < 0:
                        pred[x], rank[x] = w, last - row.item(x)
                        reached.append(x)
        if pred[end] >= 0:
            break
        if walk is None:
            if weak is None:
                return None
            # Position p holds rank last - p; ranks up to `cut` are decided.
            src, dst, pos, heaviest = weak()
            last = len(src) - 1
            walk = zip(range(last - cut), src, dst)
        for p, u, v in walk:
            if pred[u] >= 0 and pred[v] < 0:
                pred[v], rank[v] = u, last - p
                reached = [v]
                break
        else:
            return None
    path, v = {}, end
    while v:
        path[(pred[v], v)] = rank[v]
        v = pred[v]
    return path


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
        NodeCountMismatch: an edge end is neither the start, the end, nor
            a node's position within 1..n_slots.
        CycleDetected: the graph is not acyclic.
        NoPath: no start-to-end path exists.
        IllNested: the repaired path holds a ``]`` at the top level of a
            \\sqrt index, which has no LaTeX spelling.
    """
    _check_edge_ends(graph)
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

    The graph is the one :func:`prune_and_acyclify` makes from
    :func:`build_graph`'s edges, and the nodes are the ones the public
    steps 1-3 give.  But extraction, expansion and corrections run on flat
    lists, and the weight matrix and edge mask go straight into the
    pruning core, so only the surviving nodes and the kept edges become
    Python objects.

    Raises:
        ShapeMismatch: an input has the wrong rank, or the wrong grid
            channel or correction class count.
        NodeCountMismatch: score matrices disagree with the node count the
            grid implies (correction rows N, neighbor matrices N+2).
        NonFinite: an input holds NaN or infinity.
        NonStochasticRow: a neighbor score row is not a distribution.
        NoPath: nothing decodable, including an all-blank grid.
        IllNested: the path holds a ``]`` at the top level of a \\sqrt
            index (see :func:`longest_path`).
    """
    cids, rows, cols, parents = _expand(*_extract(P, vocab), itertools.repeat(None), vocab)
    n = len(cids)
    # _edge_weights holds `right` to the shape of `left`.
    check_shape(left, (n + 2, n + 2), "left neighbor scores", NodeCountMismatch)
    kept = _correct(rows, cols, parents, range(1, n + 1), self_probs, vocab)
    weights, valid = _edge_weights(kept, left, right, alpha_l2r, alpha_r2l)
    pruned = ExprGraph(kept, _prune(weights, valid, epsilon), n)
    return longest_path(pruned, vocab), pruned
