"""Grid-to-LaTeX decoding through an expression graph.

Decoding runs in five steps, each exposed on its own so partial pipelines
can be inspected:

1. :func:`vat_extract` collects every non-blank argmax cell of a
   classification grid as a node, in raster order.  A cell is blank when
   its none channel beats every symbol channel strictly, so blank cells
   are found by one reduction over the symbol channels, and the argmax is
   taken only over the cells that remain.  On a probability grid that
   reduction is an unsigned maximum of the bits, which also proves the
   grid finite, so the grid is read once.  A grid of logits, whose values
   are signed, fails that proof on the none channel, is scanned, and is
   reduced as floats; it extracts the same nodes.
2. :func:`expand_imaginary` appends the invisible group-end nodes that
   structural symbols imply; a grid can never predict them directly.
3. :func:`apply_corrections` re-labels every node from a per-node
   correction row and drops nodes whose row votes for deletion.
4. :func:`build_graph` scores directed edges between surviving nodes from
   the two neighbor heads, whose matrices are checked in one place: a
   valid pair passes on one row sum and one minimum of each.  Then
   :func:`prune_and_acyclify` removes weak edges and breaks cycles, never
   disconnecting start from end; its docstring argues why one path search
   decides every weak edge.
   Pruning runs on a weight matrix and an edge mask, whose strong edges
   become successor lists in one pass over their flat indices.  Weak edges
   are read only when strong edges alone miss the end, and then a weak
   row is sorted only when the path search takes an edge from it; a
   search over kept edges alone offers no weak edge.  One depth-first
   search, on flat stacks of vertices and of iterators and resumed after
   each removal, breaks every cycle.  It gives the kept edges as one dict
   of weights, with successor lists and that search's postorder.
5. :func:`longest_path` picks the maximum-weight start-to-end path and
   renders it back to LaTeX, reading each weight from the edge dict.

Steps 1-3 build :class:`Node` objects, each from a private core on flat
lists of class ids, rows, columns and parents.  :func:`decode_with_graph`
runs those cores, prunes the weight matrix it scored, and runs the path
search on pruning's successor lists and kept-edge dict: it builds a Node
only for a node that survives corrections, and a dict entry only for a
kept edge.

Node indices are stable throughout: after expansion, node i sits at graph
position i+1, the virtual start at 0, the virtual end at N+1.  Score
matrices are indexed the same way, so deleting a node never reindexes the
others.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np

from .errors import (
    CycleDetected,
    NodeCountMismatch,
    NonStochasticRow,
    NoPath,
    as_array,
    as_pairs,
    as_scalar,
    nonnegative_max,
    scan_finite,
)
from . import tokens
from .tokens import TokenVocab

ROW_SUM_TOL = 1e-4


class Node(NamedTuple):
    """One candidate symbol: class, cell, graph position.

    `index` is 0 until :func:`expand_imaginary` assigns positions.  END
    nodes remember the position of the structural node that implied them.
    A named tuple: immutable, hashable, unpacked in field order, and
    equal to the plain tuple of its fields.
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
    decides, so probabilities and logits extract the same nodes.  A grid
    of values from +0.0 up is read once: one unsigned maximum of the none
    channel's bits, then one of the symbol channels', proves it finite
    and gives every cell's symbol maximum (see
    :func:`~hmegraph.errors.nonnegative_max`).  Any other float grid, such
    as logits, is scanned for NaN and infinities first; an integer grid
    never is.

    Raises:
        ShapeMismatch: P is not a real (channels, H, W) array with the
            vocabulary's channel count.
        NonFinite: P holds NaN or infinity.
    """
    return list(map(Node, *_extract(P, vocab)))


def _extract(P: np.ndarray, vocab: TokenVocab) -> tuple[list[int], list[int], list[int]]:
    """:func:`vat_extract` as flat lists: class ids, rows, columns."""
    P = as_array(P, (vocab.grid_classes, None, None), "grid", finite=False)
    none = vocab.none_id
    top = None
    if nonnegative_max(P[none]) is not None:  # a grid of logits fails here, on 1/C of it
        top = nonnegative_max(P[:none], axis=0)  # the symbol channels' maximum, if finite
    if top is None and P.dtype.kind == "f":
        scan_finite(P, "grid")  # names the first NaN or infinity; logits pass
    if none == 0:  # no symbol channel: every cell is blank
        return [], [], []
    if top is None:
        top = P[:none].max(axis=0)
    rows, cols = np.nonzero(top >= P[none])  # raster order
    cids = P[:none, rows, cols].argmax(axis=0)
    return cids.tolist(), rows.tolist(), cols.tolist()


def expand_imaginary(nodes: list[Node], vocab: TokenVocab) -> list[Node]:
    """Insert implied group-end nodes and assign graph positions.

    Each structural node gains its group count of END nodes immediately
    after it, at the same cell, carrying the structural node's position as
    parent.  Positions are 1-based; 0 and N+1 stay virtual.  The input
    nodes are unexpanded: their positions and parents are not read.

    Raises:
        ShapeMismatch: a class id is not an integer.
        VocabMiss: a node's class id is outside the vocabulary.
    """
    cids, rows, cols, *_ = [*zip(*nodes)] or [()] * 3
    vocab.check_ids(cids)
    cids, rows, cols, parents = _expand(cids, rows, cols, vocab)
    return list(map(Node, cids, rows, cols, range(1, len(cids) + 1), parents))


def _expand(cids, rows, cols, vocab: TokenVocab):
    """:func:`expand_imaginary` on flat lists of range-checked class ids:
    returns the class ids, rows, columns and parents of the expanded
    nodes, entry i at position i+1."""
    groups, end = vocab.group_table, vocab.end_id
    out_c, out_r, out_k, out_p = [], [], [], []
    for cid, row, col in zip(cids, rows, cols):
        out_c.append(cid)
        out_r.append(row)
        out_k.append(col)
        out_p.append(None)
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

    Row i belongs to the node at graph position i+1, as
    :func:`expand_imaginary` numbers them.  A row whose argmax is the none
    class deletes the node; deleting a structural node also deletes the END
    nodes it implied.  Surviving nodes keep their positions.

    Raises:
        ShapeMismatch: the rows are not a real 2-d array as wide as the
            correction classes.
        NodeCountMismatch: row count differs from the node count.
        NonFinite: a row holds NaN or infinity.
    """
    _, rows, cols, _, parents = [*zip(*nodes)] or [()] * 5
    return list(_correct(rows, cols, parents, self_probs, vocab).values())


def _correct(rows, cols, parents, self_probs: np.ndarray, vocab: TokenVocab):
    """:func:`apply_corrections` on flat lists: returns i+1 -> Node for
    each surviving node i, at position i+1, the only nodes it builds."""
    self_probs = as_array(self_probs, (len(rows), vocab.correction_classes), "correction rows",
                          counts=(0,))
    none = vocab.none_id
    deleted: set[int] = set()
    kept: dict[int, Node] = {}
    votes = np.argmax(self_probs, axis=1).tolist()
    for pos, vote, row, col, parent in zip(itertools.count(1), votes, rows, cols, parents):
        if vote == none:
            deleted.add(pos)
        elif parent not in deleted:
            kept[pos] = Node(vote, row, col, pos, parent)
    return kept


def _edge_weights(
    index_map: dict[int, Node],
    left: np.ndarray,
    right: np.ndarray,
    alpha_l2r: float,
    alpha_r2l: float,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Checked inputs of :func:`build_graph` as arrays over graph positions.

    The one gate of the alphas and both neighbor matrices, in that order,
    for N nodes whose positions in `index_map` lie within 1..N.  Returns
    the float64 weight of every i -> j and the mask of admissible edges,
    those between the positions of `index_map` and the virtual ends.
    Raises as :func:`build_graph` documents.

    A valid pair of neighbor matrices passes on one row sum and one
    minimum of each (see :func:`_stochastic`), which NaN and infinities
    fail.  Any other pair is diagnosed one matrix at a time, left before
    right.  NaN or an infinity makes its row sum non-finite, so only a
    non-finite sum searches for the bad entry; only a sum off 1 or a
    negative entry names a row, the first.  A NaN sum from finite entries
    needs entries of both signs, so the negative entry names its row.
    """
    alpha_l2r = as_scalar(alpha_l2r, "alpha_l2r")
    alpha_r2l = as_scalar(alpha_r2l, "alpha_r2l")
    left = as_array(left, (None, None), "left neighbor scores", finite=False)
    right = as_array(right, (None, None), "right neighbor scores", finite=False)
    if not _stochastic(left, right, n):
        with np.errstate(invalid="ignore"):  # inf - inf in a sum: the gate names it
            for name, m in (("left", left), ("right", right)):
                sums = m.sum(axis=1)
                as_array(m, (n + 2, n + 2), f"{name} neighbor scores", counts=(0, 1),
                         finite=not np.isfinite(sums).all())
                off = (np.abs(sums - 1.0) > ROW_SUM_TOL) | np.any(m < -ROW_SUM_TOL, axis=1)
                if off.any():
                    bad = int(np.argmax(off))  # the first True
                    raise NonStochasticRow(bad, float(sums[bad]))
    # float64 before scaling, so each weight rounds as the scalar formula would.
    weights = np.multiply(right, alpha_l2r, dtype=np.float64)
    weights += np.multiply(left.T, alpha_r2l, dtype=np.float64)
    src = np.zeros(n + 2, dtype=bool)
    src[list(index_map)] = True
    dst = src.copy()
    src[0] = dst[n + 1] = True
    valid = src[:, None] & dst
    valid.ravel()[:: n + 3] = False  # the diagonal, through a view
    valid[0, n + 1] = False  # the bare start -> end edge
    return weights, valid


def _stochastic(left: np.ndarray, right: np.ndarray, n: int) -> bool:
    """Whether both matrices are (N+2) x (N+2), with every row summing to 1
    and no entry below 0, within ROW_SUM_TOL.  Each matrix sums its own
    rows, in its own dtype and memory order, and only the two columns of
    sums are joined.  Their maximum and minimum decide as the largest
    ``|sum - 1|`` would, since rounding is monotone; NaN fails both."""
    if not left.shape == right.shape == (n + 2, n + 2):
        return False
    with np.errstate(all="ignore"):  # a fault is named, with its warnings, by the diagnosis
        sums = np.concatenate((left.sum(axis=1), right.sum(axis=1)))
        return (sums.max() - 1.0 <= ROW_SUM_TOL and 1.0 - sums.min() <= ROW_SUM_TOL
                and left.min() >= -ROW_SUM_TOL and right.min() >= -ROW_SUM_TOL)


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
        ShapeMismatch: a matrix is not a real 2-d array, or an alpha is
            not a real number.
        NodeCountMismatch: matrices not equal and square (N+2) with N >= 0,
            or node positions out of range.
        NonFinite: a score or an alpha is NaN or infinite.
        NonStochasticRow: a score row is not a probability distribution.
    """
    index_map = {node.index: node for node in nodes}
    left = as_array(left, (None, None), "left neighbor scores", finite=False)
    n = max(len(left) - 2, 0)  # N, from left's rows
    for i in index_map:
        if not 1 <= i <= n:
            raise NodeCountMismatch(f"node position {i} outside 1..{n}")
    weights, valid = _edge_weights(index_map, left, right, alpha_l2r, alpha_r2l, n)
    r, c = np.nonzero(valid)  # row-major
    edges = dict(zip(zip(r.tolist(), c.tolist()), weights[r, c].tolist()))
    return ExprGraph(index_map, edges, n_slots=n)


def prune_and_acyclify(graph: ExprGraph, epsilon: float = 0.5) -> ExprGraph:
    """Remove weak edges, then break cycles, preserving start-to-end.

    Edges below `epsilon` are removed in ascending ``(weight, src, dst)``
    order; a removal that would disconnect the virtual end is skipped.
    While a directed cycle remains (the first one a depth-first search over
    ascending vertices and successors meets), the lightest cycle edge whose
    removal keeps the end reachable is dropped.

    The weak-edge decisions take one path search.  Give the weak edge of
    ascending rank r, of M weak edges, the cost 2 ** (M - r), and every
    other edge the cost 0.  The weak edges kept are exactly those of the
    cheapest start-to-end path P, a lexicographic bottleneck path
    (Burkard & Rendl 1991); its weak edges are unique, as distinct sets of
    powers of two have distinct sums.  Every removal leaves P: an edge off
    P goes, since P still connects.  An edge r on P stays: a path without
    it would hold the weak edges kept before r, each of which lay on every
    path left, so P's edges below r, and otherwise only ranks above r,
    which together cost less than 2 ** (M - r); it would be cheaper than
    P.  One search finds P (see :func:`_find_path`), and it orders only
    the weak edges it reads.  When strong edges alone connect start to
    end, a plain search finds the path first, and no weak edge is read.

    The cycle phase is one depth-first search that resumes after each
    removal (see :func:`_acyclic_order`).  It keeps the path found as a
    witness: a removal off it leaves the end reachable, so only a removal
    on it searches for a new one.

    The edges are written into a weight matrix and an edge mask, the form
    :func:`decode_with_graph` prunes, so neither the decisions nor the
    kept edges' order (by source, then target) follow the dict's order.

    Raises:
        ShapeMismatch: an edge key is not a pair of integers, or an edge
            weight is not a real number (naming the edge), or `epsilon` is
            not.
        NodeCountMismatch: n_slots is negative, or an edge end is neither
            the start, the end, nor a node's position within 1..n_slots.
        NonFinite: an edge weight is NaN or infinite, or `epsilon` is NaN.
            An infinite `epsilon` makes every edge weak.
        NoPath: the end was unreachable before pruning started.
    """
    _check_graph(graph)
    n = graph.n_slots + 2
    weights = np.zeros((n, n))
    valid = np.zeros((n, n), dtype=bool)
    for (s, d), w in graph.edges.items():
        weights[s, d] = w
        valid[s, d] = True
    return ExprGraph(dict(graph.nodes), _prune(weights, valid, epsilon)[0], graph.n_slots)


def _check_graph(graph: ExprGraph) -> list:
    """The gate of every graph reader.  Refuses a negative n_slots; then
    names the first edge key that is not a pair of integers; then the
    first edge with an end that is not the start, the end, or a node's
    position within 1..n_slots; then, in one vectorised pass over the
    weights, the first edge whose weight is not a real number, or is NaN
    or infinite, with its place in the edges' order as the index.  Keys
    that are tuples of two Python ints are checked by passes over their
    types and lengths, with no conversion.  Returns the keys, in the
    edges' order, as pairs of Python ints."""
    if graph.n_slots < 0:
        raise NodeCountMismatch(f"n_slots is {graph.n_slots}, below 0")
    keys = list(graph.edges)
    pairs = as_pairs(keys, "edge keys", name=lambda i: f"edge key {keys[i]!r}")
    ends = {0, graph.eos, *(v for v in graph.nodes if 1 <= v <= graph.n_slots)}
    if not ends.issuperset(itertools.chain.from_iterable(pairs)):
        bad = next(e for e in graph.edges if not ends.issuperset(e))
        raise NodeCountMismatch(f"edge {bad}: an end is not 0, {graph.eos} or a node position")
    as_array(list(graph.edges.values()), (None,), "edge weights",
             name=lambda i: f"edge {next(itertools.islice(graph.edges, i, None))}: weight")
    return pairs


def _prune(weights: np.ndarray, valid: np.ndarray, epsilon: float):
    """The pruning pass of :func:`prune_and_acyclify` on a weight matrix.

    `weights[s, d]` is the float64 weight of s -> d, an edge exactly where
    the bool mask `valid` holds.  Strong edges, those not below `epsilon`,
    become successor lists in ascending order, in one Python pass over the
    row-major flat indices of ``valid > below``.  Only when they do not
    reach the end does one search over them and the weak edges find the
    path whose weak edges are kept, as :func:`prune_and_acyclify` argues;
    it reads the weak edges from a key matrix, their weights with -inf
    elsewhere, and ranks only the rows it takes an edge from.  Then one
    resumable depth-first search breaks every cycle.  Returns the kept
    edges as a dict of weights, by source and then target, the successor
    lists, and that search's postorder.  `epsilon` goes through the gate:
    a NaN raises NonFinite, and an infinity makes every edge weak.
    """
    epsilon = as_scalar(epsilon, "epsilon", inf=True)
    n, below = len(weights), weights < epsilon
    live: list[list[int]] = [[] for _ in range(n)]
    for flat in np.flatnonzero(valid > below).tolist():  # row-major: s * n + d
        live[flat // n].append(flat % n)
    witness = _find_path(live)
    if witness is None:
        witness = _find_path(live, np.where(valid & below, weights, -math.inf))
        if witness is None:
            raise NoPath("virtual end unreachable before pruning")
        for s, d in witness:
            if d not in live[s]:  # a weak edge
                insort(live[s], d)

    def cut(cycle):
        # The lightest cycle edge whose removal keeps the end reachable.
        # One always is: a simple path of `live` edges cannot hold a whole
        # cycle, so some cycle edge lies off the witness.
        nonlocal witness
        for _, (s, d) in sorted((weights.item(e), e) for e in cycle):
            live[s].remove(d)
            found = witness if (s, d) not in witness else _find_path(live)
            if found is not None:
                witness = found
                return s, d
            insort(live[s], d)

    order = _acyclic_order(live, cut)
    item = weights.item
    return {(s, d): item(s, d) for s, out in enumerate(live) for d in out}, live, order


def _find_path(live, key=None) -> set[tuple[int, int]] | None:
    """A start-to-end path over the kept edges `live`, and over weak edges
    when `key` is given; None when the end (the last vertex) is unreachable.
    Without `key` the search is a plain one: it reads no weak edge and
    sets up no offer, and fails as soon as the kept edges are exhausted.

    ``key[s, d]`` is the weight of weak edge s -> d, and -inf where there
    is none; weak edges rank in ``(weight, src, dst)`` order.  The search
    reaches what kept edges reach, then takes weak edges in Prim's order
    (1957): the highest-ranked one out of the vertices reached so far, from
    a heap of ``(-weight, -src, -dst)``.  A reached vertex offers only its
    best weak edge, found for every row at once by one argmax over the
    reversed rows (a tie goes to the larger target), and sorts the rest of
    its row, by one stable argsort of the negated reversed row, only when
    that edge is taken.  So no vertex's row is read twice, and a row the
    search never takes from is never sorted.

    This order finds the cheapest path of :func:`prune_and_acyclify`.
    Take a vertex v and the highest rank b that the lowest weak edge of a
    path to v can have.  Until v is reached, a weak edge ranked b or above
    leaves the reached set, so the path found to v has no weak edge below
    b and holds the one edge e of rank b, as the cheapest path to v does.
    Before e, the path found is the one found to e's source, reached
    earlier.  After e, both paths run from e's target over ranks above b,
    through vertices that no path ranked above b reaches, where the search
    keeps the same order.  By induction on reaching order and on rank,
    each part is the cheapest.  Returns the path's edges.
    """
    end = len(live) - 1
    if key is not None:
        rev = key[:, ::-1]  # reversed rows: argmax takes the last of tied weights
        j = rev.argmax(axis=1)
        best_w = (-rev[np.arange(len(live)), j]).tolist()
        best_d = (j - end).tolist()  # the best target, negated
    pred = [0] + [-1] * end  # -1: not reached yet
    reached, heap, rest = [0], [], {}
    while True:
        for u in reached:  # grows while it is walked
            for x in live[u]:
                if pred[x] < 0:
                    pred[x] = u
                    reached.append(x)
        if pred[end] >= 0:
            break
        if key is not None:  # without it, no offer: the empty heap fails the search
            for u in reached:
                if best_w[u] < math.inf:
                    heappush(heap, (best_w[u], -u, best_d[u]))
        while heap:
            _, u, v = heappop(heap)
            u, v = -u, -v
            if u not in rest:  # u's best weak edge: sort the rest of its row
                neg = -key[u][::-1]
                by_key = neg.argsort(kind="stable")[1:]
                rest[u] = zip(neg[by_key].tolist(), (by_key - end).tolist())
            if (q := next(rest[u], None)) is not None and q[0] < math.inf:  # a weak edge
                heappush(heap, (q[0], -u, q[1]))
            if pred[v] < 0:
                pred[v] = u
                reached = [v]
                break
        else:
            return None
    path, v = set(), end
    while v:
        path.add((pred[v], v))
        v = pred[v]
    return path


def _acyclic_order(succ: list[list[int]], cut) -> list[int]:
    """Postorder of one depth-first search over ascending vertices and
    successors, whose reverse is a topological order (Tarjan 1976).

    Each cycle the search meets goes to `cut` as its edges, the back edge
    first: `cut` removes one of them, (s, d), from `succ` and returns it,
    or raises.  The search then resumes instead of starting again: the
    frames above s return to unseen, and s goes on from the successor
    after d, found by bisection, so `succ`'s lists must be ascending when
    `cut` returns.  A finished vertex cannot reach a vertex on the stack,
    or that edge would have closed an earlier cycle, so it stays finished,
    and the search meets the cycles that a fresh search after each removal
    would meet, in the same order.  The cycle's start is found by walking
    down from the top of the stack, which costs the cycle's length, not
    the stack's depth: a scan from the bottom is quadratic on a long chain
    of short cycles.
    Iterative so deep graphs cannot exhaust the interpreter stack.  A frame
    is a vertex and its iterator of successors left: the top one is held
    in two locals, the ones below it on two flat stacks.
    """
    color = [0] * len(succ)  # 0 unseen, 1 on the stack, 2 done
    order: list[int] = []
    for start in range(len(succ)):
        if color[start]:
            continue
        color[start] = 1
        stack, its, u, it = [], [], start, iter(succ[start])
        while True:
            for v in it:
                if color[v] == 1:
                    stack.append(u)  # the cycle runs from v up to u
                    k = len(stack) - 1
                    while stack[k] != v:
                        k -= 1
                    s, d = cut([(u, v), *zip(stack[k:], stack[k + 1:])])
                    while stack[-1] != s:
                        color[stack.pop()] = 0
                    del its[len(stack) - 1:]
                    u, it = stack.pop(), iter(succ[s][bisect_left(succ[s], d):])
                    break
                if color[v] == 0:
                    color[v] = 1
                    stack.append(u)
                    its.append(it)
                    u, it = v, iter(succ[v])
                    break
            else:
                color[u] = 2
                order.append(u)
                if not stack:
                    break
                u, it = stack.pop(), its.pop()
    return order


def longest_path(graph: ExprGraph, vocab: TokenVocab) -> PathResult:
    """Maximum-weight start-to-end path by DP over a topological order.

    Runs in O(V + E) over the reverse postorder of a depth-first search,
    which also finds any cycle.  When two predecessors give a node the same
    distance, the smaller graph position wins, whatever order they are
    relaxed in, so the edges' order cannot change the result.  The search
    runs on successor lists built from the checked edge keys, as Python
    ints, and reads each weight from ``graph.edges``.  The winning node
    sequence renders to LaTeX, every path over classes that have a
    spelling: :func:`repair_groups` drops unopened ENDs and any ``]`` that
    would end a \\sqrt index, and closes groups left open at the end.

    Raises:
        ShapeMismatch: an edge key is not a pair of integers, an edge
            weight is not a real number (naming the edge), or a node's
            class id is not an integer.
        NodeCountMismatch: n_slots is negative, or an edge end is neither
            the start, the end, nor a node's position within 1..n_slots.
        NonFinite: an edge weight is NaN or infinite.
        CycleDetected: the graph is not acyclic.
        NoPath: no start-to-end path exists.
        VocabMiss: a node's class id is outside the vocabulary.
        IllNested: the path holds a node of a reserved class (``<none>``,
            ``<sos>`` or ``<eos>``), which no LaTeX spells.
    """
    succ: list[list[int]] = [[] for _ in range(graph.n_slots + 2)]
    for s, d in _check_graph(graph):
        succ[s].append(d)
    vocab.check_ids([node.class_id for node in graph.nodes.values()])

    def refuse(cycle):
        raise CycleDetected("expression graph still holds a cycle")

    return _best_path(graph.nodes, succ, graph.edges, _acyclic_order(succ, refuse), vocab)


def _best_path(nodes, succ, edges, order, vocab: TokenVocab) -> PathResult:
    """:func:`longest_path` on successor lists `succ` and the edge dict
    `edges`, where each weight is read, over nodes whose class ids are
    range-checked.  Walking the DFS postorder `order` backwards relaxes a
    vertex after all its predecessors."""
    n = len(succ)
    dist = [0.0] + [-math.inf] * (n - 1)
    pred = [n] * n  # n: no predecessor yet, larger than any position
    for u in reversed(order):
        du = dist[u]
        if du == -math.inf:
            continue
        for v in succ[u]:
            cand, dv = du + edges[u, v], dist[v]
            if cand > dv or (cand == dv and u < pred[v]):
                dist[v] = cand
                pred[v] = u
    if dist[-1] == -math.inf:  # the virtual end
        raise NoPath("no start-to-end path after pruning")
    path = [n - 1]
    while path[-1]:
        path.append(pred[path[-1]])
    path.reverse()
    seq = [nodes[i].class_id for i in path[1:-1]]
    latex = " ".join(tokens._walk(tokens._repair(seq, vocab), vocab, [])[2])
    return PathResult(path, dist[-1], latex)


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
    Python objects; the path search runs on pruning's successor lists and
    reads weights from the kept-edge dict that the graph returns.

    The arguments are checked in this order, so of several faults the
    first is named: P, self_probs, the alphas, left, right, epsilon.  Both
    neighbor matrices are read as 2-d real arrays before either's shape or
    rows are checked.

    Raises:
        ShapeMismatch: an array is not real (numbers, not objects, text or
            complex values) or has the wrong rank, grid channel or
            correction class count; or a weight is not a real number.
        NodeCountMismatch: score matrices disagree with the node count the
            grid implies (correction rows N, neighbor matrices N+2).
        NonFinite: an input holds NaN or infinity, an alpha is not finite,
            or `epsilon` is NaN.
        NonStochasticRow: a neighbor score row is not a distribution.
        NoPath: nothing decodable, including an all-blank grid.
    """
    cids, rows, cols, parents = _expand(*_extract(P, vocab), vocab)
    n = len(cids)
    kept = _correct(rows, cols, parents, self_probs, vocab)
    weights, valid = _edge_weights(kept, left, right, alpha_l2r, alpha_r2l, n)
    edges, live, order = _prune(weights, valid, epsilon)
    return _best_path(kept, live, edges, order, vocab), ExprGraph(kept, edges, n)
