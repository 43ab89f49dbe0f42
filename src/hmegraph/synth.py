"""Synthetic expression samples and brute-force oracles.

A synthetic sample is everything the decoder consumes, constructed from a
known expression so ground truth is exact: a cell-classification grid, a
teacher attention stack, per-node correction rows, and both neighbor-head
matrices sized for the node list the grid implies.  At zero noise the
tensors are one-hot and decoding must reproduce the source expression
exactly; each noise rate perturbs one thing only, so recovery behavior can
be tested in isolation.

The oracles at the bottom re-derive answers by exhaustive search within
small bounds and share no code with the production paths they check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CycleDetected, GridTooSmall, IllNested, Infeasible, NoPath, TooLarge
from .tokens import (
    ROLE_VISIBLE,
    TokenVocab,
    build_vocab,
    group_structure,
    gt_targets,
    parse_latex,
)

_ATOMS = list("abcxyz") + [str(d) for d in range(10)]
_BINOPS = ["+", "-", "="]


@dataclass(frozen=True)
class NoiseSpec:
    """Independent corruption rates for one sample.

    flip_prob: chance a plain visible cell shows a wrong class (argmax 0.8
        wrong / 0.2 true); correction rows still carry the true class.
    spurious_prob: chance an empty cell shows a visible class; its
        correction row votes for deletion.
    score_temperature: softmax temperature over the one-hot correction and
        neighbor rows; 0 keeps them exactly one-hot.
    conn_flip_prob: chance a node's left or right neighbor row (one side,
        picked at random) splits 0.6 wrong / 0.4 true.
    """

    flip_prob: float = 0.0
    spurious_prob: float = 0.0
    score_temperature: float = 0.0
    conn_flip_prob: float = 0.0


@dataclass
class SynthSample:
    """One generated expression with every tensor the decoder needs."""

    latex: str
    seq: list[int]
    cells: list[tuple[int, int]]
    probs: np.ndarray
    attn: np.ndarray
    self_probs: np.ndarray
    left: np.ndarray
    right: np.ndarray
    noise: NoiseSpec
    flipped: list[tuple[int, int]] = field(default_factory=list)
    spurious: list[tuple[int, int]] = field(default_factory=list)
    conn_flipped: list[tuple[int, str]] = field(default_factory=list)


def gen_expression(seed: int, max_depth: int = 2, vocab: TokenVocab | None = None) -> str:
    """Deterministic random expression over a small balanced grammar.

    The grammar draws atoms, the + - = operators, fractions, square roots,
    and super/subscripts, recursing at most `max_depth` levels.  Atoms come
    from `vocab`'s single-character visible symbols when given, else from a
    builtin alphabet.  Output is spaced and fully braced.
    """
    rng = random.Random(seed)
    if vocab is None:
        atoms = list(_ATOMS)
    else:
        atoms = [
            s
            for s, role in zip(vocab.symbols, vocab.roles)
            if role == ROLE_VISIBLE and len(s) == 1 and s.isalnum()
        ] or list(_ATOMS)

    def expr(depth: int) -> str:
        parts = [term(depth)]
        for _ in range(rng.randrange(0, 3)):
            parts.append(rng.choice(_BINOPS))
            parts.append(term(depth))
        return " ".join(parts)

    def term(depth: int) -> str:
        if depth <= 0 or rng.random() < 0.35:
            return rng.choice(atoms)
        roll = rng.random()
        if roll < 0.25:
            return f"\\frac {{ {expr(depth - 1)} }} {{ {expr(depth - 1)} }}"
        if roll < 0.45:
            return f"\\sqrt {{ {expr(depth - 1)} }}"
        if roll < 0.75:
            return f"{rng.choice(atoms)} ^ {{ {expr(depth - 1)} }}"
        return f"{rng.choice(atoms)} _ {{ {expr(depth - 1)} }}"

    return expr(max_depth)


# --- spatial layout ---------------------------------------------------------

# Row offset of a script symbol and of its argument.
_SCRIPT_ROWS = {"^": -1, "\\limits": -1, "_": 1}


def _place(seq: list[int], counts: dict[int, int], vocab: TokenVocab) -> dict[int, tuple[int, int]]:
    """Assign a cell to every predictable token of a well-nested sequence.

    Scripts shift one row up or down, fraction arms straddle the bar's row,
    everything else runs left to right.  `counts` is the sequence's
    :func:`group_structure` counts.  One pass with a stack of the open
    structural tokens, so nesting depth is bounded only by memory.
    """
    cells: dict[int, tuple[int, int]] = {}
    row = col = 0
    # Frames: [symbol, groups left, its row, its first group's column, top arm's end].
    stack: list[list] = []
    for pos, cid in enumerate(seq):
        if cid == vocab.end_id:
            frame = stack[-1]
            frame[1] -= 1
            if frame[0] == "\\frac" and frame[1]:  # the top arm ends; the bottom one starts
                frame[4], row, col = col, frame[2] + 1, frame[3]
            elif not frame[1]:
                stack.pop()
                row = frame[2]
                if frame[0] == "\\frac":
                    col = max(frame[4], col)
            continue
        if pos not in counts:
            cells[pos] = (row, col)
        else:
            sym = vocab.symbol_of(cid)
            stack.append([sym, counts[pos], row, col + 1, 0])
            shift = _SCRIPT_ROWS.get(sym, 0)
            cells[pos] = (row + shift, col)
            row += -1 if sym == "\\frac" else shift  # the top arm, or the script row
        col += 1
    return cells


def layout_and_render(
    seq: list[int],
    grid_dims: tuple[int, int],
    vocab: TokenVocab,
    noise: NoiseSpec = NoiseSpec(),
    seed: int = 0,
) -> SynthSample:
    """Lay a canonical sequence out on a grid and render decoder tensors.

    The neighbor matrices encode the ground-truth reading order as a chain
    over the node list a detector would extract: non-blank cells in raster
    order, each structural token followed by the END nodes that
    :func:`group_structure` says it owns.  Correction rows carry true
    classes so the configured noise is recoverable by construction.

    Raises:
        GridTooSmall: grid cannot hold the laid-out expression.
        IllNested: a structural instance whose parsed group count cannot be
            re-expanded from grid output (an indexed root).
    """
    h, w = grid_dims
    counts, parents = group_structure(seq, vocab)
    for pos, g in counts.items():
        if g != vocab.group_table[seq[pos]]:
            raise IllNested(
                f"{vocab.symbols[seq[pos]]!r} instance takes {g} groups; "
                f"grid output re-expands it with {vocab.group_table[seq[pos]]}"
            )
    rng = random.Random(seed)

    raw = _place(seq, counts, vocab)
    if raw:
        min_row = min(r for r, _ in raw.values())
        raw = {p: (r - min_row, c) for p, (r, c) in raw.items()}
        max_row = max(r for r, _ in raw.values())
        max_col = max(c for _, c in raw.values())
        if max_row >= h or max_col >= w:
            raise GridTooSmall(
                f"layout needs {max_row + 1}x{max_col + 1}, grid is {h}x{w}"
            )
    if len(set(raw.values())) != len(raw):
        # Nested scripts on opposite arms of a fraction can meet on the
        # fraction's own row; the one-row script offset cannot separate
        # them at any grid size, so the expression is rejected.
        raise GridTooSmall("script rows collide; expression too dense to lay out")

    cells = [
        raw[pos] if parents[pos] is None else raw[parents[pos]]
        for pos in range(len(seq))
    ]

    # Cell noise.
    visible_pool = [
        i for i, role in enumerate(vocab.roles) if role == ROLE_VISIBLE
    ]
    observed: dict[int, int] = {}
    flipped: list[tuple[int, int]] = []
    for pos in sorted(raw):
        cid = seq[pos]
        observed[pos] = cid
        flippable = vocab.roles[cid] == ROLE_VISIBLE and len(visible_pool) > 1
        if flippable and rng.random() < noise.flip_prob:
            wrong = rng.choice([c for c in visible_pool if c != cid])
            observed[pos] = wrong
            flipped.append(raw[pos])

    taken = set(raw.values())
    spurious: list[tuple[int, int]] = []
    spurious_cls: list[int] = []
    if noise.spurious_prob > 0:
        for r in range(h):
            for c in range(w):
                if (r, c) not in taken and rng.random() < noise.spurious_prob:
                    spurious.append((r, c))
                    spurious_cls.append(rng.choice(visible_pool))

    # Classification grid.
    probs = np.zeros((vocab.grid_classes, h, w), dtype=np.float32)
    probs[vocab.none_id] = 1.0
    for pos, cell in raw.items():
        probs[:, cell[0], cell[1]] = 0.0
        if observed[pos] == seq[pos]:
            probs[seq[pos], cell[0], cell[1]] = 1.0
        else:
            probs[observed[pos], cell[0], cell[1]] = 0.8
            probs[seq[pos], cell[0], cell[1]] = 0.2
    for cell, cls in zip(spurious, spurious_cls):
        probs[vocab.none_id, cell[0], cell[1]] = 0.2
        probs[cls, cell[0], cell[1]] = 0.8

    # Teacher attention: one peaked slice per canonical token.
    attn = np.zeros((len(seq), h, w), dtype=np.float32)
    attn[np.arange(len(seq)), [r for r, _ in cells], [c for _, c in cells]] = 1.0

    # Node list the detector will extract, in raster order: each END shares
    # its owner's cell and sorts after it, in sequence order (the sort is
    # stable).  None marks a spurious node.
    keyed = [(cell, parents[pos] is not None, pos) for pos, cell in enumerate(cells)]
    keyed += [(cell, False, None) for cell in spurious]
    nodes = [pos for *_, pos in sorted(keyed, key=lambda k: k[:2])]
    n = len(nodes)
    node_of = {pos: i for i, pos in enumerate(nodes, 1) if pos is not None}

    # Correction rows and neighbor matrices.
    self_probs = np.zeros((n, vocab.correction_classes), dtype=np.float32)
    self_probs[np.arange(n), [vocab.none_id if pos is None else seq[pos] for pos in nodes]] = 1.0

    left = np.eye(n + 2, dtype=np.float32)
    right = np.eye(n + 2, dtype=np.float32)
    chain = [0] + [node_of[pos] for pos in range(len(seq))] + [n + 1]
    right[chain[:-1]] = 0.0
    right[chain[:-1], chain[1:]] = 1.0
    left[chain[1:]] = 0.0
    left[chain[1:], chain[:-1]] = 1.0

    if noise.score_temperature > 0:
        t = noise.score_temperature
        for m in (self_probs, left, right):
            soft = np.exp((m - 1.0) / t)
            m[:] = soft / soft.sum(axis=1, keepdims=True)

    conn_flipped: list[tuple[int, str]] = []
    if noise.conn_flip_prob > 0 and len(chain) > 2:
        real = sorted(chain[1:-1])
        for q in range(1, len(chain) - 1):
            idx = chain[q]
            if rng.random() >= noise.conn_flip_prob:
                continue
            side = rng.choice(("left", "right"))
            true_t = chain[q - 1] if side == "left" else chain[q + 1]
            pool = [x for x in real if x != idx and x != true_t]
            if not pool:
                continue
            wrong = rng.choice(pool)
            m = left if side == "left" else right
            m[idx] = 0.0
            m[idx, wrong] = 0.6
            m[idx, true_t] = 0.4
            conn_flipped.append((idx, side))

    return SynthSample(
        latex="",
        seq=list(seq),
        cells=cells,
        probs=probs,
        attn=attn,
        self_probs=self_probs,
        left=left,
        right=right,
        noise=noise,
        flipped=flipped,
        spurious=spurious,
        conn_flipped=conn_flipped,
    )


def teacher_matrices(
    seq: list[int], vocab: TokenVocab
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-hot correction and neighbor rows in label order.

    Training indexes node i at graph position i+1, unlike the raster order
    a detector extracts, and these rows hit the targets of
    :func:`hmegraph.tokens.gt_targets` exactly, so every node loss term is
    zero against them.
    """
    self_t, left_t, right_t = gt_targets(seq)
    n = len(seq)
    self_probs = np.zeros((n, vocab.correction_classes), dtype=np.float32)
    self_probs[np.arange(n), self_t] = 1.0
    left = np.eye(n + 2, dtype=np.float32)
    right = np.eye(n + 2, dtype=np.float32)
    for i in range(n):
        left[i + 1] = 0.0
        left[i + 1, left_t[i]] = 1.0
        right[i + 1] = 0.0
        right[i + 1, right_t[i]] = 1.0
    return self_probs, left, right


def make_sample(
    latex: str,
    vocab: TokenVocab,
    grid_dims: tuple[int, int] = (12, 48),
    noise: NoiseSpec = NoiseSpec(),
    seed: int = 0,
) -> SynthSample:
    """Parse `latex` and lay it out; the usual entry point."""
    seq = parse_latex(latex, vocab)
    sample = layout_and_render(seq, grid_dims, vocab, noise=noise, seed=seed)
    sample.latex = latex
    return sample


# --- builtin corpus ---------------------------------------------------------

_FIXED_CORPUS = [
    "x + y = z",
    "1 + 2 = 3",
    "a - b - c",
    "( x + y )",
    "[ 0 , 1 ]",
    "| x |",
    "\\alpha + \\beta",
    "\\pi r ^ { 2 }",
    "\\sin x + \\cos y",
    "x \\leq y",
    "a \\geq b",
    "p \\neq q",
    "u \\times v",
    "a \\div b",
    "\\theta _ { 0 }",
    "\\lambda x",
    "\\infty",
    "\\frac { x } { y }",
    "\\frac { x + 1 } { y - 2 }",
    "\\frac { \\sqrt { x } } { 2 }",
    "\\sqrt { x }",
    "\\sqrt { \\frac { 1 } { x } }",
    "\\sqrt [ 3 ] { x + 1 }",
    "\\sqrt [ n ] { \\frac { a } { b } }",
    "x ^ { 2 }",
    "x ^ { y z } + 1",
    "x _ { i }",
    "x _ { i } ^ { 2 }",
    "x ^ { \\frac { 1 } { 2 } }",
    "\\sum \\limits _ { i = 0 } ^ { n } i",
    "\\int \\limits _ { a } ^ { b } f",
    "\\lim \\limits _ { x } f",
    "\\dot { x }",
    "\\dot { x } + \\ddot { y }",
    "\\ddot { q } = 0",
    "\\boxed { x + 1 }",
    "\\boxed { \\frac { 1 } { 2 } }",
    "\\widehat { A B }",
    "\\widehat { x } ^ { 2 }",
    "\\overline { x + y }",
    "\\overline { z } _ { k }",
    "a \\xlongequal { d e f } b",
    "x \\xrightarrow { f } y",
    "\\textcircled { 1 }",
    "\\textcircled { a } + 2",
    "\\overrightarrow { A B } = \\overrightarrow { C D }",
    "\\frac { d y } { d x } = 3 x ^ { 2 }",
    "e ^ { i \\pi } + 1 = 0",
]


def coverage_corpus() -> list[str]:
    """At least 200 expressions exercising every structural symbol.

    Handwritten templates cover each hierarchy and relation symbol in
    isolation and nested; the rest are grammar samples.
    """
    gen = [gen_expression(seed, max_depth=2) for seed in range(170)]
    return _FIXED_CORPUS + gen


@lru_cache(maxsize=1)
def default_vocab() -> TokenVocab:
    """Vocabulary over the builtin corpus; used when none is supplied."""
    return build_vocab(coverage_corpus())


# --- brute-force oracles ----------------------------------------------------

@lru_cache(maxsize=64)
def _all_perms(n_cols: int, n_rows: int) -> np.ndarray:
    return np.array(
        list(itertools.permutations(range(n_cols), n_rows)), dtype=np.int64
    )


def oracle_hungarian(cost: np.ndarray) -> list[tuple[int, int]]:
    """Exhaustive minimum-cost assignment by trying every permutation.

    Bounds: at most 7 rows and 9 columns.  Ties resolve to the
    lexicographically smallest column tuple.

    Raises:
        TooLarge: beyond the stated bounds.
        Infeasible: more rows than columns.
    """
    n_rows, n_cols = cost.shape
    if n_rows > 7 or n_cols > 9:
        raise TooLarge(f"{n_rows}x{n_cols} exceeds the 7x9 oracle bound")
    if n_rows > n_cols:
        raise Infeasible(f"{n_rows} rows cannot injectively map to {n_cols} columns")
    perms = _all_perms(n_cols, n_rows)
    totals = cost[np.arange(n_rows), perms].sum(axis=1)
    best = perms[int(np.argmin(totals))]
    return [(i, int(best[i])) for i in range(n_rows)]


def oracle_longest_path(graph) -> tuple[float, list[int]]:
    """Maximum-weight start-to-end path by enumerating every simple path.

    Bounds: at most 10 real nodes.

    Raises:
        TooLarge: beyond the bound.
        NoPath: no start-to-end path exists.
    """
    if len(graph.nodes) > 10:
        raise TooLarge(f"{len(graph.nodes)} nodes exceed the 10-node oracle bound")
    adj: dict[int, list[int]] = {}
    for s, d in graph.edges:
        adj.setdefault(s, []).append(d)
    for lst in adj.values():
        lst.sort()
    best: tuple[float, list[int]] | None = None

    def dfs(u: int, weight: float, path: list[int], seen: set[int]):
        nonlocal best
        if u == graph.eos:
            if best is None or weight > best[0]:
                best = (weight, list(path))
            return
        for v in adj.get(u, ()):
            if v in seen:
                continue
            seen.add(v)
            path.append(v)
            dfs(v, weight + graph.edges[(u, v)], path, seen)
            path.pop()
            seen.remove(v)

    dfs(0, 0.0, [0], {0})
    if best is None:
        raise NoPath("oracle found no start-to-end path")
    return best


def oracle_prune(graph, epsilon: float = 0.5) -> dict[tuple[int, int], float]:
    """Guarded pruning by its plain definition, with a fresh search at each step.

    Edges below `epsilon` are tried for removal in ascending
    (weight, src, dst) order; a removal stands only when the end is still
    reachable from the start.  Then, while a directed cycle remains, the
    first one a depth-first search meets (roots and successors ascending)
    loses its lightest edge, ties broken by the edge, whose removal keeps
    the end reachable.  Returns the surviving edges.

    Bounds: at most 12 real nodes.

    Raises:
        TooLarge: beyond the bound.
        NoPath: the end is unreachable before pruning.
        CycleDetected: a cycle with no removable edge.
    """
    if len(graph.nodes) > 12:
        raise TooLarge(f"{len(graph.nodes)} nodes exceed the 12-node oracle bound")
    edges = dict(graph.edges)

    def reaches_end() -> bool:
        adj: dict[int, list[int]] = {}
        for s, d in edges:
            adj.setdefault(s, []).append(d)
        seen, frontier = {0}, [0]
        while frontier:
            for v in adj.get(frontier.pop(), ()):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return graph.eos in seen

    def removed(e) -> bool:
        w = edges.pop(e)
        if reaches_end():
            return True
        edges[e] = w
        return False

    def first_cycle():
        verts = {v for e in edges for v in e}
        adj = {v: sorted(d for s, d in edges if s == v) for v in verts}
        state: dict[int, str] = {}
        stack: list[int] = []

        def visit(u):
            state[u] = "open"
            stack.append(u)
            for v in adj[u]:
                if state.get(v) == "open":
                    loop = stack[stack.index(v):] + [v]
                    return list(zip(loop, loop[1:]))
                if v not in state:
                    found = visit(v)
                    if found:
                        return found
            state[u] = "done"
            stack.pop()
            return None

        for root in sorted(adj):
            if root not in state:
                found = visit(root)
                if found:
                    return found
        return None

    if not reaches_end():
        raise NoPath("oracle found the end unreachable before pruning")
    for w, s, d in sorted((w, s, d) for (s, d), w in graph.edges.items()):
        if w < epsilon:
            removed((s, d))
    while (cycle := first_cycle()) is not None:
        if not any(removed(e) for e in sorted(cycle, key=lambda e: (edges[e], e))):
            raise CycleDetected("oracle met a cycle with no removable edge")
    return edges


def oracle_edit(a: list[int], b: list[int]) -> int:
    """Levenshtein distance from the full dynamic-programming table.

    Bounds: sequences of at most 12 tokens.

    Raises:
        TooLarge: beyond the bound.
    """
    if len(a) > 12 or len(b) > 12:
        raise TooLarge("sequences exceed the 12-token oracle bound")
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[len(a)][len(b)]
