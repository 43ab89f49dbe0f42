"""Fixed reference jobs that measure how fast the host runs right now.

The benchmark was defined on a small VM on a shared machine whose speed
drifts by up to a factor of two over seconds to minutes as neighbours come
and go; a decode loop that reads 330 samples/s in one five-second window
reads 590 in the next.  Wall times alone then say more about the host
than about the program.  So a run interleaves short chunks of a reference
job with the program's work, and reports every time at reference speed:
the time as measured, times the job's reference time over what the
nearest chunks took.  The jobs are fixed code that calls nothing in
`hmegraph`, so a change to the program moves the scaled times while a
change of host speed mostly cancels.  The unscaled times are kept in the
full result file.

Host slowdowns hit pure-Python work harder than vectorised numpy work, so
each workload is scaled by the job whose work resembles its own:

- `loops`: per-cell Python loops over a small numpy grid, a dict of
  edges, sorting, a DFS and a DP over a topological order (the decoder's
  work on typical inputs: extraction and graph building);
- `pruning`: guarded removals of weak edges from a dense 40-node graph,
  each followed by an adjacency rebuild and a BFS (the decoder's work on
  one-sided neighbour flips, where guarded pruning takes nearly all the
  time);
- `array`: windowed cost rows over a 24x160 grid and a scipy assignment
  (the training targets' kind of work);
- the command line is scaled by a child interpreter that imports numpy and
  `scipy.optimize`, the start-up the `hmegraph` command pays (see
  `cli_corpus.py`).
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from collections import deque
from time import perf_counter_ns

import numpy as np

# Reference chunk times in ms, close to the medians on the 2-vCPU Xeon VM
# the benchmark was defined on; they only fix the unit of scaled times.
REF_MS = {"loops": 15.0, "pruning": 15.0, "array": 20.0}
LOOP_ROUNDS = 14
PRUNE_REMOVALS = 60
ARRAY_ROUNDS = 16

_GRID = np.random.default_rng(12345).random((40, 14, 56)).astype(np.float32)
_N = 24
_W = np.random.default_rng(54321).random((_N, _N))
# A complete digraph with no edges into node 0 or out of the last node,
# like the decoder's graph between its virtual start and end.
_DENSE_N = 40
_DENSE = {
    (i, j): float(w)
    for (i, j), w in np.ndenumerate(np.random.default_rng(2468).random((_DENSE_N, _DENSE_N)))
    if i != j and j != 0 and i != _DENSE_N - 1
}
_BIG = np.random.default_rng(777).random((40, 24, 160)).astype(np.float32)
_ROWS = 30


def _loops_job() -> float:
    acc = 0.0
    for _ in range(LOOP_ROUNDS):
        probs = _GRID.astype(np.float64)
        classes = np.argmax(probs, axis=0)
        cells = []
        for r, c in np.ndindex(classes.shape):
            cid = int(classes[r, c])
            if cid % 3:
                cells.append((cid, r, c, float(probs[cid, r, c])))
        cells.sort(key=lambda t: (t[1], t[2]))
        edges = {}
        for i in range(_N):
            for j in range(_N):
                if i != j:
                    edges[(i, j)] = float(_W[i, j]) + float(_W[j, i])
        strong = sorted(((w, e) for e, w in edges.items() if w > 1.0), key=lambda t: t[0])
        adj: dict[int, list[int]] = {}
        for _, (i, j) in strong:
            if i < j:
                adj.setdefault(i, []).append(j)
        seen, stack, order = set(), [0], []
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            order.append(u)
            stack.extend(v for v in adj.get(u, ()) if v not in seen)
        best = {0: 0.0}
        for u in sorted(order):
            for v in adj.get(u, ()):
                cand = best.get(u, 0.0) + edges[(u, v)]
                if cand > best.get(v, -1.0):
                    best[v] = cand
        acc += max(best.values()) + len(cells)
    return acc


def _array_job() -> float:
    from scipy.optimize import linear_sum_assignment

    h, w = _BIG.shape[1:]
    acc = 0.0
    for k in range(ARRAY_ROUNDS):
        cost = np.empty((_ROWS, h * w))
        for l in range(_ROWS):
            r, c = (7 * l + k) % h, (37 * l + k) % w
            window = np.zeros((h, w))
            window[max(0, r - 2): r + 3, max(0, c - 2): c + 3] = 1.0
            dist = np.abs(_BIG[l].astype(np.float64) - window)
            cost[l] = (dist * window + (1.0 - window) * 1e6).ravel()
        rows, cols = linear_sum_assignment(cost)
        acc += float(cost[rows, cols].sum())
    return acc


def _pruning_job() -> float:
    edges = dict(_DENSE)
    weak = sorted((w, e) for e, w in edges.items() if w < 0.9)
    kept = 0
    for w, e in weak[:PRUNE_REMOVALS]:
        del edges[e]
        adj: dict[int, list[int]] = {}
        for s, d in edges:
            adj.setdefault(s, []).append(d)
        for lst in adj.values():
            lst.sort()
        seen, queue = {0}, deque([0])
        while queue:
            u = queue.popleft()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        if _DENSE_N - 1 not in seen:
            edges[e] = w
            kept += 1
    return float(len(edges) + kept)


def in_process(job: str):
    """A function that runs one chunk of `job` and returns its wall ms."""
    fn = {"loops": _loops_job, "pruning": _pruning_job, "array": _array_job}[job]
    expected = fn()  # also warms the job up

    def chunk_ms() -> float:
        start = perf_counter_ns()
        out = fn()
        ms = (perf_counter_ns() - start) / 1e6
        if out != expected:
            raise RuntimeError(f"calibration job {job!r} gave a different result")
        return ms

    return chunk_ms


class Clock:
    """Reference chunks taken during a run, and the scale they give.

    `tick()` runs one chunk and stamps its end; `scale(t)` is `ref_ms` over
    the median of the NEAR chunks on either side of time `t` (ns), so a
    time measured at `t` times `scale(t)` is that time at reference speed.
    """

    NEAR = 3

    def __init__(self, chunk_ms, ref_ms: float) -> None:
        self.chunk_ms = chunk_ms
        self.ref_ms = ref_ms
        self.stamps: list[int] = []
        self.ms: list[float] = []

    def tick(self) -> None:
        ms = self.chunk_ms()
        self.stamps.append(perf_counter_ns())
        self.ms.append(ms)

    def scale(self, t: int) -> float:
        i = bisect_left(self.stamps, t)
        near = self.ms[max(0, i - self.NEAR):i + self.NEAR]
        return self.ref_ms / statistics.median(near)

    def summary(self) -> dict:
        return {"chunks": len(self.ms), "chunk_ms_p50": statistics.median(self.ms),
                "spent_s": sum(self.ms) / 1000.0}
