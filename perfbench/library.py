"""In-process workloads: decode-mix, decode-connflip and train-targets.

Inputs are synthetic samples made by `hmegraph.synth` from the run's seed.
Every seed draws its own expressions and noise, but each input slot has a
pinned stratum: slot k of every run matches the k-th sample of a fixed
reference pool in canonical length and, on decode-connflip, in whether the
start reaches the end over links scoring at least epsilon and in how many
of the links the decoder reads were flipped (0, 1, 2, or more).  Decode
cost grows steeply with length; on decode-connflip a long sample costs
milliseconds when the strong links connect and seconds when they do not,
and the flip count decides most exact decodes.  Without the strata a few
samples would decide a run's throughput and expression rate, and runs
with different seeds would not be comparable.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import calibrate
from calibrate import Clock
from common import (
    NoTracer,
    Tally,
    Tracer,
    call,
    closed_loop,
    p50,
    per_slot_medians,
    repeat_faults,
    scaled_ms,
    stage_metrics,
    timing_metrics,
)

EPSILON = 0.5
KM = 5
# A detector's softmax never emits an exact zero.  train-targets mixes this
# much uniform mass into the one-hot grid and teacher matrices: on raw
# one-hot inputs a flipped cell can leave a target with probability 0, and
# the losses then raise NonFinite, as documented, because of the input
# rather than a fault in the program.
FLOOR = 1e-3
MAX_DRAWS = 200_000
NOISE_TRIES = 20
WARMUP_S = 1.0
# Seconds of operations between two reference chunks of the clock.
TICK_EVERY_S = 0.2

DECODE_STAGES = [
    "vat_extract",
    "expand_imaginary",
    "apply_corrections",
    "build_graph",
    "prune_and_acyclify",
    "longest_path",
]
ASSIGN_STAGES = [
    "estimate_positions",
    "build_cost",
    "hungarian",
    "make_targets",
    "loss_vat",
    "loss_pgd",
]
MIX_PROFILES = ("quiet", "flip", "spurious", "temperature", "conn-flip")


@dataclass(frozen=True)
class Spec:
    kind: str  # "decode" or "train"
    grid: tuple[int, int]
    depth: int
    slots: int
    job: str  # the calibrate.py job whose work resembles the workload's


SPECS = {
    "decode-mix": Spec("decode", (14, 56), 2, 300, "loops"),
    "decode-connflip": Spec("decode", (14, 56), 2, 400, "pruning"),
    "train-targets": Spec("train", (24, 160), 3, 160, "array"),
}


def _noise(hm, workload: str, slot: int):
    if workload == "decode-mix":
        profile = MIX_PROFILES[slot % len(MIX_PROFILES)]
        return profile, {
            "quiet": hm.NoiseSpec(),
            "flip": hm.NoiseSpec(flip_prob=0.1),
            "spurious": hm.NoiseSpec(spurious_prob=0.02),
            "temperature": hm.NoiseSpec(score_temperature=0.3),
            "conn-flip": hm.NoiseSpec(conn_flip_prob=0.1),
        }[profile]
    if workload == "decode-connflip":
        return "conn-flip-0.3", hm.NoiseSpec(conn_flip_prob=0.3)
    return "flip", hm.NoiseSpec(flip_prob=0.1)


def _alpha(workload: str, slot: int) -> tuple[float, float]:
    # The edge-direction ablation: one neighbour head at a time.
    if workload == "decode-connflip":
        return (1.0, 0.0) if slot % 2 == 0 else (0.0, 1.0)
    return (1.0, 1.0)


@dataclass
class Item:
    """One input slot.  For training, the score matrices are teacher rows."""

    latex: str
    seq: list[int]
    cells: list[tuple[int, int]]
    profile: str
    alpha: tuple[float, float]
    probs: np.ndarray
    attn: np.ndarray | None
    self_probs: np.ndarray
    left: np.ndarray
    right: np.ndarray


class Synth:
    """Counted (and, when tracing, spanned) calls to `make_sample`."""

    def __init__(self, hm, vocab, tracer) -> None:
        self.hm = hm
        self.vocab = vocab
        self.tracer = tracer
        self.tried = 0
        self.kept = 0

    def make(self, latex: str, grid, noise, seed: int):
        self.tried += 1
        try:
            sample = self.tracer.call("synth.make_sample", None, -1, self.hm.make_sample,
                                      latex, self.vocab, grid, noise=noise, seed=seed)
        except self.hm.GridTooSmall:
            return None
        self.kept += 1
        return sample


def _floor(m: np.ndarray, axis: int) -> np.ndarray:
    return ((1.0 - FLOOR) * m + FLOOR / m.shape[axis]).astype(np.float32)


def _strong_links_connect(sample, alpha: tuple[float, float]) -> bool:
    """Whether start reaches end over edges whose weight alone reaches EPSILON."""
    n = sample.left.shape[0]
    weight = (alpha[0] * sample.right.astype(np.float64)
              + alpha[1] * sample.left.astype(np.float64).T)
    strong = weight >= EPSILON
    np.fill_diagonal(strong, False)
    strong[:, 0] = False
    strong[n - 1, :] = False
    strong[0, n - 1] = False
    seen, stack = {0}, [0]
    while stack:
        for v in np.flatnonzero(strong[stack.pop()]).tolist():
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return n - 1 in seen


def _stratum(workload: str, sample, alpha):
    if workload == "decode-connflip":
        read = "right" if alpha[0] else "left"
        flips = sum(side == read for _, side in sample.conn_flipped)
        return len(sample.seq), _strong_links_connect(sample, alpha), min(flips, 3)
    return (len(sample.seq),)


def build_corpus(hm, vocab, workload: str, seed: int, tracer=None) -> tuple[list[Item], Synth]:
    spec = SPECS[workload]
    synth = Synth(hm, vocab, tracer or NoTracer())
    # The reference pool fixes each slot's stratum; it is the same for every seed.
    ref = random.Random(f"perfbench:{workload}:strata")
    strata = []
    while len(strata) < spec.slots:
        slot = len(strata)
        s = ref.getrandbits(48)
        sample = synth.make(hm.gen_expression(s, max_depth=spec.depth, vocab=vocab),
                            spec.grid, _noise(hm, workload, slot)[1], s)
        if sample is not None:
            strata.append(_stratum(workload, sample, _alpha(workload, slot)))

    rng = random.Random(f"perfbench:{workload}:{seed}")
    pending: dict[int, deque] = defaultdict(deque)
    draws = 0
    items = []
    for slot, stratum in enumerate(strata):
        profile, noise = _noise(hm, workload, slot)
        alpha = _alpha(workload, slot)
        length = stratum[0]
        sample = None
        while sample is None or _stratum(workload, sample, alpha) != stratum:
            while not pending[length]:
                draws += 1
                if draws > MAX_DRAWS:
                    raise RuntimeError(f"no sample in stratum {stratum} after {MAX_DRAWS} draws")
                s = rng.getrandbits(48)
                latex = hm.gen_expression(s, max_depth=spec.depth, vocab=vocab)
                pending[len(hm.parse_latex(latex, vocab))].append((latex, s))
            latex, s = pending[length].popleft()
            # The noise decides the rest of the stratum, so an expression of
            # a rare length gets fresh noise before a new one is drawn; how
            # long set-up takes then hardly depends on the seed.
            for _ in range(NOISE_TRIES):
                sample = synth.make(latex, spec.grid, noise, s)
                if sample is not None and _stratum(workload, sample, alpha) == stratum:
                    break
                s = rng.getrandbits(48)
        if spec.kind == "train":
            self_t, left_t, right_t = hm.teacher_matrices(sample.seq, vocab)
            items.append(Item(latex, sample.seq, sample.cells, profile, alpha,
                              _floor(sample.probs, 0), sample.attn,
                              _floor(self_t, 1), _floor(left_t, 1), _floor(right_t, 1)))
        else:
            items.append(Item(latex, sample.seq, sample.cells, profile, alpha,
                              sample.probs, None, sample.self_probs, sample.left,
                              sample.right))
    return items, synth


def inputs_digest(items: list[Item]) -> str:
    h = hashlib.sha256()
    for it in items:
        h.update(f"{it.latex}|{it.alpha}|{it.profile}\n".encode())
        for a in (it.probs, it.attn, it.self_probs, it.left, it.right):
            if a is not None:
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# --- decode ------------------------------------------------------------------

def _decode_op(hm, vocab, items):
    def op(slot):
        it = items[slot]
        result, _ = hm.decode_with_graph(
            it.probs, it.self_probs, it.left, it.right, vocab,
            epsilon=EPSILON, alpha_l2r=it.alpha[0], alpha_r2l=it.alpha[1],
        )
        return tuple(result.path), result.weight, result.latex

    return op


def _decode_staged(hm, vocab, it: Item, tracer: Tracer, sample: int):
    """The stages of `decode_with_graph`, called one by one inside spans."""
    root = tracer.open("decode", None, sample)
    try:
        nodes = tracer.call("decode.vat_extract", root, sample, hm.vat_extract, it.probs, vocab)
        expanded = tracer.call("decode.expand_imaginary", root, sample,
                               hm.expand_imaginary, nodes, vocab)
        kept = tracer.call("decode.apply_corrections", root, sample,
                           hm.apply_corrections, expanded, it.self_probs, vocab)
        graph = tracer.call("decode.build_graph", root, sample, hm.build_graph, kept,
                            it.left, it.right, alpha_l2r=it.alpha[0], alpha_r2l=it.alpha[1])
        pruned = tracer.call("decode.prune_and_acyclify", root, sample,
                             hm.prune_and_acyclify, graph, epsilon=EPSILON)
        result = tracer.call("decode.longest_path", root, sample, hm.longest_path, pruned, vocab)
    finally:
        tracer.close(root)
    counts = Counter(
        nodes_extracted=len(nodes),
        nodes_expanded=len(expanded),
        nodes_kept=len(kept),
        path_len=len(result.path) - 2,
    )
    built, final = dict(graph.edges), dict(pruned.edges)
    counts["edges_built"] = len(built)
    counts["weak_edges"] = sum(w < EPSILON for w in built.values())
    counts["weak_edges_kept"] = sum(w < EPSILON for w in final.values())
    # Edges at or above the threshold can only go when a cycle is broken.
    counts["cycle_edges_removed"] = sum(
        1 for e, w in built.items() if w >= EPSILON and e not in final
    )
    return (tuple(result.path), result.weight, result.latex), counts


def _decode_faults(hm, vocab, it: Item, out) -> list[str]:
    latex = out[2]
    try:
        seq = hm.parse_latex(latex, vocab)
        round_trip = hm.emit_latex(seq, vocab) == latex
    except hm.HmeGraphError:
        seq, round_trip = None, False
    faults = [] if round_trip else ["check:round_trip"]
    if it.profile == "quiet" and seq != it.seq:
        faults.append("check:quiet_not_exact")
    return faults


def _decode_line(out) -> str:
    path, weight, latex = out
    return f"{list(path)}|{weight!r}|{latex}\n"


# --- training targets ----------------------------------------------------------

def _train_chain(hm, vocab, it: Item, height: int, width: int, tracer, sample: int):
    root = tracer.open("train", None, sample)
    try:
        seq = tracer.call("tokens.parse_latex", root, sample, hm.parse_latex, it.latex, vocab)
        positions = tracer.call("assignment.estimate_positions", root, sample,
                                hm.estimate_positions, it.attn, seq, vocab)
        cost = tracer.call("assignment.build_cost", root, sample, hm.build_cost,
                           it.probs, positions, seq, vocab, km=KM)
        pairs = tracer.call("assignment.hungarian", root, sample, hm.hungarian, cost)
        target = tracer.call("assignment.make_targets", root, sample, hm.make_targets,
                             pairs, seq, vocab, height, width)
        vat = tracer.call("assignment.loss_vat", root, sample, hm.loss_vat, it.probs, target.grid)
        pgd = tracer.call("assignment.loss_pgd", root, sample, hm.loss_pgd,
                          it.self_probs, it.left, it.right,
                          (target.self_targets, target.left_targets, target.right_targets))
    finally:
        tracer.close(root)
    out = (tuple(map(tuple, target.cells)), vat, pgd.self_term, pgd.left_term, pgd.right_term)
    return out, (seq, cost, pairs, target)


def _train_faults(vocab, it: Item, out, full) -> tuple[list[str], int]:
    """Bijection and finite-loss checks, and how many tokens the target grid misses.

    A token is missed when the cell the generator drew it on does not carry
    its class in the target grid.
    """
    seq, _, _, target = full
    pred = [i for i, cid in enumerate(seq) if vocab.is_predictable(cid)]
    cells = [tuple(target.cells[i]) for i in pred]
    grid_cells = sorted(zip(*(a.tolist() for a in np.nonzero(target.grid != vocab.none_id))))
    faults = []
    if (len(set(cells)) != len(pred) or sorted(cells) != grid_cells
            or any(int(target.grid[r, c]) != seq[i] for i, (r, c) in zip(pred, cells))):
        faults.append("check:not_bijection")
    if not all(math.isfinite(x) for x in out[1:]):
        faults.append("check:loss_not_finite")
    # Identical symbols whose windows overlap may swap cells at equal cost;
    # the grid, which is what the classifier trains on, is then unchanged.
    misplaced = sum(int(target.grid[it.cells[i][0], it.cells[i][1]]) != seq[i] for i in pred)
    return faults, misplaced


def _train_counts(vocab, full, height: int, width: int) -> Counter:
    seq, cost, pairs, _ = full
    tokens = sum(vocab.is_predictable(c) for c in seq)
    return Counter(
        tokens=tokens,
        cost_entries=tokens * height * width,
        in_window=sum(cost[r, c] < 1e6 for r, c in pairs),
        label_tokens=len(seq),
    )


def _train_line(out) -> str:
    cells, *losses = out
    return f"{list(cells)}|{'|'.join(repr(x) for x in losses)}\n"


# --- running -----------------------------------------------------------------

def _warm_up(n: int, op) -> None:
    start = perf_counter()
    for slot in range(n):
        call(op, slot)
        if perf_counter() - start > WARMUP_S:
            break


def run(hm, vocab, workload: str, items: list[Item], seconds: float, tally: Tally,
        tracer: Tracer | None, synth: Synth) -> tuple[dict, dict, str]:
    """Measure one workload; returns (end-to-end metrics, per-layer metrics, digest)."""
    spec = SPECS[workload]
    n = len(items)
    height, width = spec.grid
    if spec.kind == "decode":
        plain = _decode_op(hm, vocab, items)
    else:
        def plain(slot):
            return _train_chain(hm, vocab, items[slot], height, width, NoTracer(), slot)[0]
    _warm_up(n, plain)

    layer: dict = {}
    clock = None
    if tracer is None:
        clock = Clock(calibrate.in_process(spec.job), calibrate.REF_MS[spec.job])
        records = closed_loop(n, seconds, plain, clock, TICK_EVERY_S)
    else:
        records, layer = _run_traced(hm, vocab, workload, items, seconds, tracer, plain)
    faults = repeat_faults(records, n)

    first = records[:n]
    digest = hashlib.sha256()
    misplaced: list[int] = []
    for i, rec in enumerate(first):
        it = items[i]
        if rec.error is not None:
            digest.update(f"error:{rec.error}\n".encode())
            misplaced.append(1 << 30)
            continue
        if spec.kind == "decode":
            faults.setdefault(i, []).extend(_decode_faults(hm, vocab, it, rec.out))
            digest.update(_decode_line(rec.out).encode())
        else:
            # Checks need the full target, which the timed loop does not keep.
            out, full = _train_chain(hm, vocab, it, height, width, NoTracer(), i)
            fs, off = _train_faults(vocab, it, out, full)
            if out != rec.out:
                fs.append("check:nondeterministic")
            faults.setdefault(i, []).extend(fs)
            misplaced.append(off)
            digest.update(_train_line(rec.out).encode())
    for i, rec in enumerate(records):
        tally.op(([rec.error] if rec.error else []) + faults.get(i, []))

    metrics = timing_metrics(per_slot_medians(records, scaled_ms(records, clock), n))
    metrics["unscaled"] = timing_metrics(per_slot_medians(records, scaled_ms(records, None), n))
    if clock is not None:
        metrics["clock"] = clock.summary()
    if spec.kind == "decode":
        preds = [r.out[2] if r.error is None else "" for r in first]
        report = (tracer or NoTracer()).call("metrics.evaluate", None, -1, hm.evaluate,
                                             preds, [it.latex for it in items], vocab)
        metrics.update(exprate=report.exprate, exprate_leq1=report.leq1,
                       exprate_leq2=report.leq2)
        if tracer is not None:
            evals = tracer.durations_ms()["metrics.evaluate"]
            layer["metrics.evaluate.ms_per_sample"] = evals[-1] / n
            layer["metrics.unparseable"] = sum(
                d == hm.metrics.UNPARSEABLE for d in report.per_sample)
    else:
        # Expression rate of the assignment: share of samples whose target
        # grid puts every label token on the cell the generator drew it on.
        metrics.update(
            exprate=sum(m == 0 for m in misplaced) / n,
            exprate_leq1=sum(m <= 1 for m in misplaced) / n,
            exprate_leq2=sum(m <= 2 for m in misplaced) / n,
        )
    if tracer is not None:
        durations = tracer.durations_ms()
        layer["synth.make_sample.ms_p50"] = p50(durations["synth.make_sample"])
        layer["synth.layout_accept_ratio"] = synth.kept / synth.tried
    return metrics, layer, digest.hexdigest()


def _run_traced(hm, vocab, workload, items, seconds, tracer: Tracer, plain):
    """Each operation runs the sample untraced and traced, in alternating order.

    The traced run calls the stages one by one inside spans, checks that
    they give what the untraced call gave, and times both so the tracing
    overhead can be reported.
    """
    spec = SPECS[workload]
    n = len(items)
    height, width = spec.grid
    counts: Counter = Counter()
    untraced_ms: list[float] = []
    traced_roots: list[int] = []
    ops = 0

    def staged(slot):
        it = items[slot]
        if spec.kind == "decode":
            return _decode_staged(hm, vocab, it, tracer, slot)
        out, full = _train_chain(hm, vocab, it, height, width, tracer, slot)
        return out, _train_counts(vocab, full, height, width)

    def op(slot):
        nonlocal ops
        ops += 1
        if ops % 2:
            plain_rec = call(plain, slot)
        traced_roots.append(len(tracer.spans))
        out, c = staged(slot)
        if not ops % 2:
            plain_rec = call(plain, slot)
        untraced_ms.append(plain_rec.ms)
        if ops <= n:
            counts.update(c)
        if plain_rec.error is not None or plain_rec.out != out:
            raise TracedMismatch(f"slot {slot}")
        return out

    records = closed_loop(n, seconds, op)
    traced_ms = [(tracer.spans[i][2] - tracer.spans[i][1]) / 1e6 for i in traced_roots]
    durations = tracer.durations_ms()
    layer: dict = {"trace.overhead_share": sum(traced_ms) / sum(untraced_ms) - 1.0}
    busy = sum(traced_ms)
    if spec.kind == "decode":
        layer.update(stage_metrics("decode", DECODE_STAGES, durations, busy, with_p90=True))
        for key in ("nodes_extracted", "nodes_expanded", "nodes_kept", "edges_built",
                    "weak_edges", "weak_edges_kept", "cycle_edges_removed", "path_len"):
            layer[f"decode.{key}"] = counts[key]
        layer["decode.keep_ratio"] = counts["nodes_kept"] / counts["nodes_expanded"]
    else:
        layer.update(stage_metrics("assignment", ASSIGN_STAGES, durations, busy,
                                   with_p90=False))
        layer["assignment.tokens"] = counts["tokens"]
        layer["assignment.cost_entries"] = counts["cost_entries"]
        layer["assignment.in_window_ratio"] = counts["in_window"] / counts["tokens"]
        layer["tokens.parse_latex.ms_p50"] = p50(durations["tokens.parse_latex"])
        layer["tokens.tokens_per_label"] = counts["label_tokens"] / n
    return records, layer


class TracedMismatch(Exception):
    """The traced stage-by-stage run disagreed with the untraced call."""
