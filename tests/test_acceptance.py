"""Acceptance gate: one check per core guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each check prints ``ACCEPTANCE <n> (<name>): PASS|FAIL`` before asserting, so
a red run still shows exactly which guarantees held.  Tolerances are pinned
in the assertions; none of them are tunable from the outside.
"""

import gc
import json
import struct
import time

import numpy as np

from hmegraph import (
    ExprGraph,
    Node,
    build_cost,
    decode_with_graph,
    default_vocab,
    emit_latex,
    estimate_positions,
    gen_expression,
    hungarian,
    longest_path,
    loss_vat,
    make_sample,
    make_targets,
    parse_latex,
    read_tensor,
    write_tensor,
)
from hmegraph import decode
from hmegraph.cli import Config, build_parser, load_config, merge_config
from hmegraph.errors import GridTooSmall, NoPath
from hmegraph.synth import (
    NoiseSpec,
    coverage_corpus,
    oracle_hungarian,
    oracle_longest_path,
)
from hmegraph.tokens import ROLE_HSE, ROLE_IRS

VOCAB = default_vocab()
QUIET = NoiseSpec()
GRID = (14, 56)


def verdict(num, name, problems):
    ok = not problems
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}):\n" + "\n".join(problems)


def synth_stream(seed0, noise=QUIET):
    """Deterministic generator of (label, sample) pairs, skipping layouts
    that do not fit the fixed grid."""
    seed = seed0
    while True:
        latex = gen_expression(seed, max_depth=2, vocab=VOCAB)
        seed += 1
        try:
            yield latex, make_sample(latex, VOCAB, GRID, noise=noise, seed=seed)
        except GridTooSmall:
            continue


def dyadic(rng, *shape):
    """Multiples of 1/1024: float sums over these are exact, so equality
    against the enumeration oracles needs no tolerance."""
    return rng.integers(1, 1025, size=shape).astype(np.float64) / 1024.0


def test_1_parser_round_trip():
    corpus = coverage_corpus()
    problems = []
    if len(corpus) < 200:
        problems.append(f"corpus holds {len(corpus)} expressions, need >= 200")
    seen = set()
    for latex in corpus:
        seq = parse_latex(latex, VOCAB)
        seen.update(seq)
        again = parse_latex(emit_latex(seq, VOCAB), VOCAB)
        if again != seq:
            problems.append(f"round trip moved: {latex!r}")
    structural = {
        cid
        for cid in range(VOCAB.num_predictable)
        if VOCAB.roles[cid] in (ROLE_HSE, ROLE_IRS)
    }
    for cid in sorted(structural - seen):
        problems.append(f"structural symbol never exercised: {VOCAB.symbol_of(cid)}")
    verdict(1, "parser round trip", problems)


def test_2_assignment_optimality():
    rng = np.random.default_rng(7)
    problems = []
    t0 = time.perf_counter()
    for trial in range(1000):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(rows, 10))
        cost = dyadic(rng, rows, cols)
        got = sum(cost[r, c] for r, c in hungarian(cost))
        want = sum(cost[r, c] for r, c in oracle_hungarian(cost))
        if got != want:
            problems.append(f"trial {trial}: cost {got} != oracle {want}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"1000 assignments took {elapsed:.2f}s, budget 5s")
    verdict(2, "assignment optimality", problems)


def random_dag(rng):
    n = int(rng.integers(1, 11))
    nodes = {
        i: Node(class_id=0, row=0, col=i, index=i)
        for i in range(1, n + 1)
    }
    edges = {}
    for i in range(1, n + 1):
        if rng.random() < 0.5:
            edges[(0, i)] = float(dyadic(rng))
        if rng.random() < 0.5:
            edges[(i, n + 1)] = float(dyadic(rng))
        for j in range(i + 1, n + 1):
            if rng.random() < 0.4:
                edges[(i, j)] = float(dyadic(rng))
    return ExprGraph(nodes=nodes, edges=edges, n_slots=n)


def chain_graph(rng, n):
    nodes = {
        i: Node(class_id=0, row=0, col=i, index=i)
        for i in range(1, n + 1)
    }
    edges = {(0, 1): 1.0, (n, n + 1): 1.0}
    for i in range(1, n):
        edges[(i, i + 1)] = float(dyadic(rng))
    for _ in range(2 * n):
        i = int(rng.integers(1, n))
        j = int(rng.integers(i + 1, n + 1))
        edges.setdefault((i, j), float(dyadic(rng)))
    return ExprGraph(nodes=nodes, edges=edges, n_slots=n)


def test_3_longest_path_exact_and_linear():
    rng = np.random.default_rng(11)
    problems = []
    connected = 0
    for trial in range(1000):
        graph = random_dag(rng)
        try:
            want_w, want_path = oracle_longest_path(graph)
        except NoPath:
            want_w = None
        try:
            got = longest_path(graph, VOCAB)
        except NoPath:
            if want_w is not None:
                problems.append(f"trial {trial}: decoder NoPath, oracle {want_w}")
            continue
        if want_w is None:
            problems.append(f"trial {trial}: decoder found {got.weight}, oracle NoPath")
        elif got.weight != want_w:
            problems.append(f"trial {trial}: weight {got.weight} != {want_w}")
        else:
            connected += 1
    if connected < 500:
        problems.append(f"only {connected}/1000 graphs connected; generator drifted")

    sizes = [500, 1000, 2000, 4000, 8000]
    longest_path(chain_graph(rng, 200), VOCAB)  # warm up
    runs = {n: [] for n in sizes}
    gc.collect()
    gc.disable()  # a collection pause mid-measurement would skew large sizes
    try:
        for _ in range(5):
            for n in sizes:  # interleaved so machine drift hits all sizes alike
                graph = chain_graph(rng, n)
                t0 = time.perf_counter()
                longest_path(graph, VOCAB)
                runs[n].append(time.perf_counter() - t0)
    finally:
        gc.enable()
    medians = [sorted(runs[n])[2] for n in sizes]
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    if not 0.85 <= slope <= 1.15:
        problems.append(f"runtime exponent {slope:.3f} outside 1.0 +/- 0.15")
    verdict(3, "longest path exact and linear", problems)


def test_3_longest_path_counts_are_linear(monkeypatch):
    """A count companion to acceptance 3, free of wall-clock noise: on its
    chain graphs, at its sizes, the search pushes one frame per vertex and
    the DP reads each edge's weight once, so frames == V and relaxations
    == E exactly."""
    frames = [0]

    def counted_iter(successors):
        frames[0] += 1
        return iter(successors)

    class CountedEdges(dict):
        reads = 0

        def __getitem__(self, key):
            self.reads += 1
            return super().__getitem__(key)

    monkeypatch.setattr(decode, "iter", counted_iter, raising=False)
    rng = np.random.default_rng(11)
    for n in [500, 1000, 2000, 4000, 8000]:
        graph = chain_graph(rng, n)
        edges = CountedEdges(graph.edges)
        frames[0] = 0
        longest_path(ExprGraph(graph.nodes, edges, n), VOCAB)
        assert (frames[0], edges.reads) == (n + 2, len(edges)), n


def test_4_target_grid_bijection():
    problems = []
    stream = synth_stream(5000)
    for _ in range(500):
        latex, sample = next(stream)
        seq = parse_latex(latex, VOCAB)
        positions = estimate_positions(sample.attn, seq, VOCAB)
        cost = build_cost(sample.probs, positions, seq, VOCAB, km=5)
        target = make_targets(hungarian(cost), seq, VOCAB, *GRID)
        predictable = sum(1 for cid in seq if VOCAB.is_predictable(cid))
        occupied = int((target.grid != VOCAB.none_id).sum())
        if occupied != predictable:
            problems.append(f"{latex!r}: {occupied} cells vs {predictable} tokens")
            continue
        one_hot = np.zeros_like(sample.probs)
        rows, cols = np.indices(GRID)
        one_hot[target.grid, rows, cols] = 1.0
        vat = loss_vat(one_hot, target.grid)
        if abs(vat) > 1e-9:
            problems.append(f"{latex!r}: loss on own one-hot = {vat}")
    verdict(4, "target grid bijection", problems)


def test_5_noiseless_closure():
    problems = []
    stream = synth_stream(0)
    t0 = time.perf_counter()
    wrong = 0
    for _ in range(1000):
        latex, sample = next(stream)
        result = decode_with_graph(
            sample.probs, sample.self_probs, sample.left, sample.right, VOCAB
        )[0]
        if result.latex != latex:
            wrong += 1
            if wrong <= 3:
                problems.append(f"decoded {result.latex!r}, expected {latex!r}")
    elapsed = time.perf_counter() - t0
    if wrong:
        problems.append(f"expression rate {(1000 - wrong) / 1000:.3f}, need 1.0")
    if elapsed >= 10.0:
        problems.append(f"1000 samples took {elapsed:.2f}s, budget 10s")
    verdict(5, "noiseless closure", problems)


def correction_suite(noise, seed0, event_count):
    wrong = []
    total_events = 0
    singles = 0
    stream = synth_stream(seed0, noise=noise)
    for _ in range(400):
        latex, sample = next(stream)
        events = event_count(sample)
        total_events += events
        singles += events == 1
        result = decode_with_graph(
            sample.probs, sample.self_probs, sample.left, sample.right, VOCAB
        )[0]
        if result.latex != latex:
            wrong.append(latex)
    return wrong, total_events, singles


def test_6_correction_behavior():
    problems = []
    wrong, events, singles = correction_suite(
        NoiseSpec(flip_prob=0.35), 20000, lambda s: len(s.flipped)
    )
    if events == 0 or singles == 0:
        problems.append("flip suite produced no (single) flip events")
    for latex in wrong[:3]:
        problems.append(f"flip suite missed {latex!r}")
    if wrong:
        problems.append(f"flip suite rate {(400 - len(wrong)) / 400:.3f}, need 1.0")

    wrong, events, singles = correction_suite(
        NoiseSpec(spurious_prob=0.003), 30000, lambda s: len(s.spurious)
    )
    if events == 0 or singles == 0:
        problems.append("spurious suite produced no (single) insert events")
    for latex in wrong[:3]:
        problems.append(f"spurious suite missed {latex!r}")
    if wrong:
        problems.append(f"spurious rate {(400 - len(wrong)) / 400:.3f}, need 1.0")
    verdict(6, "correction behavior", problems)


def ablation_rate(alphas, noise, seed0, count):
    stream = synth_stream(seed0, noise=noise)
    correct = 0
    for _ in range(count):
        latex, sample = next(stream)
        result = decode_with_graph(
            sample.probs,
            sample.self_probs,
            sample.left,
            sample.right,
            VOCAB,
            alpha_l2r=alphas[0],
            alpha_r2l=alphas[1],
        )[0]
        correct += result.latex == latex
    return correct / count


def test_7_edge_weight_ablation():
    configs = [(1.0, 0.0), (1.0, 0.5), (1.0, 1.0), (0.5, 1.0), (0.0, 1.0)]
    problems = []
    for alphas in configs:
        rate = ablation_rate(alphas, QUIET, 40000, 60)
        if rate != 1.0:
            problems.append(f"zero noise, alphas {alphas}: rate {rate:.3f}")
    noisy = NoiseSpec(conn_flip_prob=0.30)
    rates = {alphas: ablation_rate(alphas, noisy, 50000, 500) for alphas in configs}
    balanced = rates[(1.0, 1.0)]
    for single in [(1.0, 0.0), (0.0, 1.0)]:
        if balanced < rates[single]:
            problems.append(
                f"balanced {balanced:.3f} below one-sided {single}: {rates[single]:.3f}"
            )
    verdict(7, "edge weight ablation", problems)


def test_8_metric_defaults(tmp_path):
    problems = []
    cfg = Config()
    for field, want in [("lam", 0.5), ("epsilon", 0.5), ("km", 5)]:
        got = getattr(cfg, field)
        if got != want:
            problems.append(f"default {field} = {got}, want {want}")
    args = build_parser().parse_args(
        ["decode", "--probs", "p", "--self", "s", "--left", "l", "--right", "r"]
    )
    if merge_config(args, Config()) != Config():
        problems.append("bare decode flags disturbed the defaults")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lambda": 0.25, "epsilon": 0.75, "km": 3}))
    from_file = merge_config(args, load_config(path))
    if (from_file.lam, from_file.epsilon, from_file.km) != (0.25, 0.75, 3):
        problems.append(f"config file ignored: {from_file}")
    args = build_parser().parse_args(
        ["decode", "--probs", "p", "--self", "s", "--left", "l", "--right", "r",
         "--epsilon", "0.9"]
    )
    if merge_config(args, load_config(path)).epsilon != 0.9:
        problems.append("flag did not override the config file")
    verdict(8, "metric defaults", problems)


def test_9_format_stability(tmp_path):
    problems = []
    rng = np.random.default_rng(23)
    tensor = rng.random((3, 5, 7), dtype=np.float32)
    first, second, swapped = (tmp_path / n for n in ("a.namt", "b.namt", "c.namt"))
    write_tensor(tensor, first)
    write_tensor(tensor, second)
    write_tensor(tensor.astype(">f4"), swapped)
    blobs = [p.read_bytes() for p in (first, second, swapped)]
    if blobs[0] != blobs[1]:
        problems.append("two writes of one tensor differ")
    if blobs[0] != blobs[2]:
        problems.append("byte-swapped input changed the encoding")
    header = (
        struct.pack("<4sII", b"NAMT", 1, 3)
        + struct.pack("<3I", 3, 5, 7)
        + struct.pack("<I", 1)
    )
    if not blobs[0].startswith(header):
        problems.append("header bytes drifted from the frozen layout")
    back = read_tensor(first)
    if back.dtype != np.float32 or not np.array_equal(back, tensor):
        problems.append("round trip is not bit exact")
    verdict(9, "format stability", problems)
