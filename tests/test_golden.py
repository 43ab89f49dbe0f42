"""Golden decode corpus: pinned outputs of the full decode on synthetic samples.

Each record of ``data/golden_decode.jsonl`` names its input by
(seed, profile, alpha, epsilon); the test regenerates that input from
`hmegraph.synth` and checks that the decode gives the same path,
``repr(weight)``, LaTeX and pruned edge set, or raises the same error class.

Regenerate the file (only when a change of decode output is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from hmegraph import (
    GridTooSmall,
    HmeGraphError,
    NoiseSpec,
    decode_with_graph,
    default_vocab,
    gen_expression,
    make_sample,
)

GOLDEN = Path(__file__).parent / "data" / "golden_decode.jsonl"
GRID = (14, 56)
EPSILONS = (0.3, 0.5, 0.7)
SEEDS_PER_CONFIG = 17
PROFILES = {
    "quiet": NoiseSpec(),
    "flip": NoiseSpec(flip_prob=0.1),
    "spurious": NoiseSpec(spurious_prob=0.02),
    "temperature": NoiseSpec(score_temperature=0.3),
    "conn-flip": NoiseSpec(conn_flip_prob=0.1),
    "conn-flip-0.3": NoiseSpec(conn_flip_prob=0.3),
}
# (profile, alpha, first seed): the decode-mix profiles at balanced alpha,
# then the edge-direction ablation under heavy connection noise.
CONFIGS = [
    ("quiet", (1.0, 1.0), 100),
    ("flip", (1.0, 1.0), 200),
    ("spurious", (1.0, 1.0), 300),
    ("temperature", (1.0, 1.0), 400),
    ("conn-flip", (1.0, 1.0), 500),
    ("conn-flip-0.3", (1.0, 0.0), 600),
    ("conn-flip-0.3", (0.0, 1.0), 700),
    ("conn-flip-0.3", (1.0, 1.0), 800),
]


def sample_for(seed, profile, vocab):
    latex = gen_expression(seed, max_depth=2, vocab=vocab)
    return make_sample(latex, vocab, GRID, noise=PROFILES[profile], seed=seed)


def decode_record(sample, alpha, epsilon, vocab):
    try:
        result, pruned = decode_with_graph(
            sample.probs, sample.self_probs, sample.left, sample.right, vocab,
            epsilon=epsilon, alpha_l2r=alpha[0], alpha_r2l=alpha[1],
        )
    except HmeGraphError as exc:
        return {"error": type(exc).__name__}
    edges = ";".join(f"{s},{d},{w!r}" for (s, d), w in sorted(pruned.edges.items()))
    return {
        "path": result.path,
        "weight": repr(result.weight),
        "latex": result.latex,
        "edges_sha256": hashlib.sha256(edges.encode()).hexdigest(),
    }


def generate(vocab):
    records = []
    for profile, alpha, seed in CONFIGS:
        kept = 0
        while kept < SEEDS_PER_CONFIG:
            try:
                sample = sample_for(seed, profile, vocab)
            except GridTooSmall:
                seed += 1
                continue
            for epsilon in EPSILONS:
                key = {"seed": seed, "profile": profile, "alpha": list(alpha),
                       "epsilon": epsilon}
                records.append({**key, **decode_record(sample, alpha, epsilon, vocab)})
            kept += 1
            seed += 1
    return records


def load_records():
    with GOLDEN.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_corpus_covers_every_config():
    records = load_records()
    assert len(records) == len(CONFIGS) * SEEDS_PER_CONFIG * len(EPSILONS)
    seen = {(r["profile"], tuple(r["alpha"]), r["epsilon"]) for r in records}
    assert seen == {(p, a, e) for p, a, _ in CONFIGS for e in EPSILONS}


@pytest.mark.parametrize(
    "profile,alpha,_", CONFIGS, ids=[f"{p}-{a[0]:g},{a[1]:g}" for p, a, _ in CONFIGS]
)
def test_decode_matches_golden(vocab, profile, alpha, _):
    records = [r for r in load_records()
               if r["profile"] == profile and tuple(r["alpha"]) == alpha]
    assert records
    samples = {}
    mismatches = []
    for rec in records:
        seed = rec["seed"]
        if seed not in samples:
            samples[seed] = sample_for(seed, profile, vocab)
        key = ("seed", "profile", "alpha", "epsilon")
        got = {**{k: rec[k] for k in key},
               **decode_record(samples[seed], alpha, rec["epsilon"], vocab)}
        if got != rec:
            mismatches.append(f"want {rec}\n got {got}")
    assert not mismatches, "\n".join(mismatches[:5])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with GOLDEN.open("w", encoding="utf-8") as fh:
        for record in generate(default_vocab()):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
