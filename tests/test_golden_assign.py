"""Golden assignment corpus: pinned token-to-cell pairs on synthetic samples.

Each record of ``data/golden_assign.jsonl`` names its input by
(seed, profile, grid, km); the test regenerates that input from
`hmegraph.synth`, runs `estimate_positions`, `build_cost` and `hungarian`,
and checks that the (row, column) pairs are the same, pair for pair.

Regenerate the file (only when a change of assignment output is intended)
with::

    PYTHONPATH=src python tests/test_golden_assign.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hmegraph import (
    GridTooSmall,
    NoiseSpec,
    build_cost,
    default_vocab,
    estimate_positions,
    gen_expression,
    hungarian,
    make_sample,
)

GOLDEN = Path(__file__).parent / "data" / "golden_assign.jsonl"
# grid -> expression depth: the decode grid, then the training grid.
GRIDS = {(14, 56): 2, (24, 160): 3}
KMS = (1, 3, 5, 7)
SEEDS_PER_CONFIG = 12
# Uniform mass mixed into the grid, as a detector's softmax would give; the
# train-targets benchmark workload uses the same floor.
FLOOR = 1e-3
PROFILES = {
    "quiet": NoiseSpec(),
    "flip": NoiseSpec(flip_prob=0.1),
    "spurious": NoiseSpec(spurious_prob=0.02),
    "temperature": NoiseSpec(score_temperature=0.3),
    "flip-floor": NoiseSpec(flip_prob=0.1),
}
# (profile, first seed)
CONFIGS = [
    ("quiet", 100),
    ("flip", 200),
    ("spurious", 300),
    ("temperature", 400),
    ("flip-floor", 500),
]


def sample_for(seed, profile, grid, vocab):
    latex = gen_expression(seed, max_depth=GRIDS[grid], vocab=vocab)
    sample = make_sample(latex, vocab, grid, noise=PROFILES[profile], seed=seed)
    if profile.endswith("-floor"):
        probs = sample.probs
        sample = sample._replace(
            probs=((1.0 - FLOOR) * probs + FLOOR / probs.shape[0]).astype(np.float32))
    return sample


def assign(sample, km, vocab):
    positions = estimate_positions(sample.attn, sample.seq, vocab)
    cost = build_cost(sample.probs, positions, sample.seq, vocab, km=km)
    return [list(pair) for pair in hungarian(cost)]


def generate(vocab):
    records = []
    for grid in GRIDS:
        for profile, seed in CONFIGS:
            kept = 0
            while kept < SEEDS_PER_CONFIG:
                try:
                    sample = sample_for(seed, profile, grid, vocab)
                except GridTooSmall:
                    seed += 1
                    continue
                for km in KMS:
                    key = {"seed": seed, "profile": profile, "grid": list(grid), "km": km}
                    records.append({**key, "pairs": assign(sample, km, vocab)})
                kept += 1
                seed += 1
    return records


def load_records():
    with GOLDEN.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_corpus_covers_every_config():
    records = load_records()
    assert len(records) == len(GRIDS) * len(CONFIGS) * SEEDS_PER_CONFIG * len(KMS)
    seen = {(r["profile"], tuple(r["grid"]), r["km"]) for r in records}
    assert seen == {(p, g, k) for g in GRIDS for p, _ in CONFIGS for k in KMS}


@pytest.mark.parametrize(
    "profile,grid",
    [(p, g) for g in GRIDS for p, _ in CONFIGS],
    ids=[f"{p}-{g[0]}x{g[1]}" for g in GRIDS for p, _ in CONFIGS],
)
def test_assignment_matches_golden(vocab, profile, grid):
    records = [r for r in load_records()
               if r["profile"] == profile and tuple(r["grid"]) == grid]
    assert records
    samples = {}
    mismatches = []
    for rec in records:
        seed = rec["seed"]
        if seed not in samples:
            samples[seed] = sample_for(seed, profile, grid, vocab)
        got = assign(samples[seed], rec["km"], vocab)
        if got != rec["pairs"]:
            mismatches.append(f"seed {seed} km {rec['km']}:\nwant {rec['pairs']}\n got {got}")
    assert not mismatches, "\n".join(mismatches[:5])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with GOLDEN.open("w", encoding="utf-8") as fh:
        for record in generate(default_vocab()):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
