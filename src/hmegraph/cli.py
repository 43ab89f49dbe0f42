"""Command-line front end over the library stages.

Subcommands: `parse` and `emit` for the token layer, `match` for training
targets, `decode` for grid-to-LaTeX, `eval` for corpus scoring, `gen` for
synthetic data, `vocab` for vocabulary files.

Settings resolve flag first, then `--config` JSON file, then built-in
defaults.  The vocabulary resolves `--vocab`, then the config file's
`vocab_path`, then the `NAMER_VOCAB` environment variable, then the
builtin-corpus vocabulary.

Start-up is most of a short call's time, so this module imports only the
decode path; `assignment`, `metrics` and `synth` are imported inside the
handlers that use them.  `decode --vocab` loads none of the three, and
only `match` loads scipy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decode import decode_with_graph
from .errors import GridTooSmall, HmeGraphError
from .tensor_io import export_dot, read_tensor, write_tensor
from .tokens import TokenVocab, build_vocab, emit_latex, parse_latex


@dataclass
class Config:
    epsilon: float = 0.5
    km: int = 5
    lam: float = 0.5
    alpha_l2r: float = 1.0
    alpha_r2l: float = 1.0
    vocab_path: str | None = None
    seed: int = 0


_CONFIG_KEYS = {
    "epsilon": ("epsilon", float),
    "km": ("km", int),
    "lambda": ("lam", float),
    "alpha_l2r": ("alpha_l2r", float),
    "alpha_r2l": ("alpha_r2l", float),
    "vocab_path": ("vocab_path", str),
    "seed": ("seed", int),
}


def load_config(path: str) -> Config:
    """Read a JSON config file; unknown keys and mistyped values are rejected."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    cfg = Config()
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}: unknown config key {key!r}")
        field, cast = _CONFIG_KEYS[key]
        # A JSON integer is a valid float; true and false are neither.
        if not (type(value) is cast or cast is float and type(value) is int):
            raise ValueError(f"{path}: config key {key!r} must be {cast.__name__}, not {value!r}")
        setattr(cfg, field, cast(value))
    return cfg


def merge_config(args: argparse.Namespace, base: Config) -> Config:
    """Overlay flags that were actually given onto `base`."""
    updates = {}
    for field, _ in _CONFIG_KEYS.values():
        value = getattr(args, field, None)
        if value is not None:
            updates[field] = value
    return dataclasses.replace(base, **updates)


def resolve_vocab(args: argparse.Namespace, cfg: Config) -> TokenVocab:
    path = (
        getattr(args, "vocab", None)
        or cfg.vocab_path
        or os.environ.get("NAMER_VOCAB")
    )
    if path:
        return TokenVocab.load(path)
    from .synth import default_vocab

    return default_vocab()


def _parse_grid(text: str) -> tuple[int, int]:
    h, _, w = text.lower().partition("x")
    if not (h.isdecimal() and w.isdecimal() and int(h) > 0 < int(w)):
        raise ValueError(f"bad grid {text!r}; expected HxW with both sides at least 1, e.g. 12x48")
    return int(h), int(w)


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def cmd_parse(args: argparse.Namespace, cfg: Config) -> int:
    vocab = resolve_vocab(args, cfg)
    texts: list[str] = []
    if args.label is not None:
        texts.append(args.label)
    if args.labels:
        lines = Path(args.labels).read_text(encoding="utf-8").splitlines()
        texts.extend(ln for ln in lines if ln.strip())
    if not texts:
        raise ValueError("nothing to parse; pass --label or --labels")
    out = []
    for text in texts:
        seq = parse_latex(text, vocab)
        out.append(
            {
                "latex": text,
                "ids": seq,
                "symbols": [vocab.symbol_of(c) for c in seq],
            }
        )
    _emit_json(out)
    return 0


def cmd_emit(args: argparse.Namespace, cfg: Config) -> int:
    vocab = resolve_vocab(args, cfg)
    ids = [int(x) for x in args.ids.replace(",", " ").split()]
    print(emit_latex(ids, vocab))
    return 0


def cmd_match(args: argparse.Namespace, cfg: Config) -> int:
    from .assignment import (
        build_cost,
        estimate_positions,
        hungarian,
        loss_pgd,
        loss_total,
        loss_vat,
        make_targets,
    )

    vocab = resolve_vocab(args, cfg)
    attn = read_tensor(args.attn)
    probs = read_tensor(args.probs)
    seq = parse_latex(args.label, vocab)
    positions = estimate_positions(attn, seq, vocab)
    cost = build_cost(probs, positions, seq, vocab, km=cfg.km)
    pairs = hungarian(cost)
    height, width = int(probs.shape[1]), int(probs.shape[2])
    target = make_targets(pairs, seq, vocab, height, width)
    payload = {k: v for k, v in dataclasses.asdict(target).items() if k != "grid"}
    if args.self_probs or args.left or args.right:
        if not (args.self_probs and args.left and args.right):
            raise ValueError("scoring needs --self, --left, and --right together")
        vat = loss_vat(probs, target.grid)
        pgd = loss_pgd(
            read_tensor(args.self_probs),
            read_tensor(args.left),
            read_tensor(args.right),
            (target.self_targets, target.left_targets, target.right_targets),
        )
        payload["loss"] = {
            "vat": vat,
            "pgd_self": pgd.self_term,
            "pgd_left": pgd.left_term,
            "pgd_right": pgd.right_term,
            "pgd": pgd.total,
            "total": loss_total(vat, pgd, cfg.lam),
        }
    if args.out:
        write_tensor(target.grid.astype(np.float32), args.out + ".grid.namt")
        Path(args.out + ".json").write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
    _emit_json(payload)
    return 0


def cmd_decode(args: argparse.Namespace, cfg: Config) -> int:
    vocab = resolve_vocab(args, cfg)
    result, graph = decode_with_graph(
        read_tensor(args.probs),
        read_tensor(args.self_probs),
        read_tensor(args.left),
        read_tensor(args.right),
        vocab,
        epsilon=cfg.epsilon,
        alpha_l2r=cfg.alpha_l2r,
        alpha_r2l=cfg.alpha_r2l,
    )
    if args.dot:
        Path(args.dot).write_text(
            export_dot(graph, vocab, highlight=result.path), encoding="utf-8"
        )
    _emit_json({"latex": result.latex, "path": result.path, "weight": result.weight})
    return 0


def cmd_eval(args: argparse.Namespace, cfg: Config) -> int:
    from .metrics import evaluate

    vocab = resolve_vocab(args, cfg)
    preds = Path(args.pred).read_text(encoding="utf-8").splitlines()
    refs = Path(args.ref).read_text(encoding="utf-8").splitlines()
    report = evaluate(preds, refs, vocab)
    _emit_json(report.as_dict())
    return 0


def cmd_gen(args: argparse.Namespace, cfg: Config) -> int:
    from .synth import NoiseSpec, gen_expression, make_sample

    vocab = resolve_vocab(args, cfg)
    height, width = _parse_grid(args.grid)
    for flag, low in (("count", 1), ("max_depth", 0)):
        if (value := getattr(args, flag)) < low:
            raise ValueError(f"bad --{flag.replace('_', '-')} {value}; expected at least {low}")
    for flag in ("flip_prob", "spurious_prob", "conn_flip_prob"):
        if not 0.0 <= (rate := getattr(args, flag)) <= 1.0:  # NaN fails too
            raise ValueError(f"bad --{flag.replace('_', '-')} {rate}; expected a rate in [0, 1]")
    if not 0.0 <= args.temperature < math.inf:
        raise ValueError(f"bad --temperature {args.temperature}; expected a finite number >= 0")
    noise = NoiseSpec(
        flip_prob=args.flip_prob,
        spurious_prob=args.spurious_prob,
        score_temperature=args.temperature,
        conn_flip_prob=args.conn_flip_prob,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab.save(out / "vocab.tsv")
    labels: list[str] = []
    samples_meta = []
    made, attempt = 0, 0
    while made < args.count:
        if attempt >= args.count * 50:
            raise GridTooSmall(
                f"gave up after {attempt} attempts; {made} of {args.count} fit"
            )
        seed = cfg.seed + attempt
        attempt += 1
        latex = gen_expression(seed, max_depth=args.max_depth, vocab=vocab)
        try:
            sample = make_sample(
                latex, vocab, (height, width), noise=noise, seed=seed
            )
        except GridTooSmall:
            continue
        stem = f"{made:04d}"
        files = {}
        for kind, arr in (
            ("probs", sample.probs),
            ("attn", sample.attn),
            ("self", sample.self_probs),
            ("left", sample.left),
            ("right", sample.right),
        ):
            name = f"{stem}.{kind}.namt"
            write_tensor(arr, out / name)
            files[kind] = name
        labels.append(latex)
        samples_meta.append({"latex": latex, "seed": seed, "files": files})
        made += 1
    (out / "labels.txt").write_text("\n".join(labels) + "\n", encoding="utf-8")
    manifest = {
        "grid": [height, width],
        "seed": cfg.seed,
        "count": made,
        "max_depth": args.max_depth,
        "noise": dataclasses.asdict(noise),
        "vocab": "vocab.tsv",
        "samples": samples_meta,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    _emit_json({"out": str(out), "count": made})
    return 0


def cmd_vocab(args: argparse.Namespace, cfg: Config) -> int:
    if args.builtin:
        from .synth import default_vocab

        vocab = default_vocab()
    elif args.labels:
        lines = Path(args.labels).read_text(encoding="utf-8").splitlines()
        vocab = build_vocab([ln for ln in lines if ln.strip()])
    else:
        vocab = resolve_vocab(args, cfg)
    if args.out:
        vocab.save(args.out)
    _emit_json(
        {
            "symbols": len(vocab.symbols),
            "predictable": vocab.num_predictable,
            "grid_classes": vocab.grid_classes,
            "correction_classes": vocab.correction_classes,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON settings file")
    common.add_argument("--vocab", help="vocabulary TSV file")

    parser = argparse.ArgumentParser(
        prog="hmegraph",
        description="Grid-and-graph toolkit for handwritten-expression decoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="LaTeX to token ids")
    p.add_argument("--label", help="one expression")
    p.add_argument("--labels", help="file with one expression per line")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("emit", parents=[common], help="token ids to LaTeX")
    p.add_argument("--ids", required=True, help="comma- or space-separated ids")
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("match", parents=[common], help="build training targets")
    p.add_argument("--attn", required=True, help="attention tensor (L x H x W)")
    p.add_argument("--probs", required=True, help="grid tensor (K+1 x H x W)")
    p.add_argument("--label", required=True, help="ground-truth expression")
    p.add_argument("--km", type=int, help="window size (odd)")
    p.add_argument("--lambda", dest="lam", type=float, help="loss mix weight")
    p.add_argument("--self", dest="self_probs", help="correction rows to score")
    p.add_argument("--left", help="left neighbor matrix to score")
    p.add_argument("--right", help="right neighbor matrix to score")
    p.add_argument("--out", help="output prefix for .grid.namt and .json; the grid holds"
                   " class ids as float32: cast with .astype(np.int64) before loss_vat")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("decode", parents=[common], help="grid to LaTeX")
    p.add_argument("--probs", required=True, help="grid tensor (K+1 x H x W)")
    p.add_argument("--self", dest="self_probs", required=True, help="correction rows")
    p.add_argument("--left", required=True, help="left neighbor matrix")
    p.add_argument("--right", required=True, help="right neighbor matrix")
    p.add_argument("--epsilon", type=float, help="edge-pruning threshold")
    p.add_argument("--alpha-l2r", type=float, help="forward edge weight")
    p.add_argument("--alpha-r2l", type=float, help="backward edge weight")
    p.add_argument("--dot", help="write the pruned graph as Graphviz dot")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", parents=[common], help="score predictions")
    p.add_argument("--pred", required=True, help="predictions, one per line")
    p.add_argument("--ref", required=True, help="references, one per line")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", parents=[common], help="write synthetic samples")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--grid", default="12x48", help="grid size HxW")
    p.add_argument("--max-depth", type=int, default=2)
    p.add_argument("--flip-prob", type=float, default=0.0)
    p.add_argument("--spurious-prob", type=float, default=0.0)
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--conn-flip-prob", type=float, default=0.0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("vocab", parents=[common], help="build or inspect vocabularies")
    p.add_argument("--labels", help="build from a label file")
    p.add_argument("--builtin", action="store_true", help="use the builtin corpus")
    p.add_argument("--out", help="write the vocabulary TSV here")
    p.set_defaults(func=cmd_vocab)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        base = load_config(args.config) if args.config else Config()
        cfg = merge_config(args, base)
        return args.func(args, cfg)
    except (HmeGraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
