"""hmegraph benchmark: one workload per process, metrics as a JSON last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decode-mix --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

    decode-mix       library decode, 14x56, five noise profiles
    decode-connflip  library decode, 14x56, conn-flip 0.3, one-sided alpha
    train-targets    library target assignment and losses, 24x160
    cli-corpus       `python -m hmegraph.cli` gen, one decode per sample, eval

With `--trace 0` the run prints the end-to-end metrics of BENCHMARK.json;
with `--trace 1` a separate traced run prints the per-layer metrics, taken
from spans recorded around each public call.  End-to-end times are given
at reference host speed, measured by interleaved chunks of a fixed job
(see calibrate.py).  A per-layer metric of a
layer the workload does not call reads 0.  The benchmark imports
`hmegraph` from this checkout's `src/` and changes nothing in it.  Full
results, with output digests and the versions measured, are written to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
LIBRARY = ("decode-mix", "decode-connflip", "train-targets")
WORKLOADS = LIBRARY + ("cli-corpus",)
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one library set-up, print it as JSON and exit")
    return ap.parse_args(argv)


def library_setup(workload: str, seed: int, tracer=None):
    """Import, default vocabulary and input generation: what setup_s times."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import hmegraph

    vocab = hmegraph.default_vocab()
    # Imported after hmegraph so that numpy's import is part of the timed set-up.
    import library

    items, synth = library.build_corpus(hmegraph, vocab, workload, seed, tracer)
    return hmegraph, vocab, items, synth, time.perf_counter() - start


def setup_probe(args) -> int:
    _, _, items, _, seconds = library_setup(args.workload, args.seed)
    import library

    print(json.dumps({"setup_s": seconds, "inputs_digest": library.inputs_digest(items)}))
    return 0


def probe_setups(args, n: int) -> list[dict]:
    """Set up `n` more times, each in a fresh interpreter, as the first import is."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hmegraph" / "__init__.py").is_file():
        print(f"perfbench: no hmegraph sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    from common import Tally, Tracer

    tally = Tally()
    tracer = Tracer() if args.trace else None
    info: dict = {}
    if args.workload in LIBRARY:
        probes = [] if args.trace else probe_setups(args, SETUP_REPEATS - 1)
        hm, vocab, items, synth, own_setup = library_setup(args.workload, args.seed, tracer)
        import library

        digest_in = library.inputs_digest(items)
        tally.op([] if all(p["inputs_digest"] == digest_in for p in probes)
                 else ["check:inputs_nondeterministic"])
        info["inputs_digest"] = digest_in
        metrics, layer, digest = library.run(hm, vocab, args.workload, items, args.seconds,
                                             tally, tracer, synth)
        metrics["setup_s"] = statistics.median([own_setup] + [p["setup_s"] for p in probes])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        sys.path.insert(0, str(SRC))
        import cli_corpus
        import hmegraph as hm

        metrics, layer, digest = cli_corpus.run(hm, ROOT, SRC, OUT, args.seed, args.seconds,
                                                tally, tracer)
    module = Path(hm.__file__).resolve()
    tally.op([] if module.is_relative_to(SRC.resolve()) else ["check:not_from_checkout"])

    if args.trace:
        wanted = declared["per_layer"]
        unknown = set(layer) - {m["name"] for m in wanted}
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        values = {m["name"]: layer.get(m["name"], 0) for m in wanted}
    else:
        wanted = declared["end_to_end"]
        values = {m["name"]: metrics[m["name"]] for m in wanted}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }

    import numpy
    import scipy

    info.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        output_digest=digest, failures=dict(tally.by_class), module=str(module),
        unscaled=metrics.get("unscaled"), clock=metrics.get("clock"),
        python=platform.python_version(), numpy=numpy.__version__, scipy=scipy.__version__,
        nproc=len(os.sched_getaffinity(0)), machine=platform.machine(), result=result,
    )
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(info, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write_jsonl(f"{stem}.spans.jsonl")

    for m in wanted:
        print(f"{m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"output_digest {digest}")
    if tally.by_class:
        print(f"failures {dict(tally.by_class)}")
    print(f"results {stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
