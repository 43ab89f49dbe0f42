"""The cli-corpus workload: the hmegraph command line, one process per call.

`gen` writes a noisy 14x56 corpus, one `decode` process runs per sample,
and one `eval` scores the predictions.  Process start-up dominates this
workload; the library workloads never pay it.  Every call runs the
checkout's sources as `python -m hmegraph.cli` with PYTHONPATH set to its
`src/`, so an installed copy is never measured.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter_ns

from calibrate import Clock
from common import (
    NoTracer,
    Tally,
    Tracer,
    call,
    closed_loop,
    p50,
    repeat_faults,
    scaled_ms,
    timing_metrics,
)

SLOTS = 10
GEN_REPEATS = 3
IMPORT_PROBES = 3
READ_PASSES = 5
CALL_TIMEOUT_S = 120
GEN_FLAGS = ["--grid", "14x56", "--max-depth", "2", "--flip-prob", "0.1",
             "--spurious-prob", "0.02", "--conn-flip-prob", "0.1"]
DECODE_INPUTS = ("probs", "self", "left", "right")
# The reference job: a child interpreter paying the start-up the command
# line pays, with nothing of hmegraph in it; REF_MS is its median time in
# ms on the 2-vCPU Xeon VM the benchmark was defined on.
REF_IMPORTS = "import numpy, scipy.optimize"
REF_MS = 750.0
# Seconds of decode calls between two reference children.
TICK_EVERY_S = 1.5


class CliExit(Exception):
    """A command-line call exited with a non-zero status."""


class Launcher:
    """Runs `python <args>` against the checkout and reports wall time and peak RSS."""

    def __init__(self, root: Path, src: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")

    def run(self, *args: str) -> tuple[float, str, int]:
        """Returns (wall ms, stdout, peak RSS in KiB); raises CliExit on failure."""
        with open(self.work / "stdout", "w+b") as out, open(self.work / "stderr", "w+b") as err:
            start = perf_counter_ns()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 reports this child's own resource use, unlike RUSAGE_CHILDREN.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall_ms = (perf_counter_ns() - start) / 1e6
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            if proc.returncode != 0:
                raise CliExit(f"{args[:3]} exited {proc.returncode}: "
                              f"{err.read().decode(errors='replace').strip()}")
            return wall_ms, out.read().decode(), usage.ru_maxrss


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def run(hm, root: Path, src: Path, out_dir: Path, seed: int, seconds: float,
        tally: Tally, tracer: Tracer | None) -> tuple[dict, dict, str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cli-corpus-", dir=out_dir))
    try:
        return _run(hm, root, src, work, seed, seconds, tally, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(hm, root, src, work, seed, seconds, tally, tracer):
    launch = Launcher(root, src, work)
    vocab = hm.default_vocab()
    gen_seed = random.Random(f"perfbench:cli-corpus:{seed}").getrandbits(31)

    gen_ms, trees = [], set()
    for i in range(GEN_REPEATS):
        ms, _, _ = launch.run("-m", "hmegraph.cli", "gen", "--count", str(SLOTS),
                              "--out", str(work / f"gen{i}"), "--seed", str(gen_seed),
                              *GEN_FLAGS)
        gen_ms.append(ms)
        trees.add(_tree_digest(work / f"gen{i}"))
    tally.op([] if len(trees) == 1 else ["check:gen_nondeterministic"])
    corpus = work / "gen0"
    manifest = json.loads((corpus / "manifest.json").read_text(encoding="utf-8"))
    labels = [s["latex"] for s in manifest["samples"]]

    probe = "import sys, hmegraph.cli; sys.stdout.write(hmegraph.cli.__file__)"
    import_ms = []
    for _ in range(IMPORT_PROBES if tracer is not None else 1):
        ms, path, _ = launch.run("-c", probe)
        import_ms.append(ms)
    tally.op([] if Path(path).resolve().is_relative_to(src.resolve())
             else ["check:cli_not_from_checkout"])

    rss_kib: list[int] = []

    def decode(slot):
        files = manifest["samples"][slot]["files"]
        args = ["-m", "hmegraph.cli", "decode", "--vocab", str(corpus / "vocab.tsv")]
        for kind in DECODE_INPUTS:
            args += [f"--{kind}", str(corpus / files[kind])]
        _, stdout, rss = launch.run(*args)
        rss_kib.append(rss)
        result = json.loads(stdout)
        return tuple(result["path"]), result["weight"], result["latex"]

    call(decode, 0)  # warm-up: brings the interpreter and libraries into the page cache
    rss_kib.clear()
    ops = 0
    traced_ms, untraced_ms = [], []

    def op(slot):
        # With tracing on, every other call runs inside a span, so the
        # tracing overhead is measured on the same inputs.
        nonlocal ops
        ops += 1
        start = perf_counter_ns()
        if tracer is not None and ops % 2 == 0:
            out = tracer.call("cli.decode", None, slot, decode, slot)
            traced_ms.append((perf_counter_ns() - start) / 1e6)
        else:
            out = decode(slot)
            untraced_ms.append((perf_counter_ns() - start) / 1e6)
        return out

    clock = None
    if tracer is None:
        clock = Clock(lambda: launch.run("-c", REF_IMPORTS)[0], REF_MS)
    records = closed_loop(SLOTS, seconds, op, clock, TICK_EVERY_S)
    faults = repeat_faults(records, SLOTS)
    first = records[:SLOTS]
    digest = hashlib.sha256()
    preds = []
    for i, rec in enumerate(first):
        if rec.error is not None:
            digest.update(f"error:{rec.error}\n".encode())
            preds.append("")
            continue
        path, weight, latex = rec.out
        digest.update(f"{list(path)}|{weight!r}|{latex}\n".encode())
        preds.append(latex)
        try:
            ok = hm.emit_latex(hm.parse_latex(latex, vocab), vocab) == latex
        except hm.HmeGraphError:
            ok = False
        if not ok:
            faults.setdefault(i, []).append("check:round_trip")
    for i, rec in enumerate(records):
        tally.op(([rec.error] if rec.error else []) + faults.get(i, []))

    pred_file = work / "pred.txt"
    pred_file.write_text("\n".join(preds) + "\n", encoding="utf-8")
    eval_ms, stdout, _ = launch.run("-m", "hmegraph.cli", "eval", "--pred", str(pred_file),
                                    "--ref", str(corpus / "labels.txt"),
                                    "--vocab", str(corpus / "vocab.tsv"))
    report = json.loads(stdout)
    local = (tracer or NoTracer()).call("metrics.evaluate", None, -1, hm.evaluate,
                                        preds, labels, vocab)
    tally.op([] if (report["exprate"], report["leq1"], report["leq2"], report["n"])
             == (local.exprate, local.leq1, local.leq2, local.n)
             else ["check:eval_mismatch"])

    # Slots are few and start-up dominates every call, so all calls count.
    ms = [r.ms for r in records]
    metrics = timing_metrics(scaled_ms(records, clock))
    metrics.update(
        exprate=report["exprate"],
        exprate_leq1=report["leq1"],
        exprate_leq2=report["leq2"],
        setup_s=p50(gen_ms) / 1000.0,
        peak_rss_mb=max(rss_kib) / 1024.0,
        unscaled=timing_metrics(ms),
    )
    if clock is not None:
        metrics["clock"] = clock.summary()
    layer: dict = {}
    if tracer is not None:
        sizes = 0
        for _ in range(READ_PASSES):
            for slot, sample in enumerate(manifest["samples"]):
                for kind in DECODE_INPUTS:
                    tracer.call("tensor_io.read_tensor", None, slot, hm.read_tensor,
                                corpus / sample["files"][kind])
        for sample in manifest["samples"]:
            sizes += sum((corpus / sample["files"][k]).stat().st_size for k in DECODE_INPUTS)
        durations = tracer.durations_ms()
        layer = {
            "cli.import_ms": p50(import_ms),
            "cli.gen_ms": p50(gen_ms),
            "cli.eval_ms": eval_ms,
            "cli.startup_share": p50(import_ms) / p50(ms),
            "tensor_io.read_tensor.ms_p50": p50(durations["tensor_io.read_tensor"]),
            "tensor_io.bytes_per_sample": sizes / SLOTS,
            "metrics.evaluate.ms_per_sample": durations["metrics.evaluate"][-1] / SLOTS,
            "metrics.unparseable": sum(d == hm.metrics.UNPARSEABLE for d in local.per_sample),
            "trace.overhead_share": p50(traced_ms) / p50(untraced_ms) - 1.0,
        }
    return metrics, layer, digest.hexdigest()
