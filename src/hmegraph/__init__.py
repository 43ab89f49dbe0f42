"""Grid-and-graph toolkit for handwritten mathematical expressions.

The library covers the algorithmic half of a detect-then-read recognizer:
token vocabulary and LaTeX round-tripping, training-target assignment
between attention maps and a classification grid, graph decoding from
per-cell classes plus neighbor scores, expression-level metrics, a binary
tensor format, and a synthetic-sample generator for end-to-end checks.

Importing the package loads none of its modules.  Each exported name, and
each module by its own name (``hmegraph.metrics``), loads on first use
(PEP 562), so a process pays only for the modules it touches: the
``decode`` command never loads ``assignment``, ``metrics`` or ``synth``.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "assignment": (
        "AssignmentTarget", "PgdLoss", "build_cost", "estimate_positions", "hungarian",
        "loss_pgd", "loss_total", "loss_vat", "make_targets",
    ),
    "decode": (
        "ExprGraph", "Node", "PathResult", "apply_corrections", "build_graph",
        "decode_with_graph", "expand_imaginary", "longest_path", "prune_and_acyclify",
        "vat_extract",
    ),
    "errors": (
        "BadMagic", "CycleDetected", "DanglingGroup", "DimOverflow", "EmptyCorpus",
        "EmptyInput", "EvenKernel", "GridTooSmall", "HmeGraphError", "IllNested",
        "Infeasible", "LengthMismatch", "NoPath", "NodeCountMismatch", "NonFinite",
        "NonStochasticRow", "ShapeMismatch", "StepMismatch", "TooLarge", "TruncatedPayload",
        "UnbalancedBraces", "UnknownControlSequence", "VocabMiss",
    ),
    "metrics": ("EvalReport", "evaluate", "token_edit_distance"),
    "synth": (
        "NoiseSpec", "SynthSample", "coverage_corpus", "default_vocab", "gen_expression",
        "layout_and_render", "make_sample", "oracle_edit", "oracle_hungarian",
        "oracle_longest_path", "oracle_prune", "teacher_matrices",
    ),
    "tensor_io": ("export_dot", "read_tensor", "write_tensor"),
    "tokens": (
        "TokenVocab", "build_vocab", "emit_latex", "group_structure", "gt_targets",
        "parse_latex",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
