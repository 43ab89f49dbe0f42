"""Command-line behavior: subcommands, config precedence, exit codes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hmegraph
from hmegraph import (
    GridTooSmall,
    default_vocab,
    loss_vat,
    parse_latex,
    read_tensor,
    teacher_matrices,
    write_tensor,
)
from hmegraph import synth
from hmegraph.cli import Config, build_parser, load_config, main, merge_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_python(*argv):
    """A Python subprocess that imports the hmegraph these tests import."""
    path = [str(Path(hmegraph.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert cfg.epsilon == 0.5
        assert cfg.km == 5
        assert cfg.lam == 0.5
        assert cfg.alpha_l2r == 1.0
        assert cfg.alpha_r2l == 1.0
        assert cfg.seed == 0
        assert cfg.vocab_path is None

    def test_load_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epsilon": 0.25, "lambda": 0.75, "km": 3}))
        cfg = load_config(path)
        assert cfg.epsilon == 0.25
        assert cfg.lam == 0.75
        assert cfg.km == 3
        assert cfg.alpha_l2r == 1.0  # untouched keys keep defaults

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"epsilonn": 1}')
        with pytest.raises(ValueError):
            load_config(path)

    def test_non_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("vocab_path", None), ("vocab_path", 3), ("km", 4.9), ("km", 4.0), ("km", "5"),
        ("seed", 1.5), ("seed", True), ("epsilon", True), ("lambda", False),
        ("alpha_l2r", "1"), ("alpha_r2l", None),
    ])
    def test_wrong_type_names_key(self, tmp_path, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            load_config(path)

    def test_integer_is_a_float(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epsilon": 1, "vocab_path": "v.tsv", "seed": 7}))
        cfg = load_config(path)
        assert (cfg.epsilon, cfg.vocab_path, cfg.seed) == (1.0, "v.tsv", 7)
        assert type(cfg.epsilon) is float

    def test_flag_beats_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epsilon": 0.25, "lambda": 0.75}))
        args = build_parser().parse_args(
            ["decode", "--probs", "p", "--self", "s", "--left", "l",
             "--right", "r", "--epsilon", "0.9"]
        )
        cfg = merge_config(args, load_config(path))
        assert cfg.epsilon == 0.9  # flag wins
        assert cfg.lam == 0.75  # file fills the rest

    def test_unset_flags_leave_defaults(self):
        args = build_parser().parse_args(
            ["decode", "--probs", "p", "--self", "s", "--left", "l", "--right", "r"]
        )
        cfg = merge_config(args, Config())
        assert cfg == Config()


class TestParseEmit:
    def test_parse_label(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "--label", "x ^ { 2 }")
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["symbols"] == ["x", "^", "2", "}"]

    def test_parse_labels_file(self, capsys, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("x + y\na - b\n")
        code, out, _ = run_cli(capsys, "parse", "--labels", str(path))
        assert code == 0
        assert len(json.loads(out)) == 2

    def test_parse_nothing(self, capsys):
        code, _, err = run_cli(capsys, "parse")
        assert code == 1
        assert "error:" in err

    def test_parse_error_exit(self, capsys):
        code, _, err = run_cli(capsys, "parse", "--label", "{ x")
        assert code == 1
        assert "error:" in err

    def test_parse_reserved_symbol_exit(self, capsys):
        code, out, err = run_cli(capsys, "parse", "--label", "x <eos>")
        assert code == 1
        assert out == ""
        assert "error: reserved symbol '<eos>'" in err

    def test_emit_roundtrip(self, capsys):
        vocab = default_vocab()
        ids = parse_latex("\\frac { x } { y }", vocab)
        code, out, _ = run_cli(capsys, "emit", "--ids", ",".join(map(str, ids)))
        assert code == 0
        assert out.strip() == "\\frac { x } { y }"

    def test_emit_unspellable_exit(self, capsys):
        vocab = default_vocab()
        ids = [vocab.id_of("\\sqrt"), vocab.id_of("]"), vocab.end_id, vocab.id_of("x"), vocab.end_id]
        code, out, err = run_cli(capsys, "emit", "--ids", ",".join(map(str, ids)))
        assert code == 1
        assert out == ""
        assert "position 1" in err


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = main(
        ["gen", "--count", "5", "--out", str(out), "--grid", "12x48",
         "--seed", "3"]
    )
    assert code == 0
    return out


def decode_flags(gen_dir):
    """Decode flags for the first generated sample."""
    flags = [arg for name in ("probs", "self", "left", "right")
             for arg in (f"--{name}", str(gen_dir / f"0000.{name}.namt"))]
    return [*flags, "--vocab", str(gen_dir / "vocab.tsv")]


class TestGenDecodeEval:
    def test_layout_of_outputs(self, gen_dir):
        manifest = json.loads((gen_dir / "manifest.json").read_text())
        assert manifest["count"] == 5
        assert manifest["grid"] == [12, 48]
        assert manifest["max_depth"] == 2
        assert len(manifest["samples"]) == 5
        labels = (gen_dir / "labels.txt").read_text().splitlines()
        assert len(labels) == 5
        assert (gen_dir / "vocab.tsv").exists()
        for meta in manifest["samples"]:
            for name in meta["files"].values():
                assert (gen_dir / name).exists()
        probs = read_tensor(gen_dir / manifest["samples"][0]["files"]["probs"])
        assert probs.shape[1:] == (12, 48)

    def test_decode_reproduces_label(self, gen_dir, capsys, tmp_path):
        labels = (gen_dir / "labels.txt").read_text().splitlines()
        dot = tmp_path / "g.dot"
        code, out, _ = run_cli(
            capsys,
            "decode",
            "--probs", str(gen_dir / "0000.probs.namt"),
            "--self", str(gen_dir / "0000.self.namt"),
            "--left", str(gen_dir / "0000.left.namt"),
            "--right", str(gen_dir / "0000.right.namt"),
            "--vocab", str(gen_dir / "vocab.tsv"),
            "--dot", str(dot),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["latex"] == labels[0]
        assert doc["path"][0] == 0
        assert dot.read_text().startswith("digraph expression {")

    def test_eval_perfect(self, gen_dir, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval",
            "--pred", str(gen_dir / "labels.txt"),
            "--ref", str(gen_dir / "labels.txt"),
            "--vocab", str(gen_dir / "vocab.tsv"),
        )
        assert code == 0
        assert json.loads(out)["exprate"] == 1.0


def match_inputs(folder):
    """Match flags for the label `x` on a 2x2 grid, written to `folder`."""
    attn = np.zeros((1, 2, 2), dtype=np.float32)
    attn[0, 0, 0] = 1.0
    vocab = default_vocab()
    probs = np.zeros((vocab.grid_classes, 2, 2), dtype=np.float32)
    probs[vocab.none_id] = 1.0
    probs[:, 0, 0] = 0.0
    probs[vocab.id_of("x"), 0, 0] = 1.0
    write_tensor(attn, folder / "a.namt")
    write_tensor(probs, folder / "p.namt")
    return ["--attn", str(folder / "a.namt"), "--probs", str(folder / "p.namt"), "--label", "x"]


class TestMatch:
    def test_match_scores_teacher_rows(self, capsys, tmp_path):
        vocab = default_vocab()
        label = "x ^ { 2 }"
        seq = parse_latex(label, vocab)
        h, w = 4, 6
        cells = [(1, 0), (0, 1), (0, 2), (0, 1)]
        attn = np.zeros((len(seq), h, w), dtype=np.float32)
        for step, (r, c) in enumerate(cells):
            attn[step, r, c] = 1.0
        P = np.zeros((vocab.grid_classes, h, w), dtype=np.float32)
        P[vocab.none_id] = 1.0
        for cid, (r, c) in zip(seq, cells):
            if vocab.is_predictable(cid):
                P[:, r, c] = 0.0
                P[cid, r, c] = 1.0
        sp, left, right = teacher_matrices(seq, vocab)
        paths = {}
        for name, arr in [("attn", attn), ("probs", P), ("self", sp),
                          ("left", left), ("right", right)]:
            paths[name] = tmp_path / f"{name}.namt"
            write_tensor(arr, paths[name])
        out_prefix = tmp_path / "match"
        code, out, _ = run_cli(
            capsys,
            "match",
            "--attn", str(paths["attn"]),
            "--probs", str(paths["probs"]),
            "--label", label,
            "--self", str(paths["self"]),
            "--left", str(paths["left"]),
            "--right", str(paths["right"]),
            "--out", str(out_prefix),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["cells"] == [[1, 0], [0, 1], [0, 2], [0, 1]]
        assert doc["loss"]["total"] == 0.0
        grid = read_tensor(str(out_prefix) + ".grid.namt")
        assert grid.shape == (h, w)
        # The container stores float32 only; class ids need the cast back.
        assert loss_vat(P, grid.astype(np.int64)) == doc["loss"]["vat"]
        side = json.loads((tmp_path / "match.json").read_text())
        assert side["cells"] == doc["cells"]

    def test_match_partial_scoring_flags(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "match", *match_inputs(tmp_path), "--self", str(tmp_path / "a.namt"),
        )
        assert code == 1
        assert "together" in err


class TestVocabCommand:
    def test_builtin_summary(self, capsys):
        vocab = default_vocab()
        code, out, _ = run_cli(capsys, "vocab", "--builtin")
        assert code == 0
        doc = json.loads(out)
        assert doc["symbols"] == len(vocab.symbols)
        assert doc["grid_classes"] == vocab.grid_classes

    def test_build_from_labels(self, capsys, tmp_path):
        labels = tmp_path / "labels.txt"
        labels.write_text("p + q\n")
        out_path = tmp_path / "v.tsv"
        code, out, _ = run_cli(
            capsys, "vocab", "--labels", str(labels), "--out", str(out_path)
        )
        assert code == 0
        assert json.loads(out)["predictable"] == 3
        lines = out_path.read_text().splitlines()
        assert lines[0] == "+\tvisible"

    def test_labels_that_do_not_parse(self, capsys, tmp_path):
        labels = tmp_path / "labels.txt"
        labels.write_text("p + q\nx ^\n")
        code, out, err = run_cli(capsys, "vocab", "--labels", str(labels))
        assert code == 1
        assert out == ""
        assert "'^' is missing an argument group" in err

    def test_env_var_resolution(self, capsys, tmp_path, monkeypatch):
        vpath = tmp_path / "v.tsv"
        default_vocab().save(vpath)
        monkeypatch.setenv("NAMER_VOCAB", str(vpath))
        code, out, _ = run_cli(capsys, "vocab")
        assert code == 0
        assert json.loads(out)["symbols"] == len(default_vocab())

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        small = tmp_path / "small.tsv"
        small.write_text(
            "a\tvisible\n<none>\tnone\n}\tend\n<sos>\tsos\n<eos>\teos\n"
        )
        monkeypatch.setenv("NAMER_VOCAB", "/nonexistent.tsv")
        code, out, _ = run_cli(capsys, "vocab", "--vocab", str(small))
        assert code == 0
        assert json.loads(out)["symbols"] == 5


class TestExitCodes:
    def test_missing_file_is_one(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--pred", "/nonexistent", "--ref", "/nonexistent"
        )
        assert code == 1
        assert "error:" in err

    def test_gen_bad_grid_is_one(self, capsys, tmp_path):
        """A malformed grid or a side below 1 is refused before `gen`
        creates its output directory."""
        for grid in ["12by48", "0x10", "-1x5", "0x0", "12x0"]:
            out = tmp_path / "out"
            code, _, err = run_cli(capsys, "gen", f"--grid={grid}", "--out", str(out))
            assert code == 1
            assert f"error: bad grid '{grid}'" in err
            assert not out.exists(), grid

    @pytest.mark.parametrize("flags, message", [
        (["--count", "0"], "bad --count 0; expected at least 1"),
        (["--count", "-3"], "bad --count -3; expected at least 1"),
        (["--flip-prob", "nan"], "bad --flip-prob nan; expected a rate in [0, 1]"),
        (["--flip-prob", "7"], "bad --flip-prob 7.0; expected a rate in [0, 1]"),
        (["--spurious-prob", "-0.1"], "bad --spurious-prob -0.1; expected a rate in [0, 1]"),
        (["--conn-flip-prob", "inf"], "bad --conn-flip-prob inf; expected a rate in [0, 1]"),
        (["--temperature", "-1"], "bad --temperature -1.0; expected a finite number >= 0"),
        (["--temperature", "nan"], "bad --temperature nan; expected a finite number >= 0"),
        (["--temperature", "inf"], "bad --temperature inf; expected a finite number >= 0"),
        (["--max-depth", "-5"], "bad --max-depth -5; expected at least 0"),
    ])
    def test_gen_bad_count_or_noise_is_one(self, capsys, tmp_path, flags, message):
        """A count below 1, a negative depth, a rate outside [0, 1] or NaN,
        and a temperature that is negative or not finite are refused before
        `gen` creates its output directory."""
        out = tmp_path / "out"
        code, out_text, err = run_cli(capsys, "gen", "--grid", "12x48", *flags, "--out", str(out))
        assert code == 1
        assert out_text == ""
        assert err.strip() == f"error: {message}"
        assert not out.exists()

    def test_gen_accepts_the_ends_of_each_range(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "gen", "--grid", "12x48", "--count", "1", "--flip-prob", "1",
            "--spurious-prob", "0", "--conn-flip-prob", "1", "--temperature", "0",
            "--max-depth", "0", "--out", str(tmp_path / "out"))
        assert code == 0
        assert json.loads(out)["count"] == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["max_depth"] == 0

    def test_gen_gives_up_on_a_grid_nothing_fits(self, capsys, tmp_path, monkeypatch):
        def too_small(*args, **kwargs):
            raise GridTooSmall("nothing fits")

        monkeypatch.setattr(synth, "make_sample", too_small)
        code, _, err = run_cli(
            capsys, "gen", "--grid", "12x48", "--count", "1", "--out", str(tmp_path)
        )
        assert code == 1
        assert "error: gave up after 50 attempts; 0 of 1 fit" in err

    @pytest.mark.parametrize("flags, message", [
        (["--alpha-l2r", "nan"], "error: alpha_l2r is nan, not a finite number"),
        (["--alpha-r2l", "inf"], "error: alpha_r2l is inf, not a finite number"),
        (["--epsilon", "nan"], "error: epsilon is nan, not a finite number"),
    ])
    def test_decode_non_finite_weight_is_one(self, gen_dir, capsys, flags, message):
        code, out, err = run_cli(capsys, "decode", *decode_flags(gen_dir), *flags)
        assert code == 1
        assert out == ""
        assert err.strip() == message

    @pytest.mark.parametrize("symbol, role, want", [
        ("\\sqrt", "visible", "hse"),
        ("^", "visible", "irs"),
        ("\\frac", "irs", "hse"),
        ("\\nosuch", "hse", "visible"),
    ])
    def test_decode_contradicting_vocab_is_one(self, gen_dir, capsys, tmp_path,
                                               symbol, role, want):
        lines = (gen_dir / "vocab.tsv").read_text().splitlines()
        rows = [line.split("\t")[0] for line in lines]
        if symbol in rows:
            lineno = rows.index(symbol) + 1
            lines[lineno - 1] = f"{symbol}\t{role}"
        else:
            lineno = 1
            lines.insert(0, f"{symbol}\t{role}")
        vocab = tmp_path / "v.tsv"
        vocab.write_text("\n".join(lines) + "\n")
        flags = decode_flags(gen_dir)
        flags[flags.index("--vocab") + 1] = str(vocab)
        code, out, err = run_cli(capsys, "decode", *flags)
        assert code == 1
        assert out == ""
        assert err.strip() == (
            f"error: line {lineno}: symbol {symbol!r} has role {want!r}, not {role!r}"
        )

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["decode"])  # missing required tensors
        assert exc.value.code == 2

    def test_no_subcommand_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_console_script_installed(self):
        proc = run_python("-m", "hmegraph.cli", "parse", "--label", "x")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)[0]["symbols"] == ["x"]

    def test_import_leaves_scipy_unloaded(self):
        # Only matching needs scipy; every other command skips its import cost.
        loaded, scipy, dataclasses = loads_of()
        assert not scipy and not dataclasses
        assert loaded == CLI_CORE


# What importing the command line loads: the decode path.
CLI_CORE = {"hmegraph", "hmegraph.cli", "hmegraph.decode", "hmegraph.errors",
            "hmegraph.tensor_io", "hmegraph.tokens"}


def loads_of(*argv):
    """The `hmegraph.*` modules, and whether scipy and whether
    `dataclasses`, that a fresh interpreter has loaded after running the
    command line on `argv` (after importing it, when `argv` is empty)."""
    code = (
        "import contextlib, io, json, sys\n"
        "from hmegraph.cli import main\n"
        f"argv = {list(argv)!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(argv) if argv else 0\n"
        "names = sorted(m for m in sys.modules if m.split('.')[0] == 'hmegraph')\n"
        "print(json.dumps([code, names, 'scipy' in sys.modules, 'dataclasses' in sys.modules]))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    code, names, scipy, dataclasses = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    return set(names), scipy, dataclasses


# The modules each subcommand loads beyond CLI_CORE.
EXTRA_LOADS = {"decode": (), "eval": ("metrics",), "gen": ("synth",), "match": ("assignment",),
               "parse": ("synth",), "emit": ("synth",), "vocab": ("synth",)}


@pytest.mark.parametrize("command", EXTRA_LOADS)
def test_subcommand_loads_only_what_it_runs(command, gen_dir, tmp_path):
    """Each subcommand loads the decode path plus the modules only it
    runs; `parse`, `emit` and `vocab` take the builtin vocabulary from
    `synth`, and only `match` loads scipy, and with it `dataclasses`."""
    vocab = ["--vocab", str(gen_dir / "vocab.tsv")]
    inputs = [f"--{k}={gen_dir / f'0000.{k}.namt'}" for k in ("probs", "self", "left", "right")]
    argv = {
        "decode": ["decode", *vocab, *inputs],
        "eval": ["eval", *vocab, "--pred", str(gen_dir / "labels.txt"),
                 "--ref", str(gen_dir / "labels.txt")],
        "gen": ["gen", "--count", "1", "--out", str(tmp_path / "gen")],
        "match": ["match", *vocab, *match_inputs(tmp_path)],
        "parse": ["parse", "--label", "x"],
        "emit": ["emit", "--ids", "0"],
        "vocab": ["vocab", "--builtin"],
    }[command]
    loaded, scipy, dataclasses = loads_of(*argv)
    assert loaded == CLI_CORE | {f"hmegraph.{name}" for name in EXTRA_LOADS[command]}
    assert scipy == (command == "match")
    assert dataclasses == (command == "match")


def test_package_never_imports_dataclasses():
    """Every record in the package is a NamedTuple, so no module imports
    `dataclasses`, which a decode process would otherwise load."""
    paths = sorted(Path(hmegraph.__file__).parent.glob("*.py"))
    imports = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.name}:{node.lineno}" for name in names
                        if name.split(".")[0] == "dataclasses"]
    assert len(paths) > 1 and imports == []
