"""Command-line behavior: subcommands, config precedence, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hmegraph
from hmegraph import (
    default_vocab,
    loss_vat,
    parse_latex,
    read_tensor,
    teacher_matrices,
    write_tensor,
)
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


class TestGenDecodeEval:
    def test_layout_of_outputs(self, gen_dir):
        manifest = json.loads((gen_dir / "manifest.json").read_text())
        assert manifest["count"] == 5
        assert manifest["grid"] == [12, 48]
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
        vocab = default_vocab()
        attn = np.zeros((1, 2, 2), dtype=np.float32)
        attn[0, 0, 0] = 1.0
        P = np.zeros((vocab.grid_classes, 2, 2), dtype=np.float32)
        P[vocab.none_id] = 1.0
        P[:, 0, 0] = 0.0
        P[vocab.id_of("x"), 0, 0] = 1.0
        pa, pp = tmp_path / "a.namt", tmp_path / "p.namt"
        write_tensor(attn, pa)
        write_tensor(P, pp)
        code, _, err = run_cli(
            capsys, "match", "--attn", str(pa), "--probs", str(pp),
            "--label", "x", "--self", str(pa),
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
        code = "import sys, hmegraph.cli; assert 'scipy' not in sys.modules, 'scipy loaded'"
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
