import json
from pathlib import Path

import numpy as np
import pytest

from helpers import synth_corpus
from path2seq.cli import (ConfigError, MissingCheckpoint, ablation_report, main,
                          resolve_config)
from path2seq.paths import read_dataset
from path2seq.training import restore


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for i, (name, source) in enumerate(synth_corpus(30, seed=2)):
        (root / f"m{i:03d}.mnj").write_text(source, encoding="utf-8")
    return root


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestConfig:
    def test_defaults(self):
        values = resolve_config(None, [])
        assert values["lr0"] == 0.01
        assert values["lr_decay"] == 0.95
        assert values["momentum"] == 0.95
        assert values["k"] == 200
        assert values["max_path_length"] == 9
        assert values["d_decoder"] == 320

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("learning_rate=0.1\n")
        with pytest.raises(ConfigError):
            resolve_config(str(cfg), [])
        with pytest.raises(ConfigError):
            resolve_config(None, ["not_a_key=1"])

    def test_file_and_override_precedence(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\nlr0 = 0.5\nbatch_size=8\n")
        values = resolve_config(str(cfg), ["lr0=0.25"])
        assert values["lr0"] == 0.25
        assert values["batch_size"] == 8

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("P2SQ_SEED", "123")
        assert resolve_config(None, [])["seed"] == 123
        assert resolve_config(None, ["seed=7"])["seed"] == 7

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            resolve_config(None, ["batch_size=many"])


class TestPreprocess:
    def test_writes_splits_and_vocab(self, corpus_dir, tmp_path, capsys):
        prefix = tmp_path / "data"
        code = run_cli("preprocess", corpus_dir, prefix, "--set", "seed=1")
        assert code == 0
        out = capsys.readouterr().out
        assert "train:" in out and "avg paths/example" in out
        train = read_dataset(f"{prefix}.train.c2s")
        val = read_dataset(f"{prefix}.val.c2s")
        test = read_dataset(f"{prefix}.test.c2s")
        assert len(train) + len(val) + len(test) == 30
        vocab = json.loads(Path(f"{prefix}.vocab.json").read_text())
        assert set(vocab) == {"nodes", "source", "source_full", "target", "names"}

    def test_vocab_from_training_split_only(self, corpus_dir, tmp_path):
        prefix = tmp_path / "data"
        run_cli("preprocess", corpus_dir, prefix, "--set", "seed=1")
        train = read_dataset(f"{prefix}.train.c2s")
        vocab = json.loads(Path(f"{prefix}.vocab.json").read_text())
        train_targets = {t for ex in train for t in ex.target}
        stored = set(vocab["target"][4:])
        assert stored == train_targets

    def test_byte_identical_rerun(self, corpus_dir, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for prefix in (a, b):
            run_cli("preprocess", corpus_dir, prefix, "--set", "seed=5")
        for suffix in (".train.c2s", ".val.c2s", ".test.c2s", ".vocab.json"):
            assert Path(f"{a}{suffix}").read_bytes() == Path(f"{b}{suffix}").read_bytes()

    def test_skips_bad_files_with_log(self, corpus_dir, tmp_path, capsys):
        messy = tmp_path / "messy"
        messy.mkdir()
        (messy / "good.mnj").write_text("int f(int x){return x;}")
        (messy / "bad.mnj").write_text("int broken((({{{")
        code = run_cli("preprocess", messy, tmp_path / "out",
                       "--set", "val_fraction=0", "--set", "test_fraction=0")
        assert code == 0
        assert "skip:" in capsys.readouterr().err

    def test_no_parsable_files(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "bad.mnj").write_text("]]]")
        assert run_cli("preprocess", empty, tmp_path / "x") == 1
        assert "error: no-parsable-files" in capsys.readouterr().err

    def test_ast_text_ingestion(self, tmp_path):
        src = tmp_path / "ast_corpus"
        src.mkdir()
        (src / "one.ast").write_text(
            '(MethodDecl (PrimitiveType (NAME "int")) (NAME "pickItem") '
            '(Param (PrimitiveType (NAME "int")) (NAME "x")) '
            '(Block (ReturnStmt (Name (NAME "x")))))')
        prefix = tmp_path / "astdata"
        code = run_cli("preprocess", src, prefix,
                       "--set", "val_fraction=0", "--set", "test_fraction=0")
        assert code == 0
        train = read_dataset(f"{prefix}.train.c2s")
        assert train[0].target == ["pick", "item"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, corpus_dir):
    """preprocess + short train, shared across CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    prefix = root / "data"
    ckpt = root / "model.p2sq"
    assert run_cli("preprocess", corpus_dir, prefix, "--set", "seed=1") == 0
    args = ["--set", "seed=1", "--set", "max_epochs=4", "--set", "batch_size=8",
            "--set", "lr0=0.05", "--set", "k=20",
            "--set", "input_dropout=0", "--set", "recurrent_dropout=0"]
    for key in ("d_nodes", "d_tokens", "d_hidden", "d_target", "d_path", "d_decoder"):
        args += ["--set", f"{key}=16"]
    assert run_cli("train", prefix, ckpt, *args) == 0
    return prefix, ckpt


class TestTrainCommand:
    def test_outputs_exist(self, pipeline):
        prefix, ckpt = pipeline
        assert ckpt.exists()
        assert Path(f"{ckpt}.last").exists()
        log = Path(f"{ckpt}.log").read_text().strip().splitlines()
        assert len(log) >= 1
        fields = log[0].split("\t")
        assert len(fields) == 5  # epoch, loss, lr, val metric, seconds

    def test_ablation_recorded_in_checkpoint(self, pipeline, tmp_path):
        prefix, _ = pipeline
        out = tmp_path / "abl.p2sq"
        code = run_cli("train", prefix, out, "--set", "seed=1",
                       "--set", "max_epochs=1", "--set", "d_nodes=8",
                       "--set", "d_tokens=8", "--set", "d_hidden=8",
                       "--set", "d_target=8", "--set", "d_path=8",
                       "--set", "d_decoder=8", "--set", "ablation=no_attention")
        assert code == 0
        from path2seq.training import restore
        params, _, _, tcfg, _ = restore(out)
        assert params.ablation == "no_attention"
        assert tcfg.ablation == "no_attention"

    def test_missing_dataset_error(self, tmp_path, capsys):
        assert run_cli("train", tmp_path / "absent", tmp_path / "x.p2sq") == 1
        err = capsys.readouterr().err
        assert "error:" in err and "absent" in err

    @pytest.mark.parametrize("setting", ["batch_size=0", "input_dropout=1.0",
                                         "recurrent_dropout=1.0", "grad_clip=-1",
                                         "grad_clip=0", "lr0=0", "momentum=1.5"])
    def test_invalid_value_is_config_error(self, pipeline, tmp_path, capsys, setting):
        prefix, _ = pipeline
        out = tmp_path / "bad.p2sq"
        assert run_cli("train", prefix, out, "--set", setting) == 1
        err = capsys.readouterr().err
        assert f"error: config-error: {setting.split('=')[0]} must be" in err
        assert not Path(f"{out}.log").exists()


class TestPredictCommand:
    def test_source_input(self, pipeline, tmp_path, capsys):
        _, ckpt = pipeline
        src = tmp_path / "one.mnj"
        src.write_text("int getWidth() { return width; }")
        assert run_cli("predict", ckpt, "--input", src) == 0
        out = capsys.readouterr().out
        assert "getWidth:" in out

    def test_c2s_input(self, pipeline, tmp_path, capsys):
        prefix, ckpt = pipeline
        test_file = f"{prefix}.test.c2s"
        assert run_cli("predict", ckpt, "--input", test_file, "--format", "c2s") == 0
        assert capsys.readouterr().out.strip()

    def test_beam_one_matches_greedy(self, pipeline, tmp_path, capsys):
        _, ckpt = pipeline
        src = tmp_path / "two.mnj"
        src.write_text("void setScore(int v) { score = v; }")
        run_cli("predict", ckpt, "--input", src)
        greedy_out = capsys.readouterr().out
        run_cli("predict", ckpt, "--input", src, "--beam", "1")
        beam_out = capsys.readouterr().out
        assert greedy_out == beam_out

    def test_beam_zero_is_config_error(self, pipeline, tmp_path, capsys):
        _, ckpt = pipeline
        src = tmp_path / "four.mnj"
        src.write_text("int getWidth() { return width; }")
        assert run_cli("predict", ckpt, "--input", src, "--beam", "0") == 1
        captured = capsys.readouterr()
        assert "error: config-error: --beam must be >= 1" in captured.err
        assert not captured.out

    def test_explain_prints_contexts(self, pipeline, tmp_path, capsys):
        _, ckpt = pipeline
        src = tmp_path / "three.mnj"
        src.write_text("int getDepth() { return depth; }")
        assert run_cli("predict", ckpt, "--input", src, "--explain", "1") == 0
        out = capsys.readouterr().out
        steps = [l for l in out.splitlines() if l.startswith("step ")]
        attended = [l for l in out.splitlines() if l.strip().startswith("0.")
                    or "  " in l and "," in l]
        assert steps
        for line in steps:
            assert line.startswith("step ")

    def test_parse_error_does_not_abort_batch(self, pipeline, tmp_path, capsys):
        _, ckpt = pipeline
        src = tmp_path / "mixed.mnj"
        src.write_text("int ok() { return width; }\nint broken(((){}")
        run_cli("predict", ckpt, "--input", src)
        captured = capsys.readouterr()
        assert "error" in captured.err


class TestEvaluateCommand:
    def test_report_and_dump(self, pipeline, tmp_path, capsys):
        prefix, ckpt = pipeline
        out = tmp_path / "eval"
        assert run_cli("evaluate", ckpt, f"{prefix}.test.c2s", "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "f1:" in stdout
        dump = Path(f"{out}.predictions.txt").read_text().splitlines()
        test = read_dataset(f"{prefix}.test.c2s")
        assert len(dump) == len(test)
        report = Path(f"{out}.report.tsv").read_text()
        assert report.startswith("metric\t")

    def test_gold_dump_scores_one(self, pipeline):
        prefix, _ = pipeline
        from path2seq.metrics import corpus_f1
        test = read_dataset(f"{prefix}.test.c2s")
        assert corpus_f1([(ex.target, ex.target) for ex in test]).f1 == 1.0

    def test_bleu_task(self, pipeline, tmp_path, capsys):
        prefix, ckpt = pipeline
        out = tmp_path / "bleu"
        assert run_cli("evaluate", ckpt, f"{prefix}.test.c2s", "--task", "bleu",
                       "--out", out) == 0
        assert "bleu:" in capsys.readouterr().out

    def test_config_task_picks_the_metric(self, pipeline, tmp_path, capsys):
        prefix, ckpt = pipeline
        out = tmp_path / "bleu_set"
        assert run_cli("evaluate", ckpt, f"{prefix}.test.c2s", "--set", "task=bleu",
                       "--out", out) == 0
        captured = capsys.readouterr()
        assert "config: task=bleu" in captured.err and "bleu:" in captured.out
        assert Path(f"{out}.report.tsv").read_text().startswith("bleu\tp1\t")
        flag = tmp_path / "bleu_flag"
        assert run_cli("evaluate", ckpt, f"{prefix}.test.c2s", "--task", "bleu",
                       "--out", flag) == 0
        assert "config: task=bleu" in capsys.readouterr().err
        assert Path(f"{out}.report.tsv").read_bytes() == \
            Path(f"{flag}.report.tsv").read_bytes()

    def test_deterministic_reports(self, pipeline, tmp_path):
        prefix, ckpt = pipeline
        a, b = tmp_path / "ra", tmp_path / "rb"
        run_cli("evaluate", ckpt, f"{prefix}.test.c2s", "--out", a)
        run_cli("evaluate", ckpt, f"{prefix}.test.c2s", "--out", b)
        assert Path(f"{a}.report.tsv").read_bytes() == Path(f"{b}.report.tsv").read_bytes()
        assert Path(f"{a}.predictions.txt").read_bytes() == \
            Path(f"{b}.predictions.txt").read_bytes()

    def test_trace_sidecar(self, pipeline, tmp_path):
        prefix, ckpt = pipeline
        out = tmp_path / "traced"
        assert run_cli("evaluate", ckpt, f"{prefix}.test.c2s", "--out", out,
                       "--traces", "2") == 0
        sidecar = Path(f"{out}.traces.txt").read_text()
        test = read_dataset(f"{prefix}.test.c2s")
        assert sidecar.count("example ") == len(test)

    def test_by_length_table(self, pipeline, tmp_path):
        prefix, ckpt = pipeline
        out = tmp_path / "lengths"
        assert run_cli("evaluate", ckpt, f"{prefix}.test.c2s", "--out", out,
                       "--by-length") == 0
        report = Path(f"{out}.report.tsv").read_text()
        assert "contexts\texamples\tf1" in report


class TestExtraFlags:
    def test_train_ablation_flag(self, pipeline, tmp_path):
        prefix, _ = pipeline
        out = tmp_path / "flag.p2sq"
        args = ["--set", "seed=1", "--set", "max_epochs=1"]
        for key in ("d_nodes", "d_tokens", "d_hidden", "d_target", "d_path",
                    "d_decoder"):
            args += ["--set", f"{key}=8"]
        assert run_cli("train", prefix, out, "--ablation", "no_tokens", *args) == 0
        from path2seq.training import restore
        params, _, _, _, _ = restore(out)
        assert params.ablation == "no_tokens"

    def test_preprocess_dump_ast_dir(self, corpus_dir, tmp_path):
        prefix = tmp_path / "dump"
        ast_dir = tmp_path / "asts"
        assert run_cli("preprocess", corpus_dir, prefix, "--set", "seed=1",
                       "--dump-ast-dir", ast_dir) == 0
        dumped = list(ast_dir.glob("*.ast"))
        assert len(dumped) == 30
        from path2seq.ast_core import parse_ast_text
        tree = parse_ast_text(dumped[0].read_text())
        assert tree.root.kind.name == "MethodDecl"

    def test_predict_from_stdin(self, pipeline, capsys, monkeypatch):
        import io
        _, ckpt = pipeline
        monkeypatch.setattr("sys.stdin", io.StringIO("int getSpan() { return span; }"))
        assert run_cli("predict", ckpt) == 0
        assert "getSpan:" in capsys.readouterr().out


class TestResume:
    def test_cli_resume_matches_straight_run(self, corpus_dir, tmp_path):
        prefix = tmp_path / "data"
        run_cli("preprocess", corpus_dir, prefix, "--set", "seed=1")
        base = ["--set", "seed=2", "--set", "batch_size=8", "--set", "lr0=0.05",
                "--set", "k=20"]
        for key in ("d_nodes", "d_tokens", "d_hidden", "d_target", "d_path",
                    "d_decoder"):
            base += ["--set", f"{key}=8"]
        straight = tmp_path / "straight.p2sq"
        assert run_cli("train", prefix, straight, "--set", "max_epochs=4", *base) == 0
        split = tmp_path / "split.p2sq"
        assert run_cli("train", prefix, split, "--set", "max_epochs=2", *base) == 0
        assert run_cli("train", prefix, split, "--resume", f"{split}.last",
                       "--set", "max_epochs=4", *base) == 0
        assert Path(f"{split}.last").read_bytes() == \
            Path(f"{straight}.last").read_bytes()

    def test_resume_rejects_other_ablation(self, pipeline, tmp_path, capsys):
        prefix, ckpt = pipeline
        out = tmp_path / "resumed.p2sq"
        assert run_cli("train", prefix, out, "--resume", f"{ckpt}.last",
                       "--ablation", "no_tokens") == 1
        assert "error: config-error: ablation=no_tokens differs from the resumed " \
            "checkpoint's ablation=full" in capsys.readouterr().err
        assert not Path(f"{out}.log").exists()

    @pytest.fixture(scope="class")
    def small_run(self, tmp_path_factory, corpus_dir):
        """A one-epoch run at width 8, whose .last the tests resume."""
        root = tmp_path_factory.mktemp("resume")
        prefix, ckpt = root / "data", root / "small.p2sq"
        assert run_cli("preprocess", corpus_dir, prefix, "--set", "seed=1") == 0
        args = ["--set", "seed=3", "--set", "max_epochs=1", "--set", "batch_size=8",
                "--set", "k=10"]
        for key in ("d_nodes", "d_tokens", "d_hidden", "d_target", "d_path",
                    "d_decoder"):
            args += ["--set", f"{key}=8"]
        assert run_cli("train", prefix, ckpt, *args) == 0
        return prefix, ckpt

    @pytest.mark.parametrize("given", ["d_hidden=16", "ablation=no_tokens"])
    def test_resume_rejects_a_changed_setting(self, small_run, given, tmp_path, capsys):
        prefix, ckpt = small_run
        out = tmp_path / "resumed.p2sq"
        assert run_cli("train", prefix, out, "--resume", f"{ckpt}.last",
                       "--set", given) == 1
        key = given.split("=")[0]
        assert f"error: config-error: {given} differs from the resumed checkpoint's " \
            f"{key}=" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bare_resume_takes_the_checkpoint_settings(self, small_run, tmp_path, capsys):
        prefix, ckpt = small_run
        out = tmp_path / "resumed.p2sq"
        assert run_cli("train", prefix, out, "--resume", f"{ckpt}.last",
                       "--set", "max_epochs=2") == 0
        err = capsys.readouterr().err
        assert "config: d_hidden=8\n" in err and "config: seed=3\n" in err
        params, state, _, tcfg, _ = restore(f"{out}.last")
        assert params.cfg.d_hidden == 8 and state.epoch == 2 and tcfg.max_epochs == 2


class TestAblateCommand:
    def test_missing_checkpoint_names_variant(self):
        with pytest.raises(MissingCheckpoint) as err:
            ablation_report({"full": "x.p2sq"}, [])
        assert "no_tokens" in str(err.value)

    def test_trains_all_variants_and_reports(self, corpus_dir, tmp_path, capsys):
        prefix = tmp_path / "data"
        run_cli("preprocess", corpus_dir, prefix, "--set", "seed=1")
        out_dir = tmp_path / "ablation"
        args = ["--set", "seed=1", "--set", "max_epochs=2", "--set", "batch_size=8",
                "--set", "k=20", "--set", "lr0=0.05"]
        for key in ("d_nodes", "d_tokens", "d_hidden", "d_target", "d_path",
                    "d_decoder"):
            args += ["--set", f"{key}=8"]
        assert run_cli("ablate", prefix, out_dir, *args) == 0
        report = (out_dir / "ablation_report.tsv").read_text().splitlines()
        assert report[0] == "variant\tprecision\trecall\tf1\tdelta_f1"
        assert len(report) == 8
        variants = [line.split("\t")[0] for line in report[1:]]
        assert variants == ["full", "no_ast_nodes", "no_decoder", "no_token_split",
                            "no_tokens", "no_attention", "no_random"]
        for variant in variants:
            assert (out_dir / f"{variant}.p2sq").exists()
