"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with -s to watch them stream by). The heavyweight corpora
are shared through module-scoped fixtures, and every tolerance is pinned
here rather than in helper code."""

import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (corpus_examples, oracle_paths, random_minij_method,
                     record_context_samples, synth_corpus, synth_split, tiny_setup)
from path2seq import numerics as nx
from path2seq.cli import ablation_report, ablation_report_lines, main as cli_main
from path2seq.decoding import greedy_decode
from path2seq.metrics import corpus_f1, smoothed_bleu, subtoken_f1
from path2seq.minij import SourceUnit, extract_target_name, parse_method
from path2seq.model import (ABLATIONS, ModelConfig, ModelParams, forward_loss)
from path2seq.paths import (Example, ExtractionConfig, PathContext,
                            enumerate_paths)
from path2seq.training import (TrainConfig, TrainState, checkpoint, make_rng,
                               restore, train)
from path2seq.vocab import Vocabularies, build_vocabularies

OVERFIT_SEED = 11


def announce(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="module")
def overfit_corpus():
    pairs = synth_corpus(100, seed=OVERFIT_SEED)
    examples = corpus_examples(pairs, ExtractionConfig(rng_seed=0))
    return examples, build_vocabularies(examples)


def overfit_model_config():
    return ModelConfig(d_nodes=32, d_tokens=32, d_hidden=32, d_target=32,
                       d_path=32, d_decoder=32, k=20, input_dropout=0.0,
                       recurrent_dropout=0.0, max_target_len=6)


@pytest.fixture(scope="module")
def overfit_trained(overfit_corpus):
    examples, vocabs = overfit_corpus
    cfg = overfit_model_config()
    params = ModelParams(cfg, vocabs, seed=5)
    tcfg = TrainConfig(lr0=0.05, batch_size=16, max_epochs=50, seed=9, patience=999)
    started = time.perf_counter()
    state, history = train(examples, [], params, cfg, tcfg)
    return examples, cfg, params, history, time.perf_counter() - started


def test_criterion_1_gradient_correctness():
    """Every parameter gradient of a tiny full model matches central finite
    differences (eps 1e-5) with relative error < 1e-4 in 64-bit."""
    started = time.perf_counter()
    # vocabularies of exactly 10 symbols each
    vocabs = Vocabularies(
        nodes=_vocab10(["<PAD>", "<UNK>"], "N"),
        source=_vocab10(["<PAD>", "<UNK>"], "s"),
        source_full=_vocab10(["<PAD>", "<UNK>"], "w"),
        target=_vocab10(["<PAD>", "<SOS>", "<EOS>", "<UNK>"], "t"),
        names=_vocab10(["<UNK>"], "m"),
    )
    example = Example(contexts=[
        PathContext(("s0", "s1"), ("N0", "N1", "N2"), ("s2",)),
        PathContext(("s2",), ("N1",), ("s3", "s0")),
        PathContext(("s4",), ("N3", "N1"), ("s5",)),
    ], target=["t0", "t1"], index=0)
    cfg = ModelConfig(d_nodes=4, d_tokens=4, d_hidden=4, d_target=4, d_path=4,
                      d_decoder=4, k=3, input_dropout=0.0, recurrent_dropout=0.0,
                      max_target_len=4)
    params = ModelParams(cfg, vocabs, seed=2)

    nx.zero_grads(params.parameters())
    loss = forward_loss(example, params, cfg, np.random.default_rng(0), training=False)
    nx.backward(loss)

    def value():
        return float(forward_loss(example, params, cfg, np.random.default_rng(0),
                                  training=False).data)

    eps = 1e-5
    for p in params.parameters():
        fd = np.zeros_like(p.data)
        for idx in np.ndindex(p.data.shape):
            orig = p.data[idx]
            p.data[idx] = orig + eps
            hi = value()
            p.data[idx] = orig - eps
            lo = value()
            p.data[idx] = orig
            fd[idx] = (hi - lo) / (2 * eps)
        scale = max(np.linalg.norm(fd), np.linalg.norm(p.grad))
        if scale < 1e-12:
            continue
        rel = np.linalg.norm(fd - p.grad) / scale
        assert rel < 1e-4, f"{p.name}: relative gradient error {rel:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    announce(1, "gradient correctness")


def _vocab10(specials, prefix):
    from path2seq.vocab import Vocabulary
    return Vocabulary(list(specials) + [f"{prefix}{i}" for i in range(10 - len(specials))])


def test_criterion_2_path_extraction_oracle():
    """enumerate_paths equals the brute-force ancestor-chain oracle on 500
    random methods of at most 12 terminals."""
    started = time.perf_counter()
    rng = np.random.default_rng(41)
    cfg = ExtractionConfig()
    checked = 0
    while checked < 500:
        source = random_minij_method(rng)
        ast = parse_method(SourceUnit(source))
        masked, _ = extract_target_name(ast)
        from path2seq.paths import path_terminals
        if not 2 <= len(path_terminals(masked)) <= 12:
            continue
        got = {(p.left.node_id, p.steps, p.right.node_id)
               for p in enumerate_paths(masked, cfg)}
        assert got == oracle_paths(masked, cfg.max_path_length), source
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"
    announce(2, "path-extraction oracle")


def test_criterion_3_overfit(overfit_trained):
    """100 synthetic methods, d=32, k=20, 50 epochs, batch 16: greedy
    decoding recovers >= 95% of method names; single core, < 10 min."""
    examples, cfg, params, history, seconds = overfit_trained
    assert seconds < 600.0, f"overfit training took {seconds:.0f}s"
    exact = sum(greedy_decode(ex, params, cfg).subtokens == ex.target
                for ex in examples)
    assert exact >= 95, f"only {exact}/100 exact matches"
    assert history[-1].mean_loss < 0.1 * history[0].mean_loss
    best_so_far = np.minimum.accumulate([h.mean_loss for h in history])
    assert np.all(np.diff(best_so_far) <= 0)
    for p in params.parameters():
        assert np.all(np.isfinite(p.data)), f"non-finite values in {p.name}"
    announce(3, f"overfit {exact}/100 in {seconds:.0f}s")


def test_criterion_4_generalization_smoke():
    """1000-example corpus with 100 held-out recombined names: full model
    reaches subtoken F1 >= 0.60 on the held-out set and beats the
    no_tokens variant by >= 15 F1 points; < 30 min."""
    started = time.perf_counter()
    train_pairs, test_pairs = synth_split(seed=23)
    ecfg = ExtractionConfig(rng_seed=0)
    train_ex = corpus_examples(train_pairs, ecfg)
    test_ex = corpus_examples(test_pairs, ecfg)
    assert len(train_ex) + len(test_ex) == 1000
    train_names = {tuple(ex.target) for ex in train_ex}
    test_names = {tuple(ex.target) for ex in test_ex}
    assert not (train_names & test_names)  # names recombine, never repeat
    train_subtokens = {t for name in train_names for t in name}
    assert all(t in train_subtokens for name in test_names for t in name)

    vocabs = build_vocabularies(train_ex)
    cfg = ModelConfig(d_nodes=32, d_tokens=32, d_hidden=32, d_target=32, d_path=32,
                      d_decoder=32, k=32, input_dropout=0.0, recurrent_dropout=0.0,
                      max_target_len=6)
    f1 = {}
    for ablation in ("full", "no_tokens", "no_decoder"):
        params = ModelParams(cfg, vocabs, ablation=ablation, seed=5)
        tcfg = TrainConfig(lr0=0.05, batch_size=32, max_epochs=8, seed=9,
                           patience=999, ablation=ablation)
        train(train_ex, [], params, cfg, tcfg)
        preds = [greedy_decode(ex, params, cfg) for ex in test_ex]
        f1[ablation] = corpus_f1([(p.subtokens, ex.target)
                                  for p, ex in zip(preds, test_ex)]).f1
    elapsed = time.perf_counter() - started
    assert f1["full"] >= 0.60, f"full model F1 {f1['full']:.3f}"
    assert f1["full"] - f1["no_tokens"] >= 0.15, \
        f"gap {f1['full'] - f1['no_tokens']:.3f}"
    # a closed whole-name vocabulary cannot emit unseen recombinations
    assert f1["no_decoder"] < f1["full"]
    assert elapsed < 1800.0, f"generalization run took {elapsed:.0f}s"
    announce(4, f"generalization F1 {f1['full']:.2f} vs {f1['no_tokens']:.2f} "
                f"in {elapsed:.0f}s")


def test_criterion_5_determinism(tmp_path):
    """Two full preprocess+train+evaluate runs with one seed produce
    bitwise-identical checkpoints and metric reports."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, (name, source) in enumerate(synth_corpus(40, seed=3)):
        (corpus / f"m{i:03d}.mnj").write_text(source, encoding="utf-8")

    def run(tag):
        prefix = tmp_path / tag / "data"
        ckpt = tmp_path / tag / "model.p2sq"
        report = tmp_path / tag / "eval"
        sets = ["--set", "seed=13", "--set", "max_epochs=3", "--set", "batch_size=8",
                "--set", "lr0=0.05", "--set", "k=20"]
        for key in ("d_nodes", "d_tokens", "d_hidden", "d_target", "d_path",
                    "d_decoder"):
            sets += ["--set", f"{key}=16"]
        assert cli_main(["preprocess", str(corpus), str(prefix)] + sets) == 0
        assert cli_main(["train", str(prefix), str(ckpt)] + sets) == 0
        assert cli_main(["evaluate", str(ckpt), f"{prefix}.test.c2s",
                         "--out", str(report)] + sets) == 0
        return ckpt, report

    ckpt_a, report_a = run("a")
    ckpt_b, report_b = run("b")
    assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
    assert Path(f"{ckpt_a}.last").read_bytes() == Path(f"{ckpt_b}.last").read_bytes()
    assert Path(f"{report_a}.report.tsv").read_bytes() == \
        Path(f"{report_b}.report.tsv").read_bytes()
    assert Path(f"{report_a}.predictions.txt").read_bytes() == \
        Path(f"{report_b}.predictions.txt").read_bytes()
    announce(5, "bitwise determinism")


def test_criterion_6_metric_units():
    """Pinned metric values: the worked F1 example, perfect-match BLEU of
    100, zero-overlap BLEU < 1, and agreement with an independent BLEU
    implementation within 0.1."""
    p, r, f1 = subtoken_f1(["set", "max", "connections"],
                           ["set", "max", "connections", "per", "server"])
    assert (p, r) == (1.0, 0.6)
    assert abs(f1 - 0.75) < 1e-12

    perfect = smoothed_bleu([["add", "a", "node"]], [[["add", "a", "node"]]])
    assert perfect.bleu == pytest.approx(100.0)
    assert perfect.brevity_penalty == 1.0

    disjoint = smoothed_bleu([["x", "y", "z"]], [[["a", "b", "c"]]])
    assert disjoint.bleu < 1.0

    from test_metrics import reference_bleu
    candidates = [["the", "cat", "sat", "on", "the", "mat"],
                  ["a", "quick", "brown", "fox", "jumps", "over", "a", "lazy", "dog"],
                  ["open", "the", "file", "and", "read", "all", "lines", "now"]]
    references = [[["the", "cat", "sat", "on", "the", "mat"]],
                  [["the", "quick", "brown", "fox", "jumps", "over", "the", "lazy",
                    "dog"],
                   ["a", "quick", "brown", "fox", "jumps", "over", "a", "sleepy",
                    "dog"]],
                  [["open", "the", "file", "and", "read", "all", "lines", "today"]]]
    ours = smoothed_bleu(candidates, references).bleu
    assert abs(ours - reference_bleu(candidates, references)) < 0.1
    announce(6, "metric units")


def test_criterion_7_schedule():
    """The logged learning rate after epoch e equals 0.01 * 0.95^e to
    1e-12."""
    examples, vocabs, cfg, params = tiny_setup()
    tcfg = TrainConfig(batch_size=4, max_epochs=6, seed=1, patience=99)
    state, history = train(examples, [], params, cfg, tcfg)
    for log in history:
        assert abs(log.lr - 0.01 * 0.95 ** log.epoch) < 1e-12
    announce(7, "learning-rate schedule")


def test_criterion_8_ablation_harness(tmp_path, overfit_corpus, monkeypatch):
    """All seven configurations train on the overfit corpus without error
    and the report covers each variant with F1 deltas; the no_random
    variant consumes identical context samples every epoch."""
    examples, vocabs = overfit_corpus
    cfg = overfit_model_config()
    checkpoints = {}
    calls = record_context_samples(monkeypatch)
    for variant in ABLATIONS:
        params = ModelParams(cfg, vocabs, ablation=variant, seed=5)
        tcfg = TrainConfig(lr0=0.05, batch_size=16, max_epochs=2, seed=9,
                           patience=999, ablation=variant)
        state, history = train(examples, [], params, cfg, tcfg)
        assert all(np.isfinite(h.mean_loss) for h in history)
        path = tmp_path / f"{variant}.p2sq"
        checkpoint(path, params, state, make_rng(0), tcfg, ExtractionConfig())
        checkpoints[variant] = path

    sample_log = {}
    for ablation, example_index, chosen in calls:
        if ablation == "no_random":
            sample_log.setdefault(example_index, []).append(chosen)
    assert len(sample_log) == len(examples)
    for example_index, picks in sample_log.items():
        assert len(picks) == 2 and len(set(picks)) == 1

    rows = ablation_report(checkpoints, examples[:40])
    assert [row["variant"] for row in rows] == list(ABLATIONS)
    assert rows[0]["delta_f1"] == 0.0
    for row in rows:
        assert {"variant", "precision", "recall", "f1", "delta_f1"} <= set(row)
    lines = ablation_report_lines(rows)
    assert len(lines) == 8 and lines[0].startswith("variant\t")
    announce(8, "ablation harness")


def test_criterion_9_checkpoint_resume(tmp_path):
    """Training interrupted at an epoch boundary and resumed reproduces the
    uninterrupted loss trajectory exactly."""
    def fresh():
        return tiny_setup(input_dropout=0.25, recurrent_dropout=0.5)

    examples, _, cfg, params = fresh()
    tcfg = TrainConfig(lr0=0.05, batch_size=4, max_epochs=6, seed=7, patience=999)
    _, straight = train(examples, [], params, cfg, tcfg)

    examples2, _, cfg2, params2 = fresh()
    first = TrainConfig(lr0=0.05, batch_size=4, max_epochs=3, seed=7, patience=999)
    state = TrainState(current_lr=first.lr0)
    rng = make_rng(first.seed)
    _, part_a = train(examples2, [], params2, cfg2, first, state=state, rng=rng)
    path = tmp_path / "interrupt.p2sq"
    checkpoint(path, params2, state, rng, tcfg, ExtractionConfig())
    params3, state3, rng3, tcfg3, _ = restore(path)
    _, part_b = train(examples2, [], params3, cfg2, tcfg3, state=state3, rng=rng3)

    assert [h.mean_loss for h in part_a] + [h.mean_loss for h in part_b] == \
        [h.mean_loss for h in straight]
    announce(9, "checkpoint resume")
