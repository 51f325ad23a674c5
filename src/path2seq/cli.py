"""Command-line entry point: preprocess -> train -> predict -> evaluate ->
ablate.

Configuration is a plain key=value file plus repeatable --set overrides;
unknown keys are rejected rather than silently ignored, and every command
logs the fully-resolved configuration to stderr. The P2SQ_SEED environment
variable provides the seed when neither the file nor a flag does.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .ast_core import parse_ast_text, serialize_ast
from .decoding import beam_decode, explain, greedy_decode
from .errors import Path2SeqError
from .metrics import (bleu_report_lines, corpus_f1, f1_report_lines,
                      format_prediction_line, smoothed_bleu)
from .minij import extract_target_name, parse_method, split_methods
from .model import ABLATIONS, ModelConfig, ModelParams
from .paths import (Example, ExtractionConfig, build_example, parse_example_line,
                    read_dataset, write_dataset)
from .training import TrainConfig, TrainState, checkpoint, make_rng, restore, train
from .vocab import Vocabularies, build_vocabularies


class ConfigError(Path2SeqError):
    kind = "config-error"


class NoParsableFiles(Path2SeqError):
    kind = "no-parsable-files"


class MissingCheckpoint(Path2SeqError):
    kind = "missing-checkpoint"


def _float_or_none(text: str):
    return None if text.lower() in ("none", "off") else float(text)


# key -> (parser, default); the single source of truth for every knob
CONFIG_SPEC = {
    # path extraction
    "max_path_length": (int, 9),
    "k": (int, 200),
    # model dimensions
    "d_nodes": (int, 128),
    "d_tokens": (int, 128),
    "d_hidden": (int, 128),
    "d_target": (int, 128),
    "d_path": (int, 128),
    "d_decoder": (int, 320),
    "input_dropout": (float, 0.25),
    "recurrent_dropout": (float, 0.5),
    "max_target_len": (int, 10),
    # training
    "lr0": (float, 0.01),
    "lr_decay": (float, 0.95),
    "momentum": (float, 0.95),
    "batch_size": (int, 32),
    "max_epochs": (int, 20),
    "patience": (int, 5),
    "seed": (int, None),  # resolved from P2SQ_SEED, else 0
    "ablation": (str, "full"),
    "task": (str, "f1"),
    "grad_clip": (_float_or_none, None),
    # corpus handling
    "source_ext": (str, ".mnj"),
    "ast_ext": (str, ".ast"),
    "val_fraction": (float, 0.1),
    "test_fraction": (float, 0.1),
}


def resolve_config(config_path: str | None, overrides: list[str],
                   defaults: dict | None = None) -> dict:
    """Every key from `defaults` over CONFIG_SPEC's, the file, then --set."""
    values = {key: default for key, (_, default) in CONFIG_SPEC.items()}
    values.update(defaults or {})

    def apply(key: str, raw: str, where: str):
        if key not in CONFIG_SPEC:
            raise ConfigError(f"unknown config key {key!r} ({where})")
        parser = CONFIG_SPEC[key][0]
        try:
            values[key] = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({where})") from exc

    if config_path:
        try:
            lines = Path(config_path).read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        for n, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"expected key=value at {config_path}:{n}")
            key, raw = line.split("=", 1)
            apply(key.strip(), raw.strip(), f"{config_path}:{n}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        apply(key.strip(), raw.strip(), "--set")
    if values["seed"] is None:
        values["seed"] = int(os.environ.get("P2SQ_SEED", "0"))
    return values


def log_config(values: dict):
    for key in sorted(values):
        print(f"config: {key}={values[key]}", file=sys.stderr)


def _build(cls, **kwargs):
    """Construct a config object, reporting a rejected value as ConfigError."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def model_config(values: dict) -> ModelConfig:
    return _build(
        ModelConfig,
        d_nodes=values["d_nodes"], d_tokens=values["d_tokens"],
        d_hidden=values["d_hidden"], d_target=values["d_target"],
        d_path=values["d_path"], d_decoder=values["d_decoder"], k=values["k"],
        input_dropout=values["input_dropout"],
        recurrent_dropout=values["recurrent_dropout"],
        max_target_len=values["max_target_len"])


def train_config(values: dict) -> TrainConfig:
    return _build(
        TrainConfig,
        lr0=values["lr0"], lr_decay=values["lr_decay"], momentum=values["momentum"],
        batch_size=values["batch_size"], max_epochs=values["max_epochs"],
        patience=values["patience"], seed=values["seed"], ablation=values["ablation"],
        task=values["task"], grad_clip=values["grad_clip"])


def extraction_config(values: dict) -> ExtractionConfig:
    return _build(ExtractionConfig, max_path_length=values["max_path_length"],
                  max_paths_per_example=values["k"], rng_seed=values["seed"])


# --- preprocess ---

def load_corpus(src_dir: str, values: dict, dump_ast_dir: str | None = None,
                ) -> list[Example]:
    """Parse every corpus file into examples, skipping files that fail with
    a logged reason. Source files may hold several methods; generic .ast
    files hold one tree each."""
    src = Path(src_dir)
    if not src.is_dir():
        raise NoParsableFiles(f"source directory not found: {src_dir}")
    ecfg = extraction_config(values)
    examples = []
    skipped = 0
    files = sorted(p for p in src.iterdir()
                   if p.suffix in (values["source_ext"], values["ast_ext"]))
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
            if path.suffix == values["ast_ext"]:
                trees = [parse_ast_text(text)]
            else:
                trees = [parse_method(unit) for unit in split_methods(text, str(path))]
            for tree in trees:
                masked, name = extract_target_name(tree)
                if dump_ast_dir is not None:
                    out = Path(dump_ast_dir) / f"{path.stem}_{len(examples)}.ast"
                    out.write_text(serialize_ast(masked) + "\n", encoding="utf-8")
                examples.append(build_example(masked, name, ecfg))
        except Path2SeqError as exc:
            skipped += 1
            print(f"skip: {path}: {exc}", file=sys.stderr)
    if not examples:
        raise NoParsableFiles(f"no parsable corpus files under {src_dir} "
                              f"({skipped} skipped)")
    return examples


def _split_corpus(examples: list[Example], values: dict,
                  ) -> tuple[list[Example], list[Example], list[Example]]:
    rng = np.random.default_rng(values["seed"])
    order = rng.permutation(len(examples))
    n_test = int(len(examples) * values["test_fraction"])
    n_val = int(len(examples) * values["val_fraction"])
    test_idx = order[:n_test]
    val_idx = order[n_test: n_test + n_val]
    train_idx = order[n_test + n_val:]
    pick = lambda idx: [examples[i] for i in sorted(idx)]
    return pick(train_idx), pick(val_idx), pick(test_idx)


def _corpus_stats(name: str, examples: list[Example]) -> str:
    if not examples:
        return f"{name}: 0 examples"
    paths = sum(len(ex.contexts) for ex in examples) / len(examples)
    target = sum(len(ex.target) for ex in examples) / len(examples)
    return (f"{name}: {len(examples)} examples, {paths:.1f} avg paths/example, "
            f"{target:.2f} avg target length")


def cmd_preprocess(args) -> int:
    values = resolve_config(args.config, args.set)
    log_config(values)
    if args.dump_ast_dir:
        Path(args.dump_ast_dir).mkdir(parents=True, exist_ok=True)
    examples = load_corpus(args.src_dir, values, args.dump_ast_dir)
    train_ex, val_ex, test_ex = _split_corpus(examples, values)
    if not train_ex:
        raise NoParsableFiles("training split is empty; corpus too small")
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    for split, data in (("train", train_ex), ("val", val_ex), ("test", test_ex)):
        write_dataset(f"{prefix}.{split}.c2s", data)
        print(_corpus_stats(split, data))
    vocabs = build_vocabularies(train_ex)
    vocabs.save(f"{prefix}.vocab.json")
    print(f"vocabulary: {len(vocabs.nodes)} node symbols, {len(vocabs.source)} "
          f"source subtokens, {len(vocabs.target)} target subtokens")
    return 0


# --- train ---

def checkpoint_values(restored: tuple) -> dict:
    """The model, training and extraction config values `restore` returned."""
    params, _, _, tcfg, ecfg = restored
    values = {**params.cfg.to_dict(), **tcfg.to_dict()}
    if ecfg is not None:
        values["max_path_length"] = ecfg.max_path_length
    return values


def run_training(values: dict, data_prefix: str, out_path: str,
                 resume: tuple | None = None, quiet: bool = False):
    """Train on `{data_prefix}.train.c2s`, validating on the val split when
    it holds examples. Each epoch adds a line to `{out_path}.log`, writes
    `{out_path}.last` and, when validation improves (or there is no
    validation split), `out_path`.

    A fresh run builds the model from `values`. `resume` is what `restore`
    returned for the checkpoint to continue: `values` may then differ from
    it only in max_epochs and patience, and any other model, training or
    extraction key that differs is a ConfigError naming that key.
    """
    train_ex = read_dataset(f"{data_prefix}.train.c2s")
    val_path = Path(f"{data_prefix}.val.c2s")
    val_ex = read_dataset(val_path) if val_path.exists() and val_path.stat().st_size else []
    if resume:
        params, state, rng, tcfg, ecfg = resume
        for key, fixed in checkpoint_values(resume).items():
            if key not in ("max_epochs", "patience") and values[key] != fixed:
                raise ConfigError(f"{key}={values[key]} differs from the resumed "
                                  f"checkpoint's {key}={fixed}")
        tcfg.max_epochs = values["max_epochs"]
        tcfg.patience = values["patience"]
    else:
        tcfg = train_config(values)
        ecfg = extraction_config(values)
        vocabs = Vocabularies.load(f"{data_prefix}.vocab.json")
        params = ModelParams(model_config(values), vocabs, ablation=tcfg.ablation,
                             seed=tcfg.seed)
        state = TrainState(current_lr=tcfg.lr0)
        rng = make_rng(tcfg.seed)
    log_path = Path(f"{out_path}.log")
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "a" if resume else "w", encoding="utf-8") as log_file:
        def on_epoch(log, improved):
            log_file.write(log.line() + "\n")
            log_file.flush()
            if not quiet:
                print(log.line())
            checkpoint(f"{out_path}.last", params, state, rng, tcfg, ecfg)
            if improved or not val_ex:
                checkpoint(out_path, params, state, rng, tcfg, ecfg)

        train(train_ex, val_ex, params, params.cfg, tcfg, state=state, rng=rng,
              on_epoch=on_epoch)


def cmd_train(args) -> int:
    # on resume, the checkpoint's settings are the defaults
    resume = restore(args.resume) if args.resume else None
    values = resolve_config(args.config, args.set,
                            checkpoint_values(resume) if resume else None)
    if args.ablation:
        values["ablation"] = args.ablation
    log_config(values)
    prefix = f"{args.data_prefix}.train.c2s"
    if not Path(prefix).exists():
        raise ConfigError(f"dataset not found: {prefix}")
    run_training(values, args.data_prefix, args.out, resume=resume)
    return 0


# --- predict ---

def _looks_like_dataset_line(text: str) -> bool:
    head = text.strip().split("\n", 1)[0]
    return "{" not in head and "," in head and " " in head


def _examples_from_input(text: str, origin: str, fmt: str, ecfg: ExtractionConfig):
    """Yield (label, example-or-None, error-or-None) per input unit, so one
    bad unit never aborts the batch."""
    if fmt == "auto":
        fmt = "c2s" if _looks_like_dataset_line(text) else "source"
    if fmt == "c2s":
        for i, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            try:
                ex = parse_example_line(line, index=i)
                yield "|".join(ex.target), ex, None
            except Path2SeqError as exc:
                yield f"{origin}:{i + 1}", None, exc
    else:
        for unit in split_methods(text, origin):
            try:
                masked, name = extract_target_name(parse_method(unit))
                yield name, build_example(masked, name, ecfg), None
            except Path2SeqError as exc:
                yield origin, None, exc


def cmd_predict(args) -> int:
    if args.beam < 1:
        raise ConfigError(f"--beam must be >= 1, got {args.beam}")
    values = resolve_config(args.config, args.set)
    log_config(values)
    params, _, _, _, ecfg = restore(args.checkpoint)
    ecfg = ecfg or extraction_config(values)
    if args.input == "-":
        text, origin = sys.stdin.read(), "<stdin>"
    else:
        text, origin = Path(args.input).read_text(encoding="utf-8"), args.input
    try:
        pairs = list(_examples_from_input(text, origin, args.format, ecfg))
    except Path2SeqError as exc:
        print(f"error: {exc.report()}", file=sys.stderr)
        return 1
    successes = 0
    for label, ex, error in pairs:
        if error is not None:
            print(f"error ({label}): {error.report()}", file=sys.stderr)
            continue
        try:
            best = beam_decode(ex, params, params.cfg, beam_width=args.beam)[0]
            print(f"{label}: {' '.join(best.subtokens)}")
            if args.explain:
                _, rendered = explain(best, ex, top_n=args.explain)
                print(rendered)
            successes += 1
        except Path2SeqError as exc:
            print(f"error ({label}): {exc.report()}", file=sys.stderr)
    return 0 if successes else 1


# --- evaluate ---

def _write_trace_sidecar(path, examples, preds, top_n: int):
    with open(path, "w", encoding="utf-8") as fh:
        for i, (ex, pred) in enumerate(zip(examples, preds)):
            fh.write(f"example {i}\n")
            rows, _ = explain(pred, ex, top_n=top_n)
            for row in rows:
                fh.write(f"  step {row['step']}: {row['subtoken']}\n")
                for item in row["attended"]:
                    fh.write(f"    {item['weight']:.6f}  {item['context']}\n")


def _by_length_lines(examples, preds) -> list[str]:
    # bucket by context count, a proxy for snippet size in the line format
    buckets: dict[int, list] = {}
    for ex, pred in zip(examples, preds):
        edge = min(len(ex.contexts) // 10, 9)
        buckets.setdefault(edge, []).append((pred.subtokens, ex.target))
    lines = ["contexts\texamples\tf1"]
    for edge in sorted(buckets):
        report = corpus_f1(buckets[edge])
        label = f"{edge * 10}-{edge * 10 + 9}" if edge < 9 else "90+"
        lines.append(f"{label}\t{len(buckets[edge])}\t{report.f1:.4f}")
    return lines


def cmd_evaluate(args) -> int:
    values = resolve_config(args.config, args.set)
    if args.task:
        values["task"] = args.task
    log_config(values)
    if values["task"] not in ("f1", "bleu"):
        raise ConfigError(f"task must be f1 or bleu, got {values['task']!r}")
    params, _, _, _, _ = restore(args.checkpoint)
    examples = read_dataset(args.dataset)
    if not examples:
        raise ConfigError(f"dataset {args.dataset} holds no examples")
    preds = [greedy_decode(ex, params, params.cfg) for ex in examples]
    out_prefix = Path(args.out)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    with open(f"{out_prefix}.predictions.txt", "w", encoding="utf-8") as fh:
        for ex, pred in zip(examples, preds):
            fh.write(format_prediction_line(ex.target, pred.subtokens, pred.score) + "\n")
    if args.traces:
        _write_trace_sidecar(f"{out_prefix}.traces.txt", examples, preds, args.traces)
    if values["task"] == "bleu":
        report = smoothed_bleu([p.subtokens for p in preds],
                               [[ex.target] for ex in examples])
        lines = bleu_report_lines(report)
        summary = f"bleu: {report.bleu:.4f}"
    else:
        report = corpus_f1([(p.subtokens, ex.target) for p, ex in zip(preds, examples)])
        lines = f1_report_lines(report)
        summary = (f"precision: {report.precision:.4f}  recall: {report.recall:.4f}  "
                   f"f1: {report.f1:.4f}")
    if args.by_length:
        lines += [""] + _by_length_lines(examples, preds)
    Path(f"{out_prefix}.report.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(summary)
    return 0


# --- ablate ---

def ablation_report(checkpoints: dict[str, object], examples) -> list[dict]:
    """Score each trained variant on a dataset and tabulate F1 deltas
    against the full model.

    `checkpoints` maps each variant name to a checkpoint path; all seven
    must be present. Rows come back in canonical order with precision,
    recall, f1 and delta_f1 fields.
    """
    missing = [v for v in ABLATIONS if v not in checkpoints]
    if missing:
        raise MissingCheckpoint(f"no checkpoint for variant(s): {', '.join(missing)}")
    rows = []
    for variant in ABLATIONS:
        params, _, _, _, _ = restore(checkpoints[variant])
        preds = [greedy_decode(ex, params, params.cfg) for ex in examples]
        report = corpus_f1([(p.subtokens, ex.target) for p, ex in zip(preds, examples)])
        rows.append({"variant": variant, "precision": report.precision,
                     "recall": report.recall, "f1": report.f1})
    base = rows[0]["f1"]
    for row in rows:
        row["delta_f1"] = row["f1"] - base
    return rows


def ablation_report_lines(rows: list[dict]) -> list[str]:
    out = ["variant\tprecision\trecall\tf1\tdelta_f1"]
    for row in rows:
        out.append(f"{row['variant']}\t{row['precision']:.4f}\t{row['recall']:.4f}"
                   f"\t{row['f1']:.4f}\t{row['delta_f1']:+.4f}")
    return out


def cmd_ablate(args) -> int:
    values = resolve_config(args.config, args.set)
    log_config(values)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoints = {}
    for variant in ABLATIONS:
        path = out_dir / f"{variant}.p2sq"
        print(f"training variant {variant}", file=sys.stderr)
        run_training({**values, "ablation": variant}, args.data_prefix, str(path),
                     quiet=True)
        checkpoints[variant] = str(path)
    test_ex = read_dataset(f"{args.data_prefix}.test.c2s")
    rows = ablation_report(checkpoints, test_ex)
    lines = ablation_report_lines(rows)
    (out_dir / "ablation_report.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="path2seq",
                                     description="AST-path sequence prediction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one configuration key")

    p = sub.add_parser("preprocess", help="parse a corpus into dataset files")
    p.add_argument("src_dir")
    p.add_argument("out_prefix")
    p.add_argument("--dump-ast-dir", help="also write masked trees in text form")
    common(p)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("train", help="train a model on a preprocessed dataset")
    p.add_argument("data_prefix")
    p.add_argument("out", help="checkpoint path (best by validation metric)")
    p.add_argument("--resume", help="continue from a .last checkpoint")
    p.add_argument("--ablation", choices=ABLATIONS,
                   help="model variant to train (shorthand for --set ablation=...)")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="predict names for source code or dataset lines")
    p.add_argument("checkpoint")
    p.add_argument("--input", default="-", help="file path or - for stdin")
    p.add_argument("--format", choices=("auto", "source", "c2s"), default="auto")
    p.add_argument("--beam", type=int, default=1)
    p.add_argument("--explain", type=int, default=0, metavar="N",
                   help="show the top-N attended contexts per decoded subtoken")
    common(p)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="decode a dataset and score it")
    p.add_argument("checkpoint")
    p.add_argument("dataset", help="a .c2s dataset file")
    p.add_argument("--task", choices=("f1", "bleu"),
                   help="metric to report (shorthand for --set task=...)")
    p.add_argument("--out", required=True, help="prefix for the dump and report files")
    p.add_argument("--traces", type=int, default=0, metavar="N",
                   help="also write an attention-trace sidecar with top-N contexts")
    p.add_argument("--by-length", action="store_true",
                   help="append an F1-by-context-count table to the report")
    common(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("ablate", help="train all model variants and tabulate them")
    p.add_argument("data_prefix")
    p.add_argument("out_dir")
    common(p)
    p.set_defaults(fn=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Path2SeqError as exc:
        print(f"error: {exc.report()}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
