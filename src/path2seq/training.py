"""Minibatch training loop: seeded shuffling, per-iteration path
resampling, Nesterov momentum with a per-epoch learning-rate decay,
validation-driven early stopping and bit-exact checkpointing.

One master random generator drives shuffling, path sampling and dropout;
its state rides along in every checkpoint, so a restored run reproduces
the uninterrupted one exactly.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .decoding import greedy_decode
from .errors import Path2SeqError
from .metrics import corpus_f1, smoothed_bleu
from .model import (ABLATIONS, ModelConfig, ModelParams, choose_context_indices,
                    forward_loss)
from .paths import Example, ExtractionConfig
from .storage import (CorruptFile, decode_string_list, encode_string_list,
                      read_records, write_records)
from .vocab import Vocabularies


class DivergenceError(Path2SeqError):
    kind = "numeric-divergence"


class DataError(Path2SeqError):
    kind = "data-error"


@dataclass
class TrainConfig:
    lr0: float = 0.01
    lr_decay: float = 0.95      # multiplied in once per epoch
    momentum: float = 0.95
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 5           # epochs without validation improvement
    seed: int = 0
    ablation: str = "full"
    task: str = "f1"            # validation metric: f1 or bleu
    grad_clip: float | None = None  # off by default; opt-in only

    def __post_init__(self):
        if not self.lr0 > 0.0:
            raise ValueError("lr0 must be > 0")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {self.ablation!r}")
        if self.task not in ("f1", "bleu"):
            raise ValueError("task must be f1 or bleu")
        if self.grad_clip is not None and not self.grad_clip > 0.0:
            raise ValueError("grad_clip must be > 0 or none")

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class TrainState:
    epoch: int = 0
    global_step: int = 0
    current_lr: float = 0.01
    best_val: float = -math.inf

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def fixed_samples_for(examples: list[Example], k: int, seed: int) -> list[list[int]]:
    """One context sample per example, drawn once up front; used instead of
    fresh per-iteration samples under the no_random variant."""
    out = []
    for ex in examples:
        rng = np.random.default_rng((seed, ex.index, 7229))
        out.append(choose_context_indices(len(ex.contexts), k, rng, training=True))
    return out


def train_epoch(examples: list[Example], params: ModelParams, mcfg: ModelConfig,
                tcfg: TrainConfig, state: TrainState, rng: np.random.Generator,
                fixed_samples: list[list[int]] | None = None) -> float:
    """One pass over the data in seeded-shuffled order; one optimizer step
    per batch at the current learning rate. Returns the mean example loss
    and then decays the learning rate for the next epoch."""
    if not examples:
        raise DataError("training dataset is empty")
    order = rng.permutation(len(examples))
    total_loss = 0.0
    for begin in range(0, len(order), tcfg.batch_size):
        batch = order[begin: begin + tcfg.batch_size]
        nx.zero_grads(params.parameters())
        for ei in batch:
            ex = examples[ei]
            if fixed_samples is not None:
                ctx_idx = fixed_samples[ei]
            else:
                ctx_idx = choose_context_indices(len(ex.contexts), mcfg.k, rng,
                                                 training=True)
            loss = forward_loss(ex, params, mcfg, rng, training=True,
                                context_indices=ctx_idx)
            value = float(loss.data)
            if not math.isfinite(value):
                raise DivergenceError(
                    f"non-finite loss at epoch {state.epoch}, step {state.global_step}, "
                    f"example {ex.index}")
            nx.backward(loss, seed=1.0 / len(batch))
            total_loss += value
        if tcfg.grad_clip is not None:
            _clip_grads(params.parameters(), tcfg.grad_clip)
        for p in params.parameters():
            nx.nesterov_update(p, state.current_lr, tcfg.momentum)
        state.global_step += 1
    state.epoch += 1
    state.current_lr = tcfg.lr0 * tcfg.lr_decay ** state.epoch
    return total_loss / len(examples)


def _clip_grads(params, max_norm: float):
    total = math.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params))
    if total > max_norm:
        scale = max_norm / total
        for p in params:
            p.grad *= scale


def validate(examples: list[Example], params: ModelParams, mcfg: ModelConfig,
             task: str = "f1") -> float:
    """Greedy-decode every example and score the task metric. Parameters
    are not touched."""
    preds = [greedy_decode(ex, params, mcfg) for ex in examples]
    if task == "bleu":
        report = smoothed_bleu([p.subtokens for p in preds],
                               [[ex.target] for ex in examples])
        return report.bleu
    report = corpus_f1([(p.subtokens, ex.target) for p, ex in zip(preds, examples)])
    return report.f1


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    lr: float
    val_metric: float
    seconds: float

    def line(self) -> str:
        return f"{self.epoch}\t{self.mean_loss:.6f}\t{self.lr:.12f}\t" \
               f"{self.val_metric:.6f}\t{self.seconds:.2f}"


def train(train_examples: list[Example], val_examples: list[Example],
          params: ModelParams, mcfg: ModelConfig, tcfg: TrainConfig,
          state: TrainState | None = None, rng: np.random.Generator | None = None,
          on_epoch=None) -> tuple[TrainState, list[EpochLog]]:
    """Run up to max_epochs from the given state, early-stopping after
    `patience` epochs without validation improvement. `on_epoch(log, best)`
    fires after every epoch; `best` is True when the validation metric
    improved (hook for saving the best checkpoint)."""
    if state is None:
        state = TrainState(current_lr=tcfg.lr0)
    if rng is None:
        rng = make_rng(tcfg.seed)
    fixed = None
    if tcfg.ablation == "no_random":
        fixed = fixed_samples_for(train_examples, mcfg.k, tcfg.seed)
    history = []
    stale = 0
    while state.epoch < tcfg.max_epochs:
        started = time.perf_counter()
        mean_loss = train_epoch(train_examples, params, mcfg, tcfg, state, rng,
                                fixed_samples=fixed)
        val_metric = validate(val_examples, params, mcfg, tcfg.task) \
            if val_examples else float("nan")
        log = EpochLog(epoch=state.epoch, mean_loss=mean_loss, lr=state.current_lr,
                       val_metric=val_metric, seconds=time.perf_counter() - started)
        history.append(log)
        improved = val_examples and (val_metric > state.best_val)
        if improved:
            state.best_val = val_metric
            stale = 0
        elif val_examples:
            stale += 1
        if on_epoch is not None:
            on_epoch(log, bool(improved))
        if val_examples and stale >= tcfg.patience:
            break
    return state, history


# --- checkpointing ---
#
# A checkpoint captures everything a resumed run needs: model and train
# configuration, vocabularies, every parameter value and momentum buffer,
# the train state and the master generator state. restore(checkpoint(x))
# is bitwise identity on all tensors and the generator.

def checkpoint(path, params: ModelParams, state: TrainState, rng: np.random.Generator,
               tcfg: TrainConfig, ecfg: ExtractionConfig | None = None):
    meta = {
        "ablation": params.ablation,
        "model": params.cfg.to_dict(),
        "train": tcfg.to_dict(),
        "extraction": {
            "max_path_length": ecfg.max_path_length,
            "max_paths_per_example": ecfg.max_paths_per_example,
            "rng_seed": ecfg.rng_seed,
        } if ecfg is not None else None,
    }
    records: list[tuple[str, object]] = [
        ("meta/config", json.dumps(meta, sort_keys=True).encode("utf-8")),
        ("meta/state", json.dumps(state.to_dict(), sort_keys=True).encode("utf-8")),
        ("meta/rng", json.dumps(rng.bit_generator.state, sort_keys=True).encode("utf-8")),
    ]
    for name, symbols in sorted(params.vocabs.to_dict().items()):
        records.append((f"vocab/{name}", encode_string_list(symbols)))
    for p in params.parameters():
        records.append((f"param/{p.name}", p.data))
    for p in params.parameters():
        records.append((f"momentum/{p.name}", p.momentum))
    write_records(path, records)


def restore(path) -> tuple[ModelParams, TrainState, np.random.Generator,
                           TrainConfig, ExtractionConfig | None]:
    records = dict(read_records(path))

    def need(name):
        if name not in records:
            raise CorruptFile(f"{path}: missing record {name!r}")
        return records[name]

    meta = json.loads(need("meta/config").decode("utf-8"))
    vocabs = Vocabularies.from_dict(
        {name: decode_string_list(need(f"vocab/{name}")) for name in Vocabularies.FIELDS})
    try:
        mcfg = ModelConfig(**meta["model"])
        tcfg = TrainConfig(**meta["train"])
        ecfg = ExtractionConfig(**meta["extraction"]) if meta.get("extraction") else None
    except ValueError as exc:
        raise CorruptFile(f"{path}: record 'meta/config' holds a rejected value: {exc}") from exc
    params = ModelParams(mcfg, vocabs, ablation=meta["ablation"], seed=0)

    def need_like(name, target: np.ndarray):
        value = need(name)
        shape = getattr(value, "shape", None)
        if shape != target.shape:
            raise CorruptFile(f"{path}: record {name} has shape {shape}, "
                              f"expected {target.shape}")
        target[...] = value

    for p in params.parameters():
        need_like(f"param/{p.name}", p.data)
        need_like(f"momentum/{p.name}", p.momentum)
    state_dict = json.loads(need("meta/state").decode("utf-8"))
    state = TrainState(**state_dict)
    rng = np.random.default_rng()
    rng.bit_generator.state = json.loads(need("meta/rng").decode("utf-8"))
    return params, state, rng, tcfg, ecfg
