"""path2seq benchmark: one seeded workload through the whole toolkit.

    python3 perfbench/run.py --workload templated-short --seed 1 --seconds 35 --trace 0

Generates the workload's MiniJ corpus from the seed, then runs the
library's public entry points in one process: preprocess (the
`preprocess` command, in-process) -> training.train_epoch ->
decoding.greedy_decode -> decoding.beam_decode(width 3) ->
training.checkpoint / restore, with the default model (d=128, decoder
320, k=200, batch 32, `full` variant, float64). Every output is checked;
each check is one operation in `attempted`, and a failed one counts in
`failed`.

Measurement. After set-up, a fixed number of training steps on one
32-example batch from the seeded initial model gives `train_loss` and the
model every decode uses, so the loss and all predictions are bitwise
repeatable at one seed. Then units of identical work run until
`--seconds` have passed, interleaved so that every phase is sampled
across the whole run: preprocess passes over a fixed part of the
corpus, a training step on the same batch, a greedy and a beam pass over
fixed examples, checkpoint writes and reads. Each rate uses the median of
its unit's repeats, each latency percentile is over examples (each the
median of its repeats), and set-up time is the median of several set-ups.
Vocabulary ids of the examples used are cached before timing, so units
measure steady-state work. The collector is frozen at the start of every
unit, so a unit's garbage collections scan only what it allocated, as in
a fresh `path2seq` process, and not the benchmark's own long-lived data.

--trace 0 prints the end-to-end metrics. --trace 1 runs one fixed round
(the training prefix plus one unit of every other phase) untraced, traced
(see spans.py) and untraced again, and prints the per-layer metrics of the
traced round and the tracing overhead against the mean untraced round.
The last stdout line is one JSON object; a copy with the environment and
details goes to .perfbench_out/.
"""

from __future__ import annotations

import os

# Fixed BLAS thread count, set before numpy loads its BLAS.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import GENERATORS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 5
BEAM_WIDTH = 3
CHECK_SAMPLE = 4  # examples decoded by the trained snapshot for the checks
METHODS_PER_FILE = 16
MODULES = ("errors", "cli", "paths", "vocab", "model", "numerics", "decoding",
           "training", "storage", "metrics")


@dataclass(frozen=True)
class Workload:
    methods: int          # corpus size
    tiny_methods: int     # corpus size of a --tiny smoke run
    timed_methods: int    # methods per timed preprocess pass
    preprocess_passes: int  # timed preprocess passes per unit
    checkpoint_repeats: int  # checkpoint writes (and reads) per unit
    loss_batches: int     # training steps before the decoder snapshot
    greedy_examples: int  # examples per greedy pass
    beam_examples: int    # examples per beam pass
    # Passes and repeats make every unit last a few tenths of a second: the
    # host's speed changes on that time scale, and a unit that spans the
    # changes is timed at their mean instead of at one of them.
    # Share of the measured time each phase gets; the training prefix
    # counts. A 32-example training step takes seconds on the heavier
    # workloads, so training gets more of their time.
    shares: tuple = (("preprocess", 0.25), ("train", 0.35), ("greedy", 0.15),
                     ("beam", 0.15), ("checkpoint", 0.10))


WORKLOADS = {
    "templated-short": Workload(methods=320, tiny_methods=24, timed_methods=320,
                                preprocess_passes=3, checkpoint_repeats=4, loss_batches=4,
                                greedy_examples=32, beam_examples=16),
    "long-methods": Workload(methods=40, tiny_methods=6, timed_methods=11,
                             preprocess_passes=1, checkpoint_repeats=8, loss_batches=2,
                             greedy_examples=8, beam_examples=8,
                             shares=(("preprocess", 0.15), ("train", 0.6), ("greedy", 0.1),
                                     ("beam", 0.1), ("checkpoint", 0.05))),
    "wide-vocab": Workload(methods=1200, tiny_methods=40, timed_methods=150,
                           preprocess_passes=1, checkpoint_repeats=2, loss_batches=2,
                           greedy_examples=32, beam_examples=3,
                           shares=(("preprocess", 0.15), ("train", 0.5), ("greedy", 0.15),
                                   ("beam", 0.12), ("checkpoint", 0.08))),
}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
                print(f"check failed: {what}", file=sys.stderr)


def stratified(examples: list, n: int) -> list:
    """n examples evenly spaced in context-count order, so a fixed-size
    sample has nearly the same size mix at every seed."""
    order = sorted(range(len(examples)), key=lambda i: (len(examples[i].contexts), i))
    n = min(n, len(examples))
    return [examples[order[int((j + 0.5) * len(order) / n)]] for j in range(n)]


def import_package() -> SimpleNamespace:
    """A fresh import of the package, so set-up pays the import cost."""
    for name in [m for m in sys.modules if m == "path2seq" or m.startswith("path2seq.")]:
        del sys.modules[name]
    importlib.import_module("path2seq.cli")
    return SimpleNamespace(**{m: sys.modules[f"path2seq.{m}"] for m in MODULES})


class Bench:
    def __init__(self, workload: str, seed: int, tiny: bool, work: Path):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.n_methods = self.spec.tiny_methods if tiny else self.spec.methods
        self.n_timed = min(self.spec.timed_methods, self.n_methods)
        self.work = work
        self.corpus = work / "corpus"
        self.prefix = work / "data"
        self.timed_corpus = work / "timed-corpus"
        self.timed_prefix = work / "timed"
        self.checks = Checks()
        self.P = None
        self.times = {k: [] for k in ("preprocess", "train", "greedy", "beam", "write", "read")}
        self.reference: dict = {}  # first outcome of each repeated operation
        self.preprocessed = False
        self.tracer: Tracer | None = None

    # --- set-up ---

    def generate_corpus(self):
        """The corpus, and the copy of an evenly spaced (by source length)
        part of it that timed preprocess passes read, so one pass is short
        and holds the same size mix at every seed."""
        sources = GENERATORS[self.name](self.n_methods, self.seed)
        order = sorted(range(len(sources)), key=lambda i: (len(sources[i]), i))
        timed = [sources[order[int((j + 0.5) * len(order) / self.n_timed)]]
                 for j in range(self.n_timed)]
        for corpus, methods in ((self.corpus, sources), (self.timed_corpus, timed)):
            shutil.rmtree(corpus, ignore_errors=True)
            corpus.mkdir(parents=True)
            for i in range(0, len(methods), METHODS_PER_FILE):
                chunk = methods[i: i + METHODS_PER_FILE]
                (corpus / f"m{i // METHODS_PER_FILE:04d}.mnj").write_text(
                    "\n".join(chunk) + "\n", encoding="utf-8")

    def preprocess(self, corpus: Path, prefix: Path) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.P.cli.main(["preprocess", str(corpus), str(prefix),
                                    "--set", f"seed={self.seed}"])
        if code != 0:
            raise RuntimeError(f"preprocess failed:\n{err.getvalue()}")
        return err.getvalue()

    def load(self) -> SimpleNamespace:
        P = self.P
        splits = {s: P.paths.read_dataset(f"{self.prefix}.{s}.c2s")
                  for s in ("train", "val", "test")}
        vocabs = P.vocab.Vocabularies.load(f"{self.prefix}.vocab.json")
        return SimpleNamespace(vocabs=vocabs, **splits)

    def init_model(self, vocabs) -> SimpleNamespace:
        P = self.P
        mcfg = P.model.ModelConfig()
        tcfg = P.training.TrainConfig(seed=self.seed)
        return SimpleNamespace(
            mcfg=mcfg, tcfg=tcfg,
            ecfg=P.paths.ExtractionConfig(rng_seed=self.seed),
            params=P.model.ModelParams(mcfg, vocabs, seed=self.seed),
            state=P.training.TrainState(current_lr=tcfg.lr0),
            rng=P.training.make_rng(self.seed))

    def setup(self) -> float:
        """Corpus generation, package import, vocabulary and dataset load and
        parameter init; the first call also preprocesses (not timed)."""
        t0 = time.perf_counter()
        self.generate_corpus()
        self.P = import_package()
        t1 = time.perf_counter()
        if not self.preprocessed:
            self.check_preprocess(self.preprocess(self.corpus, self.prefix))
            self.preprocessed = True
        t2 = time.perf_counter()
        data = self.load()
        self.init_model(data.vocabs)
        return (t1 - t0) + (time.perf_counter() - t2)

    def warm_up(self):
        """Touch every code path once on throwaway state before timing."""
        P = self.P
        data = self.load()
        model = self.init_model(data.vocabs)
        pool = data.val + data.test + data.train
        P.training.train_epoch(pool[:2], model.params, model.mcfg, model.tcfg,
                               model.state, model.rng)
        P.decoding.greedy_decode(pool[0], model.params, model.mcfg)
        P.decoding.beam_decode(pool[0], model.params, model.mcfg, beam_width=BEAM_WIDTH)
        path = self.work / "warm.p2sq"
        P.training.checkpoint(path, model.params, model.state, model.rng, model.tcfg, model.ecfg)
        P.training.restore(path)
        path.unlink()

    # --- checks ---

    def dataset_lines(self, prefix: Path) -> list[str]:
        lines = []
        for split in ("train", "val", "test"):
            with open(f"{prefix}.{split}.c2s", encoding="utf-8") as fh:
                lines.extend(line.rstrip("\n") for line in fh if line.strip())
        return lines

    def check_preprocess(self, log: str):
        P = self.P
        lines = self.dataset_lines(self.prefix)
        skips = [line for line in log.splitlines() if line.startswith("skip:")]
        for i in range(self.n_methods):
            self.checks.record(i < len(lines), f"{self.n_methods - len(lines)} methods "
                                               f"did not parse: {skips[:3]}")
        for i, line in enumerate(lines):
            again = P.paths.format_example(P.paths.parse_example_line(line, index=i))
            self.checks.record(again == line, f"dataset line {i} does not round-trip")

    def check_same(self, key, value, what: str):
        """The first value seen for `key` is the reference for later ones."""
        if key in self.reference:
            self.checks.record(self.reference[key] == value, f"{what} differs on repeat")
        else:
            self.reference[key] = value

    def check_prediction(self, pred, what: str):
        bad = {"<PAD>", "<SOS>"} & set(pred.subtokens)
        self.checks.record(not bad and len(pred.subtokens) <= self.model.mcfg.max_target_len,
                           f"{what}: bad prediction {pred.subtokens[:12]}")

    # --- units ---

    def start(self):
        """Fresh datasets and model, then the fixed training prefix whose
        mean loss is `train_loss`; decoding and checkpoints use a snapshot
        of the model at that point."""
        P = self.P
        self.data = self.load()
        self.model = self.init_model(self.data.vocabs)
        pool = self.data.val + self.data.test + self.data.train
        self.greedy_set = stratified(pool, self.spec.greedy_examples)
        self.beam_set = stratified(pool, self.spec.beam_examples)
        self.train_batch = stratified(self.data.train, self.model.tcfg.batch_size)
        # vocabulary ids are encoded once per example and cached; do it
        # here so every timed unit repeats identical steady-state work
        for ex in self.train_batch + self.greedy_set + self.beam_set:
            P.model.ensure_ids(ex, self.data.vocabs)
        losses = [self.train_unit() for _ in range(self.spec.loss_batches)]
        self.train_loss = float(np.mean(losses))
        self.check_same("train_loss", self.train_loss, "training-prefix loss")
        model = self.model
        self.decoder = P.model.ModelParams(model.mcfg, self.data.vocabs, seed=self.seed)
        for mine, theirs in zip(self.decoder.parameters(), model.params.parameters()):
            mine.data[...] = theirs.data
            mine.momentum[...] = theirs.momentum
        self.decoder_state = (P.training.TrainState(**model.state.to_dict()),
                              P.training.make_rng(0))
        self.decoder_state[1].bit_generator.state = model.rng.bit_generator.state
        with self.tracer.paused() if self.tracer else contextlib.nullcontext():
            self.check_decoding()
        # A briefly trained model stops after anywhere from 0 to
        # max_target_len subtokens depending on the seed, which would swing
        # decode cost tenfold. With W_s zero every step's distribution is
        # uniform, so greedy stops at its first step (EOS wins the tie) and
        # beam search keeps two live hypotheses to the length cap: fixed
        # work per example, with every op still at full size.
        self.decoder.W_s.data[...] = 0.0

    def check_decoding(self):
        """Repeatability and beam width 1 against greedy on the trained
        snapshot, before its output layer is flattened."""
        P, cfg = self.P, self.model.mcfg
        for i, ex in enumerate(self.greedy_set[:CHECK_SAMPLE]):
            first = P.decoding.greedy_decode(ex, self.decoder, cfg)
            again = P.decoding.greedy_decode(ex, self.decoder, cfg)
            self.check_prediction(first, f"greedy example {i}")
            self.checks.record((first.subtokens, first.score) == (again.subtokens, again.score),
                               f"greedy example {i} differs on repeat")
            self.check_same(("trained greedy", i), (first.subtokens, first.score),
                            f"greedy example {i} after a fresh start")
            beam1 = P.decoding.beam_decode(ex, self.decoder, cfg, beam_width=1)
            self.checks.record(len(beam1) == 1 and (beam1[0].subtokens, beam1[0].score)
                               == (first.subtokens, first.score),
                               f"beam width 1 differs from greedy on example {i}")

    def preprocess_unit(self):
        """`preprocess_passes` passes; the unit's time is per pass."""
        seconds = 0.0
        for _ in range(self.spec.preprocess_passes):
            gc.freeze()
            t = time.perf_counter()
            self.preprocess(self.timed_corpus, self.timed_prefix)
            seconds += time.perf_counter() - t
            lines = self.dataset_lines(self.timed_prefix)
            self.checks.record(len(lines) == self.n_timed,
                               f"timed preprocess kept {len(lines)} of {self.n_timed} methods")
            self.check_same("timed preprocess", lines, "timed preprocess output")
        self.times["preprocess"].append(seconds / self.spec.preprocess_passes)

    def train_unit(self) -> float:
        m = self.model
        gc.freeze()
        t = time.perf_counter()
        loss = self.P.training.train_epoch(self.train_batch, m.params, m.mcfg, m.tcfg,
                                           m.state, m.rng)
        self.times["train"].append(time.perf_counter() - t)
        self.checks.record(bool(np.isfinite(loss)), f"training batch loss {loss}")
        return loss

    def greedy_unit(self):
        P, cfg = self.P, self.model.mcfg
        seconds, pairs = [], []
        gc.freeze()
        for i, ex in enumerate(self.greedy_set):
            t = time.perf_counter()
            pred = P.decoding.greedy_decode(ex, self.decoder, cfg)
            seconds.append(time.perf_counter() - t)
            pairs.append((pred.subtokens, ex.target))
            self.check_prediction(pred, f"greedy example {i}")
            self.check_same(("greedy", i), (pred.subtokens, pred.score), f"greedy example {i}")
        P.metrics.corpus_f1(pairs)
        self.times["greedy"].append(seconds)

    def beam_unit(self):
        seconds = []
        gc.freeze()
        for i, ex in enumerate(self.beam_set):
            t = time.perf_counter()
            preds = self.P.decoding.beam_decode(ex, self.decoder, self.model.mcfg,
                                                beam_width=BEAM_WIDTH)
            seconds.append(time.perf_counter() - t)
            scores = [p.normalized_score for p in preds]
            self.checks.record(0 < len(preds) <= BEAM_WIDTH
                               and scores == sorted(scores, reverse=True),
                               f"beam example {i}: bad hypothesis list")
            for pred in preds:
                self.check_prediction(pred, f"beam example {i}")
            self.check_same(("beam", i), [(p.subtokens, p.score) for p in preds],
                            f"beam example {i}")
        self.times["beam"].append(seconds)

    def checkpoint_unit(self):
        """`checkpoint_repeats` writes, then a read of each; the unit's
        times are per write and per read."""
        P, m = self.P, self.model
        state, rng = self.decoder_state
        n = self.spec.checkpoint_repeats
        # fresh files, removed below before the kernel writes them back:
        # rewriting one path would make each write wait on the disk
        # writeback of the one before
        paths = [self.work / f"model{len(self.times['write'])}-{i}.p2sq" for i in range(n)]
        write = read = 0.0
        for path in paths:
            gc.freeze()
            t = time.perf_counter()
            P.training.checkpoint(path, self.decoder, state, rng, m.tcfg, m.ecfg)
            write += time.perf_counter() - t
        for path in paths:
            gc.freeze()
            t = time.perf_counter()
            restored = P.training.restore(path)
            read += time.perf_counter() - t
            self.checkpoint_mb = path.stat().st_size / 1e6
            path.unlink()
            ok = [p.name for p in restored[0].parameters()] == \
                [p.name for p in self.decoder.parameters()]
            for a, b in zip(self.decoder.parameters(), restored[0].parameters()):
                ok = ok and a.data.tobytes() == b.data.tobytes() \
                    and a.momentum.tobytes() == b.momentum.tobytes()
            ok = ok and restored[1].to_dict() == state.to_dict() \
                and restored[2].bit_generator.state == rng.bit_generator.state
            self.checks.record(ok, "restore(checkpoint(x)) is not bitwise identical")
            del restored
        self.times["write"].append(write / n)
        self.times["read"].append(read / n)

    def units(self) -> dict:
        return {"preprocess": self.preprocess_unit, "train": self.train_unit,
                "greedy": self.greedy_unit, "beam": self.beam_unit,
                "checkpoint": self.checkpoint_unit}

    def measure(self, seconds: float):
        """The training prefix, one unit of every other phase, then more
        units until `seconds` have passed: each time the phase furthest
        below its share of the time so far, if its last unit fits in what
        is left, so every phase is sampled across the whole run."""
        clock = time.perf_counter
        shares = dict(self.spec.shares)
        begin = clock()
        self.start()
        used = {name: 0.0 for name in shares}
        used["train"] = clock() - begin
        last = {"train": used["train"] / self.spec.loss_batches}
        for name, unit in self.units().items():
            if name != "train":
                t = clock()
                unit()
                last[name] = clock() - t
                used[name] += last[name]
        while True:
            left = seconds - (clock() - begin)
            fits = [name for name in shares if last[name] <= left]
            if not fits:
                break
            name = min(fits, key=lambda n: used[n] / shares[n])
            t = clock()
            self.units()[name]()
            last[name] = clock() - t
            used[name] += last[name]

    def round(self) -> float:
        """The training prefix plus one unit of every other phase: fixed
        work, for tracing."""
        begin = time.perf_counter()
        self.start()
        for name, unit in self.units().items():
            if name != "train":
                unit()
        return time.perf_counter() - begin


def median(seconds, axis=None):
    return np.median(np.asarray(seconds), axis=axis)


def end_to_end(bench: Bench, setup_times: list[float]) -> dict:
    t = bench.times
    # rates from the median pass; latency percentiles over examples, each
    # the median of its repeats
    greedy = median(t["greedy"], axis=0) * 1e3
    greedy_pass = median(np.sum(t["greedy"], axis=1))
    beam_pass = median(np.sum(t["beam"], axis=1))
    batch = len(bench.train_batch)
    return {
        "setup_s": (float(median(setup_times)), "s"),
        "preprocess_methods_per_s": (bench.n_timed / median(t["preprocess"]), "1/s"),
        "train_examples_per_s": (batch / median(t["train"]), "1/s"),
        "train_loss": (bench.train_loss, "nats"),
        "greedy_examples_per_s": (len(greedy) / greedy_pass, "1/s"),
        "greedy_latency_p50_ms": (float(np.percentile(greedy, 50)), "ms"),
        "greedy_latency_p95_ms": (float(np.percentile(greedy, 95)), "ms"),
        "beam_examples_per_s": (len(bench.beam_set) / beam_pass, "1/s"),
        "checkpoint_write_mb_per_s": (bench.checkpoint_mb / median(t["write"]), "MB/s"),
        "checkpoint_read_mb_per_s": (bench.checkpoint_mb / median(t["read"]), "MB/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, bench: Bench, overhead_s: float, untraced_s: float) -> dict:
    spans = tracer.summary()
    counts = {**tracer.counts, **tracer.maxima}

    def s(name, key="s"):
        return (spans.get(name, {}).get(key, 0.0), "s")

    def calls(name):
        return (spans.get(name, {}).get("calls", 0), "count")

    def ratio(num, den):
        return (counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0, "ratio")

    out = {name + ".s": s(name) for name in (
        "cli.cmd_preprocess", "cli.load_corpus", "minij.parse_method", "paths.build_example",
        "paths.format_example", "paths.parse_example_line", "vocab.build_vocabularies",
        "model.ensure_ids", "model.encode_example", "numerics.lstm_step",
        "model.forward_loss", "training.train_epoch", "numerics.backward",
        "numerics.nesterov_update", "model.decode_step", "decoding.greedy_decode",
        "decoding.beam_decode", "training.checkpoint", "training.restore",
        "storage.write_records", "storage.read_records", "metrics.corpus_f1")}
    for op in ("mm", "vm", "mv", "embedding", "embedding_bag_sum", "lerp_mask", "concat"):
        out[f"numerics.bw.{op}.s"] = s(f"numerics.bw.{op}")
    out["numerics.backward.self_s"] = s("numerics.backward", "self_s")
    out["decoding.beam_decode.self_s"] = s("decoding.beam_decode", "self_s")
    out["numerics.lstm_step.calls"] = calls("numerics.lstm_step")
    out["numerics.lstm_step.rows"] = (counts.get("numerics.lstm_step.rows", 0), "count")
    out["model.decode_step.calls"] = calls("model.decode_step")
    backward_calls = spans.get("numerics.backward", {}).get("calls", 0)
    out["numerics.graph_nodes"] = (
        counts.get("numerics.graph_nodes", 0) / backward_calls if backward_calls else 0.0,
        "count/example")
    out["paths.contexts_extracted"] = (counts.get("paths.contexts_extracted", 0), "count")
    out["paths.contexts_per_method.max"] = (counts.get("paths.contexts_per_method.max", 0),
                                            "count")
    out["paths.context_use_ratio"] = ratio("model.contexts_consumed", "model.contexts_available")
    out["model.path_rows_unique_ratio"] = ratio("model.path_rows_unique", "model.path_rows")
    out["vocab.source.size"] = (len(bench.data.vocabs.source), "count")
    out["vocab.target.size"] = (len(bench.data.vocabs.target), "count")
    out["storage.bytes"] = (counts.get("storage.bytes", 0), "B")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.overhead_ratio"] = (overhead_s / untraced_s, "ratio")
    return out


def print_shares(tracer: Tracer, metrics: dict):
    """Where each phase's time went, as shares of the phase's traced time."""
    def value(name):
        return metrics[name][0]

    rows = [
        ("paths.build_example in preprocess", value("paths.build_example.s"),
         value("cli.cmd_preprocess.s")),
        ("numerics.backward in training", value("numerics.backward.s"),
         value("training.train_epoch.s")),
        ("model.forward_loss in training", value("model.forward_loss.s"),
         value("training.train_epoch.s")),
        ("numerics.nesterov_update in training", value("numerics.nesterov_update.s"),
         value("training.train_epoch.s")),
    ]
    for phase in ("greedy_decode", "beam_decode"):
        total = value(f"decoding.{phase}.s")
        for layer in ("model.encode_example", "model.decode_step"):
            rows.append((f"{layer} in {phase}", tracer.within(layer, f"decoding.{phase}"), total))
    rows.append(("decoding.beam_decode self in beam_decode",
                 value("decoding.beam_decode.self_s"), value("decoding.beam_decode.s")))
    for label, part, whole in rows:
        print(f"share {label:44s} {part / whole if whole else 0.0:6.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny corpus for a quick smoke run")
    args = parser.parse_args(argv)
    if not (SRC / "path2seq" / "__init__.py").is_file():
        print(f"perfbench: no path2seq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, args.tiny, work)
    try:
        setup_times = [bench.setup() for _ in range(1 if args.trace else SETUP_REPS)]
        bench.warm_up()
        if args.trace:
            # untraced rounds before and after the traced one, so a steady
            # drift in machine speed cancels out of the overhead
            before = bench.round()
            tracer = bench.tracer = Tracer()
            tracer.install()
            try:
                traced_s = bench.round()
            finally:
                tracer.uninstall()
                bench.tracer = None
            untraced_s = (before + bench.round()) / 2
            metrics = per_layer(tracer, bench, traced_s - untraced_s, untraced_s)
            print_shares(tracer, metrics)
            tracer.save(OUT / f"{tag}.spans.npz")
        else:
            bench.measure(args.seconds)
            metrics = end_to_end(bench, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = bench.checks
    error_rate = checks.failed / checks.attempted if checks.attempted else 1.0
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(f"{'error_rate':32s} {error_rate:14.6g} ratio "
          f"({checks.failed} failed of {checks.attempted} checked operations)")
    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    repeats = {k: len(v) for k, v in bench.times.items()}
    print(f"repeats per unit: {repeats}; greedy latency percentiles over "
          f"{len(bench.greedy_set)} examples, each the median of its repeats")
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "tiny": args.tiny, "environment": env,
               "error_rate": error_rate, "check_failures": checks.messages,
               "setup_s": setup_times, "unit_seconds": bench.times, "result": result}
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
