import struct
import zlib

import numpy as np
import pytest

from helpers import record_context_samples, tiny_setup, toy_examples
from path2seq import numerics as nx
from path2seq.errors import Path2SeqError
from path2seq.storage import CorruptFile, VersionMismatch, read_records, write_records
from path2seq.training import (DataError, DivergenceError, TrainConfig, TrainState,
                               checkpoint, fixed_samples_for, make_rng, restore,
                               train, train_epoch, validate)
from path2seq.paths import ExtractionConfig


def quick_tcfg(**kw):
    base = dict(lr0=0.05, batch_size=4, max_epochs=5, seed=7, patience=999)
    base.update(kw)
    return TrainConfig(**base)


class TestSchedule:
    def test_lr_after_each_epoch(self):
        examples, vocabs, cfg, params = tiny_setup()
        tcfg = TrainConfig(batch_size=4, max_epochs=4, seed=1, patience=99)
        state, history = train(examples, [], params, cfg, tcfg)
        for log in history:
            assert abs(log.lr - 0.01 * 0.95 ** log.epoch) < 1e-12
        assert history[1].lr == pytest.approx(0.009025, abs=1e-15)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(ablation="nope")


class TestDeterminism:
    def test_identical_loss_trajectory(self):
        def run():
            examples, vocabs, cfg, params = tiny_setup(
                input_dropout=0.25, recurrent_dropout=0.5)
            tcfg = quick_tcfg(max_epochs=3)
            state, history = train(examples, [], params, cfg, tcfg)
            return [h.mean_loss for h in history], params

        losses_a, params_a = run()
        losses_b, params_b = run()
        assert losses_a == losses_b
        for pa, pb in zip(params_a.parameters(), params_b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_empty_dataset_rejected(self):
        examples, vocabs, cfg, params = tiny_setup()
        with pytest.raises(DataError):
            train_epoch([], params, cfg, quick_tcfg(), TrainState(current_lr=0.01),
                        make_rng(0))


class TestDivergence:
    def test_nan_loss_aborts_with_diagnostic(self):
        examples, vocabs, cfg, params = tiny_setup()
        params.W_in.data[...] = np.inf
        state = TrainState(current_lr=0.01)
        nx.DEBUG = False
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as err:
            train_epoch(examples, params, cfg, quick_tcfg(), state, make_rng(0))
        assert "epoch" in str(err.value)


class TestValidate:
    def test_perfect_stub_scores_one(self):
        pairs = [(["get", "x"], ["get", "x"])]
        from path2seq.metrics import corpus_f1
        assert corpus_f1(pairs).f1 == 1.0

    def test_trained_model_validation_matches_offline_metric(self):
        examples, vocabs, cfg, params = tiny_setup(
            seed=3, d_nodes=16, d_tokens=16, d_hidden=16, d_target=16, d_path=16,
            d_decoder=16, k=5)
        tcfg = TrainConfig(lr0=0.12, batch_size=4, max_epochs=10, seed=7, patience=99)
        train(examples, [], params, cfg, tcfg)
        from path2seq.decoding import greedy_decode
        from path2seq.metrics import corpus_f1
        offline = corpus_f1([(greedy_decode(ex, params, cfg).subtokens, ex.target)
                             for ex in examples]).f1
        assert validate(examples, params, cfg, "f1") == pytest.approx(offline)

    def test_no_parameter_mutation(self):
        examples, vocabs, cfg, params = tiny_setup()
        before = [p.data.copy() for p in params.parameters()]
        validate(examples, params, cfg, "f1")
        for p, b in zip(params.parameters(), before):
            assert np.array_equal(p.data, b)

    def test_bleu_task(self):
        examples, vocabs, cfg, params = tiny_setup()
        score = validate(examples, params, cfg, "bleu")
        assert 0.0 <= score <= 100.0

    def test_empty_prediction_stub_scores_zero(self):
        from path2seq.metrics import corpus_f1
        assert corpus_f1([([], ["get", "x"]), ([], ["set"])]).f1 == 0.0


class TestGradClip:
    def test_clip_caps_update_magnitude(self):
        examples, vocabs, cfg, params = tiny_setup()
        before = [p.data.copy() for p in params.parameters()]
        tcfg = quick_tcfg(max_epochs=1, grad_clip=1e-9, momentum=0.0)
        train(examples, [], params, cfg, tcfg)
        moved = sum(float(np.abs(p.data - b).max())
                    for p, b in zip(params.parameters(), before))
        assert moved < 1e-6  # a tiny clip norm freezes training

    def test_clip_off_by_default(self):
        assert TrainConfig().grad_clip is None


class TestNoRandom:
    def test_fixed_samples_identical_across_epochs(self, monkeypatch):
        # give examples more contexts than k so sampling actually chooses
        base = toy_examples()
        for ex in base:
            ex.contexts = ex.contexts * 3  # 9 contexts, k=3
        examples, vocabs, cfg, params = tiny_setup(base, ablation="no_random")
        tcfg = quick_tcfg(max_epochs=3, ablation="no_random")
        calls = record_context_samples(monkeypatch)
        train(examples, [], params, cfg, tcfg)
        seen: dict[tuple[int, int], tuple[int, ...]] = {}
        epochs_per_example: dict[int, set] = {}
        for n, (_, example_index, chosen) in enumerate(calls):
            epoch = n // len(examples)  # each epoch visits every example once
            seen[(epoch, example_index)] = chosen
            epochs_per_example.setdefault(example_index, set()).add(epoch)
        assert len(epochs_per_example) == len(examples)
        for example_index, epochs in epochs_per_example.items():
            assert len(epochs) == 3
            picks = {tuple(seen[(e, example_index)]) for e in epochs}
            assert len(picks) == 1  # same contexts every epoch

    def test_fresh_sampling_differs_between_epochs(self, monkeypatch):
        base = toy_examples()
        for ex in base:
            ex.contexts = ex.contexts * 3
        examples, vocabs, cfg, params = tiny_setup(base)
        tcfg = quick_tcfg(max_epochs=4)
        calls = record_context_samples(monkeypatch)
        train(examples, [], params, cfg, tcfg)
        seen = {}
        for _, example_index, chosen in calls:
            seen.setdefault(example_index, []).append(chosen)
        assert any(len(set(picks)) > 1 for picks in seen.values())

    def test_fixed_samples_deterministic(self):
        examples = toy_examples()
        a = fixed_samples_for(examples, 2, seed=5)
        b = fixed_samples_for(examples, 2, seed=5)
        assert a == b


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        examples, vocabs, cfg, params = tiny_setup()
        rng = make_rng(3)
        rng.random(17)  # advance
        for p in params.parameters():
            p.momentum[...] = np.random.default_rng(1).standard_normal(p.data.shape)
        state = TrainState(epoch=4, global_step=17, current_lr=0.0081, best_val=0.5)
        path = tmp_path / "model.p2sq"
        tcfg = quick_tcfg()
        ecfg = ExtractionConfig(max_path_length=7, max_paths_per_example=11, rng_seed=3)
        checkpoint(path, params, state, rng, tcfg, ecfg)
        params2, state2, rng2, tcfg2, ecfg2 = restore(path)
        assert state2 == state
        assert tcfg2 == tcfg
        assert ecfg2 == ecfg
        assert rng2.bit_generator.state == rng.bit_generator.state
        assert params2.vocabs.to_dict() == params.vocabs.to_dict()
        for pa, pb in zip(params.parameters(), params2.parameters()):
            assert pa.name == pb.name
            assert np.array_equal(pa.data, pb.data)
            assert np.array_equal(pa.momentum, pb.momentum)

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        def fresh():
            return tiny_setup(input_dropout=0.25, recurrent_dropout=0.5)

        # straight 5-epoch run
        examples, vocabs, cfg, params = fresh()
        tcfg = quick_tcfg(max_epochs=5)
        state, history = train(examples, [], params, cfg, tcfg)
        straight = [h.mean_loss for h in history]

        # 3 epochs, checkpoint, restore, 2 more
        examples2, _, cfg2, params2 = fresh()
        tcfg_a = quick_tcfg(max_epochs=3)
        state2 = TrainState(current_lr=tcfg_a.lr0)
        rng2 = make_rng(tcfg_a.seed)
        _, hist_a = train(examples2, [], params2, cfg2, tcfg_a, state=state2, rng=rng2)
        path = tmp_path / "resume.p2sq"
        checkpoint(path, params2, state2, rng2, quick_tcfg(max_epochs=5),
                   ExtractionConfig())
        params3, state3, rng3, tcfg3, _ = restore(path)
        _, hist_b = train(examples2, [], params3, cfg2, tcfg3, state=state3, rng=rng3)
        resumed = [h.mean_loss for h in hist_a] + [h.mean_loss for h in hist_b]
        assert resumed == straight

    def test_truncated_file(self, tmp_path):
        examples, vocabs, cfg, params = tiny_setup()
        path = tmp_path / "model.p2sq"
        checkpoint(path, params, TrainState(current_lr=0.01), make_rng(0),
                   quick_tcfg(), None)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptFile):
            restore(path)

    def test_corrupted_byte(self, tmp_path):
        examples, vocabs, cfg, params = tiny_setup()
        path = tmp_path / "model.p2sq"
        checkpoint(path, params, TrainState(current_lr=0.01), make_rng(0),
                   quick_tcfg(), None)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFile):
            restore(path)

    def test_rejected_setting_is_corrupt_file(self, tmp_path):
        # a setting TrainConfig rejects, such as the gradient-ascent clip
        # norm -1 that older versions accepted, is reported, not raised raw
        examples, vocabs, cfg, params = tiny_setup()
        tcfg = quick_tcfg()
        tcfg.grad_clip = -1.0
        path = tmp_path / "model.p2sq"
        checkpoint(path, params, TrainState(current_lr=0.01), make_rng(0), tcfg, None)
        with pytest.raises(CorruptFile, match="grad_clip must be > 0"):
            restore(path)

    @pytest.mark.parametrize("shape", [(1,), (2, 2)])
    def test_momentum_of_wrong_shape_is_corrupt_file(self, tmp_path, shape):
        # a (1,) buffer would broadcast into the whole momentum, a (2, 2)
        # one would fail the copy with a bare ValueError
        examples, vocabs, cfg, params = tiny_setup()
        path = tmp_path / "model.p2sq"
        checkpoint(path, params, TrainState(current_lr=0.01), make_rng(0), quick_tcfg(), None)
        write_records(path, [(name, np.ones(shape) if name == "momentum/W_in" else value)
                             for name, value in read_records(path)])
        with pytest.raises(CorruptFile, match="momentum/W_in"):
            restore(path)

    def test_lstm_records_hold_one_gate_matrix_and_bias(self, tmp_path):
        examples, vocabs, cfg, params = tiny_setup(d_decoder=6)
        path = tmp_path / "model.p2sq"
        checkpoint(path, params, TrainState(current_lr=0.01), make_rng(0), quick_tcfg(), None)
        records = dict(read_records(path))
        for cell, width, in_size in (("path_fwd", cfg.d_path, cfg.d_nodes),
                                     ("path_bwd", cfg.d_path, cfg.d_nodes),
                                     ("decoder", 6, cfg.d_target)):
            assert records[f"param/{cell}/W"].shape == (in_size + width, 4 * width)
            assert records[f"param/{cell}/b"].shape == (4 * width,)
            assert not [name for name in records if name.startswith(f"param/{cell}/")
                        and name not in (f"param/{cell}/W", f"param/{cell}/b")]

    def test_version_one_file_is_version_mismatch(self, tmp_path):
        # version 1 held four gate matrices and biases per LSTM
        examples, vocabs, cfg, params = tiny_setup()
        path = tmp_path / "model.p2sq"
        checkpoint(path, params, TrainState(current_lr=0.01), make_rng(0), quick_tcfg(), None)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch, match="format version 1, expected 2"):
            restore(path)

    def test_every_bit_flip_is_reported(self, tmp_path):
        path = tmp_path / "small.p2sq"
        write_records(path, [("W", np.arange(6.0).reshape(2, 3)), ("meta", b"{}")])
        blob = path.read_bytes()
        for pos in range(len(blob)):
            want = "version-mismatch" if 4 <= pos < 8 else "corrupt-file"
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[pos] ^= 1 << bit
                path.write_bytes(bytes(flipped))
                with pytest.raises(Path2SeqError) as caught:
                    read_records(path)
                assert caught.value.kind == want, (pos, bit, caught.value)

    def test_oversized_dims_with_valid_checksum_is_corrupt_file(self, tmp_path):
        # dims whose product wraps around in 64 bits must not pass as empty
        path = tmp_path / "dims.p2sq"
        write_records(path, [("W", np.zeros((2, 2)))])
        blob = bytearray(path.read_bytes())
        dims_at = 12 + 4 + 1 + 2  # header, name length, name "W", tag and rank
        blob[dims_at: dims_at + 16] = struct.pack("<QQ", 2 ** 62, 4)
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[12:-4])))
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFile, match="truncated"):
            read_records(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.p2sq"
        write_records(path, [("x", np.zeros(2))])
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version field
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            read_records(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.p2sq"
        path.write_bytes(b"hello world")
        with pytest.raises(CorruptFile):
            read_records(path)


class TestEarlyStopping:
    def test_stops_after_patience(self):
        examples, vocabs, cfg, params = tiny_setup()
        # an lr0 too small to change any prediction keeps the validation
        # metric constant, so it improves only once
        tcfg = quick_tcfg(max_epochs=50, patience=2, lr0=1e-12, momentum=0.0)
        state, history = train(examples, examples[:2], params, cfg, tcfg)
        assert len(history) < 50

    def test_best_flag_fires_on_improvement(self):
        examples, vocabs, cfg, params = tiny_setup(
            seed=3, d_nodes=16, d_tokens=16, d_hidden=16, d_target=16, d_path=16,
            d_decoder=16, k=5)
        flags = []
        tcfg = TrainConfig(lr0=0.12, batch_size=4, max_epochs=8, seed=7, patience=99)
        train(examples, examples[:4], params, cfg, tcfg,
              on_epoch=lambda log, best: flags.append(best))
        assert any(flags)
