"""Training tests: split and shuffle determinism, Adam against an
independent scalar trace and bit for bit against the out-of-place update,
end-to-end reproducibility, and learning on a separable synthetic corpus."""

import io
import math
import weakref

import numpy as np
import pytest

import minibert.model as model_module
import minibert.training as training_module
from minibert import tensor as T
from minibert.corpus import SyntheticSpec, generate_synthetic
from minibert.errors import ConfigError, TrainingError
from minibert.model import ModelConfig, init_model
from minibert.tokenizer import build_vocab, encode
from minibert.training import (
    Adam,
    TrainConfig,
    accuracy,
    shuffle_epoch,
    split_dataset,
    train,
)
from _oracles import reference_adam_step, reference_train, scalar_adam_trace


class TestSplitDataset:
    def test_sizes_union_and_disjointness(self):
        items = list(range(10))
        train_part, val_part = split_dataset(items, 0.8, split_seed=3)
        assert len(train_part) == 8 and len(val_part) == 2
        assert sorted(train_part + val_part) == items
        assert not set(train_part) & set(val_part)

    def test_deterministic(self):
        items = list(range(20))
        assert split_dataset(items, 0.7, 9) == split_dataset(items, 0.7, 9)

    def test_ceiling_rule(self):
        train_part, val_part = split_dataset(list(range(7)), 0.5, 1)
        assert (len(train_part), len(val_part)) == (4, 3)

    def test_too_few_examples(self):
        with pytest.raises(ValueError, match="at least 2"):
            split_dataset([1], 0.5, 0)

    @pytest.mark.parametrize(
        "n, ratio, message",
        [(1, 0.5, "need at least 2 examples to split, got 1"),
         (10, 0.95, "split_ratio 0.95 of 10 examples leaves the validation set empty"),
         (2, 0.51, "split_ratio 0.51 of 2 examples leaves the validation set empty"),
         (5, 1e-12, "split_ratio 1e-12 of 5 examples leaves the training set empty")],
    )
    def test_an_empty_part_is_a_config_error(self, n, ratio, message):
        with pytest.raises(ConfigError) as err:
            split_dataset(list(range(n)), ratio, 0)
        assert str(err.value) == message

    def test_the_largest_ratio_that_keeps_one_validation_example(self):
        train_part, val_part = split_dataset(list(range(10)), 0.9, 0)
        assert (len(train_part), len(val_part)) == (9, 1)


class TestShuffleEpoch:
    def test_epochs_give_different_permutations(self):
        items = list(range(10))
        assert shuffle_epoch(items, 5, 0) != shuffle_epoch(items, 5, 1)

    def test_singleton_identity(self):
        assert shuffle_epoch([42], 5, 0) == [42]

    def test_always_a_permutation(self):
        items = list(range(17))
        for epoch in range(5):
            assert sorted(shuffle_epoch(items, 11, epoch)) == items

    def test_reproducible_per_pair(self):
        items = list(range(8))
        assert shuffle_epoch(items, 2, 3) == shuffle_epoch(items, 2, 3)


class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        data = np.array([1.0, -2.0])
        opt = Adam(data)
        opt.step(np.zeros(2))
        assert np.array_equal(data, [1.0, -2.0])
        assert opt.timestep == 1

    def test_zero_gradient_after_a_nonzero_step_still_moves_the_parameter(self):
        config = ModelConfig(
            vocab_size=10, hidden_dim=4, num_layers=1, num_heads=2, ff_dim=8,
            max_seq_len=8, num_classes=2,
        )
        model = init_model(config)
        opt = Adam(model.flat, learning_rate=0.1)
        rng = np.random.default_rng(3)
        for p in model.params.values():
            p.grad[...] = rng.standard_normal(p.shape)
        first = model.grad.copy()
        opt.step(model.grad)
        model.zero_grad()
        for _ in range(2):
            before = model.flat.copy()
            opt.step(model.grad)
            # the momentum of the first step keeps pushing each entry the same way
            assert np.array_equal(np.sign(model.flat - before), -np.sign(first))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_update_equals_the_reference_bit_for_bit(self, dtype):
        rng = np.random.default_rng(5)
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        shapes = ((3, 4), (4,), (2, 2), ())
        state = [
            (rng.standard_normal(shape).astype(dtype), np.zeros(shape, dtype), np.zeros(shape, dtype))
            for shape in shapes
        ]
        flat = np.concatenate([data.ravel() for data, _, _ in state])
        opt = Adam(flat, learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
        splits = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
        for step in range(1, 7):
            # parameter 2 has no gradient except on steps 2 and 3
            grads = [
                rng.standard_normal(shape).astype(dtype) if i != 2 or step in (2, 3) else None
                for i, shape in enumerate(shapes)
            ]
            state = [
                reference_adam_step(data, grad, m, v, step, lr, b1, b2, eps)
                for (data, m, v), grad in zip(state, grads)
            ]
            opt.step(np.concatenate([
                np.zeros(math.prod(shape), dtype) if grad is None else grad.ravel()
                for shape, grad in zip(shapes, grads)
            ]))
            assert opt.data is flat and flat.dtype == dtype
            for chunk, shape, (data, _, _) in zip(np.split(flat, splits), shapes, state):
                assert np.array_equal(chunk.reshape(shape), data)

    def test_first_step_is_signed_learning_rate(self):
        data = np.array([0.0, 0.0], dtype=np.float64)
        lr = 1e-3
        opt = Adam(data, learning_rate=lr)
        opt.step(np.array([0.5, -2.0]))
        np.testing.assert_allclose(data, [-lr, lr], rtol=1e-6)

    def test_matches_independent_scalar_trace(self):
        start, lr, b1, b2, eps = 3.0, 0.1, 0.9, 0.999, 1e-8
        data = np.array([start], dtype=np.float64)
        opt = Adam(data, learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
        grads = []
        observed = []
        for _ in range(3):
            g = 2.0 * float(data[0])  # gradient of the quadratic w^2
            grads.append(g)
            opt.step(np.array([g]))
            observed.append(float(data[0]))
        expected = scalar_adam_trace(grads, start, lr, b1, b2, eps)
        np.testing.assert_allclose(observed, expected, atol=1e-10)


@pytest.fixture(scope="module")
def separable_setup():
    spec = SyntheticSpec.balanced(
        num_examples=220, num_classes=2, noise_rate=0.0, seed=7, tokens_per_text=(3, 8)
    )
    corpus = generate_synthetic(spec)
    train_records, val_records = split_dataset(corpus.records, 0.8, split_seed=5)
    vocab = build_vocab([t for t, _ in train_records], max_size=200)
    config = ModelConfig(
        vocab_size=len(vocab), hidden_dim=16, num_layers=1, num_heads=2,
        ff_dim=32, max_seq_len=12, num_classes=2, init_seed=1,
    )
    train_set = [encode(t, vocab, 12, l) for t, l in train_records]
    val_set = [encode(t, vocab, 12, l) for t, l in val_records]
    return config, train_set, val_set


class TestTrain:
    def test_config_validation(self):
        with pytest.raises(ConfigError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError, match="split_ratio"):
            TrainConfig(split_ratio=1.5)

    def test_learns_separable_corpus(self, separable_setup):
        config, train_set, val_set = separable_setup
        model = init_model(config)
        # the corpus is tiny (11 batches per epoch), so use a hotter step size
        run = train(
            model, train_set, val_set,
            TrainConfig(epochs=3, learning_rate=1e-2, shuffle_seed=3),
        )
        assert run.epochs[-1].val_accuracy >= 0.95
        assert run.epochs[2].mean_loss < run.epochs[0].mean_loss
        assert len(run.epochs) == 3
        assert run.total_seconds > 0

    def test_steps_equal_per_tensor_gradients_and_updates_bit_for_bit(self, separable_setup):
        config, train_set, val_set = separable_setup
        # 20 examples in batches of 8: three steps per epoch, the last one partial
        subset = train_set[:20]
        train_config = TrainConfig(epochs=2, batch_size=8, learning_rate=1e-2, shuffle_seed=4)
        expected = reference_train(init_model(config), subset, train_config)
        model = train(init_model(config), subset, val_set, train_config).model
        assert model.flat.dtype == np.float32
        for name, p in model.params.items():
            assert np.array_equal(p.data, expected[name]), name

    def test_validation_seconds_lie_inside_each_epoch(self, separable_setup):
        config, train_set, val_set = separable_setup
        run = train(init_model(config), train_set, val_set, TrainConfig(epochs=2))
        for epoch in run.epochs:
            assert 0 <= epoch.validation_seconds <= epoch.seconds
        assert sum(epoch.seconds for epoch in run.epochs) <= run.total_seconds

    def test_bitwise_reproducible(self, separable_setup):
        config, train_set, val_set = separable_setup
        cfg = TrainConfig(epochs=2, shuffle_seed=8)
        first = train(init_model(config), train_set, val_set, cfg)
        second = train(init_model(config), train_set, val_set, cfg)
        for name, p in first.model.named_parameters():
            assert np.array_equal(p.data, second.model.params[name].data), name
        assert [e.mean_loss for e in first.epochs] == [e.mean_loss for e in second.epochs]
        assert [e.val_accuracy for e in first.epochs] == [
            e.val_accuracy for e in second.epochs
        ]

    def test_empty_sets_rejected(self, separable_setup):
        config, train_set, val_set = separable_setup
        with pytest.raises(ValueError, match="nonempty"):
            train(init_model(config), [], val_set, TrainConfig())

    def test_log_stream_gets_one_line_per_epoch(self, separable_setup):
        config, train_set, val_set = separable_setup
        stream = io.StringIO()
        train(
            init_model(config),
            train_set[:20],
            val_set[:5],
            TrainConfig(epochs=2, shuffle_seed=1),
            log_stream=stream,
            log_prefix="member=0 ",
        )
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("member=0 epoch=1 mean_loss=")
        assert "val_accuracy=" in lines[0] and "seconds=" in lines[1]

    def test_error_context_names_epoch_and_batch(self, separable_setup):
        config, train_set, val_set = separable_setup
        model = init_model(config)
        # poison one parameter shape after construction to force a failure
        model.params["head.out_w"].data = np.zeros((3, 3), dtype=np.float32)
        with pytest.raises(TrainingError, match=r"epoch 1, batch 0"):
            train(model, train_set, val_set, TrainConfig(epochs=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("poison", [np.inf, np.nan])
    def test_non_finite_loss_stops_training(self, separable_setup, poison):
        config, train_set, val_set = separable_setup
        model = init_model(config)
        model.params["head.out_w"].data[:] = poison
        before = model.params["layer0.q_w"].data.copy()
        with pytest.raises(TrainingError, match=r"epoch 1, batch 0: loss is (nan|inf)"):
            train(model, train_set, val_set, TrainConfig(epochs=1))
        assert np.array_equal(model.params["layer0.q_w"].data, before)

    def test_batches_reach_forward_trimmed(self, separable_setup):
        config, train_set, val_set = separable_setup
        model = init_model(config)
        widths = []
        forward = model.forward

        def recording_forward(token_ids, segment_ids, attention_mask):
            assert attention_mask[:, -1].any()  # no all-PAD trailing column
            widths.append(attention_mask.shape[1])
            return forward(token_ids, segment_ids, attention_mask)

        model.forward = recording_forward
        train(model, train_set, val_set, TrainConfig(epochs=1))
        assert max(widths) < config.max_seq_len

    def test_no_earlier_step_graph_is_alive_at_a_forward(self, separable_setup):
        """Each step's graph is freed once its loss is read: no earlier
        training logits survive to the next training forward or to any
        validation forward."""
        config, train_set, val_set = separable_setup
        model = init_model(config)
        steps = []  # weak references to each training forward's logits
        alive = []  # (training?, earlier training logits alive) per forward
        forward = model.forward

        def recording_forward(token_ids, segment_ids, attention_mask):
            alive.append((T.grad_enabled(), sum(ref() is not None for ref in steps)))
            logits = forward(token_ids, segment_ids, attention_mask)
            if T.grad_enabled():
                # Tensor has no __weakref__ slot; its ndarray does
                steps.append(weakref.ref(logits.data))
            return logits

        model.forward = recording_forward
        # 20 examples in batches of 8: three steps, then validation, per epoch
        train(model, train_set[:20], val_set, TrainConfig(epochs=2, batch_size=8))
        assert alive == [(True, 0)] * 3 + [(False, 0)] + [(True, 0)] * 3 + [(False, 0)]

    def test_train_pins_the_allocator_before_its_first_step(self, separable_setup, monkeypatch):
        config, train_set, val_set = separable_setup
        model = init_model(config)
        events = []
        forward = model.forward

        def recording_forward(*args):
            events.append("forward")
            return forward(*args)

        model.forward = recording_forward
        monkeypatch.setattr(training_module, "pin_allocator", lambda: events.append("pin"))
        train(model, train_set[:20], val_set, TrainConfig(epochs=1, batch_size=8))
        assert events == ["pin"] + ["forward"] * 4

    def test_each_set_is_stacked_once_per_call(self, separable_setup, monkeypatch):
        config, train_set, val_set = separable_setup
        stacked = []
        stack = model_module.stack_examples

        def recording_stack(examples):
            stacked.append(len(examples))
            return stack(examples)

        monkeypatch.setattr(model_module, "stack_examples", recording_stack)
        train(init_model(config), train_set, val_set, TrainConfig(epochs=3))
        assert stacked == [len(train_set), len(val_set)]

    def test_accuracy_helper(self, separable_setup):
        config, train_set, val_set = separable_setup
        model = init_model(config)
        value = accuracy(model, val_set)
        assert 0.0 <= value <= 1.0
