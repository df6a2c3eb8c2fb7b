"""Training tests: split and shuffle determinism, Adam against an
independent scalar trace and bit for bit against the out-of-place update,
end-to-end reproducibility, and learning on a separable synthetic corpus."""

import io

import numpy as np
import pytest

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
from _oracles import reference_adam_step, scalar_adam_trace


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
        p = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([p])
        before = p.data.copy()
        p.grad = np.zeros_like(p.data)
        opt.step()
        assert np.array_equal(p.data, before)
        assert opt.timestep == 1

    def test_zero_gradient_after_a_nonzero_step_still_moves_the_parameter(self):
        p = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([p], learning_rate=0.1)
        p.grad = np.array([0.5, -0.5])
        opt.step()
        for grad in (np.zeros(2), None):
            before = p.data.copy()
            p.grad = grad
            opt.step()
            # the momentum of the first step keeps pushing the same way
            assert p.data[0] < before[0] and p.data[1] > before[1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_update_equals_the_reference_bit_for_bit(self, dtype):
        rng = np.random.default_rng(5)
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        params = [
            T.Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
            for shape in ((3, 4), (4,), (2, 2), ())
        ]
        opt = Adam(params, learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
        state = [(p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)) for p in params]
        for step in range(1, 7):
            for i, p in enumerate(params):
                # parameter 2 has no gradient except on steps 2 and 3
                has_grad = i != 2 or step in (2, 3)
                p.grad = rng.standard_normal(p.shape).astype(dtype) if has_grad else None
            state = [
                reference_adam_step(data, p.grad, m, v, step, lr, b1, b2, eps)
                for (data, m, v), p in zip(state, params)
            ]
            opt.step()
            for p, (data, _, _) in zip(params, state):
                assert p.data.dtype == dtype and p.data.shape == data.shape
                assert np.array_equal(p.data, data)

    def test_first_step_is_signed_learning_rate(self):
        p = T.Tensor(np.array([0.0, 0.0], dtype=np.float64), requires_grad=True)
        lr = 1e-3
        opt = Adam([p], learning_rate=lr)
        p.grad = np.array([0.5, -2.0])
        opt.step()
        np.testing.assert_allclose(p.data, [-lr, lr], rtol=1e-6)

    def test_matches_independent_scalar_trace(self):
        start, lr, b1, b2, eps = 3.0, 0.1, 0.9, 0.999, 1e-8
        p = T.Tensor(np.array([start], dtype=np.float64), requires_grad=True)
        opt = Adam([p], learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
        grads = []
        observed = []
        for _ in range(3):
            g = 2.0 * float(p.data[0])  # gradient of the quadratic w^2
            grads.append(g)
            p.grad = np.array([g])
            opt.step()
            observed.append(float(p.data[0]))
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
        assert run.final_val_accuracy >= 0.95
        assert run.epochs[2].mean_loss < run.epochs[0].mean_loss
        assert len(run.epochs) == 3
        assert run.total_seconds > 0

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

    def test_accuracy_helper(self, separable_setup):
        config, train_set, val_set = separable_setup
        model = init_model(config)
        value = accuracy(model, val_set)
        assert 0.0 <= value <= 1.0
