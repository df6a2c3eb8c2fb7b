"""Model tests: deterministic initialization, closed-form parameter
counts, embedding sums, a step-by-step scalar recomputation of one
encoder layer, [CLS]-head classification properties, padding isolation,
and the masked-token corruption procedure."""

import dataclasses
import math

import numpy as np
import pytest

import minibert.model as model_module
from minibert import tensor as T
from minibert.errors import ConfigError
from minibert.model import (
    MaskedBatch,
    MaskingPolicy,
    ModelConfig,
    apply_mlm_mask,
    init_model,
    mlm_pretrain_loss,
    parameter_count,
    stack_examples,
    trim_padding,
)
from minibert.tokenizer import CLS_ID, MASK_ID, PAD_ID, SEP_ID, build_vocab, encode
from _oracles import scalar_gelu, scalar_layer_norm, scalar_softmax

TINY = ModelConfig(
    vocab_size=10, hidden_dim=4, num_layers=1, num_heads=2, ff_dim=8,
    max_seq_len=8, num_classes=2, init_seed=0,
)


@pytest.fixture
def vocab():
    return build_vocab(["alpha beta gamma delta epsilon zeta"], max_size=24)


def batch_for(texts, vocab, max_seq_len=8, labels=None):
    labels = labels or [0] * len(texts)
    return [encode(t, vocab, max_seq_len, l) for t, l in zip(texts, labels)]


class TestInit:
    def test_same_seed_is_bit_identical(self):
        a = init_model(TINY)
        b = init_model(TINY)
        for name, p in a.named_parameters():
            assert np.array_equal(p.data, b.params[name].data), name

    def test_different_seed_differs(self):
        a = init_model(TINY)
        b = init_model(dataclasses.replace(TINY, init_seed=99))
        assert any(
            not np.array_equal(p.data, b.params[name].data)
            for name, p in a.named_parameters()
        )

    def test_parameter_count_matches_hand_summed_shapes(self):
        # vocab=10, hidden=4, layers=1, heads=2, ff=8, seq=8, classes=2
        word, seg, pos = 10 * 4, 2 * 4, 8 * 4
        attention = 4 * (4 * 4 + 4)
        layer_norms = 2 * (4 + 4)
        feed_forward = (4 * 8 + 8) + (8 * 4 + 4)
        head = (4 * 4 + 4) + (4 * 2 + 2)
        expected = word + seg + pos + attention + layer_norms + feed_forward + head
        assert parameter_count(TINY) == expected
        model = init_model(TINY)
        assert sum(p.size for p in model.parameters()) == expected

    def test_zero_scale_gives_zero_weights(self):
        model = init_model(dataclasses.replace(TINY, init_seed=1, init_scale=0.0))
        for name, p in model.named_parameters():
            if name.endswith("_g"):
                assert np.array_equal(p.data, np.ones_like(p.data)), name
            else:
                assert np.array_equal(p.data, np.zeros_like(p.data)), name

    def test_depth_count_monotonic_with_constant_delta(self):
        counts = [
            parameter_count(dataclasses.replace(TINY, num_layers=n)) for n in (1, 3, 12)
        ]
        assert counts[0] < counts[1] < counts[2]
        per_layer = (counts[1] - counts[0]) / 2
        assert counts[2] - counts[1] == per_layer * 9

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(vocab_size=10, hidden_dim=6, num_heads=4)
        with pytest.raises(ConfigError, match="num_classes"):
            ModelConfig(vocab_size=10, num_classes=1)
        with pytest.raises(ConfigError, match="num_layers"):
            ModelConfig(vocab_size=10, num_layers=0)


class TestEmbed:
    def test_zero_segment_and_position_leaves_word_rows(self):
        model = init_model(TINY)
        model.params["embed.segment"].data[:] = 0
        model.params["embed.position"].data[:] = 0
        ids = np.array([[1, 3, 5, 7]])
        out = model.embed(ids, np.zeros_like(ids))
        np.testing.assert_array_equal(out.data[0], model.params["embed.word"].data[ids[0]])

    def test_zero_word_and_segment_leaves_position_prefix(self):
        model = init_model(TINY)
        model.params["embed.word"].data[:] = 0
        model.params["embed.segment"].data[:] = 0
        ids = np.array([[1, 3, 5]])
        out = model.embed(ids, np.zeros_like(ids))
        np.testing.assert_array_equal(out.data[0], model.params["embed.position"].data[:3])

    def test_random_tables_sum_recomputed_independently(self):
        model = init_model(TINY)
        ids = np.array([[2, 9, 4, 6]])
        segs = np.array([[0, 0, 1, 1]])
        out = model.embed(ids, segs)
        position = 3
        expected = (
            model.params["embed.word"].data[ids[0, position]]
            + model.params["embed.segment"].data[segs[0, position]]
            + model.params["embed.position"].data[position]
        )
        np.testing.assert_allclose(out.data[0, position], expected, rtol=1e-6)

    def test_out_of_range_id_rejected(self):
        model = init_model(TINY)
        with pytest.raises(ValueError, match="out of range"):
            model.embed(np.array([[99]]), np.array([[0]]))


def scalar_encoder_layer(x, mask, params, num_heads, prefix="layer0."):
    """Independent loop-based recomputation of one encoder block."""
    S, H = x.shape
    hd = H // num_heads

    def affine(rows, w, b):
        return [
            [sum(rows[s][d] * w[d][j] for d in range(len(rows[s]))) + b[j]
             for j in range(len(b))]
            for s in range(len(rows))
        ]

    def p(name):
        return params[prefix + name].data.tolist()

    q = affine(x.tolist(), p("q_w"), p("q_b"))
    k = affine(x.tolist(), p("k_w"), p("k_b"))
    v = affine(x.tolist(), p("v_w"), p("v_b"))

    context = [[0.0] * H for _ in range(S)]
    for h in range(num_heads):
        lo, hi = h * hd, (h + 1) * hd
        for s in range(S):
            scores = []
            for t in range(S):
                dot = sum(q[s][e] * k[t][e] for e in range(lo, hi))
                bias = 0.0 if mask[t] else -1e9
                scores.append(dot / math.sqrt(hd) + bias)
            weights = scalar_softmax(scores)
            for e in range(lo, hi):
                context[s][e] = sum(weights[t] * v[t][e] for t in range(S))

    attended = affine(context, p("out_w"), p("out_b"))
    summed = [[x[s][d] + attended[s][d] for d in range(H)] for s in range(S)]
    h1 = [scalar_layer_norm(row, p("ln1_g"), p("ln1_b")) for row in summed]

    ff_hidden = [[scalar_gelu(value) for value in row] for row in affine(h1, p("ff1_w"), p("ff1_b"))]
    ff_out = affine(ff_hidden, p("ff2_w"), p("ff2_b"))
    summed2 = [[h1[s][d] + ff_out[s][d] for d in range(H)] for s in range(S)]
    return [scalar_layer_norm(row, p("ln2_g"), p("ln2_b")) for row in summed2]


class TestEncoderLayer:
    def test_single_position_attention_weight_is_exactly_one(self):
        model = init_model(dataclasses.replace(TINY, max_seq_len=1))
        x = model.embed(np.array([[2]]), np.array([[0]]))
        _, weights = model.encoder_layer(x, np.array([[1]]), 0, return_attention=True)
        assert weights.shape == (1, 2, 1, 1)
        assert np.all(weights == 1.0)

    def test_pad_keys_get_negligible_weight(self, vocab):
        model = init_model(TINY)
        examples = batch_for(["alpha beta", "gamma"], vocab)
        ids, segs, mask = stack_examples(examples)
        x = model.embed(ids, segs)
        _, weights = model.encoder_layer(x, mask, 0, return_attention=True)
        pad_keys = mask == 0  # (B, S)
        assert weights[pad_keys[:, None, None, :] & np.ones(weights.shape, bool)].max() < 1e-6
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)

    def test_matches_scalar_recomputation(self, vocab):
        model = init_model(TINY)
        examples = batch_for(["alpha beta gamma", "delta"], vocab)
        ids, segs, mask = stack_examples(examples)
        x = model.embed(ids, segs)
        out = model.encoder_layer(x, mask, 0)
        for row in range(len(examples)):
            expected = scalar_encoder_layer(
                x.data[row].astype(np.float64), mask[row], model.params, TINY.num_heads
            )
            np.testing.assert_allclose(out.data[row], expected, atol=1e-5)


class TestForwardClassify:
    def test_batched_equals_single(self, vocab):
        model = init_model(TINY)
        examples = batch_for(["alpha beta", "gamma delta epsilon"], vocab)
        batched = model.logits(examples).data
        singles = np.concatenate([model.logits([e]).data for e in examples])
        np.testing.assert_allclose(batched, singles, atol=1e-6)

    def test_zero_head_gives_zero_logits(self, vocab):
        model = init_model(TINY)
        model.params["head.out_w"].data[:] = 0
        model.params["head.out_b"].data[:] = 0
        logits = model.logits(batch_for(["alpha"], vocab)).data
        assert np.array_equal(logits, np.zeros_like(logits))

    def test_argmax_invariant_under_constant_logit_shift(self, vocab):
        model = init_model(TINY)
        examples = batch_for(["alpha beta gamma"], vocab)
        logits = model.logits(examples).data
        prediction = model.predict(examples)
        assert prediction[0] == np.argmax(logits[0])
        assert np.argmax(logits[0] + 123.45) == prediction[0]

    def test_padding_isolation(self, vocab):
        model = init_model(TINY)
        base = batch_for(["alpha beta"], vocab)[0]
        ids, segs, mask = stack_examples([base])
        reference = model.forward(ids, segs, mask).data

        mutated = ids.copy()
        pad_positions = np.where(np.array(base.attention_mask) == 0)[0]
        assert pad_positions.size > 0
        mutated[0, pad_positions] = 7  # arbitrary content id at PAD slots
        changed = model.forward(mutated, segs, mask).data
        np.testing.assert_allclose(changed, reference, atol=1e-6)

    def test_deterministic(self, vocab):
        model = init_model(TINY)
        examples = batch_for(["alpha beta gamma"], vocab)
        first = model.logits(examples).data
        second = model.logits(examples).data
        assert np.array_equal(first, second)

    def test_forward_and_backward_stay_finite(self, vocab):
        model = init_model(TINY)
        examples = batch_for(["alpha beta", "gamma delta epsilon"], vocab, labels=[0, 1])
        logits = model.logits(examples)
        assert np.isfinite(logits.data).all()
        loss = T.cross_entropy(logits, np.array([0, 1]))
        loss.backward()
        for name, p in model.named_parameters():
            assert p.grad is not None and np.isfinite(p.grad).all(), name


class TestTrimPadding:
    @pytest.mark.parametrize(
        "mask, width",
        [
            ([[1, 1, 1], [1, 1, 1]], 3),  # all real: nothing to cut
            ([[1, 1, 0, 0], [1, 0, 0, 0]], 2),
            ([[1, 0, 1, 0, 0], [1, 0, 0, 0, 0]], 3),  # interior zero column stays
            ([[0, 0, 0]], 3),  # nothing attended: left as given
        ],
    )
    def test_cuts_after_last_used_column(self, mask, width):
        mask = np.array(mask)
        ids = np.arange(mask.size).reshape(mask.shape)
        segs = np.ones_like(mask)
        trimmed = trim_padding(ids, segs, mask)
        for full, cut in zip((ids, segs, mask), trimmed):
            assert np.array_equal(cut, full[:, :width])

    def test_logits_equal_untrimmed_forward(self, vocab):
        model = init_model(dataclasses.replace(TINY, vocab_size=len(vocab)))
        examples = batch_for(["alpha beta", "gamma"], vocab)
        ids, segs, mask = stack_examples(examples)
        assert trim_padding(ids, segs, mask)[0].shape[1] < ids.shape[1]
        np.testing.assert_allclose(
            model.logits(examples).data, model.forward(ids, segs, mask).data, atol=1e-6
        )

    def test_gradients_equal_untrimmed(self, vocab):
        model = init_model(dataclasses.replace(TINY, vocab_size=len(vocab)))
        examples = batch_for(["alpha beta gamma", "delta"], vocab, labels=[0, 1])
        labels = np.array([0, 1])
        full = stack_examples(examples)
        trimmed = trim_padding(*full)
        width = trimmed[0].shape[1]
        assert width < full[0].shape[1]

        grads = []
        for batch in (full, trimmed):
            model.zero_grad()
            T.cross_entropy(model.forward(*batch), labels).backward()
            grads.append({name: p.grad.copy() for name, p in model.named_parameters()})
        for name in grads[0]:
            np.testing.assert_allclose(grads[1][name], grads[0][name], atol=1e-6, err_msg=name)
        for g in grads:
            assert np.all(g["embed.position"][width:] == 0.0)

    def test_mlm_loss_equals_untrimmed(self, vocab, monkeypatch):
        model = init_model(dataclasses.replace(TINY, vocab_size=len(vocab), init_seed=3))
        examples = batch_for(["alpha beta gamma", "delta"], vocab)
        batch = apply_mlm_mask(examples, vocab, MaskingPolicy(select_rate=0.5), rng_seed=11)
        assert batch.num_targets > 0
        trimmed = mlm_pretrain_loss(batch, model).item()
        monkeypatch.setattr(model_module, "trim_padding", lambda *arrays: arrays)
        untrimmed = mlm_pretrain_loss(batch, model).item()
        assert abs(trimmed - untrimmed) < 1e-6


class TestMaskingPolicy:
    def test_defaults_valid(self):
        policy = MaskingPolicy()
        assert policy.select_rate == 0.15

    def test_rates_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            MaskingPolicy(mask_rate=0.9, random_rate=0.2, keep_rate=0.1)

    def test_select_rate_bounds(self):
        with pytest.raises(ConfigError, match="select_rate"):
            MaskingPolicy(select_rate=1.5)


class TestApplyMlmMask:
    def test_zero_select_rate_changes_nothing(self, vocab):
        examples = batch_for(["alpha beta gamma", "delta epsilon"], vocab)
        batch = apply_mlm_mask(examples, vocab, MaskingPolicy(select_rate=0.0), rng_seed=1)
        ids, _, _ = stack_examples(examples)
        assert np.array_equal(batch.input_ids, ids)
        assert batch.num_targets == 0

    def test_full_selection_full_mask(self, vocab):
        examples = batch_for(["alpha beta gamma delta"], vocab)
        policy = MaskingPolicy(select_rate=1.0, mask_rate=1.0, random_rate=0.0, keep_rate=0.0)
        batch = apply_mlm_mask(examples, vocab, policy, rng_seed=2)
        ids, _, _ = stack_examples(examples)
        eligible = ids >= 5
        assert np.array_equal(batch.input_ids[eligible], np.full(eligible.sum(), MASK_ID))
        assert np.array_equal(batch.input_ids[~eligible], ids[~eligible])

    def test_targets_never_on_specials_and_only_selected_change(self, vocab):
        examples = batch_for(
            ["alpha beta gamma delta epsilon zeta"] * 20, vocab, max_seq_len=12
        )
        ids, _, _ = stack_examples(examples)
        for seed in range(5):
            batch = apply_mlm_mask(examples, vocab, MaskingPolicy(), rng_seed=seed)
            selected = np.zeros(ids.shape, dtype=bool)
            for row, col in batch.target_positions:
                selected[row, col] = True
                assert ids[row, col] not in (CLS_ID, SEP_ID, PAD_ID)
                assert ids[row, col] >= 5
            assert np.array_equal(batch.input_ids[~selected], ids[~selected])
            np.testing.assert_array_equal(batch.target_ids, ids[selected])

    def test_deterministic_per_seed(self, vocab):
        examples = batch_for(["alpha beta gamma"], vocab)
        one = apply_mlm_mask(examples, vocab, MaskingPolicy(), rng_seed=42)
        two = apply_mlm_mask(examples, vocab, MaskingPolicy(), rng_seed=42)
        assert np.array_equal(one.input_ids, two.input_ids)
        assert np.array_equal(one.target_positions, two.target_positions)

    def test_tiny_vocab_rejected(self):
        from minibert.tokenizer import Vocabulary, SPECIAL_TOKENS
        bare = Vocabulary(list(SPECIAL_TOKENS))
        with pytest.raises(ConfigError, match="content tokens"):
            apply_mlm_mask(
                [encode("x", bare, 4)], bare, MaskingPolicy(), rng_seed=0
            )


class TestMlmPretrainLoss:
    def test_uniform_logits_give_log_vocab_size(self, vocab):
        config = dataclasses.replace(
            TINY, vocab_size=len(vocab), init_scale=0.0, init_seed=5
        )
        model = init_model(config)
        examples = batch_for(["alpha beta gamma"], vocab)
        ids, _, _ = stack_examples(examples)
        batch = MaskedBatch(
            input_ids=ids.copy(),
            target_positions=np.array([[0, 2]]),
            target_ids=np.array([ids[0, 2]]),
        )
        loss = mlm_pretrain_loss(batch, model)
        assert abs(loss.item() - math.log(len(vocab))) < 1e-5

    def test_confident_model_near_zero_loss(self, vocab):
        config = dataclasses.replace(
            TINY, vocab_size=len(vocab), init_scale=0.0, init_seed=5
        )
        model = init_model(config)
        target_id = vocab.token_to_id["beta"]
        # final layer-norm bias fixes every hidden row to e0; the decoder row
        # for the target id then contributes logit 20, everything else 0
        model.params["layer0.ln2_b"].data[0] = 1.0
        model.params["embed.word"].data[target_id, 0] = 20.0

        examples = batch_for(["alpha beta gamma"], vocab)
        ids, _, _ = stack_examples(examples)
        masked = ids.copy()
        masked[0, 2] = MASK_ID
        batch = MaskedBatch(
            input_ids=masked,
            target_positions=np.array([[0, 2]]),
            target_ids=np.array([target_id]),
        )
        loss = mlm_pretrain_loss(batch, model)
        assert loss.item() < 1e-3

    def test_empty_targets_zero_loss_no_gradient(self, vocab):
        model = init_model(dataclasses.replace(TINY, vocab_size=len(vocab)))
        batch = MaskedBatch(
            input_ids=np.array([[CLS_ID, SEP_ID, PAD_ID, PAD_ID]]),
            target_positions=np.zeros((0, 2), dtype=np.int64),
            target_ids=np.zeros(0, dtype=np.int64),
        )
        loss = mlm_pretrain_loss(batch, model)
        assert loss.item() == 0.0
        assert not loss.requires_grad

    def test_gradients_match_finite_differences(self, vocab):
        from _oracles import assert_grads_close, numeric_gradient

        config = dataclasses.replace(TINY, vocab_size=len(vocab), init_seed=3)
        model = init_model(config, dtype=np.float64)
        examples = batch_for(["alpha beta gamma", "delta epsilon"], vocab)
        batch = apply_mlm_mask(
            examples, vocab, MaskingPolicy(select_rate=0.5), rng_seed=11
        )
        assert batch.num_targets > 0
        mlm_pretrain_loss(batch, model).backward()

        def loss():
            return mlm_pretrain_loss(batch, model).item()

        for name in ("embed.word", "layer0.q_w", "layer0.ff1_w", "layer0.ln2_b"):
            assert_grads_close(
                model.params[name].grad, numeric_gradient(loss, model.params[name].data)
            )
