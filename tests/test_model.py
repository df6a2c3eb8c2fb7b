"""Model tests: deterministic initialization, closed-form parameter
counts, embedding sums, a step-by-step scalar recomputation of one
encoder layer, [CLS]-head classification properties, the [CLS]-only
inference path against the full-width forward, length-sorted prediction
chunks, and padding isolation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minibert.model as model_module
from minibert import tensor as T
from minibert.errors import ConfigError
from minibert.model import (
    ATTENTION_MASK_BIAS,
    ClassifierModel,
    ModelConfig,
    init_model,
    parameter_count,
    parameter_shapes,
    stack_examples,
    trim_padding,
)
from minibert.tokenizer import build_vocab, encode
from _oracles import (
    full_layer_logits,
    reference_softmax,
    scalar_gelu,
    scalar_layer_norm,
    scalar_softmax,
)

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
        assert sum(p.size for _, p in model.named_parameters()) == expected

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


class TestFlatLayout:
    def test_every_parameter_is_a_view_tiling_flat_in_shape_order(self):
        model = init_model(TINY)
        model.flat[:] = np.arange(model.flat.size)
        offset = 0
        for (name, shape), (seen, p) in zip(
            parameter_shapes(TINY).items(), model.named_parameters()
        ):
            size = math.prod(shape)
            assert seen == name and p.shape == shape
            assert np.shares_memory(p.data, model.flat), name
            assert np.array_equal(p.data.ravel(), np.arange(offset, offset + size)), name
            offset += size
        assert offset == model.flat.size

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_draws_each_weight_in_shape_order(self, dtype):
        rng = np.random.default_rng(TINY.init_seed)
        model = init_model(TINY, dtype)
        assert model.flat.dtype == dtype
        for name, shape in parameter_shapes(TINY).items():
            if name.endswith("_g"):
                expected = np.ones(shape, dtype)
            elif name.endswith("_b"):
                expected = np.zeros(shape, dtype)
            else:
                expected = rng.normal(0.0, TINY.init_scale, size=shape).astype(dtype)
            assert np.array_equal(model.params[name].data, expected), name

    def test_an_update_to_flat_reaches_forward(self, vocab):
        model = init_model(TINY)
        ids, segs, mask = stack_examples(batch_for(["alpha beta", "gamma"], vocab))
        before = model.forward(ids, segs, mask).data
        model.flat *= 3.0
        after = model.forward(ids, segs, mask).data
        rebuilt = ClassifierModel(TINY, model.flat.copy()).forward(ids, segs, mask).data
        assert not np.array_equal(after, before)
        assert np.array_equal(after, rebuilt)

    @staticmethod
    def assert_grads_tile_the_buffer(model):
        offset = 0
        for (name, shape), (seen, p) in zip(
            parameter_shapes(TINY).items(), model.named_parameters()
        ):
            # a contiguous array of this shape that starts where its slice starts
            assert seen == name and p.grad.shape == shape and p.grad.flags.c_contiguous, name
            assert p.grad.ctypes.data == model.grad[offset:].ctypes.data, name
            offset += math.prod(shape)
        assert offset == model.grad.size

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_gradient_is_a_view_tiling_grad_in_shape_order(self, vocab, dtype):
        model = init_model(TINY, dtype)
        assert model.grad.shape == model.flat.shape and model.grad.dtype == dtype
        assert not model.grad.any()
        ids, segs, mask = stack_examples(batch_for(["alpha beta"], vocab))
        T.cross_entropy(model.forward(ids, segs, mask), np.array([1])).backward()
        assert model.grad.any()
        self.assert_grads_tile_the_buffer(model)
        model.zero_grad()
        assert not model.grad.any()
        self.assert_grads_tile_the_buffer(model)

    @pytest.mark.parametrize(
        "delta, dtype", [(-1, np.float32), (1, np.float32), (0, np.int64), (0, np.float16)]
    )
    def test_flat_of_the_wrong_length_or_dtype_is_a_config_error(self, delta, dtype):
        count = parameter_count(TINY)
        with pytest.raises(ConfigError, match=f"expected float \\({count},\\)"):
            ClassifierModel(TINY, np.zeros(count + delta, dtype=dtype))


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


def attention_scores(model, x, layer_index=0):
    """The layer's scaled query-key scores (B, heads, S, S), before the mask."""
    p = {name: t.data for name, t in model.params.items()}
    pre = f"layer{layer_index}."
    batch, seq, _ = x.shape
    nh, hd = model.config.num_heads, model.config.head_dim

    def heads(name):
        rows = x.data @ p[pre + name + "_w"] + p[pre + name + "_b"]
        return rows.reshape(batch, seq, nh, hd).transpose(0, 2, 1, 3)

    return heads("q") @ heads("k").swapaxes(-1, -2) / np.float32(math.sqrt(hd))


def mask_bias(mask):
    mask = np.asarray(mask, dtype=np.float32)
    return ((1.0 - mask) * ATTENTION_MASK_BIAS).reshape(len(mask), 1, 1, -1)


def at_both_magnitudes(scores):
    """The fresh model's scores, then the same widened to the +-30 range of
    a trained model's; the mask property must hold at both."""
    return scores, scores * np.float32(30.0 / np.abs(scores).max())


class TestEncoderLayer:
    def test_single_position_attention_weight_is_exactly_one(self):
        model = init_model(dataclasses.replace(TINY, max_seq_len=1))
        x = model.embed(np.array([[2]]), np.array([[0]]))
        for scores in at_both_magnitudes(attention_scores(model, x)):
            weights = T.softmax(T.Tensor(scores), axis=-1, bias=mask_bias([[1]])).data
            assert weights.shape == (1, 2, 1, 1)
            assert np.all(weights == 1.0)

    def test_pad_keys_get_negligible_weight(self, vocab):
        model = init_model(TINY)
        examples = batch_for(["alpha beta", "gamma"], vocab)
        ids, segs, mask = stack_examples(examples)
        pad_keys = mask[:, None, None, :] == 0
        assert pad_keys.any()
        for scores in at_both_magnitudes(attention_scores(model, model.embed(ids, segs))):
            assert scores.dtype == np.float32
            weights = T.softmax(T.Tensor(scores), axis=-1, bias=mask_bias(mask)).data
            # exactly zero in float32, which is what makes trim_padding exact
            assert np.all(weights[np.broadcast_to(pad_keys, weights.shape)] == 0.0)
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


class TestClsOnlyInference:
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_no_grad_logits_match_the_full_layer(self, vocab, num_layers, monkeypatch):
        model = init_model(dataclasses.replace(
            TINY, vocab_size=len(vocab), num_layers=num_layers, hidden_dim=8, ff_dim=16,
            init_scale=0.5, init_seed=num_layers,
        ))
        texts = ["alpha", "beta gamma delta", "alpha beta gamma delta epsilon zeta"]
        ids, segs, mask = stack_examples(batch_for(texts, vocab))
        assert mask.shape[1] == TINY.max_seq_len and mask[-1].all() and not mask[0].all()
        expected = full_layer_logits(model, ids, segs, mask)

        query_rows = []
        layer = model.encoder_layer

        def recording_layer(x, attention_mask, layer_index, rows=None):
            query_rows.append(rows)
            return layer(x, attention_mask, layer_index, rows)

        monkeypatch.setattr(model, "encoder_layer", recording_layer)
        with T.no_grad():
            cls_only = model.forward(ids, segs, mask).data
        assert query_rows == [None] * (num_layers - 1) + [1]
        np.testing.assert_allclose(cls_only, expected, rtol=0, atol=1e-5)

        query_rows.clear()
        assert np.array_equal(model.forward(ids, segs, mask).data, expected)
        assert query_rows == [None] * num_layers

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    def test_folded_layer_equals_the_full_layer_with_every_bias_set(self, vocab, num_layers):
        """``init_model`` zeroes every bias; here each parameter, the key
        and value biases included, is random, in float64."""
        config = dataclasses.replace(
            TINY, vocab_size=len(vocab), num_layers=num_layers, hidden_dim=8, ff_dim=16,
            num_classes=3,
        )
        model = init_model(config, dtype=np.float64)
        model.flat[:] = np.random.default_rng(num_layers).normal(0.0, 0.5, model.flat.size)
        texts = ["alpha", "beta gamma delta", "alpha beta gamma delta epsilon zeta", "zeta"]
        ids, segs, mask = stack_examples(batch_for(texts, vocab))
        assert mask.shape[1] == TINY.max_seq_len and not mask.all() and mask[2].all()
        expected = full_layer_logits(model, ids, segs, mask)
        with T.no_grad():
            folded = model.forward(ids, segs, mask).data
        np.testing.assert_allclose(folded, expected, rtol=0, atol=1e-12)

    def test_counted_work_of_the_folded_layer(self, monkeypatch):
        """Multiply-adds of every product in a no-grad forward of a 1-layer
        model at width 64, from the operand shapes: the [CLS] query, output,
        feed-forward and head products per row, plus per head one fold of
        ``k_w`` into the query, scores and a pooled input at every position,
        and one product with ``v_w``.  Neither ``k_w`` nor ``v_w`` meets an
        activation that holds every position."""
        hidden, heads, ff, width, rows, classes = 64, 2, 256, 64, 5, 3
        config = ModelConfig(
            vocab_size=50, hidden_dim=hidden, num_heads=heads, ff_dim=ff,
            max_seq_len=width, num_classes=classes,
        )
        model = init_model(config)
        ids = np.random.default_rng(0).integers(5, 50, size=(rows, width))
        products = []
        matmul = T.matmul

        def counting_matmul(a, b, bias=None):
            products.append((T.as_tensor(a), T.as_tensor(b)))
            return matmul(a, b, bias)

        monkeypatch.setattr(T, "matmul", counting_matmul)
        with T.no_grad():
            model.forward(ids, np.zeros_like(ids), np.ones_like(ids))

        def multiply_adds(a, b):
            *lead, m, k = a.shape
            batch = np.broadcast_shapes(tuple(lead), b.shape[:-2])
            return math.prod(batch) * m * k * b.shape[-1]

        per_row = (
            hidden * hidden  # [CLS] query projection
            + heads * (hidden // heads) * hidden  # k_w folded into each head's query
            + 2 * heads * width * hidden  # scores, then the pooled input
            + heads * hidden * (hidden // heads)  # pooled input times v_w
            + hidden * hidden  # output projection
            + 2 * hidden * ff  # feed-forward
            + hidden * hidden + hidden * classes  # head
        )
        assert sum(multiply_adds(a, b) for a, b in products) == rows * per_row == rows * 69824
        # each weight meets one operand: per head, the [CLS] query or the
        # pooled input, never the (rows, width, hidden) layer input
        for name, shape in (("k_w", (heads, rows, hidden // heads)), ("v_w", (heads, rows, hidden))):
            weight = model.params["layer0." + name].data
            partners = [b if np.shares_memory(a.data, weight) else a for a, b in products
                        if np.shares_memory(a.data, weight) or np.shares_memory(b.data, weight)]
            assert [partner.shape for partner in partners] == [shape], name

    def test_query_rows_other_than_the_cls_row_are_rejected(self, vocab):
        model = init_model(dataclasses.replace(TINY, vocab_size=len(vocab)))
        ids, segs, mask = stack_examples(batch_for(["alpha beta"], vocab))
        with pytest.raises(ValueError, match="query_rows must be None or 1, got 2"):
            model.encoder_layer(model.embed(ids, segs), mask, 0, 2)


def position_width(config, width):
    """Elements per padded position that a no-grad chunk of trimmed
    ``width`` is charged: the widest activation of a full-width layer, or,
    in a 1-layer model, whose [CLS]-only layer projects nothing at every
    position, the embedding sum."""
    if config.num_layers == 1:
        return config.hidden_dim
    return max(config.ff_dim, config.hidden_dim, config.num_heads * width)


def recorded_chunks(model, monkeypatch):
    """(rows, trimmed width, shortest row's real tokens) of each forward
    ``model`` runs, in order, appended to the returned list."""
    chunks = []
    forward = model.forward

    def recording_forward(token_ids, segment_ids, attention_mask):
        chunks.append((len(attention_mask), attention_mask.shape[1],
                       int(attention_mask.sum(axis=1).min())))
        return forward(token_ids, segment_ids, attention_mask)

    monkeypatch.setattr(model, "forward", recording_forward)
    return chunks


class TestPredict:
    def test_rows_return_in_input_order_from_length_sorted_chunks(self, vocab, monkeypatch):
        """Chunks run shortest first and grow greedily: each holds at most
        ``PREDICT_ELEMENTS`` of its widest activation, and one more row
        would not fit; a 1-layer model takes larger chunks than a 3-layer
        model of the same shape; rows still come back in input order, with
        the probabilities of one forward per row."""
        budget = model_module.PREDICT_ELEMENTS
        assert budget == 1024 * 256
        rng = np.random.default_rng(0)
        words = "alpha beta gamma delta epsilon zeta".split()
        short = [" ".join(rng.choice(words, size=rng.integers(1, 7))) for _ in range(150)]
        # 20 to 80 words: widths from 22 up to the 64-token cap, most of them at 64
        long = [" ".join(rng.choice(words, size=rng.integers(20, 81))) for _ in range(100)]
        examples = batch_for(short + long, vocab, max_seq_len=64)
        order = rng.permutation(len(examples))
        permuted = [examples[i] for i in order]

        # 8 heads: the 3-layer model's attention scores outgrow ff_dim past width 32
        shape = dataclasses.replace(
            TINY, vocab_size=len(vocab), hidden_dim=64, num_heads=8, ff_dim=256,
            max_seq_len=64, num_classes=3, init_scale=0.5,
        )
        chunk_rows = {}
        for num_layers in (1, 3):
            config = dataclasses.replace(shape, num_layers=num_layers)
            # float64, so that one forward per row must agree to 1e-12
            model = init_model(config, dtype=np.float64)
            chunks = recorded_chunks(model, monkeypatch)
            labels = model.predict(examples)
            assert sum(rows for rows, _, _ in chunks) == len(examples)
            widths = [width for _, width, _ in chunks]
            assert widths == sorted(widths) and widths[-1] == 64
            assert all(rows * width * position_width(config, width) <= budget
                       for rows, width, _ in chunks)
            for (rows, width, _), (_, _, next_shortest) in zip(chunks, chunks[1:]):
                # the masks are contiguous, so the next row's width is its token count
                grown = max(width, next_shortest)
                assert (rows + 1) * grown * position_width(config, grown) > budget
            chunk_rows[num_layers] = [rows for rows, _, _ in chunks]

            probs = model.predict_proba(examples)
            assert len(set(labels[:150].tolist())) > 1 and len(set(labels[150:].tolist())) > 1
            with T.no_grad():
                singles = np.concatenate([model.logits([e]).data for e in examples])
            np.testing.assert_allclose(probs, reference_softmax(singles), rtol=0, atol=1e-12)
            assert np.array_equal(labels, np.argmax(probs, axis=1))
            assert np.array_equal(model.predict(permuted), labels[order])
            np.testing.assert_allclose(
                model.predict_proba(permuted), probs[order], rtol=0, atol=1e-12
            )

        # e.g. 128 x 8 x ff_dim 256 and 18 x 42 x (8 heads x 42) in the 3-layer model
        assert chunk_rows == {1: [156, 65, 29], 3: [128, 33, 18, 13, 10, 9, 8, 8, 8, 8, 7]}

    @settings(max_examples=40, deadline=None)
    @given(
        exponent=st.floats(min_value=-6, max_value=0),
        seed=st.integers(0, 2**16),
        num_classes=st.integers(2, 4),
    )
    def test_labels_are_the_argmax_of_the_probabilities(self, exponent, seed, num_classes):
        """One label rule, also at scales where logits differ by less than
        the float32 softmax resolves and its rows tie."""
        vocab = build_vocab(["alpha beta gamma delta epsilon zeta"], max_size=24)
        rng = np.random.default_rng(seed)
        words = "alpha beta gamma delta epsilon zeta".split()
        texts = [" ".join(rng.choice(words, size=rng.integers(1, 7))) for _ in range(12)]
        model = init_model(dataclasses.replace(
            TINY, vocab_size=len(vocab), num_classes=num_classes,
            init_seed=seed, init_scale=10.0**exponent,
        ))
        examples = batch_for(texts, vocab)
        probs = model.predict_proba(examples)
        assert np.array_equal(model.predict(examples), np.argmax(probs, axis=1))

    def test_a_row_over_the_element_budget_runs_alone(self, vocab, monkeypatch):
        examples = batch_for(["alpha", "alpha beta", "alpha beta gamma delta epsilon"], vocab)
        # widths 3, 4 and 7; elements per position 4 (hidden_dim) in the
        # 1-layer model, 8, 8 and 14 (ff_dim, then 2 heads x 7) in the 3-layer
        for num_layers, cases in (
            (1, [(27, [(1, 3), (1, 4), (1, 7)]), (32, [(2, 4), (1, 7)])]),
            (3, [(63, [(1, 3), (1, 4), (1, 7)]), (64, [(2, 4), (1, 7)])]),
        ):
            model = init_model(dataclasses.replace(
                TINY, vocab_size=len(vocab), num_layers=num_layers
            ))
            chunks = recorded_chunks(model, monkeypatch)
            for budget, expected in cases:
                monkeypatch.setattr(model_module, "PREDICT_ELEMENTS", budget)
                chunks.clear()
                model.predict(examples)
                assert [chunk[:2] for chunk in chunks] == expected, (num_layers, budget)


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
