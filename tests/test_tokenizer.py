"""Tokenizer tests: segmentation rules, frequency-ordered vocabulary
construction (checked against an independent tally), encoding invariants
over randomized unicode, stacked arrays against each example's lists, and
the save/load text format."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minibert import tokenizer as tok
from minibert.errors import CheckpointError, read_input
from minibert.model import stack_examples
from minibert.tokenizer import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Vocabulary,
    build_vocab,
    encode,
    segment_text,
)
from _oracles import CJK_RANGES, loop_segment_text

# Characters where a segmentation rule changes: both sides of every CJK
# block edge, Unicode whitespace beyond ASCII, and characters whose
# lowercase form differs in length or depends on context.
_EDGE_CHARS = [chr(c) for lo, hi in CJK_RANGES for c in (lo - 1, lo, hi, hi + 1)]
_SPACE_CHARS = list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000\u2028\u2029")
_CASE_CHARS = list("İẞΣσςßǄǅﬀAz")


class TestSegmentText:
    def test_mixed_latin_and_cjk(self):
        assert segment_text("I love 中国") == ["i", "love", "中", "国"]

    def test_empty(self):
        assert segment_text("") == []

    def test_cjk_run_splits_per_character(self):
        assert segment_text("中国人") == ["中", "国", "人"]

    def test_punctuation_sticks_to_runs(self):
        assert segment_text("Hello, world!") == ["hello,", "world!"]

    @settings(max_examples=400, deadline=None)
    @given(
        st.text(
            alphabet=st.one_of(
                st.sampled_from(_EDGE_CHARS + _SPACE_CHARS + _CASE_CHARS), st.characters()
            ),
            max_size=40,
        )
    )
    def test_matches_the_character_loop(self, text):
        assert segment_text(text) == loop_segment_text(text)

    def test_resegmentation_is_stable(self):
        rng = random.Random(13)
        alphabet = "abcXYZ09中文字.,!?\t \né二"
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
            tokens = segment_text(text)
            assert segment_text(" ".join(tokens)) == tokens


class TestBuildVocab:
    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocab(["a b", "a"], max_size=10, min_frequency=1)
        assert vocab.id_to_token == list(SPECIAL_TOKENS) + ["a", "b"]

    def test_capacity_forces_truncation(self):
        vocab = build_vocab(["x"], max_size=5, min_frequency=1)
        assert vocab.id_to_token == list(SPECIAL_TOKENS)
        assert "x" not in vocab

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocab([], max_size=10)

    def test_matches_brute_force_frequency_count(self):
        rng = random.Random(17)
        words = [f"w{i}" for i in range(60)]
        docs = [
            " ".join(rng.choice(words) for _ in range(rng.randrange(1, 30)))
            for _ in range(100)
        ]
        min_frequency, max_size = 3, 40
        vocab = build_vocab(docs, max_size=max_size, min_frequency=min_frequency)

        tally = Counter()
        for doc in docs:
            tally.update(doc.split())
        surviving = sorted(
            (w for w, c in tally.items() if c >= min_frequency),
            key=lambda w: (-tally[w], w),
        )[: max_size - len(SPECIAL_TOKENS)]
        assert vocab.id_to_token[len(SPECIAL_TOKENS):] == surviving

    def test_deterministic(self):
        docs = ["spam ham eggs", "ham eggs", "eggs"]
        first = build_vocab(docs, max_size=50)
        second = build_vocab(docs, max_size=50)
        assert first.id_to_token == second.id_to_token

    def test_specials_occupy_ids_zero_through_four(self):
        vocab = build_vocab(["hello"], max_size=10)
        for expected_id, token in enumerate(SPECIAL_TOKENS):
            assert vocab.token_to_id[token] == expected_id

    def test_inverse_maps(self):
        vocab = build_vocab(["one two three"], max_size=20)
        for token, idx in vocab.token_to_id.items():
            assert vocab.id_to_token[idx] == token


@pytest.fixture
def small_vocab():
    return build_vocab(["a b c"], max_size=10)


class TestEncode:
    def test_basic_layout(self, small_vocab):
        ex = encode("a", small_vocab, max_seq_len=4, label=1)
        assert ex.token_ids == [CLS_ID, small_vocab.token_to_id["a"], SEP_ID, PAD_ID]
        assert ex.attention_mask == [1, 1, 1, 0]
        assert ex.segment_ids == [0, 0, 0, 0]
        assert ex.label == 1

    def test_truncation_keeps_prefix(self, small_vocab):
        text = " ".join(["a"] * 100)
        ex = encode(text, small_vocab, max_seq_len=8)
        content = ex.token_ids[1:7]
        assert content == [small_vocab.token_to_id["a"]] * 6
        assert ex.token_ids[7] == SEP_ID
        assert PAD_ID not in ex.token_ids[1:8]

    def test_unknown_token_becomes_unk(self, small_vocab):
        ex = encode("a zzz b", small_vocab, max_seq_len=8)
        assert ex.token_ids[2] == UNK_ID

    def test_min_sequence_length_enforced(self, small_vocab):
        with pytest.raises(ValueError, match="at least 3"):
            encode("a", small_vocab, max_seq_len=2)

    def test_invariants_over_random_unicode(self, small_vocab):
        rng = random.Random(23)
        alphabet = "ab c字中ü!☃\t"
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 50)))
            max_seq_len = rng.randrange(3, 20)
            ex = encode(text, small_vocab, max_seq_len)
            assert len(ex.token_ids) == max_seq_len
            assert len(ex.segment_ids) == max_seq_len
            assert len(ex.attention_mask) == max_seq_len
            assert ex.token_ids[0] == CLS_ID
            assert ex.token_ids.count(SEP_ID) == 1
            sep_at = ex.token_ids.index(SEP_ID)
            assert all(i == PAD_ID for i in ex.token_ids[sep_at + 1:])
            assert all(i != PAD_ID for i in ex.token_ids[: sep_at + 1])
            assert ex.attention_mask == [1 if i != PAD_ID else 0 for i in ex.token_ids]
            assert all(0 <= i < len(small_vocab) for i in ex.token_ids)
            assert set(ex.segment_ids) == {0}

    @settings(max_examples=200, deadline=None)
    @given(
        texts=st.lists(st.text(alphabet="ab c字中ü!☃\t", max_size=40), min_size=1, max_size=6),
        max_seq_len=st.integers(3, 24),
    )
    def test_stacked_arrays_equal_the_stacked_lists(self, texts, max_seq_len):
        """``stack_examples`` builds the mask and segment arrays from each
        example's ``length``; they equal the examples' own lists stacked, and
        each mask counts [CLS], the kept content tokens and [SEP]."""
        vocab = build_vocab(["a b c"], max_size=10)
        examples = [encode(text, vocab, max_seq_len) for text in texts]
        stacked = stack_examples(examples)
        for array, key in zip(stacked, ("token_ids", "segment_ids", "attention_mask")):
            expected = np.array([getattr(ex, key) for ex in examples], dtype=np.int64)
            assert array.dtype == np.int64 and np.array_equal(array, expected), key
        for text, ex in zip(texts, examples):
            content = min(len(segment_text(text)), max_seq_len - 2)
            assert sum(ex.attention_mask) - 2 == content == ex.length - 2

    def test_round_trip_up_to_truncation_and_unk(self, small_vocab):
        rng = random.Random(29)
        pool = ["a", "b", "c", "zzz", "字"]
        for _ in range(100):
            tokens = [rng.choice(pool) for _ in range(rng.randrange(0, 12))]
            text = " ".join(tokens)
            max_seq_len = rng.randrange(3, 12)
            ex = encode(text, small_vocab, max_seq_len)
            kept = tokens[: max_seq_len - 2]
            expected = [t if t in small_vocab else tok.UNK_TOKEN for t in kept]
            content = ex.token_ids[1 : ex.token_ids.index(SEP_ID)]
            assert [small_vocab.id_to_token[i] for i in content] == expected


class TestVocabularyIO:
    def test_save_load_round_trip(self, tmp_path, small_vocab):
        path = tmp_path / "vocab.txt"
        small_vocab.save(path)
        # as a checkpoint load reads vocab.txt
        loaded = Vocabulary(read_input(path, CheckpointError).splitlines())
        assert loaded.id_to_token == small_vocab.id_to_token

    def test_line_number_is_id(self, tmp_path, small_vocab):
        path = tmp_path / "vocab.txt"
        small_vocab.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[small_vocab.token_to_id["a"]] == "a"

    def test_rejects_missing_specials(self):
        with pytest.raises(ValueError, match="must start with"):
            Vocabulary(["a", "b"])
