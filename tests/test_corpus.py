"""Corpus tests: CSV parsing with row-numbered errors, save/load round
trips on randomized corpora, and synthetic generation checked by a
bag-of-words separability oracle."""

import csv
import random
import re

import pytest

from minibert.corpus import (
    LabeledCorpus,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    save_csv,
)
from minibert.errors import ConfigError, CorpusError
from minibert.tokenizer import segment_text


# (file bytes, the records they hold): line endings, characters that
# str.splitlines would break a line at, and a NUL, each inside a text
NEWLINE_CASES = {
    "crlf": (b"text,label\r\na,0\r\nb,1\r\n", [("a", 0), ("b", 1)]),
    "cr-only": (b"text,label\ra,0\rb,1\r", [("a", 0), ("b", 1)]),
    "no-final-newline": (b"text,label\na,0\nb,1", [("a", 0), ("b", 1)]),
    "quoted-crlf": (b'text,label\n"a\r\nb",0\nc,1\n', [("a\r\nb", 0), ("c", 1)]),
    "quoted-cr": (b'text,label\n"a\rb",0\nc,1\n', [("a\rb", 0), ("c", 1)]),
    "u2028": ("text,label\na\u2028b,0\nc,1\n".encode(), [("a\u2028b", 0), ("c", 1)]),
    "x85": ("text,label\na\x85b,0\nc,1\n".encode(), [("a\x85b", 0), ("c", 1)]),
    "nul": (b"text,label\na\x00b,0\nc,1\n", [("a\x00b", 0), ("c", 1)]),
}


def streamed_rows(path):
    """What csv reads from ``path`` through a handle opened with
    ``newline=""``, the way the csv module documents."""
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestLoadCsv:
    def test_basic_two_rows(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text('text,label\n"good day",1\n"bad day",0\n', encoding="utf-8")
        corpus = load_csv(path)
        assert corpus.records == [("good day", 1), ("bad day", 0)]
        assert corpus.num_classes == 2

    def test_non_integer_label_names_row(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("text,label\nfine,x\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="row 2"):
            load_csv(path)

    def test_wrong_column_count_names_row(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("text,label\na,1\nb,0,9\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="row 3"):
            load_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("review,sentiment\na,1\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="header"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}: cannot read \(.+\)$"):
            load_csv(path)

    def test_directory_is_unreadable(self, tmp_path):
        path = tmp_path / "d.csv"
        path.mkdir()
        with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}: cannot read \(.+\)$"):
            load_csv(path)

    @pytest.mark.parametrize("rows_before", [0, 5000])
    def test_non_utf8_bytes_name_the_file(self, tmp_path, rows_before):
        # 5000 rows put the bad byte past the first chunk the reader decodes
        path = tmp_path / "bad.csv"
        path.write_bytes(b"text,label\n" + b"ok,0\n" * rows_before + b"ab\xff,1\nc,0\n")
        with pytest.raises(CorpusError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: cannot read (not UTF-8, invalid start byte)"

    @pytest.mark.parametrize("name", NEWLINE_CASES)
    def test_whole_file_parses_as_a_streamed_handle(self, tmp_path, name):
        content, records = NEWLINE_CASES[name]
        path = tmp_path / f"{name}.csv"
        path.write_bytes(content)
        try:
            rows = streamed_rows(path)
        except csv.Error:  # csv reads no NUL before Python 3.11
            with pytest.raises(csv.Error):
                load_csv(path)
            return
        assert rows[1:] == [[text, str(label)] for text, label in records]
        assert load_csv(path).records == records

    def test_byte_order_mark_is_part_of_the_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufefftext,label\na,0\n".encode())
        assert streamed_rows(path)[0] == ["\ufefftext", "label"]
        with pytest.raises(CorpusError) as err:
            load_csv(path)
        header = "['\\ufefftext', 'label']"
        assert str(err.value) == f"{path}: header must be exactly 'text,label', got {header}"

    def test_empty_data_rejected(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("text,label\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="no data rows"):
            load_csv(path)

    def test_quoted_commas_and_newlines(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text('text,label\n"one, two\nthree",1\nplain,0\n', encoding="utf-8")
        corpus = load_csv(path)
        assert corpus.records[0] == ("one, two\nthree", 1)
        assert len(corpus) == 2

    def test_round_trip_randomized(self, tmp_path):
        rng = random.Random(61)
        pieces = ["plain", "with, comma", 'with "quotes"', "line\nbreak", "中文 text"]
        for trial in range(20):
            n = rng.randrange(2, 12)
            records = [
                (rng.choice(pieces) + f" #{i}", rng.randrange(0, 2)) for i in range(n)
            ]
            records[0] = (records[0][0], 0)
            records[1] = (records[1][0], 1)
            corpus = LabeledCorpus(records=records, num_classes=2)
            path = tmp_path / f"round{trial}.csv"
            save_csv(corpus, path)
            loaded = load_csv(path)
            assert loaded.records == records

    @pytest.mark.parametrize("blank", ["", "  ", "\u3000\n"], ids=["empty", "spaces", "cjk-space"])
    def test_blank_text_names_the_path_and_row(self, tmp_path, blank):
        path = tmp_path / "corpus.csv"
        path.write_text(f'text,label\nfine,0\n"{blank}",1\n', encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: row 3 text is empty after trimming"

    def test_labels_need_not_cover_every_class(self, tmp_path):
        """A held-out file may hold one class only; training corpora are
        checked for coverage where they are loaded for a run."""
        path = tmp_path / "corpus.csv"
        path.write_text("text,label\na,1\nb,1\n", encoding="utf-8")
        corpus = load_csv(path)
        assert corpus.records == [("a", 1), ("b", 1)] and corpus.num_classes == 2

    def test_record_count_matches_row_count(self, tmp_path):
        path = tmp_path / "corpus.csv"
        rows = [f"text {i},{i % 2}" for i in range(25)]
        path.write_text("text,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert len(load_csv(path)) == 25


class TestSyntheticSpec:
    def test_overlapping_pools_rejected(self):
        with pytest.raises(ConfigError, match="disjoint"):
            SyntheticSpec(
                num_examples=10,
                class_token_pools=[["x", "y"], ["y", "z"]],
                shared_pool=[],
            )

    @pytest.mark.parametrize("token", ["", "x y", "A", "好天"])
    @pytest.mark.parametrize("key", ["class_token_pools", "shared_pool"])
    def test_pool_token_must_be_one_tokenizer_token(self, key, token):
        """The tokenizer would read each of these tokens as none, two, or a
        lowercased other token, so pools disjoint as strings could share a
        token, and a text could be blank."""
        pools = {"class_token_pools": [["a"], ["b"]], "shared_pool": ["c"]}
        (pools[key][1] if key == "class_token_pools" else pools[key]).append(token)
        with pytest.raises(ConfigError) as err:
            SyntheticSpec(num_examples=4, **pools)
        assert str(err.value) == f"{key}: token {token!r} is not one tokenizer token"

    def test_single_cjk_character_is_one_token(self):
        spec = SyntheticSpec(
            num_examples=8, class_token_pools=[["好"], ["坏"]], shared_pool=["天"],
            noise_rate=0.5,
        )
        for text, label in generate_synthetic(spec).records:
            assert set(segment_text(text)) <= {["好", "坏"][label], "天"}

    def test_noise_requires_shared_pool(self):
        with pytest.raises(ConfigError, match="shared pool"):
            SyntheticSpec(
                num_examples=10,
                class_token_pools=[["a"], ["b"]],
                shared_pool=[],
                noise_rate=0.2,
            )

    def test_noise_rate_bounds(self):
        with pytest.raises(ConfigError, match="noise_rate"):
            SyntheticSpec.balanced(num_examples=10, noise_rate=1.0)


class TestGenerateSynthetic:
    def test_zero_noise_uses_only_class_pools(self):
        spec = SyntheticSpec.balanced(num_examples=50, noise_rate=0.0, seed=3)
        corpus = generate_synthetic(spec)
        pools = [set(p) for p in spec.class_token_pools]
        for text, label in corpus.records:
            assert set(text.split()) <= pools[label]

    def test_deterministic(self):
        spec = SyntheticSpec.balanced(num_examples=40, noise_rate=0.3, seed=9)
        assert generate_synthetic(spec).records == generate_synthetic(spec).records

    def test_balanced_classes(self):
        spec = SyntheticSpec.balanced(num_examples=51, num_classes=2, seed=1)
        corpus = generate_synthetic(spec)
        ones = sum(label for _, label in corpus.records)
        assert abs((51 - ones) - ones) <= 1

    def test_zero_noise_separable_by_bag_of_words_rule(self):
        spec = SyntheticSpec.balanced(num_examples=100, noise_rate=0.0, seed=13)
        corpus = generate_synthetic(spec)
        pools = [set(p) for p in spec.class_token_pools]

        def classify(text):
            tokens = set(text.split())
            for cls, pool in enumerate(pools):
                if tokens & pool:
                    return cls
            raise AssertionError("unclassifiable text")

        correct = sum(classify(t) == l for t, l in corpus.records)
        assert correct == len(corpus)

    def test_token_counts_respect_range(self):
        spec = SyntheticSpec.balanced(
            num_examples=60, tokens_per_text=(2, 5), seed=21
        )
        for text, _ in generate_synthetic(spec).records:
            assert 2 <= len(text.split()) <= 5
