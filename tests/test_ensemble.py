"""Ensemble tests: voting rules against a brute-force mode oracle,
permutation invariance, degenerate single-member ensembles, member
diversity from distinct shuffle seeds, one forward pass per member
per evaluation over one stacked copy of the examples, one label rule for
a member's vote and its accuracy, members of the configured shape, and
``evaluate`` scoring models and ensembles alike."""

import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest

import minibert.model as model_module
from minibert import tensor as T
from minibert.corpus import SyntheticSpec, generate_synthetic
from minibert.ensemble import (
    EnsembleConfig,
    EnsembleModel,
    EnsemblePrediction,
    average_vote,
    evaluate,
    majority_vote,
    train_ensemble,
)
from minibert.errors import ConfigError
from minibert.evaluation import confusion_matrix, metrics
from minibert.model import ClassifierModel, ModelConfig, example_labels, init_model
from minibert.tokenizer import build_vocab, encode
from minibert.training import TrainConfig, accuracy, split_dataset
from _oracles import brute_force_vote


class TestMajorityVote:
    def test_simple_majorities(self):
        assert majority_vote([[1], [1], [0]]).tolist() == [1]
        assert majority_vote([[0], [0], [0]]).tolist() == [0]

    def test_tie_breaks_to_lowest_class(self):
        assert majority_vote([[0], [1]]).tolist() == [0]
        assert majority_vote([[2], [1]]).tolist() == [1]

    def test_matches_exhaustive_oracle(self):
        for n_members in range(1, 6):
            for classes in range(1, 4):
                combos = list(itertools.product(range(classes), repeat=n_members))
                matrix = np.array(combos).T  # (members, batch)
                result = majority_vote(matrix)
                expected = [brute_force_vote(list(col)) for col in combos]
                assert result.tolist() == expected, (n_members, classes)

    def test_ragged_votes_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            majority_vote([[0, 1], [0]])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            batch = int(rng.integers(1, 5))
            votes = rng.integers(0, 3, size=(n, batch))
            baseline = majority_vote(votes)
            shuffled = votes[rng.permutation(n)]
            assert np.array_equal(majority_vote(shuffled), baseline)

    def test_odd_members_binary_never_needs_tie_break(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            votes = rng.integers(0, 2, size=(3, 8))
            counts = np.stack([np.sum(votes == c, axis=0) for c in (0, 1)])
            assert not np.any(counts[0] == counts[1])


class TestAverageVote:
    def test_single_member_is_argmax(self):
        probs = np.array([[[0.2, 0.8], [0.7, 0.3]]])
        assert average_vote(probs).tolist() == [1, 0]

    def test_mean_probability_arithmetic(self):
        probs = np.array([[[0.9, 0.1]], [[0.2, 0.8]]])
        assert average_vote(probs).tolist() == [0]

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            average_vote(np.array([[[0.9, 0.3]]]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            batch = int(rng.integers(1, 4))
            raw = rng.random((n, batch, 3)) + 1e-3
            probs = raw / raw.sum(axis=-1, keepdims=True)
            baseline = average_vote(probs)
            assert np.array_equal(average_vote(probs[rng.permutation(n)]), baseline)

    def test_unanimity_dominance(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            winner = int(rng.integers(0, 3))
            raw = rng.random((n, 1, 3)) * 0.1
            raw[:, 0, winner] += 1.0
            probs = raw / raw.sum(axis=-1, keepdims=True)
            assert average_vote(probs).tolist() == [winner]
            labels = np.argmax(probs, axis=-1)
            assert majority_vote(labels).tolist() == [winner]


@pytest.fixture(scope="module")
def trained_setup():
    spec = SyntheticSpec.balanced(
        num_examples=240, num_classes=2, noise_rate=0.0, seed=19, tokens_per_text=(3, 8)
    )
    corpus = generate_synthetic(spec)
    train_records, val_records = split_dataset(corpus.records, 0.8, split_seed=2)
    vocab = build_vocab([t for t, _ in train_records], max_size=200)
    model_config = ModelConfig(
        vocab_size=len(vocab), hidden_dim=16, num_layers=1, num_heads=2,
        ff_dim=32, max_seq_len=12, num_classes=2, init_seed=4,
    )
    train_set = [encode(t, vocab, 12, l) for t, l in train_records]
    val_set = [encode(t, vocab, 12, l) for t, l in val_records]
    train_config = TrainConfig(epochs=3, learning_rate=1e-2, batch_size=16)
    return model_config, train_set, val_set, train_config


class TestTrainEnsemble:
    def test_config_validation(self):
        cfg = ModelConfig(vocab_size=10)
        with pytest.raises(ConfigError, match="member_shuffle_seeds"):
            EnsembleConfig(member_model_config=cfg, n_members=3, member_shuffle_seeds=[1])
        with pytest.raises(ConfigError, match="voting"):
            EnsembleConfig(
                member_model_config=cfg, n_members=1,
                member_shuffle_seeds=[1], voting="plurality",
            )

    def test_single_member_ensemble_equals_member(self, trained_setup):
        model_config, train_set, val_set, train_config = trained_setup
        config = EnsembleConfig(
            member_model_config=model_config, n_members=1, member_shuffle_seeds=[7]
        )
        ensemble, runs = train_ensemble(train_set, val_set, config, train_config)
        prediction = ensemble.predict(val_set)
        member_prediction = ensemble.members[0].predict(val_set)
        assert np.array_equal(prediction.labels, member_prediction)
        assert prediction.disagreement_count == 0
        assert len(runs) == 1

    def test_identical_seeds_give_identical_members(self, trained_setup):
        model_config, train_set, val_set, train_config = trained_setup
        config = EnsembleConfig(
            member_model_config=model_config, n_members=3,
            member_shuffle_seeds=[5, 5, 5], shared_init=True,
        )
        ensemble, _ = train_ensemble(train_set, val_set, config, train_config)
        for name, p in ensemble.members[0].named_parameters():
            for other in ensemble.members[1:]:
                assert np.array_equal(p.data, other.params[name].data), name
        prediction = ensemble.predict(val_set)
        assert prediction.disagreement_count == 0
        assert np.array_equal(prediction.labels, ensemble.members[0].predict(val_set))

    def test_distinct_seeds_diversify_members(self, trained_setup):
        model_config, train_set, val_set, train_config = trained_setup
        config = EnsembleConfig(
            member_model_config=model_config, n_members=3,
            member_shuffle_seeds=[11, 12, 13], shared_init=True,
        )
        ensemble, runs = train_ensemble(train_set, val_set, config, train_config)
        differs = any(
            not np.array_equal(
                ensemble.members[0].params[name].data, member.params[name].data
            )
            for member in ensemble.members[1:]
            for name in ensemble.members[0].params
        )
        assert differs
        member_accuracies = [accuracy(m, val_set) for m in ensemble.members]
        prediction = ensemble.predict(val_set)
        labels = np.array([e.label for e in val_set])
        ensemble_accuracy = float(np.mean(prediction.labels == labels))
        assert ensemble_accuracy >= min(member_accuracies)
        # internal consistency: reported labels re-derive from member labels
        assert np.array_equal(
            prediction.labels, majority_vote(prediction.member_labels)
        )

    def test_shared_init_starts_identical(self, trained_setup):
        model_config, *_ = trained_setup
        a = init_model(model_config)
        b = init_model(model_config)
        for name, p in a.named_parameters():
            assert np.array_equal(p.data, b.params[name].data)

    def test_member_shape_mismatch_rejected(self, trained_setup):
        model_config, *_ = trained_setup
        other = dataclasses.replace(model_config, hidden_dim=32, num_heads=2)
        config = EnsembleConfig(
            member_model_config=model_config, n_members=2, member_shuffle_seeds=[1, 2]
        )
        with pytest.raises(ConfigError, match="share one model shape"):
            EnsembleModel([init_model(model_config), init_model(other)], config)

    @pytest.mark.parametrize("key, value", [("num_classes", 3), ("num_layers", 4)])
    def test_members_must_have_the_configured_shape(self, trained_setup, key, value):
        """Members that agree with each other are still rejected when the
        config claims another shape, which ``evaluate`` would score."""
        model_config, *_ = trained_setup
        claimed = dataclasses.replace(model_config, **{key: value})
        config = EnsembleConfig(
            member_model_config=claimed, n_members=2, member_shuffle_seeds=[1, 2]
        )
        with pytest.raises(ConfigError, match="share one model shape"):
            EnsembleModel([init_model(model_config), init_model(model_config)], config)

    def test_members_may_differ_from_the_config_in_init_seed(self, trained_setup):
        model_config, *_ = trained_setup
        members = [init_model(dataclasses.replace(model_config, init_seed=s)) for s in (7, 8)]
        config = EnsembleConfig(
            member_model_config=dataclasses.replace(model_config, init_seed=99),
            n_members=2, member_shuffle_seeds=[1, 2],
        )
        assert EnsembleModel(members, config).members == members

    def test_training_failure_names_member_index(self, trained_setup):
        from minibert.errors import TrainingError

        model_config, train_set, val_set, train_config = trained_setup
        config = EnsembleConfig(
            member_model_config=model_config, n_members=2, member_shuffle_seeds=[1, 2]
        )
        with pytest.raises(TrainingError, match="member 0"):
            train_ensemble(train_set, [], config, train_config)


def count_forward_rows(monkeypatch) -> Counter:
    """Rows each model's ``forward`` sees from now on, keyed by model id."""
    rows: Counter = Counter()
    original = ClassifierModel.forward

    def counting(self, token_ids, segment_ids, attention_mask):
        rows[id(self)] += len(token_ids)
        return original(self, token_ids, segment_ids, attention_mask)

    monkeypatch.setattr(ClassifierModel, "forward", counting)
    return rows


class TestOnePassPrediction:
    @pytest.fixture(params=["majority", "average_probability"])
    def ensemble(self, request, trained_setup):
        # untrained members from distinct, large inits disagree on some examples
        model_config, *_ = trained_setup
        base = dataclasses.replace(model_config, init_scale=0.5)
        members = [init_model(dataclasses.replace(base, init_seed=s)) for s in (1, 2, 3)]
        config = EnsembleConfig(
            member_model_config=base, n_members=3,
            member_shuffle_seeds=[1, 2, 3], voting=request.param,
        )
        return EnsembleModel(members, config)

    def test_each_member_forwards_each_example_once(self, ensemble, trained_setup, monkeypatch):
        *_, val_set, _ = trained_setup
        rows = count_forward_rows(monkeypatch)
        ensemble.predict(val_set)
        assert rows == {id(m): len(val_set) for m in ensemble.members}

    def test_matches_a_model_by_model_computation(self, ensemble, trained_setup):
        *_, val_set, _ = trained_setup
        prediction = ensemble.predict(val_set)
        member_labels = np.stack([m.predict(val_set) for m in ensemble.members])
        if ensemble.config.voting == "average_probability":
            expected = average_vote([m.predict_proba(val_set) for m in ensemble.members])
        else:
            expected = majority_vote(member_labels)
        disagreements = sum(len(set(column)) > 1 for column in member_labels.T)
        assert disagreements > 0
        np.testing.assert_array_equal(prediction.labels, expected)
        np.testing.assert_array_equal(prediction.member_labels, member_labels)
        assert prediction.disagreement_count == disagreements

    def test_member_accuracies_match_accuracy(self, ensemble, trained_setup):
        *_, val_set, _ = trained_setup
        reported = evaluate(ensemble, val_set).member_accuracies
        assert reported == [accuracy(m, val_set) for m in ensemble.members]

    def test_tiny_logit_members_label_alike_in_vote_and_accuracy(
        self, trained_setup, monkeypatch
    ):
        """Under average voting a member's label is its ``predict`` label,
        also where its logits differ by less than the float32 softmax
        resolves.  At init_scale 1e-5 and init seed 1 every member puts
        class 1 ahead in its logits on every example, by under 4e-9, so
        each probability row ties at 0.5 and labels class 0."""
        model_config, *_, val_set, _ = trained_setup
        base = dataclasses.replace(model_config, init_scale=1e-5, init_seed=1)
        members = [init_model(base) for _ in range(3)]
        ensemble = EnsembleModel(members, EnsembleConfig(
            member_model_config=base, n_members=3,
            member_shuffle_seeds=[1, 2, 3], voting="average_probability",
        ))
        # three in four labels are class 1
        examples = [dataclasses.replace(e, label=int(i % 4 > 0)) for i, e in enumerate(val_set)]
        with T.no_grad():
            logits = members[0].logits(examples).data
        assert np.all(logits[:, 1] > logits[:, 0])
        assert np.all(logits[:, 1] - logits[:, 0] < 4e-9)

        rows = count_forward_rows(monkeypatch)
        evaluation = evaluate(ensemble, examples)
        assert rows == {id(m): len(examples) for m in members}
        assert evaluation.member_accuracies == [accuracy(m, examples) for m in members]
        assert evaluation.member_accuracies == [0.25] * 3

    def test_examples_are_stacked_once(self, ensemble, trained_setup, monkeypatch):
        *_, val_set, _ = trained_setup
        stacked = []
        stack = model_module.stack_examples

        def recording_stack(examples):
            stacked.append(len(examples))
            return stack(examples)

        monkeypatch.setattr(model_module, "stack_examples", recording_stack)
        evaluate(ensemble, val_set)
        assert stacked == [len(val_set)]

    def test_member_accuracies_reject_mismatched_labels(self):
        """``evaluate`` scores each member's labels with ``confusion_matrix``,
        which rejects labels of another length and empty ones."""
        prediction = EnsemblePrediction(
            labels=np.array([0, 1, 0, 1]), member_labels=np.zeros((3, 4), dtype=np.int64)
        )
        scored = [metrics(confusion_matrix(row, [0, 0, 0, 0], 2)) for row in prediction.member_labels]
        assert [report.accuracy for report in scored] == [1.0, 1.0, 1.0]
        with pytest.raises(ValueError, match="equal-length"):
            confusion_matrix(prediction.member_labels[0], [0, 1, 0], 2)
        empty = EnsemblePrediction(
            labels=np.array([], dtype=np.int64), member_labels=np.zeros((3, 0), dtype=np.int64)
        )
        with pytest.raises(ValueError, match="empty"):
            confusion_matrix(empty.member_labels[0], [], 2)
        assert not hasattr(prediction, "member_accuracies")


class TestEnsemblePrediction:
    def test_disagreement_count_follows_the_member_labels(self):
        member_labels = np.array([[0, 1, 1, 0, 1], [0, 1, 0, 0, 1], [1, 1, 0, 0, 0]])
        prediction = EnsemblePrediction(majority_vote(member_labels), member_labels)
        assert prediction.disagreement_count == 3
        agreeing = EnsemblePrediction(np.array([1, 0]), np.array([[1, 0], [1, 0], [1, 0]]))
        assert agreeing.disagreement_count == 0


class TestEvaluate:
    def test_model_scores_its_predictions_and_has_no_member_fields(self, trained_setup):
        model_config, _, val_set, _ = trained_setup
        model = init_model(dataclasses.replace(model_config, init_scale=0.5))
        expected = metrics(confusion_matrix(model.predict(val_set), example_labels(val_set), 2))
        evaluation = evaluate(model, val_set)
        assert evaluation.metrics.as_dict() == expected.as_dict()
        assert evaluation.member_accuracies is None
        assert evaluation.disagreement_count is None

    def test_ensemble_fields_come_from_its_prediction(self, trained_setup, monkeypatch):
        model_config, _, val_set, _ = trained_setup
        base = dataclasses.replace(model_config, init_scale=0.5)
        members = [init_model(dataclasses.replace(base, init_seed=s)) for s in (1, 2, 3)]
        ensemble = EnsembleModel(
            members,
            EnsembleConfig(member_model_config=base, n_members=3, member_shuffle_seeds=[1, 2, 3]),
        )
        labels = example_labels(val_set)
        prediction = ensemble.predict(val_set)

        rows = count_forward_rows(monkeypatch)
        evaluation = evaluate(ensemble, val_set)
        assert rows == {id(m): len(val_set) for m in members}
        expected = metrics(confusion_matrix(prediction.labels, labels, 2))
        assert evaluation.metrics.as_dict() == expected.as_dict()
        assert evaluation.member_accuracies == [
            float(np.mean(row == labels)) for row in prediction.member_labels
        ]
        assert evaluation.disagreement_count == prediction.disagreement_count > 0
