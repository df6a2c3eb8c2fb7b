"""Fast tests of the benchmark's own correctness checkers."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import json  # noqa: E402

import bench  # noqa: E402
import minibert.cli  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from minibert.checkpoint import save_ensemble, save_model  # noqa: E402
from minibert.ensemble import EnsembleConfig, EnsembleModel  # noqa: E402
from minibert.model import ModelConfig, init_model  # noqa: E402
from minibert.tokenizer import build_vocab, encode  # noqa: E402

TEXTS = [
    "Good day 好天气", "bad MOVIE", "天气 很好 good", "worst 电影 ever",
    "fine fine fine", "不好 bad", "good good 好", "x", "电影好看 good movie ok",
]


def tiny_model(vocab, seed, layers=2):
    config = ModelConfig(
        vocab_size=len(vocab), hidden_dim=8, num_layers=layers, num_heads=2,
        ff_dim=16, max_seq_len=12, num_classes=3, init_seed=seed, init_scale=0.5,
    )
    return init_model(config)


@pytest.fixture()
def vocab():
    return build_vocab(TEXTS[:6], max_size=50)


def test_reference_forward_matches_program(tmp_path, vocab):
    model = tiny_model(vocab, seed=3)
    save_model(model, tmp_path, vocab)
    examples = [encode(t, vocab, 12) for t in TEXTS]
    expected = model.logits(examples).data
    checkpoint = reference.read_checkpoint(tmp_path)
    got = reference.logits(checkpoint, reference.encode(TEXTS, checkpoint.vocab, 12))
    np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("voting", ["majority", "average_probability"])
def test_reference_ensemble_matches_program(tmp_path, vocab, voting):
    members = [tiny_model(vocab, seed=s, layers=1) for s in (1, 2, 3)]
    config = EnsembleConfig(members[0].config, n_members=3, member_shuffle_seeds=[1, 2, 3], voting=voting)
    ensemble = EnsembleModel(members, config)
    save_ensemble(ensemble, tmp_path, vocab)
    examples = [encode(t, vocab, 12) for t in TEXTS]
    expected = ensemble.predict(examples)
    got = reference.predict(tmp_path, TEXTS)
    assert not got.near_tie.any()
    np.testing.assert_array_equal(got.labels, expected.labels)
    np.testing.assert_array_equal(got.member_labels, expected.member_labels)
    assert got.disagreement_count == expected.disagreement_count


def test_tokens_follow_the_documented_segmentation():
    assert reference.tokens("Hello 世界abc  DEF　中x") == ["hello", "世", "界", "abc", "def", "中", "x"]


def report(counts):
    counts = np.asarray(counts)
    return {"confusion": counts.tolist(), "accuracy": np.trace(counts) / counts.sum()}


def test_check_report_accepts_consistent_counts():
    counts = reference.check_report(report([[3, 1], [0, 4]]), 8, 2, "t")
    assert counts.sum() == 8


@pytest.mark.parametrize(
    "doc, total",
    [
        (report([[3, 1], [0, 4]]), 9),  # counts do not sum to the split size
        ({"confusion": [[3, 1], [0, 4]], "accuracy": 0.5}, 8),  # accuracy != trace / total
        ({"confusion": [[3, 1, 0], [0, 4, 0]], "accuracy": 7 / 8}, 8),  # not square
        ({"confusion": [[3, -1], [2, 4]], "accuracy": 7 / 8}, 8),  # negative count
        ({"confusion": [[3.5, 0.5], [0, 4]], "accuracy": 7.5 / 8}, 8),  # not counts
    ],
)
def test_check_report_rejects_corrupted_confusion(doc, total):
    with pytest.raises(reference.CheckFailure):
        reference.check_report(doc, total, 2, "t")


def ensemble_prediction():
    member_labels = np.array([[0, 1, 1, 0, 1], [0, 1, 0, 0, 1], [1, 1, 0, 0, 0]])
    labels = reference.majority_vote(member_labels, 2)
    no_ties = np.zeros(5, dtype=bool)
    return reference.Prediction(labels, no_ties, member_labels, np.zeros((3, 5), dtype=bool))


def test_votes_and_disagreements():
    prediction = ensemble_prediction()
    np.testing.assert_array_equal(prediction.labels, [0, 1, 0, 0, 1])
    assert prediction.disagreement_count == 3
    # average voting can overrule the majority of member labels
    probs = np.array([[[0.9, 0.1]], [[0.4, 0.6]], [[0.45, 0.55]]])
    np.testing.assert_array_equal(reference.average_vote(probs), [0])
    np.testing.assert_array_equal(reference.majority_vote(probs.argmax(axis=2), 2), [1])
    # ties go to the lowest class index
    np.testing.assert_array_equal(reference.majority_vote(np.array([[0], [1], [2]]), 3), [0])


def check(prediction, labels, counts=None, member_accuracies=None, disagreement=None):
    if counts is None:
        counts = reference.confusion(prediction.labels, labels, 2)
    if member_accuracies is None:
        member_accuracies = [float(np.mean(m == labels)) for m in prediction.member_labels]
    if disagreement is None:
        disagreement = prediction.disagreement_count
    return reference.check_against_reference(counts, member_accuracies, disagreement, prediction, labels, "t")


def test_check_against_reference_accepts_matching_outputs():
    prediction = ensemble_prediction()
    assert check(prediction, np.array([0, 1, 1, 0, 1])) == 0


def test_check_against_reference_rejects_wrong_vote():
    prediction = ensemble_prediction()
    labels = np.array([0, 1, 1, 0, 1])
    wrong = prediction.labels.copy()
    wrong[2] = 1 - wrong[2]  # one final decision that does not follow from the votes
    with pytest.raises(reference.CheckFailure):
        check(prediction, labels, counts=reference.confusion(wrong, labels, 2))


def test_check_against_reference_rejects_wrong_disagreement_count():
    prediction = ensemble_prediction()
    with pytest.raises(reference.CheckFailure):
        check(prediction, np.array([0, 1, 1, 0, 1]), disagreement=prediction.disagreement_count + 1)


def test_check_against_reference_rejects_wrong_member_accuracy():
    prediction = ensemble_prediction()
    with pytest.raises(reference.CheckFailure):
        check(prediction, np.array([0, 1, 1, 0, 1]), member_accuracies=[1.0, 0.8, 0.6])


def test_near_ties_allow_one_flip_each():
    prediction = ensemble_prediction()
    prediction.near_tie[2] = True
    prediction.member_near_tie[0, 2] = True
    labels = np.array([0, 1, 1, 0, 1])
    flipped = prediction.labels.copy()
    flipped[2] = 1 - flipped[2]
    assert check(prediction, labels, counts=reference.confusion(flipped, labels, 2)) == 1


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    reported = {name: unit for name, (_, unit) in tracing.Tracer().metrics().items()}
    reported.update({"trace.overhead_s": "s", "process.run_minor_faults": "count",
                     "process.eval_minor_faults": "count"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported


def fail_by_raising():
    raise RuntimeError("boom")


@pytest.mark.parametrize("failure, message", [(fail_by_raising, "RuntimeError: boom"), (lambda: 1, "exited 1")])
def test_a_failing_operation_is_recorded_and_the_round_goes_on(tmp_path, monkeypatch, failure, message):
    def fake_main(argv):
        if argv[0] == "run":
            (Path(argv[argv.index("--output-dir") + 1]) / "run-1").mkdir(parents=True)
            return 0
        if workloads.DEEP in argv[1]:
            return failure()
        print("{}")
        return 0

    monkeypatch.setattr(minibert.cli, "main", fake_main)
    inputs = workloads.Inputs(
        configs={v: tmp_path / f"{v}.json" for v in workloads.VARIANTS},
        corpus_csv=None,
        held_out_csv=tmp_path / "held_out.csv",
    )
    rnd = bench.run_round(workloads.WORKLOADS["desk-short"], inputs, tmp_path, traced=False)
    assert [op.ok for op in rnd.ops] == [True, True, True, False]
    assert rnd.evals[workloads.ENSEMBLE].stdout == "{}\n"
    assert message in rnd.evals[workloads.DEEP].error
