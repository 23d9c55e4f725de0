"""The JSON readers share one line loop and one field rule.

``data.read_records`` reads every JSONL file (datasets and predictions) and
``data.json_value`` checks every JSON field's kind, in ``read_jsonl``,
``read_predictions`` and ``cli.load_model`` alike, with one message form:
``<field> must be a JSON <kind>, got <JSON text>``.
"""

import json

import numpy as np
import pytest

from trajrefine.cli import load_model, save_model
from trajrefine.data import (gen_synthetic, read_jsonl, read_predictions, round6,
                             write_jsonl, write_predictions)
from trajrefine.goals import fit_goal_model
from trajrefine.predictors import fit_predictor


def dataset_file(tmp_path, field, value):
    """A two-segment dataset file whose second line has ``field`` set to value."""
    path = tmp_path / "d.jsonl"
    write_jsonl(gen_synthetic("cv", 2, 0.0, seed=1), str(path))
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    obj[field] = value
    path.write_text(lines[0] + "\n" + json.dumps(obj) + "\n")
    return path, lambda: read_jsonl(str(path)), f"{path}: line 2: "


def unit_sigmas(n: int) -> np.ndarray:
    """(n, 25, 3) valid Gaussian parameters: unit sigmas, rho 0."""
    return np.broadcast_to([1.0, 1.0, 0.0], (n, 25, 3))


def predictions_file(tmp_path, field, value):
    """A two-line predictions file whose second line has ``field`` set to value."""
    path = tmp_path / "p.jsonl"
    write_predictions(str(path), ["a", "b"], np.zeros((2, 25, 2)), unit_sigmas(2),
                      "refined")
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    obj[field] = value
    path.write_text(lines[0] + "\n" + json.dumps(obj) + "\n")
    return path, lambda: read_predictions(str(path), 25), f"{path}: line 2: "


def model_file(section):
    """A maker of a model file with ``doc[section][field]`` set to value."""
    def make(tmp_path, field, value):
        path = tmp_path / "model.json"
        train = gen_synthetic("cv", 30, 0.1, seed=4)
        save_model(str(path), fit_predictor("cv", train), fit_goal_model(train),
                   {"dt": train.dt, "tau": train.tau, "horizon": train.horizon})
        doc = json.loads(path.read_text())
        doc[section][field] = value
        path.write_text(json.dumps(doc))
        return path, lambda: load_model(str(path)), f"{path}: invalid model file: "
    return make


@pytest.mark.parametrize("make,field,value,kind", [
    (dataset_file, "segment_id", 5, "string"),
    (dataset_file, "agent_id", 1.0, "integer"),
    (dataset_file, "agent_id", "7", "integer"),
    (dataset_file, "dt", True, "number"),
    (predictions_file, "segment_id", None, "string"),
    (predictions_file, "segment_id", ["b"], "string"),
    (model_file("protocol"), "tau", True, "integer"),
    (model_file("predictor"), "dt", "0.2", "number"),
    (model_file("predictor"), "window", 2.0, "integer"),
    (model_file("goal_model"), "history_len", None, "integer"),
    (model_file("goal_model"), "rotate", 1, "boolean"),
], ids=["dataset-id", "dataset-agent-float", "dataset-agent-string", "dataset-dt-bool",
        "predictions-id-null", "predictions-id-array", "model-tau-bool", "model-dt-string",
        "model-window-float", "model-history-null", "model-rotate-number"])
def test_every_reader_names_a_wrong_json_kind_alike(tmp_path, make, field, value, kind):
    path, read, prefix = make(tmp_path, field, value)
    with pytest.raises(ValueError) as exc:
        read()
    assert str(exc.value) == f"{prefix}{field} must be a JSON {kind}, got {json.dumps(value)}"


@pytest.mark.parametrize("mode", ["refined", "vanilla"])
def test_predictions_round_trip(tmp_path, mode):
    rng = np.random.default_rng(3)
    ids = ["v1-t0-s0", "ünï\"cödé", "v2-t1-s10"]
    means = rng.normal(0.0, 50.0, size=(3, 25, 2))
    sigmas = rng.uniform([0.1, 0.1, -0.9], [2.0, 2.0, 0.9], size=(3, 25, 3))
    path = tmp_path / "p.jsonl"
    write_predictions(str(path), ids, means, sigmas, mode)
    got = read_predictions(str(path), 25)
    assert [sid for sid, _, _ in got] == ids
    assert {m for _, _, m in got} == {mode}
    for (_, read, _), written in zip(got, round6(means)):
        assert read.tobytes() == written.tobytes()


def test_empty_predictions_file_reads_as_no_predictions(tmp_path):
    path = tmp_path / "p.jsonl"
    write_predictions(str(path), [], np.empty((0, 25, 2)), np.empty((0, 25, 3)), "vanilla")
    assert read_predictions(str(path), 25) == []


def test_predictions_of_another_horizon_name_the_line(tmp_path):
    path = tmp_path / "p.jsonl"
    write_predictions(str(path), ["a"], np.zeros((1, 25, 2)), unit_sigmas(1), "refined")
    with pytest.raises(ValueError, match=r"line 1: means must be a finite \(30, 2\) array$"):
        read_predictions(str(path), 30)


def test_repeated_prediction_id_names_its_first_line(tmp_path):
    path = tmp_path / "p.jsonl"
    write_predictions(str(path), ["a", "b", "a"], np.zeros((3, 25, 2)), unit_sigmas(3),
                      "refined")
    with pytest.raises(ValueError) as exc:
        read_predictions(str(path), 25)
    assert str(exc.value) == f"{path}: line 3: repeated segment id 'a' (first on line 1)"


def with_value(a: np.ndarray, index: tuple, value: float) -> np.ndarray:
    a = np.array(a)
    a[index] = value
    return a


MEANS = np.zeros((2, 25, 2))


SHAPES = "{} segment ids need (N, T, 2) means and (N, T, 3) sigmas with N = {}, got {} and {}"
RULE = "must be finite, sigmas {} finite, > 0 and |rho| < 1"


@pytest.mark.parametrize("ids,means,sigmas,message", [
    (["a", "b", "c"], MEANS, unit_sigmas(2), SHAPES.format(3, 3, (2, 25, 2), (2, 25, 3))),
    (["a", "b"], MEANS, unit_sigmas(2)[:, :24], SHAPES.format(2, 2, (2, 25, 2), (2, 24, 3))),
    (["a", "b"], np.zeros((2, 25, 3)), unit_sigmas(2),
     SHAPES.format(2, 2, (2, 25, 3), (2, 25, 3))),
    (["a", "b"], MEANS[:, :, :1], unit_sigmas(2)[:, :, :2],
     SHAPES.format(2, 2, (2, 25, 1), (2, 25, 2))),
    (["a", "b"], with_value(MEANS, (1, 3, 1), np.nan), unit_sigmas(2),
     "segment b: step 4: means [0.0, nan] " + RULE.format([1.0, 1.0, 0.0])),
    (["a", "b"], with_value(MEANS, (1, 24, 0), -np.inf), with_value(unit_sigmas(2), (0, 0, 0), 0),
     "segment a: step 1: means [0.0, 0.0] " + RULE.format([0.0, 1.0, 0.0])),
    (["a", "b"], MEANS, with_value(unit_sigmas(2), (1, 0, 0), np.nan),
     "segment b: step 1: means [0.0, 0.0] " + RULE.format([np.nan, 1.0, 0.0])),
    (["a", "b"], MEANS, np.ones((2, 25, 3)),
     "segment a: step 1: means [0.0, 0.0] " + RULE.format([1.0, 1.0, 1.0])),
    (["a", "b"], MEANS, with_value(unit_sigmas(2), (1, 7, 2), -1.0),
     "segment b: step 8: means [0.0, 0.0] " + RULE.format([1.0, 1.0, -1.0])),
    (["a", "b"], MEANS, with_value(unit_sigmas(2), (0, 2, 1), -0.5),
     "segment a: step 3: means [0.0, 0.0] " + RULE.format([1.0, -0.5, 0.0])),
    (["a", "b"], MEANS, with_value(unit_sigmas(2), (1, 24, 0), np.inf),
     "segment b: step 25: means [0.0, 0.0] " + RULE.format([np.inf, 1.0, 0.0])),
], ids=["more-ids-than-rows", "other-horizon", "mean-triples", "too-few-columns", "nan-mean",
        "first-step-at-fault", "nan-sigma", "rho-one", "rho-minus-one", "negative-sigma",
        "infinite-sigma"])
def test_write_predictions_rejects_what_it_cannot_write(tmp_path, ids, means, sigmas, message):
    path = tmp_path / "p.jsonl"
    with pytest.raises(ValueError) as exc:
        write_predictions(str(path), ids, means, sigmas, "refined")
    assert str(exc.value) == message
    assert not path.exists()


@pytest.mark.parametrize("line,message", [
    ("[1, 2]", "expected a JSON object"),
    ('{"segment_id": "a", "means": []}', "missing field 'mode'"),
    ("{", "invalid JSON (Expecting property name enclosed in double quotes)"),
], ids=["array", "missing-field", "invalid"])
def test_malformed_prediction_lines_name_the_line(tmp_path, line, message):
    path = tmp_path / "p.jsonl"
    path.write_text("\n" + line + "\n")
    with pytest.raises(ValueError) as exc:
        read_predictions(str(path), 25)
    assert str(exc.value) == f"{path}: line 2: {message}"
