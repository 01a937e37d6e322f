"""Seeded inputs: everything a run feeds the program comes from here.

One seed fixes every input of a run:

* a linear and a degree-2 polynomial SVM trained on the ``australian``
  paper-dataset analog (8 features), and its test rows as the samples
  to classify;
* two registries of record models for PPRL-style similarity and
  linkage: ``RECORDS`` records each, ``OVERLAP`` of them the same people
  re-measured with noise, each record encoded as a linear model the way
  ``examples/linkage_pprl.py`` does it.

Per-operation protocol seeds come from :func:`op_seed`, so a run's
outputs are a pure function of ``--seed``.

Training is not part of any timed set-up: a run trains once, writes the
inputs with :func:`save_inputs` (models in the program's own
``repro.ml.svm.persistence`` format), and every timed set-up starts from
:func:`load_inputs`, as a service starts from a model trained offline.
(SVM training time depends on the seed's data: 0.16–0.33 s for the two
models over seeds 1–10, against a set-up of under a second.)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Set, Tuple

import numpy as np

from repro.core.ompe import OMPEConfig
from repro.math.groups import fast_group
from repro.ml.datasets import load_dataset
from repro.ml.svm import train_svm
from repro.ml.svm.model import SVMModel, make_linear_model
from repro.ml.svm.persistence import model_from_dict, model_to_dict

DATASET = "australian"
RECORD_DIMENSION = 4
RECORDS = 8
OVERLAP = 5
NOISE = 0.02
#: Linkage keeps pairs with ``T <= THRESHOLD`` (the example's value).
THRESHOLD = 0.001


def op_seed(seed: int, *labels: object) -> int:
    """A protocol seed derived from the run seed and a label path."""
    text = ":".join(str(part) for part in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def protocol_config() -> OMPEConfig:
    """The default configuration: what a classification or similarity
    call without a ``config`` argument runs (512-bit group)."""
    return OMPEConfig()


def linkage_config() -> OMPEConfig:
    """The configuration of ``examples/linkage_pprl.py`` (256-bit group)."""
    return OMPEConfig(security_degree=1, cover_expansion=2, group=fast_group())


@dataclass(frozen=True)
class Inputs:
    seed: int
    linear: SVMModel
    poly: SVMModel
    samples: np.ndarray
    left: Dict[str, SVMModel]
    right: Dict[str, SVMModel]
    #: ``(left key, right key)`` of the records that are the same person.
    truth: Set[Tuple[str, str]]

    @property
    def pairs(self) -> Tuple[Tuple[str, str], ...]:
        """Every cross-registry pair, in a fixed order."""
        return tuple((a, b) for a in sorted(self.left) for b in sorted(self.right))


def _encode_record(features: np.ndarray) -> SVMModel:
    """A record as a hyperplane normal to its features, at a
    norm-dependent distance inside the data box (see the example)."""
    norm = float(np.linalg.norm(features))
    distance = 0.25 + 0.5 / (1.0 + norm)
    return make_linear_model([float(v) for v in features], bias=-distance * norm)


def _registries(seed: int):
    rng = np.random.default_rng(op_seed(seed, "registries"))
    shared = rng.uniform(-1.0, 1.0, (OVERLAP, RECORD_DIMENSION))
    left, right = {}, {}
    for i in range(OVERLAP):
        left[f"A{i:02d}"] = shared[i] + rng.normal(0.0, NOISE, RECORD_DIMENSION)
        right[f"B{i:02d}"] = shared[i] + rng.normal(0.0, NOISE, RECORD_DIMENSION)
    for i in range(OVERLAP, RECORDS):
        left[f"A{i:02d}"] = rng.uniform(-1.0, 1.0, RECORD_DIMENSION)
        right[f"B{i:02d}"] = rng.uniform(-1.0, 1.0, RECORD_DIMENSION)
    truth = {(f"A{i:02d}", f"B{i:02d}") for i in range(OVERLAP)}
    return (
        {key: _encode_record(f) for key, f in left.items()},
        {key: _encode_record(f) for key, f in right.items()},
        truth,
    )


def make_inputs(seed: int) -> Inputs:
    data = load_dataset(DATASET, seed=op_seed(seed, "dataset") % (2**31))
    linear = train_svm(data.X_train, data.y_train, kernel="linear", C=1.0, seed=seed)
    poly = train_svm(
        data.X_train, data.y_train, kernel="poly", C=1.0, seed=seed, degree=2
    )
    left, right, truth = _registries(seed)
    return Inputs(
        seed=seed,
        linear=linear,
        poly=poly,
        samples=np.asarray(data.X_test, dtype=float),
        left=left,
        right=right,
        truth=truth,
    )


def save_inputs(data: Inputs, path: str) -> None:
    document = {
        "seed": data.seed,
        "linear": model_to_dict(data.linear),
        "poly": model_to_dict(data.poly),
        "samples": data.samples.tolist(),
        "left": {key: model_to_dict(model) for key, model in data.left.items()},
        "right": {key: model_to_dict(model) for key, model in data.right.items()},
        "truth": sorted(data.truth),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def load_inputs(path: str) -> Inputs:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return Inputs(
        seed=document["seed"],
        linear=model_from_dict(document["linear"]),
        poly=model_from_dict(document["poly"]),
        samples=np.asarray(document["samples"], dtype=float),
        left={key: model_from_dict(doc) for key, doc in document["left"].items()},
        right={key: model_from_dict(doc) for key, doc in document["right"].items()},
        truth={tuple(pair) for pair in document["truth"]},
    )
