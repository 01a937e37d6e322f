"""Output checks made apart from the protocol stack.

None of these run an OMPE, an OT or a codec: each recomputes in exact
rationals what the protocol must have produced and compares.

* Classification: the label, and the sign of the masked value
  ``r_a·d(t)`` (``r_a > 0``), must equal the sign of ``d(t)`` evaluated
  here from the model's parameters snapped onto the exact grid the
  protocol uses (``SNAP``).
* Similarity: ``T²`` must equal Eq. 6,
  ``¼(L⁴ + L₀⁴)(1 − cos²θ + sin²θ₀)``, computed here in ``Fraction``s
  from the two models' snapped centroids and normals.
* Linkage: the match set must be exactly the pairs whose exact ``T`` is
  within the threshold.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Sequence, Set, Tuple

from repro.core.similarity import MetricParams
from repro.core.similarity.exact import snap
from repro.core.similarity.linear import linear_geometry
from repro.ml.svm.model import SVMModel

#: The protocol represents model parameters exactly on the 2^-40 grid.
SNAP = 1 << 40


def _grid(value: float) -> Fraction:
    return Fraction(round(float(value) * SNAP), SNAP)


def exact_decision(model: SVMModel, sample: Sequence[float]) -> Fraction:
    """``d(t)`` in exact rationals, for a linear or polynomial kernel."""
    point = [Fraction(float(v)) for v in sample]
    name, params = model.kernel_spec
    total = _grid(model.bias)
    if name == "linear":
        for weight, coordinate in zip(model.weight_vector(), point):
            total += _grid(weight) * coordinate
        return total
    if name not in ("poly", "polynomial"):
        raise ValueError(f"no exact decision function for kernel {name!r}")
    degree = int(params.get("degree", 3))
    a0 = _grid(params.get("a0", 1.0))
    b0 = _grid(params.get("b0", 0.0))
    for dual, vector in zip(model.dual_coefficients, model.support_vectors):
        dot = sum((_grid(v) * t for v, t in zip(vector, point)), Fraction(0))
        total += _grid(dual) * (a0 * dot + b0) ** degree
    return total


def _sign(value) -> int:
    return (value > 0) - (value < 0)


def sign_matches(decision: Fraction, label: float, masked) -> bool:
    """The label (+1 on the boundary) and the masked value's sign agree
    with the exact decision value."""
    expected = 1.0 if decision >= 0 else -1.0
    return label == expected and _sign(masked) == _sign(decision)


def classification_ok(model: SVMModel, sample, label: float, masked) -> bool:
    return sign_matches(exact_decision(model, sample), label, masked)


def exact_t_squared(
    model_a: SVMModel, model_b: SVMModel, params: MetricParams
) -> Fraction:
    """Eq. 6 from the snapped geometry of two linear models."""
    m_a, w_a = linear_geometry(model_a, params)
    m_b, w_b = linear_geometry(model_b, params)
    squared_distance = sum(((a - b) ** 2 for a, b in zip(m_a, m_b)), Fraction(0))
    dot = sum((a * b for a, b in zip(w_a, w_b)), Fraction(0))
    norm_a = sum((a * a for a in w_a), Fraction(0))
    norm_b = sum((b * b for b in w_b), Fraction(0))
    cos_squared = dot * dot / (norm_a * norm_b)
    l0 = snap(params.l0)
    sin0 = snap(params.sin_theta0)
    return Fraction(1, 4) * (squared_distance**2 + l0**4) * (
        1 - cos_squared + sin0**2
    )


def similarity_ok(expected: Fraction, t_squared) -> bool:
    return isinstance(t_squared, Fraction) and t_squared == expected


def expected_matches(
    exact: Dict[Tuple[str, str], Fraction], threshold: float
) -> Set[Tuple[str, str]]:
    """Pairs whose exact ``T`` is at most ``threshold``."""
    bound = Fraction(threshold) ** 2
    return {pair for pair, t_squared in exact.items() if t_squared <= bound}


def match_set_errors(
    found: Iterable[Tuple[str, str]], expected: Set[Tuple[str, str]]
) -> Set[Tuple[str, str]]:
    """The pairs on which a found match set disagrees with the expected."""
    return set(found) ^ expected
