"""The benchmark's models: built in-repo with seeded weights and inputs."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import repro
from repro import nn
from repro.models import (DeepRecommender, SimpleCNN, TransformerEncoder,
                          learning_to_paint_actor, resnet50)
from repro.serve.smoke import ChainModel


@dataclass(frozen=True)
class Spec:
    build: Callable[[], nn.Module]
    make_input: Callable[[np.random.Generator], np.ndarray]
    #: ``True`` when no BatchNorm is folded, so ``fx.compile`` promises
    #: bit-exact output; ``False`` compares within common.RTOL/ATOL.
    exact: bool


def _normal(*shape):
    return lambda rng: rng.standard_normal(shape).astype(np.float32)


ZOO = {
    "resnet50": Spec(resnet50, _normal(1, 3, 64, 64), exact=False),
    "ltp": Spec(learning_to_paint_actor, _normal(1, 9, 64, 64), exact=False),
    "transformer": Spec(lambda: TransformerEncoder(1000),
                        lambda rng: rng.integers(0, 1000, (1, 32)),
                        exact=True),
    "deeprec": Spec(lambda: DeepRecommender(n_items=2048),
                    _normal(8, 2048), exact=True),
}
TRT_MODELS = ("resnet50", "ltp")

SERVE = {
    "chain": Spec(ChainModel, _normal(1, 256), exact=True),
    "cnn": Spec(SimpleCNN, _normal(1, 3, 28, 28), exact=False),
    "ltp": ZOO["ltp"],
}


class CoupledModel(nn.Module):
    """Row *i* of the output depends on every row of the input, so
    coalescing requests along dim 0 changes each one's answer."""

    def forward(self, x):
        return x - x.mean(0)


def build(spec: Spec, weight_seed: int) -> nn.Module:
    repro.manual_seed(weight_seed)
    return spec.build().eval()


def make_input(spec: Spec, rng: np.random.Generator):
    return repro.tensor(spec.make_input(rng))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(getattr(a, "data", a)).tobytes())
    return h.hexdigest()[:16]
