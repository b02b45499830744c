"""One run configuration bundling every tunable, and the JSON codec of every
record whose JSON is its fields.

``to_dict`` writes one key per dataclass field: a nested dataclass becomes a
dict, an ndarray or a tuple a list. ``from_dict`` reads exactly those keys
back (an unknown or a missing key is a ValueError) and leaves every check of
the values to the class's own constructor.
"""
from __future__ import annotations

import functools
import json
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .energy import EnergyParams
from .errors import check_counts
from .inference import LbpConfig
from .planner import PlannerConfig
from .sampler import SamplerConfig
from .simulator import SimConfig


def to_dict(obj) -> dict:
    """The fields of the dataclass ``obj`` as JSON values."""
    def value(v):
        if is_dataclass(v):
            return to_dict(v)
        if isinstance(v, np.ndarray):
            return v.tolist()
        return list(v) if isinstance(v, tuple) else v
    return {f.name: value(getattr(obj, f.name)) for f in fields(obj)}


@functools.cache
def _field_types(cls) -> dict:
    """Each field's resolved type; resolving costs more than a whole
    trajectory's decoding, so it runs once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def from_dict(cls, data: dict):
    """The dataclass ``cls`` built from ``data``, which must hold exactly one
    key per field."""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {data!r}")
    types = _field_types(cls)
    unknown, missing = data.keys() - types.keys(), types.keys() - data.keys()
    if unknown or missing:
        raise ValueError(f"{cls.__name__}: unknown keys {sorted(unknown)}, "
                         f"missing keys {sorted(missing)}")

    def value(hint, v):
        if is_dataclass(hint):
            return from_dict(hint, v)
        return tuple(v) if typing.get_origin(hint) is tuple else v
    return cls(**{name: value(types[name], v) for name, v in data.items()})


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    energy: EnergyParams = field(default_factory=EnergyParams)
    lbp: LbpConfig = field(default_factory=LbpConfig)
    variant: str = "reactive"
    set_size: int | None = None
    sim: SimConfig = field(default_factory=SimConfig)
    n_variants: int = 50

    def __post_init__(self):
        check_counts(0, seed=self.seed)
        check_counts(n_variants=self.n_variants)
        if self.set_size is not None:
            check_counts(set_size=self.set_size)

    def planner_config(self, variant: str | None = None) -> PlannerConfig:
        """Planner settings with the interaction weights taken from the
        energy parameters."""
        return PlannerConfig(variant=variant or self.variant,
                             set_size=self.set_size,
                             lambda_b=self.energy.lambda_b,
                             lambda_c=self.energy.lambda_c,
                             w_goal=self.energy.w_goal,
                             lbp=self.lbp)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(to_dict(self), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            return from_dict(cls, json.load(fh))

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed, sampler=replace(self.sampler, seed=seed))
