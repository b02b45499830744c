"""One run configuration bundling every tunable, with lossless JSON round-trip."""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .energy import EnergyParams
from .errors import check_counts
from .inference import LbpConfig
from .planner import PlannerConfig
from .sampler import SamplerConfig
from .simulator import SimConfig


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

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "sampler": self.sampler.to_dict(),
            "energy": self.energy.to_dict(),
            "lbp": self.lbp.to_dict(),
            "variant": self.variant,
            "set_size": self.set_size,
            "sim": self.sim.to_dict(),
            "n_variants": self.n_variants,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls(seed=data["seed"],
                   sampler=SamplerConfig.from_dict(data["sampler"]),
                   energy=EnergyParams.from_dict(data["energy"]),
                   lbp=LbpConfig.from_dict(data["lbp"]),
                   variant=data["variant"], set_size=data["set_size"],
                   sim=SimConfig.from_dict(data["sim"]),
                   n_variants=data["n_variants"])

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed, sampler=replace(self.sampler, seed=seed))
