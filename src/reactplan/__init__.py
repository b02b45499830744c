"""Joint energy-based prediction and planning over discrete trajectory candidates."""

from .energy import (BoxDims, EnergyParams, EnergyTables, build_tables,
                     extract_features, goal_energy, unary_energy)
from .geometry import (OrientedBox, Polyline, Pose2, boxes_overlap,
                       point_to_box_distance, project_to_polyline)
from .inference import (LbpConfig, MarginalSet, conditional_marginals,
                        exact_marginals, lbp, set_conditional_marginals)
from .learning import (LossReport, TrainConfig, TrainingExample, gradient,
                       label_and_ignore, loss, synthetic_dataset, train)
from .planner import (PlanResult, PlannerConfig, interpolated_objective,
                      nonreactive_objective, plan, reactive_objective)
from .sampler import (KinematicState, SamplerConfig, Trajectory,
                      closest_candidate, estimate_state, sample_candidates)
from .scenarios import CarFollowingParams, Lane, Scenario, builtin_templates
from .simulator import (EpisodeResult, SimConfig, SuiteResult,
                        actor_policy_step, run_suite, step_episode)
from .config import RunConfig

__version__ = "0.1.0"
