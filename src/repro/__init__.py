"""CrowdFusion reproduction: crowdsourced refinement of data-fusion results.

This package reproduces "CrowdFusion: A Crowdsourced Approach on Data Fusion
Refinement" (Chen, Chen & Zhang, ICDE 2017).

Everything listed in ``__all__`` is the stable public surface — import it
from ``repro`` directly instead of reaching into ``repro.core.selection.*``
and friends (deep paths may move between releases; these names will not).
The surface covers the full workflow: value types (facts, distributions,
answers), channel models, the multi-round engine, persistent refinement
sessions, the typed :class:`RuntimeOptions` execution configuration, and the
multi-tenant refinement service with its client, and the durable
checkpointed experiment orchestrator.  ``docs/API.md`` documents every
group.
"""

from repro.core import (
    Answer,
    AnswerSet,
    Assignment,
    CalibratedCrowdModel,
    ChannelModel,
    CrowdFusionEngine,
    CrowdModel,
    DifficultyAdjustedCrowdModel,
    PerFactChannelModel,
    EngineResult,
    Fact,
    FactSet,
    JointDistribution,
    Query,
    RoundRecord,
    crowd_entropy,
    merge_answers,
    pws_quality,
    utility_gain,
)
from repro.core.crowd import RecalibratedChannelModel
from repro.core.runtime import RuntimeOptions
from repro.core.selection import (
    RefinementSession,
    SessionPool,
    available_selectors,
    get_selector,
)
from repro.core.selection.parallel import ParallelPolicy
from repro.exceptions import OrchestrationError
from repro.orchestration import (
    ClusterConfig,
    ClusterReport,
    OrchestratorConfig,
    OrchestratorReport,
    run_checkpointed_experiment,
    run_cluster_experiment,
)
from repro.service import (
    NO_RETRY,
    DeadlineExceededError,
    RefinementService,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    TransportError,
    serve,
)

__version__ = "6.1.0"

__all__ = [
    # value types
    "Answer",
    "AnswerSet",
    "Assignment",
    "Fact",
    "FactSet",
    "JointDistribution",
    "Query",
    # channel models
    "CalibratedCrowdModel",
    "ChannelModel",
    "CrowdModel",
    "DifficultyAdjustedCrowdModel",
    "PerFactChannelModel",
    "RecalibratedChannelModel",
    # engine and sessions
    "CrowdFusionEngine",
    "EngineResult",
    "RefinementSession",
    "RoundRecord",
    "SessionPool",
    # runtime configuration
    "ParallelPolicy",
    "RuntimeOptions",
    # the refinement service
    "DeadlineExceededError",
    "NO_RETRY",
    "RefinementService",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "TransportError",
    "serve",
    # durable experiment orchestration
    "ClusterConfig",
    "ClusterReport",
    "OrchestrationError",
    "OrchestratorConfig",
    "OrchestratorReport",
    "run_checkpointed_experiment",
    "run_cluster_experiment",
    # selection registry and utilities
    "available_selectors",
    "crowd_entropy",
    "get_selector",
    "merge_answers",
    "pws_quality",
    "utility_gain",
    "__version__",
]
