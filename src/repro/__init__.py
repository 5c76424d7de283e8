"""repro — redundancy-based software fault handling.

An executable reproduction of Carzaniga, Gorla & Pezzè, *Handling
Software Faults with Redundancy* (2008): the paper's taxonomy
(Tables 1–2) as machine-checkable metadata, the three architectural
patterns (Figure 1) as composition engines, and all seventeen surveyed
technique families as working implementations over simulated substrates
(fault injection, versions, environments, services, AST repair).

Quickstart::

    from repro import NVersionProgramming, diverse_versions

    versions = diverse_versions(lambda x: x * x, n=5,
                                failure_probability=0.1, seed=1)
    nvp = NVersionProgramming(versions)
    assert nvp.execute(12) == 144

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for every reproduced table/figure/claim.
"""

from repro.adjudicators import (
    AcceptanceTest,
    ConsensusVoter,
    DuplexComparator,
    InverseCheck,
    MajorityVoter,
    MedianVoter,
    PluralityVoter,
    PredicateAcceptanceTest,
    QoSMonitor,
    RangeAcceptanceTest,
    TestSuiteAdjudicator,
    ToleranceComparator,
    UnanimousVoter,
)
from repro.components import (
    Component,
    FunctionSpec,
    RestartableComponent,
    Version,
    correlated_version_population,
    diverse_versions,
)
from repro.components.state import DictState, StateSnapshot
from repro.environment import SimEnvironment, VirtualClock
from repro.exceptions import (
    AllAlternativesFailedError,
    AttackDetectedError,
    NoMajorityError,
    RedundancyError,
    SimulatedFailure,
    WorkaroundExhaustedError,
)
from repro.faults import (
    AgingBug,
    Bohrbug,
    FaultyFunction,
    Heisenbug,
    InputRegion,
    LeakFault,
)
from repro import observe
from repro import runtime
from repro.patterns import (
    ParallelEvaluation,
    ParallelSelection,
    SequentialAlternatives,
)
from repro.result import Outcome
from repro.runtime import ParallelMap, parallel_map
from repro.services import (
    Service,
    ServiceBroker,
    ServiceRegistry,
)
from repro.taxonomy import default_registry
from repro.techniques import (
    AutomaticWorkarounds,
    CheckpointRecovery,
    DataDiversity,
    DynamicServiceSubstitution,
    EnvironmentPerturbation,
    GeneticFaultFixing,
    MicroReboot,
    ModularApplication,
    NVariantDataStore,
    NVersionProgramming,
    ProcessReplicas,
    ProtectiveWrapper,
    RecoveryBlocks,
    Rejuvenation,
    RejuvenationPolicy,
    RobustLinkedList,
    RuleEngine,
    SelfCheckingProgramming,
    SelfOptimizing,
)

__version__ = "1.0.0"

__all__ = [
    "AcceptanceTest",
    "AgingBug",
    "AllAlternativesFailedError",
    "AttackDetectedError",
    "AutomaticWorkarounds",
    "Bohrbug",
    "CheckpointRecovery",
    "Component",
    "ConsensusVoter",
    "DataDiversity",
    "DictState",
    "DuplexComparator",
    "DynamicServiceSubstitution",
    "EnvironmentPerturbation",
    "FaultyFunction",
    "FunctionSpec",
    "GeneticFaultFixing",
    "Heisenbug",
    "InputRegion",
    "InverseCheck",
    "LeakFault",
    "MajorityVoter",
    "MedianVoter",
    "MicroReboot",
    "ModularApplication",
    "NVariantDataStore",
    "NVersionProgramming",
    "NoMajorityError",
    "Outcome",
    "ParallelEvaluation",
    "ParallelMap",
    "ParallelSelection",
    "PluralityVoter",
    "PredicateAcceptanceTest",
    "ProcessReplicas",
    "ProtectiveWrapper",
    "QoSMonitor",
    "RangeAcceptanceTest",
    "RecoveryBlocks",
    "RedundancyError",
    "Rejuvenation",
    "RejuvenationPolicy",
    "RestartableComponent",
    "RobustLinkedList",
    "RuleEngine",
    "SelfCheckingProgramming",
    "SelfOptimizing",
    "SequentialAlternatives",
    "Service",
    "ServiceBroker",
    "ServiceRegistry",
    "SimEnvironment",
    "SimulatedFailure",
    "StateSnapshot",
    "TestSuiteAdjudicator",
    "ToleranceComparator",
    "UnanimousVoter",
    "Version",
    "VirtualClock",
    "WorkaroundExhaustedError",
    "correlated_version_population",
    "default_registry",
    "diverse_versions",
    "observe",
    "parallel_map",
    "runtime",
]
