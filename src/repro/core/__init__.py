"""The paper's contribution: reenactment, provenance tracking, the
provenance-aware optimizer, what-if scenarios and the GProM pipeline."""

from repro.core.equivalence import (EquivalenceReport, TableCheck,
                                    check_history_equivalence,
                                    check_transaction_equivalence)
from repro.core.middleware import GProM, PipelineTrace
from repro.core.optimizer import OptimizerConfig, ProvenanceOptimizer
from repro.core.provenance.rewriter import (ProvenanceAttribute,
                                            ProvenanceRewriter,
                                            RewriteResult)
from repro.core.trigger_history import TriggerHistory
from repro.core.reenactor import (ParsedStatement, ReenactmentOptions,
                                  ReenactmentResult, Reenactor)
from repro.core.whatif import (ConflictFinding, TableDiff, WhatIfResult,
                               WhatIfScenario)

__all__ = [
    "EquivalenceReport", "TableCheck", "check_history_equivalence",
    "check_transaction_equivalence", "GProM", "PipelineTrace",
    "OptimizerConfig", "ProvenanceOptimizer",
    "ProvenanceAttribute", "ProvenanceRewriter", "RewriteResult",
    "ParsedStatement", "ReenactmentOptions", "ReenactmentResult",
    "Reenactor", "TriggerHistory", "ConflictFinding", "TableDiff", "WhatIfResult",
    "WhatIfScenario",
]
