"""Token sliding reconfiguration of k-path vertex covers on caterpillars.

Polynomial decision procedure and witness construction for k >= 4, plus a
brute-force oracle for cross-checking on small instances.
"""

from .cover import PartitionResult, TokenSet, is_kpvc, minimum_cover_size, partition
from .errors import (
    InputError,
    InstanceFormatError,
    KpvcrError,
    LogicError,
    ResourceLimitError,
    UnsupportedParameterError,
)
from .generate import GenerateConfig, random_instance
from .graph import Caterpillar, CaterpillarForest, L, S, VertexId
from .instance import (
    InstanceFile,
    parse_instance,
    parse_witness,
    render_dot,
    render_witness,
)
from .oracle import (
    DEFAULT_MAX_STATES,
    enumerate_caterpillars,
    enumerate_kpvcs,
    oracle_reachable,
    oracle_reachable_covers,
    oracle_rigid_set,
    reachability_classes,
)
from .planner import (
    TsSequence,
    build_sequence,
    construct_si,
    is_ts_reachable,
    reachability_signature,
    validate_sequence,
)
from .rigidity import (
    HRegion,
    PathClassification,
    RigidDecision,
    RigidReport,
    anchor_set,
    can_feed_region,
    classify_k_paths,
    find_h_regions,
    is_rigid,
    rigid_set,
)

__version__ = "1.0.0"

__all__ = [
    "Caterpillar",
    "CaterpillarForest",
    "DEFAULT_MAX_STATES",
    "GenerateConfig",
    "HRegion",
    "InputError",
    "InstanceFile",
    "InstanceFormatError",
    "KpvcrError",
    "L",
    "LogicError",
    "PartitionResult",
    "PathClassification",
    "ResourceLimitError",
    "RigidDecision",
    "RigidReport",
    "S",
    "TokenSet",
    "TsSequence",
    "UnsupportedParameterError",
    "VertexId",
    "anchor_set",
    "build_sequence",
    "can_feed_region",
    "classify_k_paths",
    "construct_si",
    "enumerate_caterpillars",
    "enumerate_kpvcs",
    "find_h_regions",
    "is_kpvc",
    "is_rigid",
    "is_ts_reachable",
    "minimum_cover_size",
    "oracle_reachable",
    "oracle_reachable_covers",
    "oracle_rigid_set",
    "parse_instance",
    "parse_witness",
    "partition",
    "random_instance",
    "reachability_classes",
    "reachability_signature",
    "render_dot",
    "render_witness",
    "rigid_set",
    "validate_sequence",
]
