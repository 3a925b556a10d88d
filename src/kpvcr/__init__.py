"""Token sliding reconfiguration of k-path vertex covers on caterpillars.

Polynomial decision procedure and witness construction for k >= 4, plus a
brute-force oracle for cross-checking on small instances.

Every public name is loaded from its module on first access (PEP 562), so
`import kpvcr` loads no submodule and a caller pays only for the modules it
uses: `kpvcr check` never compiles the rigidity engine or the router.
"""

from importlib import import_module

__version__ = "1.0.0"

_MODULES = {
    "cover": "PartitionResult TokenSet is_kpvc minimum_cover_size partition",
    "errors": "InputError InstanceFormatError KpvcrError LogicError "
    "ResourceLimitError UnsupportedParameterError",
    "generate": "GenerateConfig random_instance",
    "graph": "Caterpillar CaterpillarForest L S VertexId",
    "instance": "InstanceFile TsSequence parse_instance parse_witness render_dot "
    "render_witness validate_sequence",
    "oracle": "DEFAULT_MAX_STATES enumerate_caterpillars enumerate_kpvcs "
    "oracle_reachable oracle_reachable_covers oracle_rigid_set reachability_classes",
    "planner": "build_sequence construct_si is_ts_reachable reachability_signature",
    "rigidity": "HRegion PathClassification RigidDecision RigidReport anchor_set "
    "can_feed_region classify_k_paths find_h_regions is_rigid rigid_set",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
        return value
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
