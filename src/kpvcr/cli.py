"""Command line interface.

Exit codes: 0 for YES / valid output, 1 for NO / invalid, 2 for input
errors (bad files, unsupported k), 3 for resource limits (the oracle's
state cap, or running out of memory), 4 for an internal error (a
`LogicError`: a broken invariant, such as the planner failing to route a
YES instance), so that a crash never reads as NO or INVALID.
"""

from __future__ import annotations

import argparse
import sys

from .errors import InputError, LogicError, ResourceLimitError, UnsupportedParameterError
from .instance import (
    InstanceFile,
    TsSequence,
    parse_instance,
    parse_witness,
    render_dot,
    render_witness,
    validate_sequence,
)

# Every command reads instance files, so `errors` and `instance` load with
# this module; each command imports the rest when it runs.  A `kpvcr` child
# spends more time loading modules (compiling them, when bytecode is not
# cached) than `check` spends working.


def __getattr__(name: str):
    """`kpvcr.cli.is_ts_reachable` and `.build_sequence` still resolve,
    loading the planner only then.  The commands call both through
    `planner`, looked up at call time, so a wrapper set on `kpvcr.planner`
    sees every call."""
    if name in ("is_ts_reachable", "build_sequence"):
        from . import planner

        return getattr(planner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


K3_REASON = (
    "deciding reachability for 3-path vertex covers on caterpillars is an "
    "open problem"
)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:  # `check` reads two files: name this one
        raise InputError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc


def _load(path: str) -> InstanceFile:
    return parse_instance(_read(path))


def _require_k4(instance: InstanceFile) -> None:
    if instance.k <= 3:
        reason = K3_REASON if instance.k == 3 else "reachability is decided for k >= 4"
        raise UnsupportedParameterError(f"k = {instance.k} is not supported: {reason}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _cmd_decide(args: argparse.Namespace) -> int:
    from . import planner

    instance = _load(args.instance)
    _require_k4(instance)
    forest = instance.forest()
    if planner.is_ts_reachable(forest, instance.start_tokens(), instance.target_tokens()):
        print("YES")
        return 0
    print("NO")
    return 1


def _cmd_witness(args: argparse.Namespace) -> int:
    from . import planner

    instance = _load(args.instance)
    _require_k4(instance)
    forest = instance.forest()
    I, J = instance.start_tokens(), instance.target_tokens()
    if not planner.is_ts_reachable(forest, I, J):
        print("NO")
        return 1
    seq = planner.build_sequence(forest, I, J)
    _emit(render_witness(seq.moves), args.output)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    instance = _load(args.instance)
    forest = instance.forest()
    moves = parse_witness(_read(args.witness))
    seq = TsSequence(instance.start_tokens(), moves)
    try:
        ok = validate_sequence(forest, instance.k, seq)
        ok = ok and seq.end.occupied == instance.target_tokens().occupied
    except InputError:
        ok = False
    if ok:
        print("VALID")
        return 0
    print("INVALID")
    return 1


def _cmd_rigid(args: argparse.Namespace) -> int:
    from .rigidity import rigid_set

    instance = _load(args.instance)
    _require_k4(instance)
    forest = instance.forest()
    report = rigid_set(forest, instance.start_tokens())
    for v in sorted(report.rigid):
        print(v)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from . import oracle

    instance = _load(args.instance)
    forest = instance.forest()
    I, J = instance.start_tokens(), instance.target_tokens()
    cap = oracle.DEFAULT_MAX_STATES if args.max_states is None else args.max_states
    if len(I) == len(J):
        reachable = oracle.oracle_reachable(forest, I, J, max_states=cap)
    else:
        # no slide changes the token count, so the answer is NO, as `decide`
        # gives it, once the cap and the forest's size pass the oracle's
        # checks (a search from I to itself makes them and searches nothing)
        oracle.oracle_reachable(forest, I, I, max_states=cap)
        reachable = False
    if reachable:
        print("YES")
        return 0
    print("NO")
    return 1


def _cmd_gen(args: argparse.Namespace) -> int:
    from .generate import GenerateConfig, random_instance

    config = GenerateConfig(
        spine=args.spine,
        leaf_prob=args.leaf_prob,
        k=args.k,
        seed=args.seed,
        scramble=args.scramble,
    )
    sys.stdout.write(random_instance(config).render())
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    instance = _load(args.instance)
    _emit(render_dot(instance), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpvcr",
        description="k-path vertex cover reconfiguration on caterpillars",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide reachability (YES/NO)")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("witness", help="emit a sliding sequence for YES instances")
    p.add_argument("instance")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("check", help="validate a witness file against an instance")
    p.add_argument("instance")
    p.add_argument("witness")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("rigid", help="print the rigid vertices of the start cover")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_rigid)

    p = sub.add_parser("oracle", help="decide by brute-force BFS (small instances)")
    p.add_argument("instance")
    # None stands for oracle.DEFAULT_MAX_STATES: parsing loads no oracle
    p.add_argument("--max-states", type=int, default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--spine", type=int, required=True)
    p.add_argument("--leaf-prob", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--scramble",
        action="store_true",
        help="walk the target from the minimum cover rooted at the other "
        "spine end; the instance is still usually YES",
    )
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("export-dot", help="export the instance graph as DOT")
    p.add_argument("instance")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ResourceLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (InputError, UnsupportedParameterError, OSError) as exc:
        # an unreadable file is an input error too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LogicError as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
