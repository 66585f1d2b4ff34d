"""Command-line front end: validate, dry-run, or run an experiment.

Exit codes: 0 the experiment completed (validate: no errors), 2 completed
with errors, 3 panicked, 1 usage or validation failure, 130 interrupted by
Ctrl-C (SIGINT).
"""
from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

from . import __version__
from .model import Experiment, OverallStatus, UnknownTargetError, resolve_group
from .parser import ENV_NAME, load_experiment
from .planetlab import (
    PlanetLabError,
    expand_experiment,
    list_slice_nodes,
    planetlab_target_names,
)
from .scheduler import run_experiment
from .telemetry import (
    ArtifactPathError,
    EventKind,
    EventLog,
    ExecutionEvent,
    RunDirError,
    SinkIoError,
    create_run_dir,
)
from .transport import MockScript, RateLimiterConfig, make_transport_factory

EXIT_COMPLETED = 0
EXIT_USAGE = 1
EXIT_ERRORS = 2
EXIT_PANIC = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

_EXIT_BY_STATUS = {
    OverallStatus.COMPLETED: EXIT_COMPLETED,
    OverallStatus.COMPLETED_WITH_ERRORS: EXIT_ERRORS,
    OverallStatus.PANICKED: EXIT_PANIC,
}


_MAX_CONNECTS_RE = re.compile(r"^(\d+)/(\d+(?:\.\d+)?)(ms|s|m|h)$")
_UNIT_SECONDS = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0}


def parse_max_connects(text: str) -> RateLimiterConfig:
    """Parse N/DUR, e.g. 10/1s, 3/500ms, 100/2m."""
    m = _MAX_CONNECTS_RE.match(text)
    if m is None:
        raise argparse.ArgumentTypeError(
            f"expected N/DUR (e.g. 10/1s), got {text!r}"
        )
    try:
        return RateLimiterConfig(int(m.group(1)), float(m.group(2)) * _UNIT_SECONDS[m.group(3)])
    except ValueError:
        raise argparse.ArgumentTypeError(f"rate must be positive and finite, got {text!r}") from None


def _target_names(text: str) -> list[str]:
    names = [name for name in text.split(",") if name]
    if not names:  # an empty shell variable must not mean "every node"
        raise argparse.ArgumentTypeError(f"expected TARGET[,TARGET...], got {text!r}")
    return names


def parse_env_override(text: str) -> tuple[str, str]:
    name, sep, value = text.partition("=")
    if not sep or not ENV_NAME.fullmatch(name):
        raise argparse.ArgumentTypeError(f"expected VAR=VALUE with VAR a shell name, got {text!r}")
    return name, value


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2
    # for CompletedWithErrors, so usage failures become exit 1.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="gplmt",
        description="Run declarative testbed experiments.",
    )
    parser.add_argument("experiment", type=Path, help="path to the experiment XML document")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--validate",
        action="store_true",
        help="parse and validate only; print diagnostics and exit",
    )
    mode.add_argument(
        "--dry-run",
        action="store_true",
        help="execute on the mock transport with a virtual clock",
    )
    parser.add_argument(
        "--log-dir",
        type=Path,
        default=Path("gplmt-logs"),
        metavar="PATH",
        help="directory that receives per-run log directories (default: %(default)s)",
    )
    parser.add_argument(
        "--max-connects",
        type=parse_max_connects,
        default=None,
        metavar="N/DUR",
        help="limit connection attempts to N per sliding window DUR (e.g. 10/1s)",
    )
    parser.add_argument(
        "--only",
        action="extend",
        default=[],
        type=_target_names,
        metavar="TARGET[,TARGET...]",
        help="restrict execution to these targets (groups allowed, repeatable)",
    )
    parser.add_argument(
        "--set",
        dest="env_overrides",
        action="append",
        default=[],
        type=parse_env_override,
        metavar="VAR=VALUE",
        help="environment override appended to every node (repeatable)",
    )
    parser.add_argument(
        "--mock-script",
        type=Path,
        default=None,
        metavar="PATH",
        help="JSON mock deployment script; with --dry-run shapes the mock "
        "nodes, otherwise forces the mock transport",
    )
    parser.add_argument(
        "--include-non-boot-nodes",
        action="store_true",
        help="keep slice nodes whose boot state is not 'boot'",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser


def filter_targets(experiment: Experiment, names: list[str]) -> Experiment:
    """Restrict execution to the leaves reachable from the given names.

    Group names expand to their members; steps whose resolved node set
    becomes empty execute vacuously. An empty list leaves the experiment
    unchanged.
    """
    if not names:
        return experiment
    table = experiment.target_map()
    keep: set[str] = set()
    for name in names:
        if name not in table:
            raise UnknownTargetError(name)
        for leaf, _ in resolve_group(table[name]):
            keep.add(leaf.name)
    return experiment.with_node_filter(frozenset(keep))


def _print_timeline(events, stream) -> None:
    for event in events:
        parts = [f"{event.timestamp:10.3f}", f"{event.kind.value:<16}"]
        if event.node:
            parts.append(event.node)
        if event.tasklist:
            parts.append(f"[{event.tasklist}]")
        if event.detail:
            parts.append(event.detail)
        print(" ".join(parts), file=stream)


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    experiment, diagnostics = load_experiment(args.experiment)
    for diagnostic in diagnostics:
        print(diagnostic, file=sys.stderr)
    if experiment is None:
        return EXIT_USAGE
    if args.validate:
        return EXIT_COMPLETED

    mock_script = None
    if args.mock_script is not None:
        try:
            mock_script = MockScript.from_file(args.mock_script)
        except (OSError, ValueError) as exc:
            print(f"gplmt: error: mock script: {exc}", file=sys.stderr)
            return EXIT_USAGE

    offline = args.dry_run
    pending_warnings = []
    if offline:
        for name in planetlab_target_names(experiment):
            pending_warnings.append(
                f"planetlab target {name!r} expands to zero nodes in a dry run"
            )
    try:
        experiment = expand_experiment(
            experiment,
            fetch=None if offline else list_slice_nodes,
            include_non_boot=args.include_non_boot_nodes,
        )
    except PlanetLabError as exc:
        print(f"gplmt: error: slice API: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        experiment = filter_targets(experiment, args.only)
    except UnknownTargetError as exc:
        print(f"gplmt: error: --only: unknown target {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.env_overrides:
        experiment = experiment.with_env_overrides(tuple(args.env_overrides))

    try:
        run_dir = create_run_dir(args.log_dir, args.experiment.stem, time.time())
    except (RunDirError, ArtifactPathError) as exc:
        print(f"gplmt: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    factory = make_transport_factory((mock_script or MockScript()) if offline else mock_script)
    # SinkIoError: the log cannot open, a write failed (raised by close), or write_report failed
    try:
        event_log = EventLog(run_dir / "events.jsonl")
        try:
            for message in pending_warnings:
                event_log.record(
                    ExecutionEvent(timestamp=0.0, kind=EventKind.WARNING, detail=message)
                )
                print(f"gplmt: warning: {message}", file=sys.stderr)
            report = run_experiment(
                experiment,
                transport_factory=factory,
                real_time=not offline,
                limiter_config=args.max_connects,
                event_log=event_log,
                run_dir=run_dir,
            )
        finally:
            event_log.close()
    except SinkIoError as exc:
        print(f"gplmt: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:  # the run has ended its commands and run its teardowns
        print(f"gplmt: run directory: {run_dir}", file=sys.stderr)
        print("gplmt: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED

    if offline:
        _print_timeline(event_log.events, sys.stdout)
    print(f"gplmt: run directory: {run_dir}", file=sys.stderr)
    print(f"gplmt: overall: {report.overall.value}", file=sys.stderr)
    return _EXIT_BY_STATUS[report.overall]


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
