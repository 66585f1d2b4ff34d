"""Command-line front end: validate, dry-run, or run an experiment.

Exit codes: 0 the experiment completed (validate: no errors), 2 completed
with errors, 3 panicked, 1 usage or validation failure.
"""
from __future__ import annotations

import argparse
import enum
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .model import Experiment, OverallStatus, UnknownTargetError, resolve_group
from .parser import load_experiment
from .planetlab import (
    PlanetLabError,
    expand_experiment,
    list_slice_nodes,
    planetlab_target_names,
)
from .scheduler import RealClock, VirtualClock, run_experiment
from .telemetry import (
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

_EXIT_BY_STATUS = {
    OverallStatus.COMPLETED: EXIT_COMPLETED,
    OverallStatus.COMPLETED_WITH_ERRORS: EXIT_ERRORS,
    OverallStatus.PANICKED: EXIT_PANIC,
}


class CliMode(enum.Enum):
    VALIDATE = "validate"
    DRY_RUN = "dry-run"
    RUN = "run"


@dataclass
class CliConfig:
    experiment_path: Path
    mode: CliMode = CliMode.RUN
    log_dir: Path = Path("gplmt-logs")
    rate_limit: RateLimiterConfig | None = None
    target_filter: list[str] = field(default_factory=list)
    env_overrides: list[tuple[str, str]] = field(default_factory=list)
    mock_script: Path | None = None
    include_non_boot: bool = False


_MAX_CONNECTS_RE = re.compile(r"^(\d+)/(\d+(?:\.\d+)?)(ms|s|m|h)$")
_UNIT_SECONDS = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0}


def parse_max_connects(text: str) -> RateLimiterConfig:
    """Parse N/DUR, e.g. 10/1s, 3/500ms, 100/2m."""
    m = _MAX_CONNECTS_RE.match(text)
    if m is None:
        raise argparse.ArgumentTypeError(
            f"expected N/DUR (e.g. 10/1s), got {text!r}"
        )
    count = int(m.group(1))
    interval = float(m.group(2)) * _UNIT_SECONDS[m.group(3)]
    if count < 1 or interval <= 0:
        raise argparse.ArgumentTypeError(f"rate must be positive, got {text!r}")
    return RateLimiterConfig(max_attempts=count, interval=interval)


def parse_env_override(text: str) -> tuple[str, str]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected VAR=VALUE, got {text!r}")
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
    parser.add_argument("experiment", help="path to the experiment XML document")
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
        action="append",
        default=[],
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


def config_from_args(args: argparse.Namespace) -> CliConfig:
    if args.validate:
        mode = CliMode.VALIDATE
    elif args.dry_run:
        mode = CliMode.DRY_RUN
    else:
        mode = CliMode.RUN
    target_filter = []
    for chunk in args.only:
        target_filter.extend(name for name in chunk.split(",") if name)
    return CliConfig(
        experiment_path=Path(args.experiment),
        mode=mode,
        log_dir=args.log_dir,
        rate_limit=args.max_connects,
        target_filter=target_filter,
        env_overrides=list(args.env_overrides),
        mock_script=args.mock_script,
        include_non_boot=args.include_non_boot_nodes,
    )


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
        for leaf, _ in resolve_group(table[name], table):
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
    config = config_from_args(args)

    experiment, diagnostics = load_experiment(config.experiment_path)
    for diagnostic in diagnostics:
        print(diagnostic, file=sys.stderr)
    if experiment is None:
        return EXIT_USAGE
    if config.mode is CliMode.VALIDATE:
        return EXIT_COMPLETED

    mock_script = None
    if config.mock_script is not None:
        try:
            mock_script = MockScript.from_file(config.mock_script)
        except (OSError, ValueError) as exc:
            print(f"gplmt: error: mock script: {exc}", file=sys.stderr)
            return EXIT_USAGE

    offline = config.mode is CliMode.DRY_RUN
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
            include_non_boot=config.include_non_boot,
        )
    except PlanetLabError as exc:
        print(f"gplmt: error: slice API: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        experiment = filter_targets(experiment, config.target_filter)
    except UnknownTargetError as exc:
        print(f"gplmt: error: --only: unknown target {exc}", file=sys.stderr)
        return EXIT_USAGE
    if config.env_overrides:
        experiment = experiment.with_env_overrides(tuple(config.env_overrides))

    try:
        run_dir = create_run_dir(
            config.log_dir, config.experiment_path.stem, time.time()
        )
    except RunDirError as exc:
        print(f"gplmt: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if offline:
        clock = VirtualClock()
        factory = make_transport_factory(clock, mock_script, force_mock=True)
    else:
        clock = RealClock()
        factory = make_transport_factory(
            clock, mock_script, force_mock=mock_script is not None
        )
    # the event sink may fail on open, on any record, and on close
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
                clock=clock,
                limiter_config=config.rate_limit,
                event_log=event_log,
                run_dir=run_dir,
            )
        finally:
            event_log.close()
    except SinkIoError as exc:
        print(f"gplmt: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if offline:
        _print_timeline(event_log.events, sys.stdout)
    print(f"gplmt: run directory: {run_dir}", file=sys.stderr)
    print(f"gplmt: overall: {report.overall.value}", file=sys.stderr)
    return _EXIT_BY_STATUS[report.overall]


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
