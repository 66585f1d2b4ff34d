"""Reading, include resolution, and validation of experiment documents.

The usual entry point is load_experiment(), which chains parse_document(),
resolve_includes(), and validate_and_lower(). Validation collects every
problem it can find instead of stopping at the first one; an Experiment is
produced only when no Error-severity diagnostic was raised.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from xml.parsers import expat

from .model import (
    AbsoluteTime,
    CallTask,
    ErrorMode,
    Experiment,
    GetTask,
    ParTask,
    PutTask,
    RegisterTeardown,
    RelativeTime,
    Repeat,
    RunTask,
    SeqTask,
    Step,
    StepsItem,
    StepsProgram,
    Synchronize,
    TargetDef,
    TargetKind,
    Task,
    Tasklist,
    TimeSpec,
    cleanup_cycles,
    depth_first,
)
from .telemetry import ArtifactPathError, _safe_component

Location = tuple[str, int, int]


class Severity(enum.Enum):
    ERROR = "Error"
    WARNING = "Warning"


@dataclass(frozen=True)
class Diagnostic:
    """One finding against a source location (document, line, column)."""

    severity: Severity
    code: str
    message: str
    location: Location

    def __str__(self) -> str:
        doc, line, column = self.location
        return f"{doc}:{line}:{column}: {self.severity.value}: {self.code}: {self.message}"


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


class ParseFailure(Exception):
    """A document could not be read or is not well-formed XML."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class BadTimeSpecError(ValueError):
    """Text is neither an ISO-8601 duration nor an RFC-3339 timestamp."""


@dataclass(slots=True)
class XmlNode:
    """One element of a parsed document, carrying its source location."""

    tag: str
    attrs: dict[str, str]
    text: str = ""
    children: list[XmlNode] = field(default_factory=list)
    document: str = ""
    line: int = 0
    column: int = 0

    @property
    def location(self) -> Location:
        return (self.document, self.line, self.column)


# The deepest element nesting a document may have, the root counting as
# level 1, and the deepest task nesting a tasklist may have, counting seq,
# par and call levels with each call entering its callee. Lowering and the
# engine recurse once per level, so a limit here keeps hostile input from
# exhausting the interpreter's stack.
MAX_NESTING_DEPTH = 100


def parse_document(path: str | Path) -> XmlNode:
    """Parse one XML file into an XmlNode tree.

    Raises ParseFailure carrying an IoError, XmlSyntax or NestingTooDeep
    diagnostic; never returns a partial tree.
    """
    path = Path(path)
    document = str(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseFailure(
            Diagnostic(Severity.ERROR, "IoError", str(exc), (document, 0, 0))
        ) from exc

    parser = expat.ParserCreate()
    # One callback per run of text: expat flushes the buffer before every
    # element event, so each run still lands in the element it belongs to.
    parser.buffer_text = True
    root: XmlNode | None = None
    stack: list[XmlNode] = []

    def start_element(tag: str, attrs: dict[str, str]) -> None:
        nonlocal root
        line, column = parser.CurrentLineNumber, parser.CurrentColumnNumber + 1
        if len(stack) >= MAX_NESTING_DEPTH:
            raise ParseFailure(
                Diagnostic(
                    Severity.ERROR,
                    "NestingTooDeep",
                    f"element {tag!r} nests deeper than {MAX_NESTING_DEPTH} levels",
                    (document, line, column),
                )
            )
        node = XmlNode(tag, attrs, "", [], document, line, column)
        if stack:
            stack[-1].children.append(node)
        else:
            root = node
        stack.append(node)

    def end_element(tag: str) -> None:
        stack.pop()

    def character_data(chunk: str) -> None:
        if stack:
            stack[-1].text += chunk

    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    parser.CharacterDataHandler = character_data
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise ParseFailure(
            Diagnostic(
                Severity.ERROR,
                "XmlSyntax",
                expat.errors.messages[exc.code],
                (document, exc.lineno, exc.offset + 1),
            )
        ) from exc
    finally:
        # The handlers close over the parser, which holds them: break the
        # cycle so that refcounting frees the tree, not the collector.
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.CharacterDataHandler = None
    if root is None:
        raise ParseFailure(
            Diagnostic(Severity.ERROR, "XmlSyntax", "document has no root element", (document, 0, 0))
        )
    return root


def resolve_includes(
    tree: XmlNode,
    base_dir: str | Path,
    visited: frozenset[str] = frozenset(),
) -> tuple[XmlNode, list[Diagnostic]]:
    """Splice every include element's definitions into the tree, in place.

    ``visited`` is the set of canonical paths currently on the inclusion
    stack; a repeat is reported as IncludeCycle. Included documents may
    contribute only targets and tasklists; a steps element inside one is an
    IncludeContent error. Paths resolve relative to ``base_dir``, the
    directory of the including document, never the working directory.
    """
    base_dir = Path(base_dir)
    diagnostics: list[Diagnostic] = []
    merged: list[XmlNode] = []
    for child in tree.children:
        if child.tag != "include":
            merged.append(child)
            continue
        merged.extend(_expand_include(child, base_dir, visited, diagnostics))
    tree.children = merged
    return tree, diagnostics


def _expand_include(
    node: XmlNode,
    base_dir: Path,
    visited: frozenset[str],
    diagnostics: list[Diagnostic],
) -> list[XmlNode]:
    def err(code: str, message: str, location: Location | None = None) -> list[XmlNode]:
        diagnostics.append(Diagnostic(Severity.ERROR, code, message, location or node.location))
        return []

    for attr in node.attrs:
        if attr != "file":
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    "UnknownAttribute",
                    f"include does not take attribute {attr!r}",
                    node.location,
                )
            )
    if node.children or node.text.strip():
        err("UnexpectedText", "include must be empty")
    if "file" not in node.attrs:
        return err("MissingAttribute", "include requires attribute 'file'")

    target = (base_dir / node.attrs["file"]).resolve()
    canonical = str(target)
    if canonical in visited:
        return err(
            "IncludeCycle",
            f"{node.document} includes {canonical}, which is already on the inclusion stack",
        )
    try:
        included = parse_document(target)
    except ParseFailure as exc:
        if exc.diagnostic.code == "IoError":
            return err("IncludeNotFound", f"cannot read included file {canonical}")
        diagnostics.append(exc.diagnostic)
        return []
    if included.tag != "experiment":
        return err(
            "IncludeContent",
            f"included document root must be 'experiment', found {included.tag!r}",
            included.location,
        )
    included, nested = resolve_includes(included, target.parent, visited | {canonical})
    diagnostics.extend(nested)
    spliced: list[XmlNode] = []
    for child in included.children:
        if child.tag == "steps":
            err(
                "IncludeContent",
                "included documents may define only targets and tasklists",
                child.location,
            )
            continue
        spliced.append(child)
    return spliced


_DURATION_RE = re.compile(
    r"P(?:(?P<weeks>\d+(?:[.,]\d+)?)W)?"
    r"(?:(?P<days>\d+(?:[.,]\d+)?)D)?"
    r"(?:T(?=[\d.,])"
    r"(?:(?P<hours>\d+(?:[.,]\d+)?)H)?"
    r"(?:(?P<minutes>\d+(?:[.,]\d+)?)M)?"
    r"(?:(?P<seconds>\d+(?:[.,]\d+)?)S)?"
    r")?"
)
_DURATION_SCALE = {
    "weeks": 604800.0,
    "days": 86400.0,
    "hours": 3600.0,
    "minutes": 60.0,
    "seconds": 1.0,
}


def parse_duration(text: str) -> float:
    """ISO-8601 duration text to seconds. Raises BadTimeSpecError."""
    m = _DURATION_RE.fullmatch(text.strip())
    if m is None or not any(m.group(name) for name in _DURATION_SCALE):
        raise BadTimeSpecError(f"not an ISO-8601 duration: {text!r}")
    total = 0.0
    for name, scale in _DURATION_SCALE.items():
        raw = m.group(name)
        if raw:
            total += float(raw.replace(",", ".")) * scale
    return total


def parse_timestamp(text: str) -> datetime:
    """RFC-3339 timestamp text to an aware datetime. Raises BadTimeSpecError."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        instant = datetime.fromisoformat(cleaned)
    except ValueError:
        raise BadTimeSpecError(f"not an RFC-3339 timestamp: {text!r}") from None
    if instant.tzinfo is None:
        raise BadTimeSpecError(f"timestamp lacks a UTC offset: {text!r}")
    return instant


def parse_timespec(text: str) -> TimeSpec:
    """Duration text yields a RelativeTime, timestamp text an AbsoluteTime."""
    try:
        return RelativeTime(parse_duration(text))
    except BadTimeSpecError:
        pass
    try:
        return AbsoluteTime(parse_timestamp(text))
    except BadTimeSpecError:
        pass
    raise BadTimeSpecError(
        f"neither an ISO-8601 duration nor an RFC-3339 timestamp: {text!r}"
    )


_LOCAL, _SSH = TargetKind.LOCAL, TargetKind.SSH
_PLANETLAB, _GROUP = TargetKind.PLANETLAB, TargetKind.GROUP
# Each target type's kind and the child elements it takes.
_TARGET_TYPES = {
    "local": (_LOCAL, frozenset({"export-env"})),
    "ssh": (_SSH, frozenset({"user", "username", "password", "host", "export-env"})),
    "planetlab": (_PLANETLAB, frozenset({"password", "export-env"})),
    "group": (_GROUP, frozenset({"target", "export-env"})),
}
_CONNECTION_TAGS = frozenset({"user", "username", "password", "host"})
_ERROR_MODES = {mode.value: mode for mode in ErrorMode}
_new_tuple = tuple.__new__  # builds a named tuple without its Python __new__


def validate_and_lower(
    tree: XmlNode, diagnostics: list[Diagnostic] | None = None
) -> Experiment | list[Diagnostic]:
    """Check a merged tree against the full language and lower it.

    Returns the Experiment when no Error was found, otherwise the list of
    all diagnostics. Warnings never block lowering; pass ``diagnostics`` to
    receive them alongside a successful result.
    """
    found: list[Diagnostic] = []
    experiment = _Validator(found).run(tree)
    if diagnostics is not None:
        diagnostics.extend(found)
    if experiment is None or has_errors(found):
        return found
    return experiment


def load_experiment(path: str | Path) -> tuple[Experiment | None, list[Diagnostic]]:
    """Parse, resolve includes, and validate one experiment document."""
    diagnostics: list[Diagnostic] = []
    try:
        tree = parse_document(path)
    except ParseFailure as exc:
        return None, [exc.diagnostic]
    canonical = str(Path(path).resolve())
    tree, include_diags = resolve_includes(
        tree, Path(path).resolve().parent, frozenset({canonical})
    )
    diagnostics.extend(include_diags)
    result = validate_and_lower(tree, diagnostics)
    if isinstance(result, Experiment) and not has_errors(diagnostics):
        return result, diagnostics
    return None, diagnostics


class _Validator:
    """Single-use walker that lowers one merged tree."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        self.targets: dict[str, TargetDef] = {}
        self.top_targets: list[TargetDef] = []
        self.tasklists: dict[str, Tasklist] = {}
        self.tasklist_nodes: dict[str, XmlNode] = {}
        self.tasklist_order: list[Tasklist] = []
        self.call_refs: list[tuple[str, XmlNode]] = []
        # per defined tasklist: its deepest seq/par level and its calls as
        # (level, ref, node), the call itself counting as one level
        self.task_shapes: dict[str, tuple[int, list[tuple[int, str, XmlNode]]]] = {}
        self._depth = 0
        self._calls: list[tuple[int, str, XmlNode]] = []

    def err(self, node: XmlNode, code: str, message: str) -> None:
        self.diagnostics.append(Diagnostic(Severity.ERROR, code, message, node.location))

    def warn(self, node: XmlNode, code: str, message: str) -> None:
        self.diagnostics.append(Diagnostic(Severity.WARNING, code, message, node.location))

    def run(self, root: XmlNode) -> Experiment | None:
        if root.tag != "experiment":
            self.err(root, "UnknownElement", f"root element must be 'experiment', found {root.tag!r}")
            return None
        self._check_attrs(root, allowed=())
        self._check_no_text(root)

        steps_nodes: list[XmlNode] = []
        for child in root.children:
            if child.tag == "targets":
                self._collect_targets(child)
            elif child.tag == "tasklists":
                self._collect_tasklists(child)
            elif child.tag == "steps":
                steps_nodes.append(child)
            elif child.tag == "include":
                self.err(child, "UnknownElement", "include must be resolved before validation")
            else:
                self.err(child, "UnknownElement", f"element {child.tag!r} not allowed under experiment")
        self._check_call_refs()
        self._check_cleanups()

        if not steps_nodes:
            self.err(root, "MissingSteps", "experiment requires exactly one steps element")
            items: tuple[StepsItem, ...] = ()
        else:
            for extra in steps_nodes[1:]:
                self.err(extra, "MultipleStepsElements", "experiment allows a single steps element")
            node = steps_nodes[0]
            self._check_attrs(node, allowed=())
            self._check_no_text(node)
            items = self._lower_steps_items(node.children)

        # Includes splice whole top-level subtrees, and every element of a
        # subtree comes from its top element's document.
        documents = dict.fromkeys(
            node.document for node in (root, *root.children) if node.document
        )
        return Experiment(
            targets=tuple(self.top_targets),
            tasklists=tuple(self.tasklist_order),
            steps=StepsProgram(items),
            source_documents=tuple(documents),
        )

    # -- shared checks ----------------------------------------------------

    def _check_attrs(
        self,
        node: XmlNode,
        allowed: tuple[str, ...],
        required: tuple[str, ...] = (),
    ) -> dict[str, str]:
        """Report unknown and missing attributes; return the known ones:
        ``node.attrs`` itself unless one had to be dropped, so read-only."""
        attrs = node.attrs
        known = attrs
        for attr in attrs:
            if attr not in allowed and attr not in required:
                self.err(node, "UnknownAttribute", f"{node.tag} does not take attribute {attr!r}")
                known = None
        for attr in required:
            if attr not in attrs:
                self.err(node, "MissingAttribute", f"{node.tag} requires attribute {attr!r}")
        if known is None:
            return {k: v for k, v in attrs.items() if k in allowed or k in required}
        return known

    def _check_no_text(self, node: XmlNode) -> None:
        if node.text.strip():
            self.err(node, "UnexpectedText", f"{node.tag} does not take text content")

    def _check_no_children(self, node: XmlNode) -> None:
        for child in node.children:
            self.err(child, "UnknownElement", f"element {child.tag!r} not allowed under {node.tag}")

    # -- targets ----------------------------------------------------------

    def _collect_targets(self, container: XmlNode) -> None:
        self._check_attrs(container, allowed=())
        self._check_no_text(container)
        for child in container.children:
            if child.tag != "target":
                self.err(child, "UnknownElement", f"element {child.tag!r} not allowed under targets")
                continue
            target = self._lower_target(child, inside_group=False)
            if target is not None:
                self.top_targets.append(target)

    def _lower_target(self, node: XmlNode, inside_group: bool) -> TargetDef | None:
        self._check_no_text(node)
        name = node.attrs.get("name")
        if name is None:
            self.err(node, "MissingAttribute", "target requires attribute 'name'")

        if "type" not in node.attrs:
            return self._lower_member_reference(node, inside_group, name)

        target_type = _TARGET_TYPES.get(node.attrs["type"])
        if target_type is None:
            self.err(
                node,
                "BadAttributeValue",
                f"target type must be one of local, ssh, planetlab, group; found {node.attrs['type']!r}",
            )
            return None
        kind, allowed_children = target_type
        if kind is _PLANETLAB:
            attrs = self._check_attrs(
                node, allowed=("name", "type"), required=("api-url", "slice", "user")
            )
        else:
            attrs = self._check_attrs(node, allowed=("name", "type"), required=())
        if name is None:
            return None
        try:
            _safe_component(name)  # the node name becomes its artifact directory
        except ArtifactPathError:
            self.err(node, "BadAttributeValue", f"target name {name!r} is not a safe directory name")

        fields = self._lower_target_children(node, kind, allowed_children)
        target = self._build_target(node, kind, name, attrs, fields)
        if target is None:
            return None
        if name in self.targets:
            self.err(node, "DuplicateName", f"target {name!r} is already defined")
            return None
        self.targets[name] = target
        return target

    def _lower_member_reference(
        self, node: XmlNode, inside_group: bool, name: str | None
    ) -> TargetDef | None:
        if not inside_group:
            self.err(node, "MissingAttribute", "target requires attribute 'type'")
            return None
        self._check_attrs(node, allowed=("name",))
        if node.children:
            self.err(node, "BadTargetDef", "a member reference carries only a name")
        if name is None:
            return None
        referenced = self.targets.get(name)
        if referenced is None:
            self.err(node, "UnknownReference", f"target {name!r} is not defined at this point")
            return None
        return referenced

    def _lower_target_children(
        self, node: XmlNode, kind: TargetKind, allowed_children: frozenset[str]
    ) -> dict[str, object]:
        fields: dict[str, object] = {"env": [], "members": []}
        for child in node.children:
            if child.tag not in allowed_children:
                if child.tag in _CONNECTION_TAGS or child.tag == "target":
                    self.err(
                        child,
                        "BadTargetDef",
                        f"element {child.tag!r} not allowed in a {kind.value} target",
                    )
                else:
                    self.err(child, "UnknownElement", f"element {child.tag!r} not allowed under target")
                continue
            if child.tag == "export-env":
                attrs = self._check_attrs(child, allowed=(), required=("var", "value"))
                self._check_no_text(child)
                self._check_no_children(child)
                if "var" in attrs and "value" in attrs:
                    fields["env"].append((attrs["var"], attrs["value"]))
            elif child.tag == "target":
                member = self._lower_target(child, inside_group=True)
                if member is not None:
                    fields["members"].append(member)
            else:
                self._check_attrs(child, allowed=())
                self._check_no_children(child)
                key = "user" if child.tag == "username" else child.tag
                if key in fields:
                    self.err(child, "BadTargetDef", f"duplicate {child.tag!r} in target")
                    continue
                fields[key] = child.text.strip()
        return fields

    def _build_target(
        self,
        node: XmlNode,
        kind: TargetKind,
        name: str,
        attrs: dict[str, str],
        fields: dict[str, object],
    ) -> TargetDef | None:
        env = tuple(fields["env"])
        # Leaves are built positionally: name, kind, ssh_user, ssh_password,
        # ssh_host, the three planetlab fields, members, env_exports.
        if kind is _LOCAL:
            return _new_tuple(TargetDef, (name, kind, None, None, None, None, None, None, (), env))
        if kind is _SSH:
            user = fields.get("user") or None
            host = fields.get("host") or None
            if not user or not host:
                self.err(node, "BadTargetDef", f"ssh target {name!r} requires user and host")
                return None
            password = fields.get("password") or None
            return _new_tuple(TargetDef, (name, kind, user, password, host, None, None, None, (), env))
        if kind is _PLANETLAB:
            if not ("api-url" in attrs and "slice" in attrs and "user" in attrs):
                return None
            return TargetDef(
                name,
                kind,
                ssh_password=fields.get("password") or None,
                planetlab_api_url=attrs["api-url"],
                planetlab_slice=attrs["slice"],
                planetlab_user=attrs["user"],
                env_exports=env,
            )
        members = tuple(fields["members"])
        if not members:
            self.err(node, "EmptyGroup", f"group {name!r} has no members")
            return None
        return TargetDef(name, kind, members=members, env_exports=env)

    # -- tasklists ----------------------------------------------------------

    def _collect_tasklists(self, container: XmlNode) -> None:
        self._check_attrs(container, allowed=())
        self._check_no_text(container)
        for child in container.children:
            if child.tag != "tasklist":
                self.err(child, "UnknownElement", f"element {child.tag!r} not allowed under tasklists")
                continue
            self._lower_tasklist(child)

    def _lower_tasklist(self, node: XmlNode) -> None:
        attrs = self._check_attrs(
            node, allowed=("on-error", "error", "timeout", "cleanup"), required=("name",)
        )
        self._check_no_text(node)

        on_error = ErrorMode.ABORT_TASKLIST
        mode_text = None
        if "on-error" in attrs and "error" in attrs:
            self.err(node, "BadAttributeValue", "give either 'on-error' or 'error', not both")
        elif "error" in attrs:
            self.warn(node, "AttributeAlias", "attribute 'error' is an alias of 'on-error'")
            mode_text = attrs["error"]
        elif "on-error" in attrs:
            mode_text = attrs["on-error"]
        if mode_text is not None:
            mode = _ERROR_MODES.get(mode_text)
            if mode is None:
                self.err(
                    node,
                    "BadAttributeValue",
                    f"on-error must be abort-tasklist, abort-step, or panic; found {mode_text!r}",
                )
            else:
                on_error = mode

        timeout = None
        if "timeout" in attrs:
            try:
                timeout = parse_duration(attrs["timeout"])
            except BadTimeSpecError as exc:
                self.err(node, "BadTimeSpec", str(exc))
            else:
                if timeout <= 0:
                    self.err(node, "BadTimeSpec", "timeout must be strictly positive")
                    timeout = None

        name = attrs.get("name")
        self._depth, self._calls = 0, []
        tasks = tuple(
            task
            for task in (self._lower_task(child, 0) for child in node.children)
            if task is not None
        )
        if name is None:
            return
        tasklist = Tasklist(
            name=name,
            tasks=tasks,
            on_error=on_error,
            timeout=timeout,
            cleanup=attrs.get("cleanup"),
        )
        if name in self.tasklists:
            self.err(node, "DuplicateName", f"tasklist {name!r} is already defined")
            return
        self.tasklists[name] = tasklist
        self.tasklist_nodes[name] = node
        self.tasklist_order.append(tasklist)
        self.task_shapes[name] = (self._depth, self._calls)

    def _lower_task(self, node: XmlNode, outer: int) -> Task | None:
        """Lower one task element; ``outer`` counts the seq and par levels
        around it within its tasklist."""
        if node.tag == "run":
            self._check_attrs(node, allowed=())
            self._check_no_children(node)
            return RunTask(node.text.strip())
        if node.tag in ("get", "put"):
            self._check_attrs(node, allowed=())
            self._check_no_children(node)
            path = node.text.strip()
            if not path:
                self.err(node, "BadAttributeValue", f"{node.tag} requires a file path as text")
                return None
            return GetTask(path) if node.tag == "get" else PutTask(path)
        if node.tag in ("seq", "par"):
            self._check_attrs(node, allowed=())
            self._check_no_text(node)
            level = outer + 1
            self._depth = max(self._depth, level)
            children = tuple(
                task
                for task in (self._lower_task(child, level) for child in node.children)
                if task is not None
            )
            return SeqTask(children) if node.tag == "seq" else ParTask(children)
        if node.tag == "call":
            attrs = self._check_attrs(node, allowed=(), required=("ref",))
            self._check_no_text(node)
            self._check_no_children(node)
            if "ref" not in attrs:
                return None
            self.call_refs.append((attrs["ref"], node))
            self._calls.append((outer + 1, attrs["ref"], node))
            return CallTask(attrs["ref"])
        self.err(node, "UnknownElement", f"element {node.tag!r} is not a task")
        return None

    def _check_call_refs(self) -> None:
        for ref, node in self.call_refs:
            if ref not in self.tasklists:
                self.err(node, "UnknownReference", f"call references undefined tasklist {ref!r}")
        graph = {name: [ref for _, ref, _ in calls] for name, (_, calls) in self.task_shapes.items()}
        cycle, callees_first = depth_first(graph)
        if cycle is not None:
            node = self.tasklist_nodes[cycle[0]]
            self.err(node, "CallCycle", "call cycle: " + " -> ".join(cycle))
            return
        # Each tasklist's task depth, callees first, so each is computed
        # once. A call is reported where it takes a callee that is itself
        # within the limit past it: a chain gets one error, not one per link.
        depths: dict[str, int] = {}
        for name in callees_first:
            depth, calls = self.task_shapes[name]
            for level, ref, node in calls:
                inner = depths.get(ref, 0)
                if level + inner > MAX_NESTING_DEPTH >= inner:
                    self.err(
                        node,
                        "NestingTooDeep",
                        f"call to {ref!r} nests tasks {level + inner} levels deep,"
                        f" more than {MAX_NESTING_DEPTH}",
                    )
                depth = max(depth, level + inner)
            depths[name] = depth

    def _check_cleanups(self) -> None:
        for tasklist in self.tasklist_order:
            if tasklist.cleanup is not None and tasklist.cleanup not in self.tasklists:
                self.err(
                    self.tasklist_nodes[tasklist.name],
                    "UnknownReference",
                    f"cleanup references undefined tasklist {tasklist.cleanup!r}",
                )
        for owner, at in cleanup_cycles(self.tasklist_order):
            self.err(
                self.tasklist_nodes[owner],
                "CleanupCycle",
                f"cleanup chain of {owner!r} cycles at {at!r}",
            )

    # -- steps --------------------------------------------------------------

    def _lower_steps_items(self, nodes: list[XmlNode]) -> tuple[StepsItem, ...]:
        items: list[StepsItem] = []
        for node in nodes:
            item = self._lower_steps_item(node)
            if item is not None:
                items.append(item)
        return tuple(items)

    def _lower_steps_item(self, node: XmlNode) -> StepsItem | None:
        if node.tag == "step":
            return self._lower_step(node)
        if node.tag == "synchronize":
            self._check_attrs(node, allowed=())
            self._check_no_text(node)
            self._check_no_children(node)
            return Synchronize()
        if node.tag == "register-teardown":
            attrs = self._check_attrs(node, allowed=(), required=("ref", "targets"))
            self._check_no_text(node)
            self._check_no_children(node)
            self._require_tasklist(node, attrs.get("ref"))
            self._require_target(node, attrs.get("targets"))
            if "ref" not in attrs or "targets" not in attrs:
                return None
            return RegisterTeardown(tasklist_ref=attrs["ref"], targets_ref=attrs["targets"])
        if node.tag == "repeat":
            return self._lower_repeat(node)
        self.err(node, "UnknownElement", f"element {node.tag!r} not allowed in a steps block")
        return None

    def _lower_step(self, node: XmlNode) -> Step | None:
        attrs = self._check_attrs(
            node, allowed=("start", "stop"), required=("tasklist", "targets")
        )
        self._check_no_text(node)
        self._check_no_children(node)
        self._require_tasklist(node, attrs.get("tasklist"))
        self._require_target(node, attrs.get("targets"))

        spec: dict[str, TimeSpec | None] = {"start": None, "stop": None}
        for key in ("start", "stop"):
            if key in attrs:
                try:
                    spec[key] = parse_timespec(attrs[key])
                except BadTimeSpecError as exc:
                    self.err(node, "BadTimeSpec", f"{key}: {exc}")
        start, stop = spec["start"], spec["stop"]
        if isinstance(start, RelativeTime) and isinstance(stop, RelativeTime):
            if not start.offset < stop.offset:
                self.err(node, "StartNotBeforeStop", "step start must be before stop")
        if isinstance(start, AbsoluteTime) and isinstance(stop, AbsoluteTime):
            if not start.instant < stop.instant:
                self.err(node, "StartNotBeforeStop", "step start must be before stop")
        if "tasklist" not in attrs or "targets" not in attrs:
            return None
        return Step(
            tasklist_ref=attrs["tasklist"],
            targets_ref=attrs["targets"],
            start=start,
            stop=stop,
        )

    def _lower_repeat(self, node: XmlNode) -> Repeat | None:
        attrs = self._check_attrs(node, allowed=("iterations", "during", "until"))
        self._check_no_text(node)

        iterations = None
        if "iterations" in attrs:
            if re.fullmatch(r"\d+", attrs["iterations"]) and int(attrs["iterations"]) > 0:
                iterations = int(attrs["iterations"])
            else:
                self.err(
                    node,
                    "BadAttributeValue",
                    f"iterations must be a positive integer, found {attrs['iterations']!r}",
                )
        during = None
        if "during" in attrs:
            try:
                during = parse_duration(attrs["during"])
            except BadTimeSpecError as exc:
                self.err(node, "BadTimeSpec", f"during: {exc}")
        until = None
        if "until" in attrs:
            try:
                until = parse_timestamp(attrs["until"])
            except BadTimeSpecError as exc:
                self.err(node, "BadTimeSpec", f"until: {exc}")

        bounded = any(key in attrs for key in ("iterations", "during", "until"))
        if not bounded:
            self.err(node, "UnboundedRepeat", "repeat requires iterations, during, or until")
        body = self._lower_steps_items(node.children)
        if not bounded:
            return None
        return Repeat(body=body, iterations=iterations, during=during, until=until)

    def _require_tasklist(self, node: XmlNode, ref: str | None) -> None:
        if ref is not None and ref not in self.tasklists:
            self.err(node, "UnknownReference", f"undefined tasklist {ref!r}")

    def _require_target(self, node: XmlNode, ref: str | None) -> None:
        if ref is not None and ref not in self.targets:
            self.err(node, "UnknownReference", f"undefined target {ref!r}")
