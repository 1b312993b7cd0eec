"""Symbol tables, lightweight type inference and lock summaries.

The lock-order checker (:mod:`repro.analysis.lockorder`) needs three
things this module computes from the parsed sources:

* a **lock table**: every lock the code constructs, keyed by its owner
  (``Relation._lock``, ``PersonalizationService._registry_lock``...)
  with its hierarchy level and kind (mutex / rw / striped);
* per-function **acquisition summaries**: which locks each function
  acquires directly, in which mode, and which locks are lexically held
  at each acquisition and call site (``with`` regions);
* a **call graph** precise enough to follow the real chains: ``self``
  methods, methods on attributes and locals whose classes are known,
  constructor calls, and imported module functions.

The type inference is deliberately lightweight - parameter and return
annotations, ``x = ClassName(...)`` locals, dataclass field
annotations, and ``__init__`` parameter-to-attribute propagation
(``self._cache = cache``). A call that cannot be resolved becomes an
unresolved call site rather than an error; the lock-order checker uses
those sites to anchor configured dynamic-dispatch edges (listener
callbacks) and ignores the rest. The approximation trades soundness
for zero false positives on this codebase's idioms; every rule still
has a deliberately-violating fixture proving it fires.

Nested functions and lambdas are scanned at their definition site with
the locks lexically held there - right for the two patterns the code
uses them in (closures invoked inside the same region, and callbacks
that run on other threads holding nothing).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.concurrency import locks as _locks
from repro.analysis.modules import SourceModule

__all__ = [
    "Acquire",
    "CallSite",
    "ClassInfo",
    "FunctionSummary",
    "LockRef",
    "Program",
    "level_name",
]

#: ``LEVEL_USER`` -> 10 etc., straight from the one source of truth.
LEVEL_CONSTANTS: dict[str, int] = {
    name: getattr(_locks, name) for name in dir(_locks) if name.startswith("LEVEL_")
}

#: Constructor name -> lock kind.
LOCK_CLASSES = {"Mutex": "mutex", "RWLock": "rw", "StripedLockTable": "striped"}

#: The modules implementing the primitives themselves; their internal
#: acquire/release (and sanitizer patching) plumbing is not application
#: lock or blocking usage.
PRIMITIVES_SUFFIXES = (".concurrency.locks", ".concurrency.blocking")

#: Backwards-compatible alias for the original single-module constant.
PRIMITIVES_SUFFIX = PRIMITIVES_SUFFIXES[0]


def level_name(level: int | None) -> str:
    """Human-readable form of a hierarchy level for messages."""
    if level is None:
        return "unranked"
    name = _locks.LOCK_LEVEL_NAMES.get(level)
    return f"{name}({level})" if name else str(level)


@dataclass(frozen=True)
class LockRef:
    """One lock the program constructs."""

    key: str  # "Relation._lock", "query_many.errors_lock", ...
    level: int | None
    kind: str  # "mutex" | "rw" | "striped"


@dataclass(frozen=True)
class Acquire:
    """One lock acquisition: which lock, in which mode, where."""

    lock: LockRef
    mode: str  # "read" | "write" | "mutex"
    line: int


@dataclass
class CallSite:
    """One call with the locks lexically held around it."""

    callee: str | None  # resolved function id, or None
    line: int
    held: tuple[Acquire, ...]
    node: ast.Call | None = None  # the syntax, for effect classification


@dataclass
class FunctionSummary:
    """Per-function facts the fixed-point propagation consumes."""

    qualname: str  # "module:Class.method" or "module:function"
    display: str  # "Class.method" / "function" (for messages)
    module: str
    path: str
    acquires: list[tuple[Acquire, tuple[Acquire, ...]]] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class: its lock attributes, typed attributes and methods."""

    name: str
    module: str
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    attr_locks: dict[str, LockRef] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )
    returns: dict[str, str] = field(default_factory=dict)  # method -> class name

    @property
    def qualname(self) -> str:
        return f"{self.module}:{self.name}"


@dataclass
class _ModuleScope:
    """One module's name bindings (own defs + imports)."""

    source: SourceModule
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )
    imports: dict[str, tuple[str, str]] = field(default_factory=dict)  # local -> (module, name)


def _annotation_class(node: ast.expr | None) -> str | None:
    """The class name an annotation resolves to, stripped of Optional.

    ``ContextQueryTree | None`` -> ``ContextQueryTree``; containers and
    anything fancier resolve to ``None`` (unknown).
    """
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return None if node.id == "None" else node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            text = node.value.strip()
            return text.rsplit(".", 1)[-1] if text.isidentifier() or "." in text else None
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_class(node.left)
        return left if left is not None else _annotation_class(node.right)
    if isinstance(node, ast.Subscript):
        value = _annotation_class(node.value)
        if value == "Optional":
            return _annotation_class(node.slice)
        return None  # list[...], dict[...]: not a class we track
    return None


def _base_name(node: ast.expr) -> str | None:
    """Bare class name of a base-class expression, if it has one."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[T] and friends
        return _base_name(node.value)
    return None


def _call_name(node: ast.Call) -> str | None:
    """Bare constructor name of a call (``Mutex(...)`` -> ``Mutex``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _lock_level(node: ast.Call) -> int | None:
    """The ``level=`` argument of a lock constructor, if resolvable."""
    for keyword in node.keywords:
        if keyword.arg != "level":
            continue
        value = keyword.value
        if isinstance(value, ast.Constant) and isinstance(value.value, int):
            return value.value
        if isinstance(value, ast.Name):
            return LEVEL_CONSTANTS.get(value.id)
        if isinstance(value, ast.Attribute):
            return LEVEL_CONSTANTS.get(value.attr)
    return None


def _lock_from_call(node: ast.Call, key: str) -> LockRef | None:
    """A :class:`LockRef` if ``node`` constructs a lock primitive."""
    kind = LOCK_CLASSES.get(_call_name(node) or "")
    if kind is None:
        return None
    return LockRef(key=key, level=_lock_level(node), kind=kind)


class Program:
    """The whole analyzed source set, cross-linked.

    Build one from collected modules, then read ``functions`` (the
    per-function summaries) and ``locks`` (every constructed lock).
    """

    def __init__(self, modules: list[SourceModule]) -> None:
        self.modules: dict[str, _ModuleScope] = {}
        self.functions: dict[str, FunctionSummary] = {}
        self.locks: dict[str, LockRef] = {}
        self._collect(modules)
        self._build_classes()
        self._inherit_attrs()
        self._scan_functions()
        self._overrides: dict[str, tuple[str, ...]] | None = None

    # ------------------------------------------------------------------
    # Pass 1: module scopes (defs + import bindings)
    # ------------------------------------------------------------------
    def _collect(self, modules: list[SourceModule]) -> None:
        for source in modules:
            if source.name.endswith(PRIMITIVES_SUFFIXES):
                continue  # the primitives' own implementation
            scope = _ModuleScope(source=source)
            for statement in source.tree.body:
                if isinstance(statement, ast.ClassDef):
                    scope.classes[statement.name] = ClassInfo(
                        name=statement.name,
                        module=source.name,
                        node=statement,
                        bases=tuple(
                            base
                            for base in map(_base_name, statement.bases)
                            if base is not None
                        ),
                    )
                elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scope.functions[statement.name] = statement
                elif isinstance(statement, ast.ImportFrom) and statement.module:
                    if not statement.level:
                        for alias in statement.names:
                            local = alias.asname or alias.name
                            scope.imports[local] = (statement.module, alias.name)
            self.modules[source.name] = scope

    def _resolve_name(
        self, scope: _ModuleScope, name: str, _seen: frozenset[str] = frozenset()
    ) -> ClassInfo | tuple[_ModuleScope, str] | None:
        """What ``name`` means in ``scope``: a class, or a function's
        ``(defining scope, name)``; follows one-hop package re-exports."""
        if name in scope.classes:
            return scope.classes[name]
        if name in scope.functions:
            return (scope, name)
        target = scope.imports.get(name)
        if target is None:
            return None
        target_module, target_name = target
        if (key := f"{target_module}:{target_name}") in _seen:
            return None
        target_scope = self.modules.get(target_module)
        if target_scope is None:
            return None
        return self._resolve_name(target_scope, target_name, _seen | {key})

    def class_named(self, scope: _ModuleScope, name: str | None) -> ClassInfo | None:
        if name is None:
            return None
        resolved = self._resolve_name(scope, name)
        if isinstance(resolved, ClassInfo):
            return resolved
        # Fall back to a global unique-name lookup: annotations often
        # name classes that are only imported under TYPE_CHECKING.
        matches = [
            module.classes[name]
            for module in self.modules.values()
            if name in module.classes
        ]
        return matches[0] if len(matches) == 1 else None

    def method_overrides(self) -> dict[str, tuple[str, ...]]:
        """Base-method qualname -> qualnames of subclass overrides.

        Lets effect/contract propagation follow abstract-method dispatch
        (``ProfileStore._append_records`` -> the jsonl body).
        Subclass links are by base *name*, transitively, across modules.
        """
        if self._overrides is not None:
            return self._overrides
        classes = [
            info for scope in self.modules.values() for info in scope.classes.values()
        ]
        subclasses: dict[str, list[ClassInfo]] = {}
        for info in classes:
            for base in info.bases:
                subclasses.setdefault(base, []).append(info)

        def descendants(name: str, seen: set[str]) -> list[ClassInfo]:
            found: list[ClassInfo] = []
            for child in subclasses.get(name, []):
                if child.qualname in seen:
                    continue
                seen.add(child.qualname)
                found.append(child)
                found.extend(descendants(child.name, seen))
            return found

        overrides: dict[str, tuple[str, ...]] = {}
        for info in classes:
            heirs = descendants(info.name, set())
            if not heirs:
                continue
            for method in info.methods:
                targets = tuple(
                    f"{heir.qualname}.{method}"
                    for heir in heirs
                    if method in heir.methods
                )
                if targets:
                    overrides[f"{info.qualname}.{method}"] = targets
        self._overrides = overrides
        return overrides

    # ------------------------------------------------------------------
    # Pass 2: per-class lock and attribute-type tables
    # ------------------------------------------------------------------
    def _build_classes(self) -> None:
        for scope in self.modules.values():
            for info in scope.classes.values():
                self._build_class(scope, info)

    def _factory_lock(self, scope: _ModuleScope, node: ast.Call, key: str) -> LockRef | None:
        """A lock built by ``field(default_factory=<helper>)``."""
        if _call_name(node) != "field":
            return None
        for keyword in node.keywords:
            if keyword.arg == "default_factory" and isinstance(keyword.value, ast.Name):
                helper = scope.functions.get(keyword.value.id)
                if helper is None:
                    return None
                for statement in ast.walk(helper):
                    if (
                        isinstance(statement, ast.Return)
                        and isinstance(statement.value, ast.Call)
                    ):
                        return _lock_from_call(statement.value, key)
        return None

    def _build_class(self, scope: _ModuleScope, info: ClassInfo) -> None:
        for statement in info.node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                attr = statement.target.id
                key = f"{info.name}.{attr}"
                lock = None
                if isinstance(statement.value, ast.Call):
                    lock = self._factory_lock(
                        scope, statement.value, key
                    ) or _lock_from_call(statement.value, key)
                if lock is not None:
                    info.attr_locks[attr] = lock
                    self.locks[key] = lock
                else:
                    annotated = _annotation_class(statement.annotation)
                    if annotated is not None:
                        info.attr_types[attr] = annotated
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[statement.name] = statement
                returns = _annotation_class(statement.returns)
                if returns is not None:
                    info.returns[statement.name] = returns
        # ``self.X = ...`` assignments anywhere in the class's methods.
        for method in info.methods.values():
            params = {
                arg.arg: _annotation_class(arg.annotation)
                for arg in [*method.args.args, *method.args.kwonlyargs]
            }
            for node in ast.walk(method):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    attr = target.attr
                    key = f"{info.name}.{attr}"
                    if isinstance(node.value, ast.Call):
                        lock = _lock_from_call(node.value, key)
                        if lock is not None:
                            info.attr_locks[attr] = lock
                            self.locks[key] = lock
                            continue
                        called = self.class_named(scope, _call_name(node.value))
                        if called is not None:
                            info.attr_types.setdefault(attr, called.name)
                    elif isinstance(node.value, ast.Name):
                        annotated = params.get(node.value.id)
                        if annotated is not None:
                            info.attr_types.setdefault(attr, annotated)
                    if isinstance(node, ast.AnnAssign):
                        annotated = _annotation_class(node.annotation)
                        if annotated is not None:
                            info.attr_types.setdefault(attr, annotated)

    def _inherit_attrs(self) -> None:
        """Copy base-class attribute locks/types down to subclasses.

        ``ProfileStore.__init__`` builds ``self._lock``; the jsonl
        subclass acquires it. Without this pass its ``with
        self._lock:`` regions would be invisible to every checker.
        """
        changed = True
        while changed:
            changed = False
            for scope in self.modules.values():
                for info in scope.classes.values():
                    for base_name in info.bases:
                        base = self.class_named(scope, base_name)
                        if base is None or base is info:
                            continue
                        for attr, lock in base.attr_locks.items():
                            if attr not in info.attr_locks:
                                info.attr_locks[attr] = lock
                                changed = True
                        for attr, type_name in base.attr_types.items():
                            if attr not in info.attr_types:
                                info.attr_types[attr] = type_name
                                changed = True

    # ------------------------------------------------------------------
    # Pass 3: per-function acquisition/call summaries
    # ------------------------------------------------------------------
    def _scan_functions(self) -> None:
        for scope in self.modules.values():
            for name, node in scope.functions.items():
                self._scan_one(scope, None, name, node)
            for info in scope.classes.values():
                for name, node in info.methods.items():
                    self._scan_one(scope, info, name, node)

    def _scan_one(
        self,
        scope: _ModuleScope,
        cls: ClassInfo | None,
        name: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        display = f"{cls.name}.{name}" if cls is not None else name
        summary = FunctionSummary(
            qualname=f"{scope.source.name}:{display}",
            display=display,
            module=scope.source.name,
            path=str(scope.source.path),
        )
        _FunctionScanner(self, scope, cls, summary, node).run()
        self.functions[summary.qualname] = summary


class _FunctionScanner:
    """Walks one function body tracking the lexically held locks."""

    def __init__(
        self,
        program: Program,
        scope: _ModuleScope,
        cls: ClassInfo | None,
        summary: FunctionSummary,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        self.program = program
        self.scope = scope
        self.cls = cls
        self.summary = summary
        self.node = node
        self.local_types: dict[str, str] = {}
        self.local_locks: dict[str, LockRef] = {}
        for arg in [*node.args.args, *node.args.kwonlyargs]:
            annotated = _annotation_class(arg.annotation)
            if annotated is not None:
                self.local_types[arg.arg] = annotated
        if cls is not None:
            self.local_types["self"] = cls.name

    def run(self) -> None:
        self._statements(self.node.body, ())

    # -- type and lock resolution ----------------------------------------
    def _type_of(self, node: ast.expr) -> ClassInfo | None:
        if isinstance(node, ast.Name):
            return self.program.class_named(self.scope, self.local_types.get(node.id))
        if isinstance(node, ast.Attribute):
            owner = self._type_of(node.value)
            if owner is None:
                return None
            name = owner.attr_types.get(node.attr) or owner.returns.get(node.attr)
            return self.program.class_named(self.scope, name)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                constructed = self.program._resolve_name(self.scope, node.func.id)
                if isinstance(constructed, ClassInfo):
                    return constructed  # covers dataclass-generated inits
            callee = self._resolve_call(node)
            if callee is None:
                return None
            if callee.endswith(".__init__"):
                class_name = callee[: -len(".__init__")].rsplit(":", 1)[-1].rsplit(".", 1)[-1]
                return self.program.class_named(self.scope, class_name)
            return self._return_type_of(callee)
        return None

    def _return_type_of(self, callee: str) -> ClassInfo | None:
        module, _, display = callee.partition(":")
        scope = self.program.modules.get(module)
        if scope is None:
            return None
        if "." in display:
            class_name, method = display.rsplit(".", 1)
            owner = scope.classes.get(class_name)
            if owner is None:
                return None
            return self.program.class_named(scope, owner.returns.get(method))
        function = scope.functions.get(display)
        if function is None:
            return None
        return self.program.class_named(scope, _annotation_class(function.returns))

    def _lock_of(self, node: ast.expr) -> LockRef | None:
        if isinstance(node, ast.Name):
            return self.local_locks.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = self._type_of(node.value)
            if owner is not None:
                return owner.attr_locks.get(node.attr)
        return None

    def _as_acquire(self, expr: ast.expr) -> Acquire | None:
        """Classify a ``with`` item as a lock acquisition, if it is one."""
        lock = self._lock_of(expr)
        if lock is not None:
            return Acquire(lock=lock, mode="mutex", line=expr.lineno)
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            mode = {"read_locked": "read", "write_locked": "write"}.get(expr.func.attr)
            if mode is not None:
                lock = self._lock_of(expr.func.value)
                if lock is not None:
                    return Acquire(lock=lock, mode=mode, line=expr.lineno)
        return None

    # -- call resolution -------------------------------------------------
    def _resolve_call(self, node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Name):
            resolved = self.program._resolve_name(self.scope, func.id)
            if isinstance(resolved, ClassInfo):
                if "__init__" in resolved.methods:
                    return f"{resolved.module}:{resolved.name}.__init__"
                return None  # dataclass-generated init: nothing to follow
            if resolved is not None:
                def_scope, name = resolved
                return f"{def_scope.source.name}:{name}"
            return None
        if isinstance(func, ast.Attribute):
            owner = self._type_of(func.value)
            if owner is not None and func.attr in owner.methods:
                return f"{owner.module}:{owner.name}.{func.attr}"
        return None

    # -- the walk ---------------------------------------------------------
    def _statements(self, body: list[ast.stmt], held: tuple[Acquire, ...]) -> None:
        for statement in body:
            self._statement(statement, held)

    def _statement(self, statement: ast.stmt, held: tuple[Acquire, ...]) -> None:
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            inner = held
            for item in statement.items:
                acquire = self._as_acquire(item.context_expr)
                if acquire is not None:
                    self.summary.acquires.append((acquire, inner))
                    inner = (*inner, acquire)
                else:
                    self._expression(item.context_expr, inner)
            self._statements(statement.body, inner)
            return
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs: scanned at the definition site (see module
            # docstring for why that approximation is right here).
            self._statements(statement.body, held)
            return
        if isinstance(statement, ast.ClassDef):
            return
        if isinstance(statement, (ast.Assign, ast.AnnAssign)):
            self._bind(statement)
        for expr_field in ("value", "test", "iter", "exc", "msg"):
            value = getattr(statement, expr_field, None)
            if isinstance(value, ast.expr):
                self._expression(value, held)
        for body_field in ("body", "orelse", "finalbody"):
            inner = getattr(statement, body_field, None)
            if isinstance(inner, list) and inner and isinstance(inner[0], ast.stmt):
                self._statements(inner, held)
        for handler in getattr(statement, "handlers", []):
            self._statements(handler.body, held)
        if isinstance(statement, ast.Expr):
            return  # already visited via "value"

    def _bind(self, statement: ast.Assign | ast.AnnAssign) -> None:
        """Record local variable types/locks from an assignment."""
        targets = (
            statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        )
        value = statement.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, ast.Call):
                lock = _lock_from_call(
                    value, f"{self.summary.display}.{target.id}"
                )
                if lock is not None:
                    self.local_locks[target.id] = lock
                    self.program.locks[lock.key] = lock
                    continue
            typed = self._type_of(value) if value is not None else None
            if typed is None and isinstance(statement, ast.AnnAssign):
                typed = self.program.class_named(
                    self.scope, _annotation_class(statement.annotation)
                )
            if typed is not None:
                self.local_types[target.id] = typed.name

    def _expression(self, node: ast.expr, held: tuple[Acquire, ...]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self.summary.calls.append(
                    CallSite(
                        callee=self._resolve_call(sub),
                        line=sub.lineno,
                        held=held,
                        node=sub,
                    )
                )
