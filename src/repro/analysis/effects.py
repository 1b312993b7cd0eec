"""Rule BLOCK001: may-block effect inference over the call graph.

A *may-block* effect is a call that can park the calling thread on
something other than a ranked lock: socket I/O (``send``/``recv``/
``accept``/``connect``), file barriers (``flush``/``os.fsync``),
process/thread joins, ``time.sleep``, ``Future.result`` and condition
waits. Holding a ranked in-memory lock across one of these stalls
every thread queued behind it - the distributed tier's classic
tail-latency (and, with the WAL, deadlock) recipe.

The checker computes a fixed-point effect set per function, exactly
like :mod:`repro.analysis.lockorder` computes transitive acquires:

1. **Direct effects**: classify every call site syntactically (see
   ``_classify``). The table is deliberately conservative - ``.join``
   only with zero positional arguments (so ``", ".join(...)`` never
   matches), no ``.get``/``.acquire`` (queue waits are approximated by
   the primitives above; dict/semaphore noise would drown the signal).
2. **Shielding**: three hierarchy levels exist to guard I/O -
   ``SANCTIONED_BLOCKING_LEVELS`` (router/conn/store), shared with the
   runtime sanitizer in :mod:`repro.concurrency.blocking`. At any
   call site the *innermost ranked* held lock decides: sanctioned
   level -> the blocking is anchored at its designed boundary and the
   effect stops propagating; non-sanctioned level -> ``BLOCK001``;
   no ranked lock held -> the effect propagates to the caller with a
   provenance chain.
3. **Dispatch**: resolved callees plus the lock checker's configured
   dynamic-dispatch edges, widened through subclass overrides so
   ``ProfileStore._append_records`` carries the jsonl fsync
   effects to the abstract call site (where the store mutex shields
   them).

:mod:`repro.faults` is exempt as an effect *source*: its injected
latency blocks under the instrumented caller's locks by design, and
mirrors this at runtime via ``allow_blocking()``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.concurrency.blocking import SANCTIONED_BLOCKING_LEVELS
from repro.analysis.callgraph import Acquire, CallSite, Program, level_name
from repro.analysis.findings import Finding

__all__ = ["BLOCKING_EXEMPT_MODULES", "check_blocking"]

#: Modules whose blocking is the point (fault injection): never an
#: effect source. The runtime twin is ``allow_blocking()``.
BLOCKING_EXEMPT_MODULES = ("repro.faults",)

#: Attribute calls that may block, ``attr -> effect kind``.
_BLOCKING_ATTRS = {
    "send": "socket send",
    "sendall": "socket send",
    "sendto": "socket send",
    "recv": "socket recv",
    "recv_into": "socket recv",
    "recvfrom": "socket recv",
    "accept": "socket accept",
    "connect": "socket connect",
    "flush": "flush",
    "fsync": "fsync",
    "result": "future wait",
    "wait": "wait",
    "wait_for": "wait",
}

#: Module-qualified functions that may block (``module.name`` form).
_BLOCKING_QUALIFIED = {
    ("time", "sleep"): "sleep",
    ("os", "fsync"): "fsync",
    ("socket", "create_connection"): "socket connect",
    ("subprocess", "Popen"): "process spawn",
    ("subprocess", "check_call"): "process wait",
    ("subprocess", "check_output"): "process wait",
}


@dataclass(frozen=True)
class _MayBlock:
    """One may-block effect with its provenance chain (innermost last)."""

    kind: str  # "sleep", "fsync", "socket recv", ...
    origin: str  # "module:display:line" of the primitive call
    chain: tuple[str, ...]  # display names, caller-side first


def _classify(node: ast.Call | None, scope_imports: dict[str, tuple[str, str]]) -> str | None:
    """The effect kind of a call, or ``None`` if it cannot block."""
    if node is None:
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr == "join":
            # Thread/process join takes no positional argument;
            # ``sep.join(parts)`` takes exactly one.
            return None if node.args else "join"
        kind = _BLOCKING_ATTRS.get(func.attr)
        if kind is not None:
            return kind
        if isinstance(func.value, ast.Name):
            return _BLOCKING_QUALIFIED.get((func.value.id, func.attr))
        return None
    if isinstance(func, ast.Name):
        target = scope_imports.get(func.id)
        if target is not None:
            module, name = target
            return _BLOCKING_QUALIFIED.get((module, name))
        if func.id == "Popen":
            return "process spawn"
    return None


def _innermost_ranked(held: tuple[Acquire, ...]) -> Acquire | None:
    ranked = [entry for entry in held if entry.lock.level is not None]
    if not ranked:
        return None
    return max(ranked, key=lambda entry: entry.lock.level or 0)


def _callees(site: CallSite, overrides: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    if site.callee is None:
        return ()
    return (site.callee, *overrides.get(site.callee, ()))


def check_blocking(
    program: Program,
    extra_edges: tuple[tuple[str, str], ...] = (),
) -> list[Finding]:
    """Rule BLOCK001: may-block effects reachable under a ranked lock."""
    overrides = program.method_overrides()
    extra = {caller: callee for caller, callee in extra_edges}

    # Direct effects per function, split by whether a ranked lock is
    # held at the primitive itself.
    direct_free: dict[str, list[_MayBlock]] = {}
    direct_held: dict[str, list[tuple[_MayBlock, Acquire]]] = {}
    for qualname, summary in program.functions.items():
        if summary.module.startswith(BLOCKING_EXEMPT_MODULES):
            continue
        scope = program.modules[summary.module]
        for site in summary.calls:
            kind = _classify(site.node, scope.imports)
            if kind is None:
                continue
            effect = _MayBlock(
                kind=kind,
                origin=f"{summary.display}:{site.line}",
                chain=(),
            )
            innermost = _innermost_ranked(site.held)
            if innermost is None:
                direct_free.setdefault(qualname, []).append(effect)
            else:
                direct_held.setdefault(qualname, []).append((effect, innermost))

    # Fixed point: exported effects = direct lock-free effects plus the
    # exported effects of callees invoked with no ranked lock held.
    exported: dict[str, dict[tuple[str, str], _MayBlock]] = {
        qualname: {(e.kind, e.origin): e for e in effects}
        for qualname, effects in direct_free.items()
    }
    changed = True
    while changed:
        changed = False
        for qualname, summary in program.functions.items():
            if summary.module.startswith(BLOCKING_EXEMPT_MODULES):
                continue
            bucket = exported.setdefault(qualname, {})
            for site in summary.calls:
                if _innermost_ranked(site.held) is not None:
                    continue  # anchored below: finding or shielded
                callees = _callees(site, overrides)
                if not callees and site.callee is None and qualname in extra:
                    callees = (extra[qualname],)
                for callee in callees:
                    for effect in exported.get(callee, {}).values():
                        display = program.functions[callee].display if callee in program.functions else callee
                        lifted = _MayBlock(
                            kind=effect.kind,
                            origin=effect.origin,
                            chain=(display, *effect.chain),
                        )
                        key = (lifted.kind, lifted.origin)
                        if key not in bucket:
                            bucket[key] = lifted
                            changed = True
    findings: list[Finding] = []

    def _emit(
        summary_qualname: str,
        line: int,
        effect: _MayBlock,
        innermost: Acquire,
        via: tuple[str, ...],
    ) -> None:
        summary = program.functions[summary_qualname]
        findings.append(
            Finding(
                rule="BLOCK001",
                category="effects",
                module=summary.module,
                path=summary.path,
                line=line,
                message=(
                    f"{summary.display} may block ({effect.kind} at "
                    f"{effect.origin}) while holding "
                    f"{innermost.lock.key} [{level_name(innermost.lock.level)}]; "
                    f"only sanctioned levels "
                    f"{sorted(SANCTIONED_BLOCKING_LEVELS)} may block"
                ),
                function=summary.display,
                chain=via,
            )
        )

    for qualname, entries in direct_held.items():
        for effect, innermost in entries:
            if innermost.lock.level in SANCTIONED_BLOCKING_LEVELS:
                continue  # the designed blocking boundary
            line = int(effect.origin.rsplit(":", 1)[-1])
            _emit(qualname, line, effect, innermost, ())

    for qualname, summary in program.functions.items():
        if summary.module.startswith(BLOCKING_EXEMPT_MODULES):
            continue
        for site in summary.calls:
            innermost = _innermost_ranked(site.held)
            if innermost is None or innermost.lock.level in SANCTIONED_BLOCKING_LEVELS:
                continue
            callees = _callees(site, overrides)
            if not callees and site.callee is None and qualname in extra:
                callees = (extra[qualname],)
            for callee in callees:
                for effect in exported.get(callee, {}).values():
                    display = (
                        program.functions[callee].display
                        if callee in program.functions
                        else callee
                    )
                    _emit(
                        qualname,
                        site.line,
                        effect,
                        innermost,
                        (display, *effect.chain),
                    )
    unique: dict[tuple[str, str, int, str], Finding] = {}
    for finding in findings:
        unique.setdefault((finding.rule, finding.path, finding.line, finding.message), finding)
    return list(unique.values())
