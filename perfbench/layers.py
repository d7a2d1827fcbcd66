"""Layer map of the ``repro`` package and the wrappers the benchmark puts on it.

The benchmark never edits the program.  For a traced run (or a
sensitivity run that injects a delay) it replaces the public functions
of each layer with wrappers *after* ``import repro`` and *before* the
scheme is built:

* module-level functions are replaced at every ``repro`` module that
  holds them, not only where they are defined, because several modules
  import them by name (``repro.core.dp_ram.encrypt``,
  ``repro.core.bucket_ram.encrypt_many``,
  ``repro.cluster.group.decrypt_authenticated``,
  ``repro.cluster.scheme.encrypt_authenticated_many``,
  ``repro.core.dp_ir.draw_pad_set``) and ``DPRAM.__init__`` captures
  ``encrypt``/``decrypt`` when the scheme is constructed;
* methods are replaced on the class that defines them.

Each target belongs to one *span name* ``<layer>.<part>``.  A call is a
layer *entry* when the span that encloses it has a different name; only
entries count as calls (``decrypt_authenticated`` calling ``decrypt`` is
one decrypt call) and only entries receive an injected delay.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:attr`` or ``module:Class.method``."""

    span: str
    where: str
    #: Position of the argument whose ``len()`` is the call's item count
    #: (blocks, slots); ``None`` counts one item per call.
    items_arg: int | None = None


TARGETS: tuple[Target, ...] = (
    Target("api.build", "repro.api.registry:build"),
    Target("serving.serve", "repro.serving.service:serve"),
    Target("serving.sim", "repro.serving.simulator:ServingSimulator.run"),
    Target("serving.sched",
           "repro.serving.schedulers:ContinuousBatchScheduler.try_admit"),
    Target("serving.sched",
           "repro.serving.schedulers:ContinuousBatchScheduler.enqueue"),
    Target("serving.sched",
           "repro.serving.schedulers:ContinuousBatchScheduler.next_batch"),
    Target("serving.sched",
           "repro.serving.schedulers:ContinuousBatchScheduler.notify_complete"),
    Target("cluster.route", "repro.cluster.scheme:ClusterIR.query_many"),
    Target("cluster.group", "repro.cluster.group:ShardGroup.query_many"),
    Target("parallel.fanout", "repro.obs.executor:TracingExecutor.fan_out"),
    Target("parallel.fanout", "repro.parallel.executor:SerialExecutor.fan_out"),
    Target("core.scheme", "repro.core.dp_ram:DPRAM.read"),
    Target("core.scheme", "repro.core.dp_ram:DPRAM.write"),
    Target("core.scheme", "repro.core.dp_kvs:DPKVS.get"),
    Target("core.scheme", "repro.core.dp_kvs:DPKVS.put"),
    Target("core.scheme", "repro.core.bucket_ram:BucketDPRAM.begin_query"),
    Target("core.scheme", "repro.core.bucket_ram:BucketDPRAM.finish_query"),
    Target("core.scheme", "repro.core.dp_ir:DPIR.query"),
    Target("core.sampling", "repro.core.sampling:draw_pad_set"),
    Target("hashing.codec", "repro.hashing.node_codec:NodeCodec.pack"),
    Target("hashing.codec", "repro.hashing.node_codec:NodeCodec.unpack"),
    Target("crypto.prf", "repro.crypto.prf:PRF.choices"),
    Target("crypto.prf", "repro.crypto.prf:PRF.choices_many", 1),
    Target("crypto.encrypt", "repro.crypto.encryption:encrypt"),
    Target("crypto.encrypt", "repro.crypto.encryption:encrypt_many", 1),
    Target("crypto.encrypt",
           "repro.crypto.encryption:encrypt_authenticated_many", 1),
    Target("crypto.decrypt", "repro.crypto.encryption:decrypt"),
    Target("crypto.decrypt", "repro.crypto.encryption:decrypt_many", 1),
    Target("crypto.decrypt", "repro.crypto.encryption:decrypt_authenticated"),
    Target("crypto.decrypt",
           "repro.crypto.encryption:decrypt_authenticated_many", 1),
    Target("storage.read", "repro.storage.server:StorageServer.read"),
    Target("storage.read", "repro.storage.server:StorageServer.read_many", 1),
    Target("storage.write", "repro.storage.server:StorageServer.write"),
    Target("storage.write", "repro.storage.server:StorageServer.write_many", 1),
    Target("storage.load", "repro.storage.server:StorageServer.load", 1),
)

#: Import sites that must end up wrapped; a refactor that moves one of
#: these imports fails the traced run instead of silently losing spans.
REQUIRED_SITES: tuple[str, ...] = (
    "repro.core.dp_ram:encrypt",
    "repro.core.dp_ram:decrypt",
    "repro.core.dp_ram:encrypt_many",
    "repro.core.bucket_ram:encrypt_many",
    "repro.core.bucket_ram:decrypt_many",
    "repro.cluster.group:decrypt_authenticated",
    "repro.cluster.scheme:encrypt_authenticated_many",
    "repro.core.dp_ir:draw_pad_set",
    "repro:build",
    "repro:serve",
)

#: Layer parts the sensitivity self-test injects into.
INJECTABLE: tuple[str, ...] = (
    "crypto", "storage", "core.sampling", "hashing.codec", "serving.sched",
)


def _in_group(span: str, group: str) -> bool:
    return span == group or span.startswith(group + ".")


def resolve(where: str) -> tuple[Any, str, bool]:
    """``(owner, attribute, owner_is_class)`` for a target location."""
    module_name, _, attr_path = where.partition(":")
    owner: Any = importlib.import_module(module_name)
    *classes, attr = attr_path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr, bool(classes)


def install(
    targets: tuple[Target, ...],
    make: Callable[[Callable[..., Any], Target], Callable[..., Any]],
) -> None:
    """Replace every target with ``make(original, target)``."""
    for target in targets:
        owner, attr, is_class = resolve(target.where)
        original = owner.__dict__[attr] if is_class else getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original, target))
        if is_class:
            setattr(owner, attr, wrapper)
            continue
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def check_required_sites() -> None:
    """Raise unless every :data:`REQUIRED_SITES` entry holds a wrapper."""
    for site in REQUIRED_SITES:
        owner, attr, _ = resolve(site)
        if not hasattr(getattr(owner, attr), "__wrapped__"):
            raise RuntimeError(f"import site {site} was not wrapped")


def spin(duration_ns: int) -> None:
    """Busy-wait ``duration_ns`` on the calling thread."""
    end = perf_counter_ns() + duration_ns
    while perf_counter_ns() < end:
        pass


class Injector:
    """Adds a fixed busy-wait to every entry into one layer group."""

    def __init__(self, group: str, delay_us: float) -> None:
        if group not in INJECTABLE:
            raise ValueError(f"cannot inject into {group!r}; "
                             f"expected one of {', '.join(INJECTABLE)}")
        self.group = group
        self.delay_ns = int(delay_us * 1000)
        self._depth = 0

    def install(self) -> None:
        install(tuple(t for t in TARGETS if _in_group(t.span, self.group)),
                self._make)

    def _make(
        self, original: Callable[..., Any], target: Target
    ) -> Callable[..., Any]:
        del target

        def injected(*args: Any, **kwargs: Any) -> Any:
            if self._depth == 0:
                spin(self.delay_ns)
            self._depth += 1
            try:
                return original(*args, **kwargs)
            finally:
                self._depth -= 1

        return injected


class Recorder:
    """In-memory span recorder with per-span-name self-time accounting.

    Spans are ``(id, name, start_ns, end_ns, parent_id, op_id)`` tuples,
    kept up to ``span_cap``; the per-name aggregates count every span.
    ``phase`` (``"setup"``, ``"timed"``, ``"done"``) is set by the
    workload.  In the timed phase ``op_id`` advances at every span named
    ``op_span`` or, when that is ``None``, at every span with no parent,
    so spans of one operation share it.  An optional injected delay (as
    :class:`Injector` adds) makes the traced run attribute the busy-wait
    to its layer.
    """

    def __init__(
        self, op_span: str | None = None, span_cap: int = 50_000,
        inject_group: str | None = None, inject_us: float = 0.0,
    ) -> None:
        self.phase = "setup"
        self.op_id = -1
        self._op_span = op_span
        self.span_cap = span_cap
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.dropped = 0
        #: (phase, span name) -> [self_ns, entry calls, entry items,
        #: inclusive ns of entries]
        self.totals: dict[tuple[str, str], list[int]] = {}
        #: phase -> summed duration of spans with no parent
        self.top_ns: dict[str, int] = {}
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self._inject_group = inject_group
        self._inject_ns = int(inject_us * 1000)

    def install(self) -> None:
        install(TARGETS, self._make)
        check_required_sites()

    def _make(
        self, original: Callable[..., Any], target: Target
    ) -> Callable[..., Any]:
        name = target.span
        items_arg = target.items_arg
        group = self._inject_group
        inject_ns = (
            self._inject_ns
            if group is not None and _in_group(name, group) else 0
        )
        stack = self._stack
        starts_op = (
            name == self._op_span if self._op_span is not None else None
        )

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            entry = parent is None or parent[0] != name
            if self.phase == "timed" and (
                starts_op if starts_op is not None else parent is None
            ):
                self.op_id += 1
            start = perf_counter_ns()
            if inject_ns and (parent is None
                              or not _in_group(parent[0], group)):
                spin(inject_ns)
            span_id = self._next_id
            self._next_id += 1
            frame = [name, 0, span_id]
            stack.append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                phase = self.phase
                key = (phase, name)
                total = self.totals.get(key)
                if total is None:
                    total = self.totals[key] = [0, 0, 0, 0]
                total[0] += duration - frame[1]
                if entry:
                    total[1] += 1
                    total[2] += 1 if items_arg is None else len(args[items_arg])
                    total[3] += duration
                if parent is not None:
                    parent[1] += duration
                    parent_id = parent[2]
                else:
                    self.top_ns[phase] = self.top_ns.get(phase, 0) + duration
                    parent_id = -1
                if len(self.spans) < self.span_cap:
                    self.spans.append(
                        (span_id, name, start, end, parent_id, self.op_id)
                    )
                else:
                    self.dropped += 1

        return traced

    def self_ns(self, phase: str, prefix: str) -> int:
        """Summed self time of spans in ``phase`` under ``prefix``."""
        return sum(v[0] for (p, name), v in self.totals.items()
                   if p == phase and _in_group(name, prefix))

    def calls(self, phase: str, prefix: str) -> int:
        """Layer-entry calls in ``phase`` under ``prefix``."""
        return sum(v[1] for (p, name), v in self.totals.items()
                   if p == phase and _in_group(name, prefix))

    def inclusive_ns(self, phase: str, name: str) -> int:
        """Summed duration of layer-entry spans named ``name``."""
        total = self.totals.get((phase, name))
        return total[3] if total else 0

    def items(self, phase: str, prefix: str) -> int:
        """Items (blocks, slots) passed to layer entries under ``prefix``."""
        return sum(v[2] for (p, name), v in self.totals.items()
                   if p == phase and _in_group(name, prefix))

    def export(self) -> dict[str, Any]:
        """The JSON view: aggregates plus the retained span records."""
        return {
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "dropped_spans": self.dropped,
            "totals": [
                {"phase": phase, "name": name, "self_ns": v[0],
                 "calls": v[1], "items": v[2], "inclusive_ns": v[3]}
                for (phase, name), v in sorted(self.totals.items())
            ],
        }
