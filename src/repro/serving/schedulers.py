"""Request schedulers: how queued requests become dispatches.

The scheduler owns the pending queue and decides, whenever a dispatch
lane is free, which requests to hand over next.  Schedulers are
*registered, pluggable implementations* of one protocol
(:class:`RequestScheduler`), mirroring the ``@register_scheme`` idiom:

* :class:`FIFOScheduler` (``fifo``) — one request per dispatch,
  strictly in arrival order.  This is the per-request baseline: every
  request pays the full per-query cost of the scheme.
* :class:`WindowedBatchScheduler` (``window``) — accumulates
  requests for a configurable window (or until a size cap) and
  dispatches them as one group.  The simulator routes groups
  through the ``*_many`` protocol entry points, so schemes with
  genuinely batched implementations (``BatchDPIR``'s pad-set union,
  ``MultiServerDPIR``'s coalesced replica reads) serve a group with
  fewer server operations than the same requests dispatched one by one.
* :class:`ContinuousBatchScheduler` (``continuous``) — no round
  barrier: requests join the next dispatch the moment a lane frees,
  and up to :attr:`~RequestScheduler.pipeline_depth` dispatch groups
  stay in flight at once, so round N+1 no longer waits on round N's
  slowest leg.  Per-tenant credit caps and a global queue cap shed an
  open-loop flood instead of growing the queue without bound.

Schedulers are deliberately passive: they never execute anything and
keep no clock of their own.  ``enqueue`` may return a wake-up time (the
batching window's deadline) which the simulator turns into an event;
``try_admit`` lets a scheduler refuse a request *before* it queues
(admission control), and ``notify_complete`` returns the credits a
dispatch group held.

Consumers build schedulers by registry name through
:func:`build_scheduler` (the ``--scheduler {fifo,window,continuous}``
CLI flag and :class:`~repro.serving.config.ServingConfig` both resolve
through it) and discover them via :func:`available_schedulers` /
:func:`scheduler_listings` — re-exported as ``repro.schedulers()``.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Type

from repro.serving.requests import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.serving.config import ServingConfig


class RequestScheduler(abc.ABC):
    """Queueing policy between arriving requests and the scheme worker.

    The scheduler protocol the simulator drives:

    * :meth:`try_admit` — may this request enter the queue at all?
      Refusals are *shed* (counted per tenant, never served).
    * :meth:`enqueue` — accept an admitted request; optionally return a
      wake-up time the simulator must revisit the scheduler at.
    * :meth:`next_batch` — the next dispatch group, empty if nothing is
      ready.  Called whenever a dispatch lane is idle.
    * :meth:`notify_complete` — a previously dispatched group finished;
      credit-tracking schedulers release its tokens here.

    :attr:`pipeline_depth` is how many dispatch groups the simulator
    may keep in flight concurrently; ``1`` reproduces the historical
    lock-step round behaviour.
    """

    name: str = "scheduler"
    pipeline_depth: int = 1

    def __init__(self) -> None:
        self._queue: deque[Request] = deque()

    @classmethod
    def from_config(cls, config: "ServingConfig") -> "RequestScheduler":
        """Build an instance from a :class:`ServingConfig`.

        The base implementation takes no parameters; parameterized
        schedulers override this to read their knobs off the config.
        """
        del config
        return cls()

    def try_admit(self, request: Request, now_ms: float) -> bool:
        """Whether ``request`` may enter the queue at ``now_ms``.

        Returning ``False`` sheds the request: it is never enqueued,
        never served, and is counted in the report's per-tenant ``shed``
        column.  The default admits everything.
        """
        del request, now_ms
        return True

    def enqueue(self, request: Request, now_ms: float) -> float | None:
        """Admit ``request`` at ``now_ms``.

        Returns a wake-up time when the scheduler needs the simulator to
        revisit it even if no other event fires (a batch window closing),
        or ``None``.
        """
        del now_ms
        self._queue.append(request)
        return None

    @abc.abstractmethod
    def next_batch(self, now_ms: float) -> list[Request]:
        """Requests to dispatch now; empty if nothing is ready.

        Called by the simulator whenever a dispatch lane is idle.
        """

    def notify_complete(self, batch: list[Request], now_ms: float) -> None:
        """A dispatched group completed; release any credits it held."""
        del batch, now_ms

    def pending(self) -> int:
        """Requests currently queued."""
        return len(self._queue)


@dataclass(frozen=True)
class SchedulerSpec:
    """One scheduler-registry entry.

    Attributes:
        name: the stable registry key (``"fifo"`` / ``"window"`` /
            ``"continuous"``).
        factory: the :class:`RequestScheduler` subclass; built via its
            ``from_config`` classmethod.
        summary: one-line description for listings.
    """

    name: str
    factory: Type[RequestScheduler]
    summary: str


_SCHEDULERS: dict[str, SchedulerSpec] = {}


def register_scheduler(
    name: str, *, summary: str = ""
) -> Callable[[Type[RequestScheduler]], Type[RequestScheduler]]:
    """Class decorator registering a :class:`RequestScheduler`.

    Mirrors :func:`repro.api.registry.register_scheme`: the decorated
    class lands in the catalogue every name-accepting entry point
    (:func:`build_scheduler`, the serve CLI's ``--scheduler`` flag,
    ``ServingConfig``) resolves through.
    """

    def decorator(cls: Type[RequestScheduler]) -> Type[RequestScheduler]:
        if name in _SCHEDULERS:
            raise ValueError(f"scheduler {name!r} is already registered")
        _SCHEDULERS[name] = SchedulerSpec(
            name=name,
            factory=cls,
            summary=summary or (cls.__doc__ or "").strip().split("\n")[0],
        )
        return cls

    return decorator


def resolve_scheduler_name(name: str) -> str:
    """Normalize a user-facing scheduler spelling to its registry key."""
    return name.strip().lower().replace("-", "_")


def scheduler_spec(name: str) -> SchedulerSpec:
    """The :class:`SchedulerSpec` registered under ``name``.

    Raises:
        ValueError: for unknown names (listing what is available).
    """
    try:
        return _SCHEDULERS[resolve_scheduler_name(name)]
    except KeyError:
        known = ", ".join(sorted(_SCHEDULERS))
        raise ValueError(
            f"unknown scheduler {name!r}; registered schedulers: {known}"
        ) from None


def available_schedulers() -> tuple[str, ...]:
    """Registered scheduler names, sorted."""
    return tuple(sorted(_SCHEDULERS))


def scheduler_listings() -> tuple[SchedulerSpec, ...]:
    """The full scheduler catalogue (re-exported as ``repro.schedulers``)."""
    return tuple(_SCHEDULERS[name] for name in available_schedulers())


def build_scheduler(
    scheduler: "RequestScheduler | str", config: "ServingConfig"
) -> RequestScheduler:
    """Resolve a scheduler name (or pass an instance through).

    Args:
        scheduler: a registry name (``fifo`` / ``window`` /
            ``continuous``) or an already-built
            :class:`RequestScheduler`.
        config: the run's :class:`ServingConfig`, handed to the
            registered class's ``from_config``.
    """
    if isinstance(scheduler, RequestScheduler):
        return scheduler
    return scheduler_spec(scheduler).factory.from_config(config)


@register_scheduler(
    "fifo",
    summary="per-request dispatch in strict arrival order (the "
            "unbatched baseline)",
)
class FIFOScheduler(RequestScheduler):
    """Per-request dispatch in arrival order — the unbatched baseline."""

    name = "fifo"

    def next_batch(self, now_ms: float) -> list[Request]:
        del now_ms
        if not self._queue:
            return []
        return [self._queue.popleft()]


@register_scheduler(
    "window",
    summary="dispatch groups gathered over a fixed batching window "
            "(lock-step rounds)",
)
class WindowedBatchScheduler(RequestScheduler):
    """Dispatch groups gathered over a batching window.

    A window opens when a request joins an empty queue and closes
    ``window_ms`` later; at close (or as soon as ``max_batch`` requests
    are waiting, or whenever requests piled up while the worker was
    busy) the queued requests dispatch as one group of at most
    ``max_batch``.

    Args:
        window_ms: how long the first queued request may wait for
            company.  Zero degenerates to FIFO-with-coalescing: requests
            that arrive while the worker is busy still share a dispatch.
        max_batch: dispatch group size cap.
    """

    name = "window"

    def __init__(self, window_ms: float = 2.0, max_batch: int = 16) -> None:
        super().__init__()
        if window_ms < 0:
            raise ValueError(f"window must be non-negative, got {window_ms}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        self.window_ms = window_ms
        self.max_batch = max_batch
        self._deadline = 0.0

    @classmethod
    def from_config(cls, config: "ServingConfig") -> "WindowedBatchScheduler":
        return cls(
            window_ms=config.batch_window_ms, max_batch=config.max_batch
        )

    def enqueue(self, request: Request, now_ms: float) -> float | None:
        opened = not self._queue
        self._queue.append(request)
        if opened:
            self._deadline = now_ms + self.window_ms
            return self._deadline
        return None

    def next_batch(self, now_ms: float) -> list[Request]:
        if not self._queue:
            return []
        if len(self._queue) < self.max_batch and now_ms < self._deadline:
            return []
        batch = [
            self._queue.popleft()
            for _ in range(min(self.max_batch, len(self._queue)))
        ]
        # Anything left over already waited a full window; it goes out
        # the next time the worker frees up.
        self._deadline = now_ms
        return batch


#: Backward-compatible name for the windowed batcher (pre-registry API).
BatchScheduler = WindowedBatchScheduler


@register_scheduler(
    "continuous",
    summary="continuous batching: admit into in-flight dispatch windows, "
            "per-tenant credit caps shed overload",
)
class ContinuousBatchScheduler(RequestScheduler):
    """Continuous batching with per-tenant admission control.

    No round barrier: whenever a dispatch lane frees, whatever is queued
    (up to ``max_batch``) goes out immediately, and up to
    ``max_in_flight`` dispatch groups occupy lanes concurrently — the
    pipelined regime where round N+1 starts while round N's slowest leg
    is still outstanding.

    Admission control is token-based: a tenant holds one credit per
    request from admission until its dispatch group completes.  A tenant
    at its ``tenant_credits`` cap — or any arrival while the whole queue
    is at ``queue_cap`` — is shed rather than queued, which is the
    backpressure that keeps queue depth and p99 bounded under an
    open-loop flood.  Both caps default to *disabled* (``None``), in
    which case admission is unconditional and, at ``max_in_flight=1``,
    the dispatch order is bit-identical to
    :class:`WindowedBatchScheduler` with a zero window.

    Args:
        max_batch: dispatch group size cap.
        max_in_flight: concurrent dispatch groups (pipeline depth).
        tenant_credits: outstanding-request cap per tenant (``None``
            disables per-tenant admission control).
        queue_cap: global pending-queue cap (``None`` disables).
    """

    name = "continuous"

    def __init__(
        self,
        max_batch: int = 16,
        max_in_flight: int = 4,
        tenant_credits: int | None = None,
        queue_cap: int | None = None,
    ) -> None:
        super().__init__()
        if max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        if max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be at least 1, got {max_in_flight}"
            )
        if tenant_credits is not None and tenant_credits < 1:
            raise ValueError(
                f"tenant_credits must be at least 1, got {tenant_credits}"
            )
        if queue_cap is not None and queue_cap < 1:
            raise ValueError(
                f"queue_cap must be at least 1, got {queue_cap}"
            )
        self.max_batch = max_batch
        self.max_in_flight = max_in_flight
        self.pipeline_depth = max_in_flight
        self.tenant_credits = tenant_credits
        self.queue_cap = queue_cap
        #: Credits held per tenant: queued + in-flight requests.
        self._outstanding: dict[str, int] = {}

    @classmethod
    def from_config(cls, config: "ServingConfig") -> "ContinuousBatchScheduler":
        return cls(
            max_batch=config.max_batch,
            max_in_flight=config.max_in_flight,
            tenant_credits=config.tenant_credits,
            queue_cap=config.queue_cap,
        )

    def outstanding(self, tenant: str) -> int:
        """Credits ``tenant`` currently holds (queued + in flight)."""
        return self._outstanding.get(tenant, 0)

    def try_admit(self, request: Request, now_ms: float) -> bool:
        del now_ms
        if self.queue_cap is not None and len(self._queue) >= self.queue_cap:
            return False
        if (
            self.tenant_credits is not None
            and self.outstanding(request.tenant) >= self.tenant_credits
        ):
            return False
        return True

    def enqueue(self, request: Request, now_ms: float) -> float | None:
        del now_ms
        self._outstanding[request.tenant] = (
            self._outstanding.get(request.tenant, 0) + 1
        )
        self._queue.append(request)
        return None

    def next_batch(self, now_ms: float) -> list[Request]:
        del now_ms
        if not self._queue:
            return []
        return [
            self._queue.popleft()
            for _ in range(min(self.max_batch, len(self._queue)))
        ]

    def notify_complete(self, batch: list[Request], now_ms: float) -> None:
        del now_ms
        for request in batch:
            remaining = self._outstanding.get(request.tenant, 0) - 1
            if remaining > 0:
                self._outstanding[request.tenant] = remaining
            else:
                self._outstanding.pop(request.tenant, None)
