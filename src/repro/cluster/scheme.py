"""Cluster schemes: N shard groups × R replicas behind the protocols.

:class:`ClusterIR` and :class:`ClusterKVS` implement the ordinary
:class:`~repro.api.protocols.PrivateIR` / ``PrivateKVS`` protocols, so
the harness, conformance suite and serving simulator drive a whole
cluster exactly like a single-node scheme.  Internally a
:class:`~repro.cluster.router.ShardRouter` maps each logical index (or
key) to one shard group; the group hosts ``R`` independently built
instances of any registered base scheme over that shard's records and
fails reads over between them (see :mod:`repro.cluster.group`).

Privacy model — stated honestly: within a shard, the base instance's
exact per-query ε (over its ``n/D`` records, with a ``K/D`` pad) equals
the single-server budget over all ``n`` records with pad ``K``, because
``ε = ln((1−α)·n/(α·K) + 1)`` is invariant under scaling ``n`` and ``K``
together.  *Across* shards, the routing of a query to its owner group is
visible to whoever can observe all groups — the cluster accounting
therefore assumes non-colluding shard operators (each sees only its own
traffic) and reports the colluding basic-composition bound separately
via the :class:`~repro.cluster.ledger.ClusterLedger`.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Any, Callable, Generic, Sequence, TypeVar

from repro.api.protocols import PrivateIR, PrivateKVS, Scheme
from repro.api.registry import scheme_spec
from repro.cluster.group import (
    DEFAULT_MAX_ATTEMPTS,
    KVShardGroup,
    ShardGroup,
)
from repro.cluster.ledger import ClusterLedger
from repro.cluster.report import jain_index
from repro.cluster.router import (
    RangeRouter,
    ShardRouter,
    hash_shard_of_key,
    make_router,
)
from repro.core.params import DPIRParams
from repro.crypto.encryption import encrypt_authenticated_many, generate_key
from repro.crypto.rng import RandomSource, SystemRandomSource
from repro.obs.executor import TracingExecutor
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.executor import Executor, resolve_executor
from repro.storage.faults import (
    CorruptingServer,
    FlakyServer,
    _check_coin_mode,
    wrap_scheme_servers,
)
from repro.storage.backends import BackendFactory
from repro.storage.network import LAN, NetworkModel
from repro.storage.server import StorageServer

_G = TypeVar("_G", ShardGroup, KVShardGroup)
_T = TypeVar("_T")
_C = TypeVar("_C", bound="_ClusterCore[Any]")


@dataclass(frozen=True)
class MigrationReport:
    """What one :meth:`ClusterIR.reshard` / ``rebalance`` call did.

    Attributes:
        shards_before: shard-group count before the migration.
        shards_after: shard-group count after.
        moved_records: records whose owning shard changed.
        migration_operations: server operations spent reading the data
            out of the old layout (the measurable cost of going online).
        serial_ms: the drain scan priced one shard after another under
            the cluster's network model.
        wall_clock_ms: the same scan under the cluster's executor —
            per-shard drain legs are independent and overlap, so a
            concurrent executor pays the slowest shard, not the sum.
    """

    shards_before: int
    shards_after: int
    moved_records: int
    migration_operations: int
    serial_ms: float = 0.0
    wall_clock_ms: float = 0.0


def _resolve_model(network: NetworkModel | str | None) -> NetworkModel:
    """The link model pricing a cluster's ms figures (LAN by default)."""
    if network is None:
        return LAN
    if isinstance(network, NetworkModel):
        return network
    from repro.api.builders import resolve_network

    return resolve_network(network)


def _rate_per_replica(
    rate: float | Sequence[float], replica_count: int, label: str
) -> list[float]:
    """Broadcast a scalar fault rate, or validate a per-replica list."""
    if isinstance(rate, (int, float)):
        rates = [float(rate)] * replica_count
    else:
        rates = [float(value) for value in rate]
        if len(rates) != replica_count:
            raise ValueError(
                f"expected {replica_count} per-replica {label}s, "
                f"got {len(rates)}"
            )
    for value in rates:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{label} must be in [0, 1], got {value}")
    return rates


def _build_base(base: str, **kwargs: Any) -> Any:
    """Build the base scheme, dropping kwargs its builder cannot take.

    Only the *cluster-supplied* tuning kwargs (pad size, error rate) are
    filtered — bases like ``linear_pir`` take neither and should simply
    be built without them.  Caller-supplied ``base_kwargs`` pass through
    unfiltered so typos still fail loudly.
    """
    spec = scheme_spec(base)
    parameters = inspect.signature(spec.builder).parameters
    takes_any = any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )
    filtered = {
        key: value
        for key, value in kwargs.items()
        if takes_any
        or key in parameters
        or key not in ("pad_size", "alpha", "epsilon")
    }
    return spec.builder(**filtered)


def _inject_faults(
    replica: Any,
    failure_rate: float,
    corruption_rate: float,
    rng: RandomSource,
    coin_mode: str = "per_slot",
) -> None:
    """Wrap every server of a built replica in the requested fault layers."""
    if failure_rate <= 0.0 and corruption_rate <= 0.0:
        return

    def wrap(server: StorageServer) -> StorageServer:
        wrapped = server
        if failure_rate > 0.0:
            wrapped = FlakyServer(
                wrapped, failure_rate, rng.spawn("flaky"),
                coin_mode=coin_mode,
            )
        if corruption_rate > 0.0:
            wrapped = CorruptingServer(
                wrapped, corruption_rate, rng.spawn("corrupt"),
                coin_mode=coin_mode,
            )
        return wrapped

    wrap_scheme_servers(replica, wrap)


class _ClusterCore(Scheme, Generic[_G]):
    """What :class:`ClusterIR` and :class:`ClusterKVS` share.

    ``ε`` is invariant when ``n`` and ``K`` shrink together, so ledger
    charging, fan-out and wall/serial accounting do not depend on the
    base protocol.  Subclasses build their groups (``_install``) and
    route items to shards.
    """

    _groups: list[_G]

    def __init__(
        self,
        kind: str,
        base: str,
        *,
        replica_count: int,
        failure_rate: float | Sequence[float],
        corruption_rate: float | Sequence[float],
        epsilon_cap: float | None,
        rng: RandomSource | None,
        backend_factory: BackendFactory | str | None,
        executor: Executor | str | None,
        network: NetworkModel | str | None,
        tracer: Tracer | None,
        fault_coin_mode: str,
        base_kwargs: dict[str, Any],
    ) -> None:
        if replica_count <= 0:
            raise ValueError(
                f"replica count must be positive, got {replica_count}"
            )
        spec = scheme_spec(base)
        if spec.kind != kind:
            article = "an" if kind == "ir" else "a"
            raise ValueError(
                f"{type(self).__name__} needs {article} {kind.upper()} base "
                f"scheme, got {base!r} ({spec.kind})"
            )
        self._base = spec.name
        self._replica_count = replica_count
        self._epsilon_cap = epsilon_cap
        self._backend_factory = backend_factory
        self._base_kwargs = base_kwargs
        self._rng = rng if rng is not None else SystemRandomSource()
        self._fault_coin_mode = _check_coin_mode(fault_coin_mode)
        self._failure_rates = _rate_per_replica(
            failure_rate, replica_count, "failure rate"
        )
        self._corruption_rates = _rate_per_replica(
            corruption_rate, replica_count, "corruption rate"
        )
        self._owns_executor = not isinstance(executor, Executor)
        self._executor = resolve_executor(executor)
        self.attach_tracer(tracer)
        self._network_model = _resolve_model(network)
        self._generation = 0
        self._operations = 0
        # ``None`` answers of fan-out rounds (and of IR queries): an IR
        # base's α-error events.  ClusterKVS does not report them.
        self._misses = 0
        self._reshard_count = 0
        # Cumulative op-unit accounting across generations (reshard
        # rebuilds the groups and their server counters, these survive).
        self._serial_ops = 0
        self._wall_ops = 0.0

    # -- layout ------------------------------------------------------------

    def _build_replicas(
        self, shard: int, build: Callable[[str], dict[str, Any]]
    ) -> list[Any]:
        """Build one shard group's ``R`` fault-injected base instances;
        ``build(label)`` supplies each one's shard-specific keywords."""
        replicas = []
        for replica in range(self._replica_count):
            label = f"g{self._generation}/s{shard}/r{replica}"
            instance = _build_base(
                self._base,
                **build(label),
                rng=self._rng.spawn(f"scheme/{label}"),
                backend=self._backend_factory,
                **self._base_kwargs,
            )
            _inject_faults(
                instance,
                self._failure_rates[replica],
                self._corruption_rates[replica],
                self._rng.spawn(f"faults/{label}"),
                coin_mode=self._fault_coin_mode,
            )
            replicas.append(instance)
        return replicas

    def _adopt(self, groups: list[_G]) -> None:
        """Make ``groups`` the live generation."""
        self._generation += 1
        self._groups = groups
        self._shard_queries = [0] * len(groups)
        # Resharding must not launder spent budget: the drained epoch's
        # ledger seeds the new one so lifetime accounting stays honest.
        self._ledger = ClusterLedger(
            len(groups),
            epsilon_cap=self._epsilon_cap,
            carried_from=getattr(self, "_ledger", None),
        )

    # -- scheme info -------------------------------------------------------

    @property
    def base(self) -> str:
        """Registry name of the per-shard base scheme."""
        return self._base

    @property
    def shard_count(self) -> int:
        """Number of shard groups ``D``."""
        return len(self._groups)

    @property
    def replica_count(self) -> int:
        """Replicas per shard group ``R``."""
        return self._replica_count

    @property
    def groups(self) -> list[_G]:
        """The shard groups (exposed for tests and reports)."""
        return list(self._groups)

    @property
    def ledger(self) -> ClusterLedger:
        """The cluster-wide privacy account."""
        return self._ledger

    @property
    def reshard_count(self) -> int:
        """Completed reshard/rebalance migrations."""
        return self._reshard_count

    @property
    def executor(self) -> Executor:
        """The cross-shard fan-out policy."""
        return self._executor

    @property
    def tracer(self) -> Tracer:
        """The attached tracer (the shared no-op one by default)."""
        return self._tracer

    def attach_tracer(self, tracer: Tracer | None) -> None:
        """Emit spans to ``tracer`` (``None`` restores the no-op default).

        Tracing never touches answers, draw sequences or ledger
        charges; leg spans are pre-allocated in submission order, so
        serial/parallel/simulated executors emit identical span trees.
        """
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._texec = TracingExecutor(self._executor, self._tracer)

    @property
    def network_model(self) -> NetworkModel:
        """The link model pricing this cluster's millisecond figures."""
        return self._network_model

    def servers(self) -> tuple[StorageServer, ...]:
        """Every server behind every replica of every group."""
        servers: list[StorageServer] = []
        for group in self._groups:
            servers.extend(group.servers())
        return tuple(servers)

    def fault_counters(self) -> dict[str, int]:
        """Cluster-level failover totals, merged across shard groups."""
        totals: dict[str, int] = {}
        for group in self._groups:
            for key, value in group.fault_counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # -- load and storage figures ------------------------------------------

    def shard_loads(self) -> list[int]:
        """Per-shard server operations (the measurable hot-spot signal)."""
        return [group.operations() for group in self._groups]

    def shard_query_counts(self) -> list[int]:
        """Logical operations routed to each shard."""
        return list(self._shard_queries)

    def load_balance_index(self) -> float:
        """Jain index over per-shard server operations."""
        return jain_index(self.shard_loads())

    def per_server_storage_blocks(self) -> int:
        """Largest single server, in stored blocks — the ≈ n/D figure."""
        return max(server.capacity for server in self.servers())

    def total_storage_blocks(self) -> int:
        """Total stored blocks across the cluster — ``R·n`` for IR."""
        return sum(server.capacity for server in self.servers())

    # -- overlap accounting ------------------------------------------------

    def serial_operations(self) -> int:
        """Op-units through the cluster entry points, priced serially.

        Unlike :meth:`~repro.api.protocols.Scheme.server_operations`
        (the live generation's server counters), this survives reshard
        migrations — it is the cumulative serial cost of everything the
        cluster did, drain scans included.
        """
        return self._serial_ops

    def wall_operations(self) -> float:
        """Overlap-accounted op-units: each cross-shard stage costs what
        its executor says (max over concurrent legs under a parallel
        executor, the plain sum under the serial one)."""
        return self._wall_ops

    def _per_op_ms(self) -> float:
        return self._network_model.rtt_ms + self._network_model.transfer_ms(
            self.block_size
        )

    def serial_ms(self) -> float:
        """Cumulative simulated time with every leg run back-to-back."""
        return self.serial_operations() * self._per_op_ms()

    def wall_clock_ms(self) -> float:
        """Cumulative simulated time under the configured executor."""
        return self.wall_operations() * self._per_op_ms()

    def _account_stage(
        self, leg_serial: Sequence[int], leg_wall: Sequence[float]
    ) -> None:
        self._serial_ops += sum(leg_serial)
        self._wall_ops += self._executor.stage_cost(leg_wall)

    def close(self) -> None:
        """Release executor worker threads.

        Only shuts down an executor the cluster resolved itself from a
        name; a caller-supplied :class:`Executor` instance stays alive
        for its owner to reuse.  Safe to call more than once, and a
        no-op for poolless executors.
        """
        if self._owns_executor:
            self._executor.close()

    def __enter__(self: _C) -> _C:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- entry-point plumbing ----------------------------------------------

    def _charge(self, shard: int, count: int, draws: int) -> None:
        """Count ``count`` logical operations on ``shard`` and charge the
        ledger once per replica draw they exposed."""
        self._operations += count
        self._shard_queries[shard] += count
        epsilon = self._groups[shard].epsilon
        for _ in range(draws):
            self._ledger.charge(shard, epsilon)

    def _one(self, span: str, shard: int, call: Callable[[_G], _T]) -> _T:
        """Run one operation on ``shard``'s group inside ``span``;
        its draws are charged even when it raises."""
        group = self._groups[shard]
        draws = group.draws
        ops = group.operations()
        wall = group.wall_operations()
        with self._tracer.span(span, shard=shard):
            try:
                return call(group)
            finally:
                self._charge(shard, 1, group.draws - draws)
                self._account_stage(
                    [group.operations() - ops],
                    [group.wall_operations() - wall],
                )

    def _fan_out_round(
        self,
        span: str,
        items: Sequence[Any],
        route: Callable[[Any], tuple[int, Any]],
        leg: Callable[[_G, list[Any]], list[bytes | None]],
    ) -> list[bytes | None]:
        """Serve ``items`` as one round of ``leg(group, batch)`` calls,
        one per shard ``route`` sends items to.  Every leg is charged
        and the stage accounted before the first failure is re-raised."""
        if not items:
            return []
        per_shard: dict[int, list[tuple[int, Any]]] = {}
        for position, item in enumerate(items):
            shard, local = route(item)
            per_shard.setdefault(shard, []).append((position, local))
        shards = sorted(per_shard)
        groups = [self._groups[shard] for shard in shards]
        before = [
            (group.draws, group.operations(), group.wall_operations())
            for group in groups
        ]
        tasks = [
            (
                lambda group=group, batch=[item for _, item in per_shard[shard]]:
                    leg(group, batch)
            )
            for shard, group in zip(shards, groups)
        ]
        with self._tracer.span(span, batch=len(items), shards=len(shards)):
            results = self._texec.fan_out(
                tasks,
                name="cluster.shard_leg",
                leg_labels=[{"shard": shard} for shard in shards],
            )
            answers: list[bytes | None] = [None] * len(items)
            failure: BaseException | None = None
            leg_serial: list[int] = []
            leg_wall: list[float] = []
            for shard, group, (draws, ops, wall), result in zip(
                shards, groups, before, results
            ):
                entries = per_shard[shard]
                self._charge(shard, len(entries), group.draws - draws)
                leg_serial.append(group.operations() - ops)
                leg_wall.append(group.wall_operations() - wall)
                if result.error is not None:
                    if failure is None:
                        failure = result.error
                    continue
                for (position, _), answer in zip(entries, result.value):
                    answers[position] = answer
                self._misses += result.value.count(None)
            self._account_stage(leg_serial, leg_wall)
        if failure is not None:
            raise failure
        return answers

    def _drain_and_rebuild(
        self,
        per_shard: dict[int, list[Any]],
        shards_after: int,
        drain: Callable[[int, list[Any]], list[Any]],
        rebuild: Callable[[list[list[Any]]], int],
    ) -> MigrationReport:
        """Drain every shard in one leg each, then ``rebuild`` (which
        returns the moved-record count).  The legs overlap under a
        concurrent executor; drain reads are a data-independent
        maintenance scan, so they are accounted but not charged."""
        shards_before = self.shard_count
        shards = sorted(per_shard)
        groups = [self._groups[shard] for shard in shards]
        before = [(group.operations(), group.wall_operations()) for group in groups]
        with self._tracer.span(
            "cluster.reshard",
            shards_before=shards_before,
            shards_after=shards_after,
        ):
            results = self._texec.fan_out(
                [
                    (lambda shard=shard: drain(shard, per_shard[shard]))
                    for shard in shards
                ],
                name="cluster.drain_leg",
                leg_labels=[{"shard": shard} for shard in shards],
            )
        migration_ops = sum(
            group.operations() - ops for group, (ops, _) in zip(groups, before)
        )
        wall_units = self._executor.stage_cost([
            group.wall_operations() - wall
            for group, (_, wall) in zip(groups, before)
        ])
        self._serial_ops += migration_ops
        self._wall_ops += wall_units
        moved = rebuild([result.unwrap() for result in results])
        self._reshard_count += 1
        per_op = self._per_op_ms()
        return MigrationReport(
            shards_before=shards_before,
            shards_after=shards_after,
            moved_records=moved,
            migration_operations=migration_ops,
            serial_ms=migration_ops * per_op,
            wall_clock_ms=wall_units * per_op,
        )


class ClusterIR(_ClusterCore[ShardGroup], PrivateIR):
    """Sharded + replicated deployment of any registered IR base scheme.

    Args:
        blocks: the logical database ``B_1..B_n``.
        base: registry name of the per-shard scheme (``dp_ir``,
            ``batch_dp_ir``, ``linear_pir``, …).
        shard_count: number of shard groups ``D``.
        replica_count: replicas per group ``R``.
        placement: ``"range"`` (contiguous, rebalance-capable) or
            ``"hash"``; a :class:`~repro.cluster.router.ShardRouter`
            instance is also accepted.
        epsilon: cluster-wide target budget, resolved to a global pad
            size exactly like the single-server scheme and split as
            ``K/D`` per shard (keeping the exact budget invariant).
            Mutually exclusive with ``pad_size``.
        pad_size: explicit global pad size ``K``.
        alpha: error probability of the per-shard base instances.
        authenticated: store authenticated ciphertexts so tampered
            answers are *detected* and fail over; ``False`` stores
            plaintext (corruption is silent).
        failure_rate: flaky-node rate — a scalar for every replica or a
            per-replica sequence (``(1.0, 0.0)`` kills replica 0).
        corruption_rate: bit-flip rate, scalar or per-replica.
        max_attempts: transient-fault retry cap per logical read.
        epsilon_cap: optional per-shard ledger cap.
        rng: randomness source.
        backend_factory: slot-storage backend for every replica server.
        executor: cross-shard fan-out policy (``"serial"``,
            ``"parallel"``, ``"simulated"`` or an
            :class:`~repro.parallel.executor.Executor`).  Changes
            wall-clock accounting and real concurrency only — answers,
            draw sequences and privacy budgets are executor-invariant.
        network: link model pricing the ``*_ms`` figures (LAN default).
        tracer: optional :class:`~repro.obs.tracer.Tracer`; entry
            points and shard legs emit spans (answers, draws and
            budgets stay bit-identical to an untraced run).  The
            default :data:`~repro.obs.tracer.NULL_TRACER` costs one
            ``enabled`` check per entry point.
        fault_coin_mode: ``"per_slot"`` (slot-exact fault coins) or
            ``"per_round"`` (one coin per batched round — chaos at
            batched speed).
        **base_kwargs: forwarded verbatim to the base scheme's builder.
    """

    def __init__(
        self,
        blocks: Sequence[bytes],
        *,
        base: str = "dp_ir",
        shard_count: int = 2,
        replica_count: int = 2,
        placement: str | ShardRouter = "range",
        epsilon: float | None = None,
        pad_size: int | None = None,
        alpha: float = 0.05,
        authenticated: bool = True,
        failure_rate: float | Sequence[float] = 0.0,
        corruption_rate: float | Sequence[float] = 0.0,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        epsilon_cap: float | None = None,
        rng: RandomSource | None = None,
        backend_factory: BackendFactory | str | None = None,
        executor: Executor | str | None = None,
        network: NetworkModel | str | None = None,
        tracer: Tracer | None = None,
        fault_coin_mode: str = "per_slot",
        **base_kwargs: Any,
    ) -> None:
        if not blocks:
            raise ValueError("the database must contain at least one block")
        super().__init__(
            "ir", base, replica_count=replica_count,
            failure_rate=failure_rate, corruption_rate=corruption_rate,
            epsilon_cap=epsilon_cap, rng=rng,
            backend_factory=backend_factory, executor=executor,
            network=network, tracer=tracer,
            fault_coin_mode=fault_coin_mode, base_kwargs=base_kwargs,
        )
        data = [bytes(block) for block in blocks]
        n = len(data)
        self._n = n
        self._block_size = len(data[0])
        self._alpha = alpha
        self._max_attempts = max_attempts
        self._key = (
            generate_key(self._rng.spawn("cluster-key"))
            if authenticated
            else None
        )

        # Resolve the *global* pad budget once; every (re)sharding splits
        # it as K/D so the exact per-shard budget stays put.
        if epsilon is not None and pad_size is not None:
            raise ValueError("provide at most one of epsilon or pad_size")
        if pad_size is not None:
            self._global_params = DPIRParams.from_pad_size(n, pad_size, alpha)
        else:
            self._global_params = DPIRParams.from_epsilon(
                n, epsilon if epsilon is not None else math.log(max(n, 2)),
                alpha,
            )
        self._install(make_router(placement, n, shard_count), data)

    # -- layout ------------------------------------------------------------

    def _install(self, router: ShardRouter, blocks: list[bytes]) -> None:
        """(Re)build every shard group for ``router``'s assignment."""
        groups: list[ShardGroup] = []
        locate: dict[int, tuple[int, int]] = {}
        for shard, owned in enumerate(router.assignment()):
            for local, global_index in enumerate(owned):
                locate[global_index] = (shard, local)
            shard_pad = min(
                len(owned),
                max(1, math.ceil(
                    self._global_params.pad_size / router.shard_count
                )),
            )
            replicas = self._build_replicas(shard, lambda label: {
                "blocks": self._stored_blocks(blocks, owned, label),
                "pad_size": shard_pad,
                "alpha": self._alpha,
            })
            groups.append(ShardGroup(
                shard, replicas, key=self._key,
                max_attempts=self._max_attempts,
                executor=self._executor,
            ))
        self._router = router
        self._locate = locate
        self._adopt(groups)

    def _stored_blocks(
        self, blocks: list[bytes], owned: Sequence[int], label: str
    ) -> list[bytes]:
        if self._key is None:
            return [blocks[index] for index in owned]
        enc_rng = self._rng.spawn(f"enc/{label}")
        return encrypt_authenticated_many(
            self._key, [blocks[index] for index in owned], enc_rng
        )

    # -- scheme info -------------------------------------------------------

    @property
    def n(self) -> int:
        """Logical database size."""
        return self._n

    @property
    def block_size(self) -> int:
        """Bytes per *logical* record (before any storage encryption)."""
        return self._block_size

    @property
    def router(self) -> ShardRouter:
        """The active placement policy."""
        return self._router

    @property
    def authenticated(self) -> bool:
        """Whether stored blocks carry authentication tags."""
        return self._key is not None

    @property
    def epsilon(self) -> float:
        """Worst per-shard exact budget — the cluster's per-query ε."""
        return max(group.epsilon for group in self._groups)

    @property
    def query_count(self) -> int:
        """Logical queries issued so far."""
        return self._operations

    @property
    def error_count(self) -> int:
        """Queries that hit the α-error event."""
        return self._misses

    # -- querying ----------------------------------------------------------

    def query(self, index: int) -> bytes | None:
        """Retrieve block ``index``; ``None`` on the α-error event."""
        shard, local = self.locate(index)
        answer = self._one(
            "cluster.query", shard, lambda group: group.query(local)
        )
        if answer is None:
            self._misses += 1
        return answer

    def query_many(self, indices: Sequence[int]) -> list[bytes | None]:
        """Serve ``indices`` in one round, batching per shard group.

        Indices owned by the same group go through the group's
        ``query_many`` (so a ``batch_dp_ir`` base downloads one pad-set
        union per shard per round — batching and sharding compound).
        The per-shard sub-batches are independent legs confined to
        disjoint groups: under a concurrent executor they genuinely run
        in parallel and the round's wall-clock is the slowest shard's
        leg plus dispatch overhead, not the sum.  Answers, per-group
        draw sequences and ledger charges are executor-invariant, and a
        leg that exhausts its replicas does not poison its siblings —
        the healthy shards' draws are charged before the fault
        propagates.
        """
        return self._fan_out_round(
            "cluster.query_many", indices, self.locate, ShardGroup.query_many
        )

    def locate(self, index: int) -> tuple[int, int]:
        """Public ``(shard, local_slot)`` image of a global index.

        The placement a colluding observer can reconstruct anyway —
        routing is deterministic — exposed so the leakage monitors
        (``repro.obs.monitor``) can address candidates in the same
        per-shard namespace the transcripts record.

        Raises:
            ValueError: if ``index`` is out of range.
        """
        try:
            return self._locate[index]
        except KeyError:
            raise ValueError(
                f"index {index} out of range for n={self.n}"
            ) from None

    # -- online migration --------------------------------------------------

    def reshard(
        self,
        shard_count: int | None = None,
        placement: str | ShardRouter | None = None,
    ) -> MigrationReport:
        """Migrate to a new shard count and/or placement, online.

        Reads every record out of the old layout through the normal
        failover path (so migration works over faulty replicas too),
        rebuilds the groups under the new router with a ``K/D′`` pad
        split, and reports the measured migration cost.  The privacy
        ledger carries the drained epoch's per-operator spend into the
        new shard set (budgets compose over the cluster's lifetime —
        they never reset); migration reads touch *every* record in
        index order — a data-independent maintenance scan, not client
        queries — so they are not charged.

        Resharding to the *same* shard count reuses the active router
        (custom boundaries included) and just rebuilds the groups; a
        custom :class:`~repro.cluster.router.ShardRouter` subclass must
        pass ``placement`` explicitly to change its shard count.
        """
        new_count = shard_count if shard_count is not None else self.shard_count
        if placement is not None:
            router = make_router(placement, self.n, new_count)
        elif new_count == self.shard_count:
            router = self._router
        elif self._router.policy in ("range", "hash"):
            router = make_router(self._router.policy, self.n, new_count)
        else:
            raise ValueError(
                f"cannot re-derive a {type(self._router).__name__} for "
                f"{new_count} shards; pass placement= explicitly"
            )
        return self._migrate(router)

    def rebalance(self) -> MigrationReport:
        """Recut range boundaries so observed per-shard load evens out.

        Only meaningful for range placement (hash placement has no
        boundaries to move).
        """
        if not isinstance(self._router, RangeRouter):
            raise ValueError(
                "rebalance() needs range placement; "
                f"active policy is {self._router.policy!r}"
            )
        loads = [float(load) for load in self.shard_loads()]
        return self._migrate(self._router.rebalanced(loads))

    def _migrate(self, router: ShardRouter) -> MigrationReport:
        # Drain the current layout: a full scan through the failover
        # path, retrying the α-error coin until each record is read.
        per_shard: dict[int, list[int]] = {}
        for index in range(self.n):
            per_shard.setdefault(self._locate[index][0], []).append(index)

        def rebuild(drained: list[list[tuple[int, bytes]]]) -> int:
            recovered = [b""] * self.n
            for leg in drained:
                for index, block in leg:
                    recovered[index] = block
            moved = sum(
                1
                for index in range(self.n)
                if self._locate[index][0] != router.shard_of(index)
            )
            self._install(router, recovered)
            return moved

        return self._drain_and_rebuild(
            per_shard, router.shard_count, self._drain_shard, rebuild
        )

    def _drain_shard(
        self, shard: int, indices: Sequence[int]
    ) -> list[tuple[int, bytes]]:
        """Read one shard's records out through the failover path."""
        group = self._groups[shard]
        drained: list[tuple[int, bytes]] = []
        for index in indices:
            _, local = self._locate[index]
            answer = None
            for _ in range(self._max_attempts * 8):
                answer = group.query(local)
                if answer is not None:
                    break
            if answer is None:
                raise RuntimeError(
                    f"migration could not read record {index} "
                    "(persistent alpha errors)"
                )
            drained.append((index, answer))
        return drained


class ClusterKVS(_ClusterCore[KVShardGroup], PrivateKVS):
    """Sharded + replicated deployment of any registered KVS base scheme.

    Keys hash to shard groups; each group hosts ``R`` replicas of the
    base KVS over a slice of the key-capacity budget (with head-room for
    hash skew).  Writes fan out to every live replica, reads fail over
    (fail-stop — see :mod:`repro.cluster.group`).  The cluster keeps a
    client-side key *directory* (keys only, no values) so
    :meth:`reshard` can enumerate what to migrate.

    Args:
        n: cluster-wide key capacity.
        base: registry name of the per-shard KVS scheme.
        shard_count: number of shard groups ``D``.
        replica_count: replicas per group ``R``.
        value_size: maximum value bytes accepted by :meth:`put`.
        capacity_slack: per-shard over-provisioning factor absorbing
            hash skew (shard capacity ``≈ slack · n/D``).
        failure_rate: flaky-node rate, scalar or per-replica sequence.
        corruption_rate: bit-flip rate, scalar or per-replica (KVS
            corruption is *silent* — the base schemes authenticate
            nothing at the cluster boundary; the IR cluster's
            ``authenticated`` mode is the contrast).
        epsilon_cap: optional per-shard ledger cap.
        rng: randomness source.
        backend_factory: slot-storage backend for every replica server.
        executor: cross-shard fan-out policy (``"serial"``,
            ``"parallel"``, ``"simulated"`` or an
            :class:`~repro.parallel.executor.Executor`); wall-clock
            accounting and real concurrency only, never the draw
            sequence the ledger charges.
        network: link model pricing the ``*_ms`` figures (LAN default).
        tracer: optional :class:`~repro.obs.tracer.Tracer` (see
            :class:`ClusterIR`); no-op by default.
        fault_coin_mode: ``"per_slot"`` or ``"per_round"`` fault-coin
            granularity for the injected fault wrappers.
        **base_kwargs: forwarded verbatim to the base scheme's builder.
    """

    def __init__(
        self,
        n: int = 1024,
        *,
        base: str = "dp_kvs",
        shard_count: int = 2,
        replica_count: int = 2,
        value_size: int = 32,
        capacity_slack: float = 1.5,
        failure_rate: float | Sequence[float] = 0.0,
        corruption_rate: float | Sequence[float] = 0.0,
        epsilon_cap: float | None = None,
        rng: RandomSource | None = None,
        backend_factory: BackendFactory | str | None = None,
        executor: Executor | str | None = None,
        network: NetworkModel | str | None = None,
        tracer: Tracer | None = None,
        fault_coin_mode: str = "per_slot",
        **base_kwargs: Any,
    ) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if shard_count <= 0:
            raise ValueError(
                f"shard count must be positive, got {shard_count}"
            )
        if capacity_slack < 1.0:
            raise ValueError(
                f"capacity slack must be at least 1.0, got {capacity_slack}"
            )
        super().__init__(
            "kvs", base, replica_count=replica_count,
            failure_rate=failure_rate, corruption_rate=corruption_rate,
            epsilon_cap=epsilon_cap, rng=rng,
            backend_factory=backend_factory, executor=executor,
            network=network, tracer=tracer,
            fault_coin_mode=fault_coin_mode, base_kwargs=base_kwargs,
        )
        self._n = n
        self._value_size = value_size
        self._capacity_slack = capacity_slack
        self._keys: set[bytes] = set()
        self._install(shard_count)

    def _install(self, shard_count: int) -> None:
        build = {
            "n": max(4, math.ceil(self._capacity_slack * self._n / shard_count)),
            "value_size": self._value_size,
        }
        self._adopt([
            KVShardGroup(
                shard,
                self._build_replicas(shard, lambda label: build),
                executor=self._executor,
            )
            for shard in range(shard_count)
        ])

    # -- scheme info -------------------------------------------------------

    @property
    def n(self) -> int:
        """Cluster-wide key capacity."""
        return self._n

    @property
    def value_size(self) -> int:
        """Maximum value length accepted by :meth:`put`."""
        return self._value_size

    @property
    def block_size(self) -> int:
        """Bytes per transferred block (the base scheme's node size)."""
        return self._groups[0].replicas[0].block_size

    @property
    def size(self) -> int:
        """Keys currently stored (from the client-side directory)."""
        return len(self._keys)

    @property
    def operation_count(self) -> int:
        """Logical KVS operations issued so far."""
        return self._operations

    # -- operations --------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        """Retrieve the exact value for ``key``; ``None`` if absent."""
        return self._one(
            "cluster.get", self._shard_of(key), lambda group: group.get(key)
        )

    def get_many(self, keys: Sequence[bytes]) -> list[bytes | None]:
        """Retrieve ``keys`` in order, batching per shard group.

        Keys owned by different groups are independent legs confined to
        disjoint object graphs: a concurrent executor runs them in
        parallel and the round costs the slowest shard's leg, not the
        sum.  Values, draw sequences and ledger charges are
        executor-invariant; a leg whose group is exhausted does not
        poison its siblings (their draws are charged before the fault
        propagates).
        """
        return self._fan_out_round(
            "cluster.get_many", keys,
            lambda key: (self._shard_of(key), bytes(key)),
            KVShardGroup.get_many,
        )

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update ``key`` on every live replica of its shard."""
        self._one(
            "cluster.put", self._shard_of(key),
            lambda group: group.put(key, value),
        )
        self._keys.add(bytes(key))

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it existed."""
        existed = self._one(
            "cluster.delete", self._shard_of(key),
            lambda group: group.delete(key),
        )
        self._keys.discard(bytes(key))
        return existed

    def _shard_of(self, key: bytes) -> int:
        return hash_shard_of_key(key, self.shard_count)

    # -- online migration --------------------------------------------------

    def reshard(self, shard_count: int | None = None) -> MigrationReport:
        """Migrate every stored key to a new shard count, online.

        Values are read out through the failover path using the
        client-side key directory — one independent drain leg per shard
        group, overlapped under a concurrent executor — the groups are
        rebuilt, and every pair is re-inserted under the new hash
        placement.  The privacy ledger carries the drained epoch's
        per-operator spend forward; re-insertion writes are maintenance
        traffic and are not charged.
        """
        new_count = shard_count if shard_count is not None else self.shard_count
        shards_before = self.shard_count
        per_shard: dict[int, list[bytes]] = {}
        for key in sorted(self._keys):
            per_shard.setdefault(self._shard_of(key), []).append(key)

        def rebuild(drained: list[list[tuple[bytes, bytes | None]]]) -> int:
            snapshot = sorted(
                (key, value)
                for leg in drained
                for key, value in leg
                if value is not None
            )
            self._install(new_count)
            self._keys = set()
            for key, value in snapshot:
                self._groups[self._shard_of(key)].put(key, value)
                self._keys.add(key)
            return sum(
                1
                for key, _ in snapshot
                if hash_shard_of_key(key, shards_before)
                != hash_shard_of_key(key, new_count)
            )

        return self._drain_and_rebuild(
            per_shard, new_count,
            lambda shard, keys: list(zip(keys, self._groups[shard].get_many(keys))),
            rebuild,
        )
