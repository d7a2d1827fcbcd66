"""Shard groups: R replicas of one scheme instance, with read failover.

A :class:`ShardGroup` owns one shard's records and hosts ``R``
independently-built replica instances of the base scheme.  Reads rotate
across replicas for load spreading and *fail over*: a replica that
raises :class:`~repro.storage.faults.ServerFault` (flaky node) — or
whose answer fails authenticated decryption
(:class:`~repro.crypto.encryption.IntegrityError`, a tampering node) —
is skipped and the read retries on the next replica.

Failure semantics differ by protocol, deliberately:

* **IR replicas** are client-stateless, so a faulted query is safely
  retryable on the *same* replica later — faults are treated as
  transient and attempts cycle through all replicas up to a cap.
* **KVS replicas** mutate client *and* server state on every operation
  (DP-KVS reads evict), so a fault mid-operation can leave the replica
  internally inconsistent.  A faulted KVS replica is marked dead and
  never used again (fail-stop), and reads continue on the survivors.

Executors and wall-clock accounting (:mod:`repro.parallel`): a group
accepts an :class:`~repro.parallel.executor.Executor` and keeps two
operation counters — :meth:`ShardGroup.operations` (every server
operation, the serial cost) and :meth:`ShardGroup.wall_operations`
(overlap-accounted op-units).  Legs that are independent race for real
under a concurrent executor (KVS write fan-out hits ``R`` disjoint
replica instances); legs that share client state — the rotation
pointer, the draw ledger, integrity-fallback re-reads — execute in
deterministic order (``ordered=True``) and are only *accounted* as
racing.  Failover retries themselves stay sequential in *draw* terms
everywhere: a retry is causally dependent on the previous attempt's
failure, and racing it would multiply the privacy charge — the
executor must never change what the ledger sees.
"""

from __future__ import annotations

from typing import Callable, Generic, Sequence, TypeVar

from repro.api.protocols import PrivateIR, PrivateKVS
from repro.crypto.encryption import (
    IntegrityError,
    SecretKey,
    decrypt_authenticated,
)
from repro.parallel.executor import Executor, SerialExecutor
from repro.storage.faults import ServerFault
from repro.storage.server import StorageServer

#: Attempt cap for transient-fault retries on IR reads.  Generous on
#: purpose: a flaky node fails each *slot* access independently, so a
#: pad-set query against a 10 %-flaky server fails much more often than
#: 10 % — the cap bounds pathological runs, not the common case.
DEFAULT_MAX_ATTEMPTS = 32

_R = TypeVar("_R", PrivateIR, PrivateKVS)
_T = TypeVar("_T")


class GroupExhaustedError(ServerFault):
    """Every replica of a shard group failed to serve an operation."""


class _ReplicaGroup(Generic[_R]):
    """What both group flavours share: the replicas, the read rotation,
    the draw and failover tallies and the op-unit accounting."""

    def __init__(
        self,
        shard_id: int,
        replicas: Sequence[_R],
        executor: Executor | None,
    ) -> None:
        if not replicas:
            raise ValueError("a shard group needs at least one replica")
        self.shard_id = shard_id
        self._replicas = list(replicas)
        self._executor = executor if executor is not None else SerialExecutor()
        self._next_primary = 0
        self._draws = 0
        self._wall_ops = 0.0
        self._failovers = 0
        self._detected_corruptions = 0
        self._faulted_reads = 0

    # -- introspection -----------------------------------------------------

    @property
    def replica_count(self) -> int:
        """Number of replicas ``R`` (dead ones included)."""
        return len(self._replicas)

    @property
    def replicas(self) -> list[_R]:
        """The replica instances (exposed for tests and reports)."""
        return list(self._replicas)

    @property
    def draws(self) -> int:
        """Replica operations attempted, retries, failovers and KVS write
        fan-out included.

        Every attempt — even one a flaky node aborts partway — is an
        independent mechanism invocation (an IR pad-set draw) visible to
        that replica's operator, so the privacy ledger charges each one.
        """
        return self._draws

    @property
    def epsilon(self) -> float:
        """The replicas' exact per-operation budget (0.0 for ε-free
        bases)."""
        return getattr(self._replicas[0], "epsilon", 0.0)

    @property
    def failovers(self) -> int:
        """Reads that had to move to another replica (or retry)."""
        return self._failovers

    def fault_counters(self) -> dict[str, int]:
        """Failover totals in the uniform fault-counter vocabulary."""
        counters: dict[str, int] = {}
        if self._failovers:
            counters["failovers"] = self._failovers
        if self._detected_corruptions:
            counters["detected_corruptions"] = self._detected_corruptions
        if self._faulted_reads:
            counters["faulted_reads"] = self._faulted_reads
        return counters

    def servers(self) -> tuple[StorageServer, ...]:
        """Every server behind every replica (dead ones included)."""
        servers: list[StorageServer] = []
        for replica in self._replicas:
            servers.extend(replica.servers())
        return tuple(servers)

    def operations(self) -> int:
        """Total server operations across the group."""
        return sum(replica.server_operations() for replica in self._replicas)

    def wall_operations(self) -> float:
        """Overlap-accounted op-units served through the group's entry
        points; equals :meth:`operations` under the serial executor."""
        return self._wall_ops

    # -- internals ---------------------------------------------------------

    def _rotate(self) -> int:
        start = self._next_primary
        self._next_primary = (start + 1) % len(self._replicas)
        return start

    def _count_fault(self) -> None:
        self._faulted_reads += 1
        self._failovers += 1

    def _serially(self, read: Callable[[], _T]) -> _T:
        """Run one read with failover; its attempts are causally
        dependent, so they cost serial wall-clock under every executor."""
        before = self.operations()
        try:
            return read()
        finally:
            self._wall_ops += self.operations() - before

    def _in_order(self, reads: Sequence[Callable[[], _T]]) -> list[_T]:
        """Run independent reads that share group state (rotation,
        draws, liveness) in deterministic order, accounted as racing
        legs: the stage costs the slowest leg, not the sum."""
        leg_ops = [0.0] * len(reads)
        results = self._executor.fan_out(
            [self._timed_leg(read, leg_ops, slot) for slot, read in enumerate(reads)],
            ordered=True,
        )
        self._wall_ops += self._executor.stage_cost(leg_ops)
        return [result.unwrap() for result in results]

    def _timed_leg(
        self, read: Callable[[], _T], leg_ops: list[float], slot: int
    ) -> Callable[[], _T]:
        """``read`` as a leg recording its op cost into ``leg_ops[slot]``
        (the legs run in order — see ``ordered=True``)."""

        def run() -> _T:
            before = self.operations()
            try:
                return read()
            finally:
                leg_ops[slot] = float(self.operations() - before)

        return run


class ShardGroup(_ReplicaGroup[PrivateIR]):
    """One shard's records behind ``R`` IR replicas with read failover.

    Args:
        shard_id: position in the cluster (for reports).
        replicas: independently built base-scheme instances, each
            loaded with this shard's (possibly encrypted) records.
        key: authenticated-encryption key when the cluster stores
            ciphertexts; ``None`` stores plaintext (corruption is then
            silent, exactly as in the single-node fault tests).
        max_attempts: transient-fault retry cap per logical query.
        executor: fan-out policy for integrity-fallback re-reads and
            the group's wall-clock accounting; defaults to serial.
    """

    def __init__(
        self,
        shard_id: int,
        replicas: Sequence[PrivateIR],
        key: SecretKey | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        executor: Executor | None = None,
    ) -> None:
        super().__init__(shard_id, replicas, executor)
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1, got {max_attempts}"
            )
        self._key = key
        self._max_attempts = max_attempts

    @property
    def local_n(self) -> int:
        """Records owned by this shard."""
        return self._replicas[0].n

    @property
    def detected_corruptions(self) -> int:
        """Answers rejected by authenticated decryption."""
        return self._detected_corruptions

    # -- reads -------------------------------------------------------------

    def query(self, local_index: int) -> bytes | None:
        """Serve one read with failover; ``None`` only on the α event."""
        return self._serially(lambda: self._query_with_failover(local_index))

    def _query_with_failover(self, local_index: int) -> bytes | None:
        start = self._rotate()
        for attempt in range(self._max_attempts):
            replica = self._replicas[(start + attempt) % len(self._replicas)]
            self._draws += 1
            try:
                answer = replica.query(local_index)
            except ServerFault:
                self._count_fault()
                continue
            if answer is None:
                # The α-error event is a *scheme* coin, not a fault —
                # retrying would distort the error distribution.
                return None
            try:
                return self._decode(answer)
            except IntegrityError:
                self._detected_corruptions += 1
                self._failovers += 1
        raise GroupExhaustedError(
            f"shard {self.shard_id}: all {self._max_attempts} attempts "
            f"across {len(self._replicas)} replicas failed"
        )

    def query_many(self, local_indices: Sequence[int]) -> list[bytes | None]:
        """Serve a batch through one replica's ``query_many``, failing over.

        A :class:`ServerFault` mid-batch retries the whole batch on the
        next replica (IR batches are stateless, so redrawing pad sets is
        safe); per-answer integrity failures fall back to single-read
        failover for just the affected indices.  The fallback re-reads
        target distinct indices and race under a concurrent executor —
        they run in deterministic order (group state is shared) but the
        stage's wall-clock is the slowest leg, not the sum.
        """
        if not local_indices:
            return []
        batch_before = self.operations()
        start = self._rotate()
        answers: list[bytes | None] | None = None
        for attempt in range(self._max_attempts):
            replica = self._replicas[(start + attempt) % len(self._replicas)]
            self._draws += len(local_indices)
            try:
                answers = replica.query_many(list(local_indices))
            except ServerFault:
                self._count_fault()
                continue
            break
        self._wall_ops += self.operations() - batch_before
        if answers is None:
            raise GroupExhaustedError(
                f"shard {self.shard_id}: batched read failed on every "
                "attempt"
            )
        decoded: list[bytes | None] = []
        fallbacks: list[tuple[int, int]] = []
        for local_index, answer in zip(local_indices, answers):
            if answer is None:
                decoded.append(None)
                continue
            try:
                decoded.append(self._decode(answer))
            except IntegrityError:
                self._detected_corruptions += 1
                self._failovers += 1
                fallbacks.append((len(decoded), local_index))
                decoded.append(None)
        if fallbacks:
            reread = self._in_order([
                (lambda index=local_index: self._query_with_failover(index))
                for _, local_index in fallbacks
            ])
            for (position, _), answer in zip(fallbacks, reread):
                decoded[position] = answer
        return decoded

    def _decode(self, block: bytes) -> bytes:
        if self._key is None:
            return block
        return decrypt_authenticated(self._key, block)


class KVShardGroup(_ReplicaGroup[PrivateKVS]):
    """One shard's key range behind ``R`` KVS replicas (fail-stop).

    Writes go to every live replica so reads can be served by any of
    them; a replica that faults mid-operation is marked dead (its
    client-side state may be inconsistent — see the module docstring)
    and the group continues on the survivors.
    """

    def __init__(
        self,
        shard_id: int,
        replicas: Sequence[PrivateKVS],
        executor: Executor | None = None,
    ) -> None:
        super().__init__(shard_id, replicas, executor)
        self._alive = [True] * len(replicas)

    @property
    def live_replicas(self) -> int:
        """Replicas still serving."""
        return sum(self._alive)

    @property
    def value_size(self) -> int:
        """The replicas' value budget."""
        return self._replicas[0].value_size

    def fault_counters(self) -> dict[str, int]:
        """Failover totals in the uniform fault-counter vocabulary."""
        counters = super().fault_counters()
        dead = len(self._replicas) - self.live_replicas
        if dead:
            counters["dead_replicas"] = dead
        return counters

    # -- operations --------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        """Read ``key`` from the first live replica that serves it."""
        return self._serially(lambda: self._get_with_failover(key))

    def _get_with_failover(self, key: bytes) -> bytes | None:
        start = self._rotate()
        count = len(self._replicas)
        for offset in range(count):
            position = (start + offset) % count
            if not self._alive[position]:
                continue
            self._draws += 1
            try:
                return self._replicas[position].get(key)
            except ServerFault:
                self._mark_dead(position)
        raise GroupExhaustedError(
            f"shard {self.shard_id}: no live replicas left for get"
        )

    def get_many(self, keys: Sequence[bytes]) -> list[bytes | None]:
        """Per-key reads with failover (KVS bases do not batch).

        Distinct keys are independent requests and race under a
        concurrent executor; they execute in deterministic order
        (rotation pointer and liveness marks are shared) while the
        stage's wall-clock is the slowest key, not the sum.
        """
        if not keys:
            return []
        return self._in_order([
            (lambda key=key: self._get_with_failover(key)) for key in keys
        ])

    def put(self, key: bytes, value: bytes) -> None:
        """Write to every live replica; dead ones are skipped."""
        self._fan_out("put", key, value)

    def delete(self, key: bytes) -> bool:
        """Delete from every live replica; result from the first survivor."""
        return bool(self._fan_out("delete", key))

    # -- internals ---------------------------------------------------------

    def _fan_out(self, operation: str, *args: bytes) -> object:
        """Apply one write to every live replica, racing when possible.

        Replicas are disjoint object graphs, so their legs genuinely run
        concurrently under a threaded executor; liveness marks and draw
        charges are applied from the coordinating thread afterwards.
        The ledger draw count (one per live replica attempted) and the
        first-survivor result are executor-independent.
        """
        live = [
            (position, replica)
            for position, replica in enumerate(self._replicas)
            if self._alive[position]
        ]
        if not live:
            raise GroupExhaustedError(
                f"shard {self.shard_id}: no live replicas left for "
                f"{operation}"
            )
        self._draws += len(live)
        ops_before = [replica.server_operations() for _, replica in live]
        results = self._executor.fan_out(
            [
                (lambda replica=replica: getattr(replica, operation)(*args))
                for _, replica in live
            ]
        )
        leg_ops = [
            float(replica.server_operations() - before)
            for (_, replica), before in zip(live, ops_before)
        ]
        self._wall_ops += self._executor.stage_cost(leg_ops)
        result = None
        first = True
        any_succeeded = False
        failure: BaseException | None = None
        # Every leg ran (capture-all contract), so process every
        # outcome before raising: a non-fault error from one replica
        # must not leave a sibling's ServerFault unrecorded — the
        # faulted sibling is inconsistent and has to go fail-stop dead.
        for (position, _), outcome in zip(live, results):
            if outcome.error is not None:
                if isinstance(outcome.error, ServerFault):
                    self._mark_dead(position)
                elif failure is None:
                    failure = outcome.error
                continue
            any_succeeded = True
            if first:
                result = outcome.value
                first = False
        if failure is not None:
            raise failure
        if not any_succeeded:
            raise GroupExhaustedError(
                f"shard {self.shard_id}: no live replicas left for "
                f"{operation}"
            )
        return result

    def _mark_dead(self, position: int) -> None:
        self._count_fault()
        self._alive[position] = False
