"""A multi-user personalization service (the paper's prototype, Sec. 5.1).

The usability study describes the system around the algorithms: users
register and are assigned one of 12 **default profiles** "based on the
(a) age, (b) sex and (c) taste"; they then modify their profile by
adding, deleting or updating preferences; their contextual queries run
against their own profile tree, optionally through a per-user result
cache; and traceability lets them inspect why a result was returned.

:class:`PersonalizationService` packages exactly that surface on top of
the library: registration with demographic default-profile assignment,
profile editing (delegating to :class:`PreferenceRepository`), query
execution, and per-user cache management.

**Durability & paging.** With a :class:`~repro.storage.ProfileStore`
attached, every registration and profile edit is appended to the
store's write-ahead log before the call returns, and the service can
recover its full user population from snapshot + WAL after a crash
(see :mod:`repro.storage` and ``docs/persistence.md``). Registered
users then live in two tiers:

* **cold** - only the user's persona (and, once edited, a serialized
  profile) is in RAM; the profile tree, executor and result cache do
  not exist;
* **hydrated** - a live :class:`UserAccount` with its lazily rebuilt
  profile tree and cache, created transparently the first time a
  ``query``/``rank_many``/edit touches the user.

``hydrated_budget`` bounds the hydrated tier with LRU eviction, so a
service can hold millions of registered users while only the working
set pays for trees and caches. Eviction needs no write-back: the
serialized profile of every *modified* user is kept current at edit
time (under the registry lock), so a victim is simply unwatched and
dropped. Without a store and budget the service runs the exact
pre-existing in-memory path.

**Concurrency model.** The service serves interleaved requests from
many threads. Mutating operations on one user (``register``,
``unregister``, ``add/delete/update_preference``, ``import_profile``)
take that user's **write lock** from a striped per-user lock table, so
edits to a profile are serialised; ``query``/``rank_many`` take the
user's **read lock**, so any number of queries for the same user run
together but never interleave with that user's edits (read-your-writes
per user). The user directory, override map and hydrated-account LRU
are guarded by a separate registry lock, under which ``statistics``
and the population gauges take consistent snapshots. The lock order
is: per-user lock, then registry lock, then the per-account stats
lock, then the relation's lock, then cache locks, then the store's
lock (see :mod:`repro.concurrency`). Bulk concurrent execution is
available via :meth:`PersonalizationService.query_many`, which fans a
request batch out over a bounded thread pool.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass, field

from repro.exceptions import (
    QueryError,
    ReproError,
    RequestTimeout,
    ServiceUnavailable,
)
from repro.concurrency.executor import ConcurrentQueryExecutor, RequestOutcome
from repro.concurrency.locks import (
    LEVEL_ACCOUNT,
    LEVEL_REGISTRY,
    LEVEL_USER,
    Mutex,
    StripedLockTable,
)
from repro.context.descriptor import ContextDescriptor, ExtendedContextDescriptor
from repro.context.environment import ContextEnvironment
from repro.context.state import ContextState
from repro.db.relation import Relation
from repro.faults.registry import get_fault_registry
from repro.io.serialize import preference_to_dict, profile_from_dict, profile_to_dict
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.preferences.preference import ContextualPreference
from repro.preferences.repository import PreferenceRepository
from repro.query.contextual_query import ContextualQuery
from repro.query.executor import ContextualQueryExecutor, QueryResult
from repro.query.rank import BatchStats
from repro.query.resilient import ResilientQueryExecutor
from repro.resilience import (
    Deadline,
    ResiliencePolicies,
    current_deadline,
    deadline_scope,
)
from repro.storage.recovery import RecoveredState, recover_state
from repro.storage.store import ProfileStore
from repro.tree.query_tree import ContextQueryTree
from repro.workloads.users import Persona, default_profile

__all__ = ["UserAccount", "PersonalizationService"]

#: Stripes in the per-user lock table. More stripes = less false
#: sharing between users under heavy concurrency.
_LOCK_STRIPES = 64


def _account_stats_lock() -> Mutex:
    """One account's stats/lazy-build lock (level 25, below registry)."""
    return Mutex(level=LEVEL_ACCOUNT, name="account.stats")


@dataclass
class UserAccount:
    """One hydrated user: persona, repository and statistics.

    ``_stats_lock`` guards the usage counters and the lazy executor
    build: counters are incremented from concurrent query threads
    (which hold only the user's *read* lock, so they may race each
    other), and two racing readers must not both wire a cache watch.
    """

    user_id: str
    persona: Persona
    repository: PreferenceRepository
    cache: ContextQueryTree | None = None
    modifications: int = 0
    queries_executed: int = 0
    _executor: ContextualQueryExecutor | None = field(default=None, repr=False)
    _stats_lock: Mutex = field(
        default_factory=_account_stats_lock, repr=False, compare=False
    )

    def _count_queries(self, amount: int = 1) -> None:
        with self._stats_lock:
            self.queries_executed += amount


class PersonalizationService:
    """Registration, profile editing and contextual querying per user.

    Args:
        environment: The application's context environment. Must be the
            study environment (or a superset-compatible one) because
            default profiles are expressed over it.
        relation: The relation queries run against.
        metric: Resolution metric used for every user.
        cache_capacity: Per-user result-cache size; ``None`` disables
            caching, ``0`` is invalid.
        auto_index: Turn on on-demand attribute indexing for the
            relation, so every user's selections take the indexed path
            (the service is the multi-user hot path; default on).
        resilience: Optional :class:`~repro.resilience.ResiliencePolicies`
            bundle. When given, :meth:`query` serves through the
            degradation ladder (retries, circuit breakers, graceful
            fallbacks; see :mod:`repro.resilience`) and stamps the
            served level on :attr:`QueryResult.degradation`. When
            omitted the service runs the exact pre-existing path - the
            resilience layer costs nothing unless opted into.
        store: Optional :class:`~repro.storage.ProfileStore`. When
            given, registrations and edits are WAL-appended before the
            call returns and :meth:`snapshot` persists the population;
            the service owns the store's lifecycle from here
            (:meth:`close` closes it).
        hydrated_budget: Maximum number of hydrated accounts kept in
            RAM (LRU-evicted beyond it); ``None`` = unbounded (every
            registered user stays hydrated once touched).
        snapshot_every: Take (and compact after) a snapshot
            automatically every this many WAL appends; ``None`` (the
            default) leaves snapshots to explicit :meth:`snapshot`
            calls.
        recover: With a store, replay snapshot + WAL on construction
            and adopt the recovered population (cold). ``False`` starts
            empty on an empty store (an existing log would then raise
            duplicate-registration errors as it is re-written).
        recover_from: Adopt an already-recovered population (cold)
            *without* attaching a store - the shard-worker path: a
            worker replays the shared WAL through a read-only store,
            closes it, and seeds its service from the resulting
            :class:`~repro.storage.recovery.RecoveredState`. Mutually
            exclusive with ``store``.

    Example:
        >>> service = PersonalizationService(study_environment(), relation)
        >>> service.register("alice", Persona("below30", "female", "offbeat"))
        >>> service.query("alice", ContextualQuery.at_state(state))
    """

    def __init__(
        self,
        environment: ContextEnvironment,
        relation: Relation,
        metric: str = "jaccard",
        cache_capacity: int | None = 128,
        auto_index: bool = True,
        resilience: ResiliencePolicies | None = None,
        store: ProfileStore | None = None,
        hydrated_budget: int | None = None,
        snapshot_every: int | None = None,
        recover: bool = True,
        recover_from: RecoveredState | None = None,
    ) -> None:
        self._environment = environment
        self._relation = relation
        if auto_index:
            relation.auto_index = True
        self._metric = metric
        self._cache_capacity = cache_capacity
        self._resilience = resilience
        if hydrated_budget is not None and hydrated_budget < 1:
            raise ReproError(
                f"hydrated_budget must be >= 1 or None, got {hydrated_budget}"
            )
        if snapshot_every is not None and snapshot_every < 1:
            raise ReproError(
                f"snapshot_every must be >= 1 or None, got {snapshot_every}"
            )
        if store is not None and recover_from is not None:
            raise ReproError(
                "store and recover_from are mutually exclusive: a service "
                "either owns its WAL or adopts state recovered elsewhere"
            )
        self._store = store
        self._hydrated_budget = hydrated_budget
        self._snapshot_every = snapshot_every
        # Paging bookkeeping is maintained whenever eviction or
        # durability can need it; the plain in-memory service skips it.
        self._paging = (
            store is not None
            or hydrated_budget is not None
            or recover_from is not None
        )
        #: All registered users (cold + hydrated): user id -> persona.
        self._directory: dict[str, Persona] = {}
        #: Serialized profiles of users whose profile differs from the
        #: persona default. Values are replaced, never mutated in
        #: place, so snapshot streams may share them safely.
        self._overrides: dict[str, dict] = {}
        #: Hydrated accounts only, in LRU order (oldest first).
        self._accounts: OrderedDict[str, UserAccount] = OrderedDict()
        self._hydrations = 0
        self._evictions = 0
        self._appends_since_snapshot = 0
        # Per-user RW locks (striped) + one registry lock for the
        # directory/override/account maps and population gauges. Lock
        # order: user lock before registry lock; never the reverse.
        self._user_locks = StripedLockTable(
            _LOCK_STRIPES, level=LEVEL_USER, name="service.user"
        )
        self._registry_lock = Mutex(level=LEVEL_REGISTRY, name="service.registry")
        #: Accounting of the recovery that seeded this service, if any.
        self.last_recovery: RecoveredState | None = None
        if store is not None and recover:
            self._recover()
        elif recover_from is not None:
            self._adopt(recover_from)

    @property
    def environment(self) -> ContextEnvironment:
        """The application's context environment."""
        return self._environment

    @property
    def relation(self) -> Relation:
        """The queried relation."""
        return self._relation

    @property
    def resilience(self) -> ResiliencePolicies | None:
        """The resilience policies in force, if any."""
        return self._resilience

    @property
    def store(self) -> ProfileStore | None:
        """The attached profile store, if any."""
        return self._store

    @property
    def hydrated_budget(self) -> int | None:
        """The hydrated-account cap (``None`` = unbounded)."""
        return self._hydrated_budget

    def __len__(self) -> int:
        return len(self._directory)

    def __contains__(self, user_id: object) -> bool:
        return user_id in self._directory

    def __iter__(self) -> Iterator[UserAccount]:
        """Iterate the *hydrated* accounts (cold users have none)."""
        with self._registry_lock:
            return iter(list(self._accounts.values()))

    # ------------------------------------------------------------------
    # Durability plumbing
    # ------------------------------------------------------------------
    def _baseline_payload(self, user_id: str, persona: dict) -> dict:
        """Serialized default profile for recovery's edit replay."""
        return profile_to_dict(
            default_profile(Persona(**persona), self._environment)
        )

    def _recover(self) -> None:
        self._adopt(recover_state(self._store, self._baseline_payload))

    def _adopt(self, state: RecoveredState) -> None:
        """Seed the (cold) population from recovered pure data."""
        for user_id, payload in state.directory.items():
            self._directory[user_id] = Persona(**payload)
        self._overrides = dict(state.overrides)
        self.last_recovery = state
        self._record_population()

    def _append(self, record: dict) -> None:
        """WAL-append one record and advance the snapshot cadence."""
        self._store.append(record)
        self._note_appends(1)

    def _note_appends(self, count: int) -> None:
        if self._snapshot_every is None:
            return
        with self._registry_lock:
            self._appends_since_snapshot += count
            if self._appends_since_snapshot < self._snapshot_every:
                return
            self._appends_since_snapshot = 0
        self.snapshot(compact=True)

    def _commit_edit(self, account: UserAccount, record: dict, undo) -> None:
        """Persist an already-applied profile mutation.

        The override is refreshed *before* the WAL append, both under
        the documented ordering that makes concurrent snapshots safe: a
        snapshot copies the overrides and then reads the store's last
        LSN under the registry lock, so it either misses both the
        override and the record (replay supplies the edit) or sees the
        override with a covered LSN below the record's (replay re-applies
        the edit idempotently). It can never see the record's LSN
        without its override.

        If the append fails, ``undo`` reverts the repository mutation
        and the previous override is restored - a failed edit call
        leaves no trace in RAM or (by definition of the failure) on
        disk.
        """
        if not self._paging:
            return
        user_id = account.user_id
        serialized = profile_to_dict(account.repository.profile)
        with self._registry_lock:
            previous = self._overrides.get(user_id)
            self._overrides[user_id] = serialized
        if self._store is None:
            return
        try:
            self._append(record)
        except Exception:
            with self._registry_lock:
                if previous is None:
                    self._overrides.pop(user_id, None)
                else:
                    self._overrides[user_id] = previous
            undo()
            raise

    def snapshot(self, compact: bool = False) -> int:
        """Persist the whole population as a snapshot; returns the
        covered LSN.

        The directory, overrides and covered LSN are captured together
        under the registry lock, so the snapshot is consistent with the
        WAL (see :meth:`_commit_edit`); the record stream itself is
        written outside any service lock. With ``compact=True`` the
        WAL's covered prefix is dropped afterwards.

        Raises:
            ReproError: If no store is attached.
        """
        if self._store is None:
            raise ReproError("snapshot() requires a profile store")
        with self._registry_lock:
            users = sorted(self._directory.items())
            overrides = dict(self._overrides)
            covered = self._store.last_lsn()
        self._store.write_snapshot(
            self._snapshot_stream(users, overrides), covered
        )
        if compact:
            self._store.compact_wal(covered)
        return covered

    @staticmethod
    def _snapshot_stream(
        users: list[tuple[str, Persona]], overrides: dict[str, dict]
    ) -> Iterator[dict]:
        # Mirrors repro.storage.recovery.snapshot_records, but streams
        # straight from Persona objects so a million-user snapshot
        # never materialises a payload copy of the directory.
        for user_id, persona in users:
            yield {"op": "register", "user": user_id, "persona": asdict(persona)}
        for user_id in sorted(overrides):
            yield {"op": "import", "user": user_id, "profile": overrides[user_id]}

    def close(self) -> None:
        """Flush and close the attached store (no-op without one)."""
        if self._store is not None:
            self._store.close()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, user_id: str, persona: Persona) -> UserAccount:
        """Register a user; they receive their persona's default profile.

        The new account starts hydrated (the caller usually queries or
        edits it next); with a store attached the registration is
        WAL-appended before this returns, and a failed append rolls the
        registration back entirely.

        Raises:
            ReproError: On empty/duplicate user ids.
        """
        if not user_id:
            raise ReproError("user id must be non-empty")
        with self._user_locks.write_locked(user_id):
            with self._registry_lock:
                if user_id in self._directory:
                    raise ReproError(f"user {user_id!r} is already registered")
            # Build the profile outside the registry lock (it is the
            # expensive part); the duplicate check is re-validated by
            # the dict insert below, which the user write lock already
            # serialises against concurrent registers of the same id.
            account = self._build_account(user_id, persona, override=None)
            with self._registry_lock:
                self._directory[user_id] = persona
                self._accounts[user_id] = account
                self._accounts.move_to_end(user_id)
                victims = self._shrink_to_budget_locked()
                self._record_population()
            if self._store is not None:
                try:
                    self._append(
                        {
                            "op": "register",
                            "user": user_id,
                            "persona": asdict(persona),
                        }
                    )
                except Exception:
                    with self._registry_lock:
                        self._directory.pop(user_id, None)
                        self._accounts.pop(user_id, None)
                        self._record_population()
                    raise
            for victim in victims:
                self._retire_cache(victim)
            return account

    def register_many(
        self,
        users: Iterable[tuple[str, Persona]],
        batch_size: int = 4096,
    ) -> int:
        """Bulk-register users **cold**: directory entries plus batched
        WAL appends, no profile trees or caches.

        The mass-onboarding path: a million registrations cost a
        million directory inserts and a few hundred batched WAL
        writes; each user's profile is built lazily the first time a
        query or edit hydrates them. Returns the number registered.

        Raises:
            ReproError: On empty/duplicate user ids (the offending
                batch is rolled back; earlier batches stay registered
                and logged).
        """
        registered = 0
        users = iter(users)
        while True:
            batch: list[tuple[str, Persona]] = []
            for entry in users:
                batch.append(entry)
                if len(batch) >= batch_size:
                    break
            if not batch:
                break
            with self._registry_lock:
                for user_id, _ in batch:
                    if not user_id:
                        raise ReproError("user id must be non-empty")
                    if user_id in self._directory:
                        raise ReproError(
                            f"user {user_id!r} is already registered"
                        )
                seen = {user_id for user_id, _ in batch}
                if len(seen) != len(batch):
                    raise ReproError("duplicate user ids within batch")
                for user_id, persona in batch:
                    self._directory[user_id] = persona
            if self._store is not None:
                try:
                    self._store.append_many(
                        {
                            "op": "register",
                            "user": user_id,
                            "persona": asdict(persona),
                        }
                        for user_id, persona in batch
                    )
                except Exception:
                    with self._registry_lock:
                        for user_id, _ in batch:
                            self._directory.pop(user_id, None)
                    raise
                self._note_appends(len(batch))
            registered += len(batch)
        self._record_population()
        return registered

    def unregister(self, user_id: str) -> None:
        """Drop a user and their profile.

        The user's result cache (if any) is detached from the relation:
        building the executor wired the cache's mutation listener onto
        the shared relation (``cache.watch``), and without the unwatch
        every register/unregister cycle would leave a dead callback
        firing on each insert.

        Raises:
            ReproError: If the user is unknown.
        """
        with self._user_locks.write_locked(user_id):
            with self._registry_lock:
                if user_id not in self._directory:
                    raise ReproError(f"unknown user {user_id!r}")
                persona = self._directory.pop(user_id)
                override = self._overrides.pop(user_id, None)
                account = self._accounts.pop(user_id, None)
            if self._store is not None:
                try:
                    self._append({"op": "unregister", "user": user_id})
                except Exception:
                    with self._registry_lock:
                        self._directory[user_id] = persona
                        if override is not None:
                            self._overrides[user_id] = override
                        if account is not None:
                            self._accounts[user_id] = account
                        self._record_population()
                    raise
            if account is not None:
                self._retire_cache(account)
            # Population gauges are refreshed after the cache detach so
            # the listener gauge never reports the retired listener.
            self._record_population()

    def _retire_cache(self, account: UserAccount) -> None:
        """Detach ``account``'s cache from the relation and drop the
        executor that wired it."""
        if account.cache is not None:
            account.cache.unwatch(self._relation)
        account._executor = None

    def _record_population(self) -> None:
        registry = get_registry()
        if registry.enabled:
            with self._registry_lock:
                registry.set_gauge("service.registered_users", len(self._directory))
                registry.set_gauge("service.hydrated_users", len(self._accounts))
                registry.set_gauge(
                    "service.relation_listeners",
                    self._relation.mutation_listener_count,
                )

    # ------------------------------------------------------------------
    # Paging (hydration & eviction)
    # ------------------------------------------------------------------
    def _build_account(
        self, user_id: str, persona: Persona, override: dict | None
    ) -> UserAccount:
        """A live account from the persona default or an override."""
        if override is not None:
            repository = PreferenceRepository(
                self._environment, profile_from_dict(override)
            )
        else:
            repository = PreferenceRepository(
                self._environment, default_profile(persona, self._environment)
            )
        cache = (
            ContextQueryTree(self._environment, capacity=self._cache_capacity)
            if self._cache_capacity is not None
            else None
        )
        return UserAccount(
            user_id=user_id, persona=persona, repository=repository, cache=cache
        )

    def _hydrate(self, user_id: str) -> UserAccount:
        """The user's live account, rebuilding it from paged-out state
        if needed. The caller must hold the user's lock (read or
        write), which serialises hydration against that user's edits.
        """
        with self._registry_lock:
            account = self._accounts.get(user_id)
            if account is not None:
                self._accounts.move_to_end(user_id)
                return account
            persona = self._directory.get(user_id)
            override = self._overrides.get(user_id)
        if persona is None:
            raise ReproError(f"unknown user {user_id!r}")
        # Tree + cache construction is the expensive part; do it
        # outside the registry lock. Two readers of the same user may
        # race here (they share a read lock); the loser's account is
        # discarded below before it ever watched the relation.
        account = self._build_account(user_id, persona, override)
        with self._registry_lock:
            existing = self._accounts.get(user_id)
            if existing is not None:
                self._accounts.move_to_end(user_id)
                return existing
            if user_id not in self._directory:
                raise ReproError(f"unknown user {user_id!r}")
            self._accounts[user_id] = account
            self._accounts.move_to_end(user_id)
            self._hydrations += 1
            victims = self._shrink_to_budget_locked()
            registry = get_registry()
            if registry.enabled:
                registry.inc("service.hydrations")
                registry.set_gauge("service.hydrated_users", len(self._accounts))
        for victim in victims:
            self._retire_cache(victim)
        return account

    def _shrink_to_budget_locked(self) -> list[UserAccount]:
        """Evict LRU accounts beyond the budget; registry lock held.

        Returns the victims; the caller retires their caches outside
        the lock. Victims need no write-back: their current serialized
        profile is already in the override map (refreshed at edit
        time), so rehydration rebuilds exactly the evicted state even
        if the victim is mid-query on another thread.
        """
        if self._hydrated_budget is None:
            return []
        victims: list[UserAccount] = []
        registry = get_registry()
        while len(self._accounts) > self._hydrated_budget:
            _, victim = self._accounts.popitem(last=False)
            victims.append(victim)
            self._evictions += 1
            if registry.enabled:
                registry.inc("service.evictions")
        return victims

    def is_hydrated(self, user_id: str) -> bool:
        """Whether the user currently has a live account in RAM."""
        with self._registry_lock:
            return user_id in self._accounts

    def paging_statistics(self) -> dict[str, object]:
        """Population and paging counters, captured consistently."""
        with self._registry_lock:
            return {
                "registered": len(self._directory),
                "hydrated": len(self._accounts),
                "overrides": len(self._overrides),
                "hydrated_budget": self._hydrated_budget,
                "hydrations": self._hydrations,
                "evictions": self._evictions,
                "store_lsn": (
                    self._store.last_lsn() if self._store is not None else None
                ),
            }

    def account(self, user_id: str) -> UserAccount:
        """Look up a registered user's live account, hydrating it from
        paged-out state if needed.

        Raises:
            ReproError: If the user is unknown.
        """
        with self._user_locks.read_locked(user_id):
            return self._hydrate(user_id)

    # ------------------------------------------------------------------
    # Profile editing (the study's "modifications")
    # ------------------------------------------------------------------
    @staticmethod
    def _fire_edit_faults() -> None:
        # The ``service.edit`` injection site fires *before* any
        # mutation: an injected edit failure must leave the repository,
        # the executor and the cache exactly as they were (fail-fast),
        # never a mutated repository with a stale cache.
        faults = get_fault_registry()
        if faults.enabled:
            faults.fire("service.edit")

    def add_preference(self, user_id: str, preference: ContextualPreference) -> None:
        """Insert one preference into the user's profile."""
        self._fire_edit_faults()
        with self._user_locks.write_locked(user_id):
            account = self._hydrate(user_id)
            # Re-adding an identical preference is a repository no-op,
            # so a failed WAL append must then undo nothing - removing
            # it would destroy the pre-existing preference.
            inserted = preference not in account.repository.profile
            account.repository.add(preference)
            self._commit_edit(
                account,
                {
                    "op": "add",
                    "user": user_id,
                    "preference": preference_to_dict(preference),
                },
                undo=(
                    (lambda: account.repository.remove(preference))
                    if inserted
                    else (lambda: None)
                ),
            )
            self._after_edit(account, preference)

    def delete_preference(self, user_id: str, preference: ContextualPreference) -> None:
        """Delete one preference from the user's profile."""
        self._fire_edit_faults()
        with self._user_locks.write_locked(user_id):
            account = self._hydrate(user_id)
            account.repository.remove(preference)
            self._commit_edit(
                account,
                {
                    "op": "remove",
                    "user": user_id,
                    "preference": preference_to_dict(preference),
                },
                undo=lambda: account.repository.add(preference),
            )
            self._after_edit(account, preference)

    def update_preference(
        self, user_id: str, preference: ContextualPreference, new_score: float
    ) -> ContextualPreference:
        """Change a stored preference's score; returns the replacement."""
        self._fire_edit_faults()
        with self._user_locks.write_locked(user_id):
            account = self._hydrate(user_id)
            replacement = account.repository.update_score(preference, new_score)
            self._commit_edit(
                account,
                {
                    "op": "update",
                    "user": user_id,
                    "preference": preference_to_dict(preference),
                    "score": new_score,
                },
                undo=lambda: account.repository.update_score(
                    replacement, preference.score
                ),
            )
            self._after_edit(account, preference)
            return replacement

    def _after_edit(
        self,
        account: UserAccount,
        preference: ContextualPreference | None = None,
    ) -> None:
        account.modifications += 1
        account._executor = None  # the tree changed; rebuild lazily
        registry = get_registry()
        if registry.enabled:
            registry.inc("service.edits", labels={"user": account.user_id})
        if account.cache is None:
            return
        if preference is None:
            account.cache.clear()
            return
        # Precise invalidation: only queries resolved at states covered
        # by one of the edited preference's context states are stale.
        for state in preference.descriptor.states(self._environment):
            account.cache.invalidate_covered(state)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def _executor_for(self, account: UserAccount) -> ContextualQueryExecutor:
        # Query threads hold only the user's read lock, so two of them
        # may race the lazy build; the account lock makes it
        # build-once (the cache watch it wires is idempotent anyway,
        # but a single executor keeps resolver state shared).
        executor = account._executor
        if executor is None:
            with account._stats_lock:
                executor = account._executor
                if executor is None:
                    executor = ContextualQueryExecutor(
                        account.repository.tree,
                        self._relation,
                        metric=self._metric,
                        cache=account.cache,
                    )
                    account._executor = executor
            self._record_population()
        return executor

    def query(self, user_id: str, query: ContextualQuery) -> QueryResult:
        """Execute a contextual query as ``user_id``.

        A paged-out user is transparently hydrated first (their profile
        tree and cache are rebuilt from the serialized state).

        With resilience policies configured, the query is served
        through the degradation ladder and the result's
        ``degradation`` attribute names the level that produced it.

        Raises:
            QueryError: If the query's environment differs.
            RequestTimeout: If the request's propagated deadline (see
                :meth:`query_many`) has already expired.
            ServiceUnavailable: Resilient mode only - every degradation
                level failed.
        """
        if query.environment.names != self._environment.names:
            raise QueryError("query environment does not match the service's")
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("service.query")
        with self._user_locks.read_locked(user_id):
            account = self._hydrate(user_id)
            account._count_queries()
            registry = get_registry()
            if registry.enabled:
                registry.inc("service.queries", labels={"user": user_id})
            with span("service_query"):
                executor = self._executor_for(account)
                if self._resilience is not None:
                    return ResilientQueryExecutor(
                        executor, self._resilience, user_id=user_id
                    ).execute(query)
                return executor.execute(query)

    def query_at(
        self,
        user_id: str,
        state: ContextState,
        top_k: int | None = 20,
    ) -> QueryResult:
        """Convenience: query at an implicit current context state."""
        return self.query(user_id, ContextualQuery.at_state(state, top_k=top_k))

    #: Descriptors ranked between deadline checks in bounded rank_many.
    _RANK_CHUNK = 8

    def rank_many(
        self,
        user_id: str,
        descriptors: Sequence[ContextDescriptor | ExtendedContextDescriptor],
        timeout: float | None = None,
    ) -> tuple[list[QueryResult], BatchStats]:
        """Rank the relation for many context descriptors in one pass.

        The batched entry point for high-throughput serving: context
        resolution is memoized per distinct state and each distinct
        winning clause touches the relation once across the whole
        batch (see :func:`repro.query.rank.rank_cs_batch`). Returns
        one :class:`QueryResult` per descriptor plus the batch's memo
        statistics. A paged-out user is hydrated first, exactly as in
        :meth:`query`.

        ``timeout`` (or an already-propagated deadline) bounds the
        whole batch: descriptors are then ranked in chunks with a
        deadline check between chunks, so a slow batch raises
        :class:`~repro.exceptions.RequestTimeout` within one chunk of
        the budget instead of running to completion. Memoization is
        per chunk in that mode, so the ``unique_*`` statistics are
        summed over chunks.
        """
        with self._user_locks.read_locked(user_id):
            account = self._hydrate(user_id)
            descriptors = list(descriptors)
            executor = self._executor_for(account)
            deadline = Deadline.after(timeout) if timeout is not None else None
            with deadline_scope(deadline) as effective:
                if effective is None:
                    results, stats = executor.rank_many(descriptors)
                else:
                    results, stats = self._rank_chunked(
                        executor, descriptors, effective
                    )
            account._count_queries(len(descriptors))
            registry = get_registry()
            if registry.enabled:
                registry.inc(
                    "service.queries", len(descriptors), labels={"user": user_id}
                )
            return results, stats

    def _rank_chunked(
        self,
        executor: ContextualQueryExecutor,
        descriptors: list[ContextDescriptor | ExtendedContextDescriptor],
        deadline: Deadline,
    ) -> tuple[list[QueryResult], BatchStats]:
        results: list[QueryResult] = []
        stats = BatchStats()
        for start in range(0, len(descriptors), self._RANK_CHUNK):
            deadline.check("service.rank_many")
            chunk = descriptors[start : start + self._RANK_CHUNK]
            chunk_results, chunk_stats = executor.rank_many(chunk)
            results.extend(chunk_results)
            stats.descriptors += chunk_stats.descriptors
            stats.state_lookups += chunk_stats.state_lookups
            stats.unique_states += chunk_stats.unique_states
            stats.clause_lookups += chunk_stats.clause_lookups
            stats.unique_clauses += chunk_stats.unique_clauses
        return results, stats

    def query_many(
        self,
        requests: Sequence[tuple[str, ContextualQuery]],
        max_workers: int = 4,
        queue_depth: int | None = None,
        timeout: float | None = None,
        executor: ConcurrentQueryExecutor | None = None,
        deadline: float | None = None,
        shed_on_saturation: bool = False,
    ) -> list[RequestOutcome]:
        """Execute ``(user_id, query)`` requests on a bounded thread pool.

        The concurrent counterpart of calling :meth:`query` in a loop:
        requests fan out over a
        :class:`~repro.concurrency.ConcurrentQueryExecutor` and the
        per-user read/write locking guarantees each query sees a
        consistent profile. Outcomes come back in request order; a
        request whose query raised carries the exception instead of
        failing the whole batch.

        Failed outcomes carry **typed** errors: a shed request's
        ``outcome.error`` is a
        :class:`~repro.exceptions.ServiceUnavailable` and a timed-out
        or cancelled request's a
        :class:`~repro.exceptions.RequestTimeout`, each with the failed
        user id and query state attached (and the original executor
        error preserved in ``causes``), counted in the
        ``service.shed`` / ``service.timeouts`` metrics.

        Args:
            requests: ``(user_id, query)`` pairs.
            max_workers / queue_depth / timeout: Pool parameters for a
                temporary executor (see
                :class:`~repro.concurrency.ConcurrentQueryExecutor`).
            executor: Run on this executor instead of a temporary one
                (it is left running; the caller owns its lifecycle).
            deadline: Whole-batch time budget in seconds, propagated
                *into* each request as a
                :class:`~repro.resilience.Deadline` scope - stages
                check it mid-request instead of only at collection.
            shed_on_saturation: Submit non-blocking; a request that
                finds the pool full is shed with a typed
                ``ServiceUnavailable`` instead of queueing.

        Returns:
            One :class:`~repro.concurrency.RequestOutcome` per request,
            in request order; ``outcome.result`` is the
            :class:`QueryResult` when ``outcome.ok``.
        """
        requests = list(requests)
        batch_deadline = Deadline.after(deadline) if deadline is not None else None

        def request_fn(user_id: str, query: ContextualQuery):
            def run():
                with deadline_scope(batch_deadline):
                    return self.query(user_id, query)

            return run

        callables = [request_fn(user_id, query) for user_id, query in requests]
        block = not shed_on_saturation
        if executor is not None:
            outcomes = executor.run(callables, timeout=timeout, block=block)
        else:
            with ConcurrentQueryExecutor(
                max_workers=max_workers, queue_depth=queue_depth, timeout=timeout
            ) as pool:
                outcomes = pool.run(callables, block=block)
        return self._typed_outcomes(outcomes, requests, timeout)

    @staticmethod
    def _typed_outcomes(
        outcomes: list[RequestOutcome],
        requests: list[tuple[str, ContextualQuery]],
        timeout: float | None,
    ) -> list[RequestOutcome]:
        """Attach typed, identified errors to shed/expired outcomes."""
        registry = get_registry()
        for outcome in outcomes:
            user_id, query = requests[outcome.index]
            state = query.current_state
            if outcome.status == "rejected":
                outcome.error = ServiceUnavailable(
                    "request shed: executor saturated",
                    user_id=user_id,
                    state=state,
                    causes=(outcome.error,) if outcome.error is not None else (),
                )
                if registry.enabled:
                    registry.inc("service.shed")
            elif outcome.status in ("timeout", "cancelled"):
                detail = (
                    f"request exceeded its {timeout}s collection timeout"
                    if outcome.status == "timeout"
                    else "request cancelled before running (batch out of time)"
                )
                # Preserve the executor's underlying error (if any) the
                # same way the rejected branch does: a timed-out request
                # that *also* failed downstream keeps its root cause.
                outcome.error = RequestTimeout(
                    detail,
                    user_id=user_id,
                    state=state,
                    causes=(outcome.error,) if outcome.error is not None else (),
                )
                if registry.enabled:
                    registry.inc("service.timeouts")
        return outcomes

    # ------------------------------------------------------------------
    # Persistence & statistics
    # ------------------------------------------------------------------
    def export_profile(self, user_id: str) -> str:
        """The user's profile as JSON (see :mod:`repro.io`)."""
        with self._user_locks.read_locked(user_id):
            return self._hydrate(user_id).repository.to_json()

    def import_profile(self, user_id: str, text: str) -> None:
        """Replace the user's profile from :meth:`export_profile` output.

        The imported profile must be expressed over the service's own
        context environment; accepting a foreign one would corrupt
        later queries and cache keys (states and descriptors are
        positional over the environment's parameters). The comparison
        is **structural** - parameter names *and* their hierarchies'
        levels, members and parent links - because a same-named
        environment with, say, reordered hierarchy levels changes what
        every serialized state means. The check also guards
        rehydration: overrides round-trip through this same serialized
        form, so only structurally identical environments may enter the
        override map. The user's result cache is replaced wholesale -
        the old one is first unwatched from the relation so its
        mutation listener does not outlive it, and the new one is not
        watched until the next query builds an executor for it.

        Raises:
            ReproError: If the payload's environment differs from the
                service's (by name or structure).
        """
        self._fire_edit_faults()
        repository = PreferenceRepository.from_json(text)
        if repository.environment != self._environment:
            raise ReproError(
                "imported profile's context environment "
                f"{list(repository.environment.names)!r} does not match the "
                f"service's {list(self._environment.names)!r} (names and "
                "hierarchy structure must both match)"
            )
        serialized = profile_to_dict(repository.profile)
        with self._user_locks.write_locked(user_id):
            account = self._hydrate(user_id)
            # Persist first: the account is untouched if the WAL
            # append fails, so no rollback of live objects is needed.
            if self._paging:
                with self._registry_lock:
                    previous = self._overrides.get(user_id)
                    self._overrides[user_id] = serialized
                if self._store is not None:
                    try:
                        self._append(
                            {"op": "import", "user": user_id, "profile": serialized}
                        )
                    except Exception:
                        with self._registry_lock:
                            if previous is None:
                                self._overrides.pop(user_id, None)
                            else:
                                self._overrides[user_id] = previous
                        raise
            account.repository = repository
            if account.cache is not None:
                account.cache.unwatch(self._relation)
                account.cache = ContextQueryTree(
                    self._environment, capacity=self._cache_capacity
                )
            self._after_edit(account)

    def statistics(self) -> list[dict[str, object]]:
        """Per-user usage statistics for the *hydrated* accounts,
        sorted by user id (cold users have no live counters to read;
        see :meth:`paging_statistics` for population totals).

        The account list is snapshotted under the registry lock, so a
        concurrent ``register``/``unregister`` cannot resize the dict
        mid-iteration; each row then reads one account's counters
        (monotonic ints - a row is at worst one event behind).
        """
        with self._registry_lock:
            accounts = sorted(self._accounts.values(), key=lambda a: a.user_id)
        return [
            {
                "user_id": account.user_id,
                "persona_key": account.persona.key,
                "preferences": len(account.repository),
                "modifications": account.modifications,
                "queries": account.queries_executed,
                "cache_hit_rate": (
                    account.cache.hit_rate() if account.cache is not None else None
                ),
                "cache_evictions": (
                    account.cache.evictions if account.cache is not None else None
                ),
                "cache_invalidations": (
                    account.cache.invalidations if account.cache is not None else None
                ),
            }
            for account in accounts
        ]
