"""The on-disk campaign artifact store: checkpoint, verify, resume.

Energy sweeps at paper scale take hours; a campaign must survive being
killed.  The store checkpoints every completed unit as it finishes:

.. code-block:: text

    <root>/
      campaign.json            # the CampaignSpec this store belongs to
      manifest.db              # completed-unit index (SQLite, WAL mode)
      units/<unit key>/
        spec.json              # the unit's RunSpec
        history.json           # repro.fl.history_io document
        result.json            # energy/rounds/accuracy measurements
        telemetry.jsonl        # optional per-unit event log

A unit is *complete* exactly when the index lists it — the unit files
are written first and the index row last (one transaction), so a crash
mid-unit leaves at worst an orphaned directory that the next run
overwrites.  The index records a SHA-256 checksum of every artifact
file, and :meth:`ArtifactStore.verify` re-hashes them so silent
corruption is detected before a resumed campaign or a report trusts
stale bytes.

The index is a SQLite database with one ``units`` row per unit, keyed
by content hash, with the checksums as columns: ``contains`` is an
O(log n) primary-key probe, key scans are index-ordered, and WAL lets
concurrent runner processes commit without queuing on a store-wide
lock.  Connections are opened per operation and closed before
returning.  That costs a few tens of microseconds per call but buys
fork safety: the process-pool runner forks workers, and a SQLite
connection (with its POSIX fcntl locks, which die with *any* fd close
in the process) must never cross a fork.  Closing the last connection
also checkpoints and removes the ``-wal``/``-shm`` sidecars, so a
store at rest is ``manifest.db`` alone.

Raw database bytes depend on the order rows were written, so stores
are compared through the *logical* index: :meth:`ArtifactStore.manifest`
renders it as a canonical document and :meth:`ArtifactStore.index_digest`
hashes it.  Two stores are byte-identical when their artifact bytes
match and their index digests are equal.

Older stores kept the index as a ``manifest.json`` document.  Such a
directory is not opened as a store: :func:`~repro.campaign.repository.migrate_store`
(``campaign migrate``) imports it into a new directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import sqlite3
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.campaign.spec import CampaignSpec, RunSpec
from repro.fl.history_io import history_from_json, history_to_json
from repro.fl.metrics import TrainingHistory

__all__ = [
    "ArtifactStore",
    "UnitArtifact",
    "StoreError",
    "StoreHealthReport",
    "DoctorReport",
]

_MANIFEST_SCHEMA = "repro.campaign-manifest/1"
_FAILURE_SCHEMA = "repro.failure-record/1"
_CAMPAIGN_FILE = "campaign.json"
_LEGACY_MANIFEST_FILE = "manifest.json"
_INDEX_DB_FILE = "manifest.db"
_UNITS_DIR = "units"
_SPOOLS_DIR = "spools"
_QUARANTINE_DIR = "quarantine"
_HEARTBEATS_DIR = "heartbeats"
_ARTIFACTS_SUBDIR = "artifacts"
_SPEC_FILE = "spec.json"
_HISTORY_FILE = "history.json"
_RESULT_FILE = "result.json"
_TELEMETRY_FILE = "telemetry.jsonl"
_LOCK_FILE = ".lock"
_ATTEMPT_PATTERN = re.compile(r"^attempt-(\d+)\.json$")

#: Artifact filenames whose checksums live in dedicated columns.  Any
#: other recorded file rides in the ``extra`` JSON column, so the row
#: schema never constrains what a unit may store.
_FILE_COLUMNS = {
    _SPEC_FILE: "spec_sha256",
    _HISTORY_FILE: "history_sha256",
    _RESULT_FILE: "result_sha256",
    _TELEMETRY_FILE: "telemetry_sha256",
}

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS units (
    key TEXT PRIMARY KEY,
    name TEXT NOT NULL,
    spec_sha256 TEXT,
    history_sha256 TEXT,
    result_sha256 TEXT,
    telemetry_sha256 TEXT,
    extra TEXT NOT NULL DEFAULT '{}'
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_units_name ON units (name);
"""

_UPSERT_SQL = """
INSERT INTO units (
    key, name, spec_sha256, history_sha256, result_sha256,
    telemetry_sha256, extra
) VALUES (?, ?, ?, ?, ?, ?, ?)
ON CONFLICT (key) DO UPDATE SET
    name = excluded.name,
    spec_sha256 = excluded.spec_sha256,
    history_sha256 = excluded.history_sha256,
    result_sha256 = excluded.result_sha256,
    telemetry_sha256 = excluded.telemetry_sha256,
    extra = excluded.extra
"""

_ROW_COLUMNS = (
    "key, name, spec_sha256, history_sha256, result_sha256, "
    "telemetry_sha256, extra"
)


class StoreError(RuntimeError):
    """A campaign artifact store is missing, mismatched, or corrupt."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` so readers never observe a half-written file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


@contextmanager
def _exclusive_lock(path: Path):
    """Hold an advisory exclusive ``flock`` on ``path``.

    ``flock`` locks belong to the open file description, so every
    acquisition opens the file afresh — which serialises concurrent
    writers across processes *and* across threads within one process.
    No-op where ``fcntl`` is unavailable (single-writer assumed).
    """
    if fcntl is None:
        yield
        return
    with open(path, "a", encoding="utf-8") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def _entry_to_row(key: str, entry: dict) -> tuple:
    columns = dict.fromkeys(_FILE_COLUMNS.values())
    extra = {}
    for filename, digest in entry.get("files", {}).items():
        column = _FILE_COLUMNS.get(filename)
        if column is not None:
            columns[column] = digest
        else:
            extra[filename] = digest
    return (
        key,
        entry["name"],
        *columns.values(),
        json.dumps(extra, sort_keys=True),
    )


def _row_to_entry(row: tuple) -> tuple[str, dict]:
    files = {
        filename: digest
        for filename, digest in zip(_FILE_COLUMNS, row[2:6])
        if digest is not None
    }
    files.update(json.loads(row[6]))
    return row[0], {"name": row[1], "files": dict(sorted(files.items()))}


@dataclass(eq=False)
class StoreHealthReport:
    """Unified result of :meth:`ArtifactStore.verify` and ``doctor``.

    One typed report replaces the ad-hoc problem lists and exit codes
    the two integrity entry points used to return, so ``campaign
    status`` and ``campaign doctor`` render health identically.

    Attributes:
        checked: recorded units whose artifacts were re-hashed.
        repaired: whether the examination ran in ``--repair`` mode.
        problems: every integrity problem observed *before* repair.
        adopted: orphan unit keys promoted into the index.
        quarantined: unit keys evicted to ``quarantine/`` with failure
            records.  The records are non-terminal, so the next
            ``campaign run`` retrains exactly these units.
        actions: human-readable log of every repair action taken.
        healthy: store consistency verdict — after repair when
            ``repaired``, otherwise simply "no problems found".

    For compatibility with the legacy ``verify() -> list[str]``
    contract the report behaves as a sequence of its problem strings:
    it iterates over ``problems``, compares equal to a plain list of
    them, and is *truthy exactly when problems were found*.
    """

    checked: int = 0
    repaired: bool = False
    problems: list[str] = field(default_factory=list)
    adopted: list[str] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    actions: list[str] = field(default_factory=list)
    healthy: bool = True

    # -- legacy list-of-problems protocol -------------------------------
    def __iter__(self):
        return iter(self.problems)

    def __len__(self) -> int:
        return len(self.problems)

    def __contains__(self, item) -> bool:
        return item in self.problems

    def __bool__(self) -> bool:
        return bool(self.problems)

    def __eq__(self, other) -> bool:
        if isinstance(other, list):
            return self.problems == other
        if isinstance(other, StoreHealthReport):
            return (
                self.checked == other.checked
                and self.repaired == other.repaired
                and self.problems == other.problems
                and self.adopted == other.adopted
                and self.quarantined == other.quarantined
                and self.actions == other.actions
                and self.healthy == other.healthy
            )
        return NotImplemented

    def render(self) -> str:
        """Multi-line health report for ``campaign status`` / ``doctor``."""
        lines = []
        if not self.problems:
            lines.append(
                "store is healthy: no integrity problems found"
                + (f" ({self.checked} unit(s) checked)" if self.checked else "")
            )
        else:
            lines.append(f"{len(self.problems)} integrity problem(s) found:")
            lines.extend(f"  - {problem}" for problem in self.problems)
        for action in self.actions:
            lines.append(f"repair: {action}")
        if self.repaired and self.problems:
            lines.append(
                "store is healthy after repair"
                if self.healthy
                else "store still has problems after repair"
            )
        return "\n".join(lines)


#: Deprecated alias: ``doctor`` used to return its own ``DoctorReport``
#: type; it now shares :class:`StoreHealthReport` with ``verify``.
DoctorReport = StoreHealthReport


class UnitArtifact:
    """Lazy handle onto one completed unit's artifacts.

    Parsing a history is much more expensive than reading an index
    row, so reports iterate these handles and load only what they use.
    """

    def __init__(self, store: "ArtifactStore", key: str, entry: dict) -> None:
        self._store = store
        self.key = key
        self.name = entry["name"]
        self._entry = entry

    @property
    def directory(self) -> Path:
        """The unit's artifact directory."""
        return self._store.unit_dir(self.key)

    def spec(self) -> RunSpec:
        """The unit's :class:`RunSpec`."""
        return RunSpec.from_json(
            (self.directory / _SPEC_FILE).read_text(encoding="utf-8")
        )

    def history(self) -> TrainingHistory:
        """The unit's per-round training history."""
        return history_from_json(
            (self.directory / _HISTORY_FILE).read_text(encoding="utf-8")
        )

    def result(self) -> dict:
        """The unit's measurement snapshot (energy, rounds, accuracy)."""
        return json.loads(
            (self.directory / _RESULT_FILE).read_text(encoding="utf-8")
        )

    @property
    def telemetry_path(self) -> Path:
        """Where the unit's event log lives (may not exist)."""
        return self.directory / _TELEMETRY_FILE

    def has_telemetry(self) -> bool:
        """Whether the unit ran with telemetry enabled."""
        return self.telemetry_path.exists()

    def telemetry_records(self) -> list[dict] | None:
        """The unit's final metric records, or ``None`` without telemetry.

        Reads the last ``metrics.snapshot`` event out of the unit's
        ``telemetry.jsonl`` — the line the runner appends after training
        — and recovers the structured per-instrument records that
        :class:`repro.obs.aggregate.CampaignTelemetry` folds into
        campaign-wide totals.
        """
        path = self.telemetry_path
        if not path.exists():
            return None
        snapshot = None
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue
            if data.get("category") == "metrics.snapshot":
                snapshot = data
        if snapshot is None:
            return None
        from repro.obs.aggregate import records_from_snapshot

        return records_from_snapshot(snapshot.get("fields", {}))


class ArtifactStore:
    """Checkpointed storage for one campaign's run artifacts.

    Holds the artifact layout (unit directories, quarantine,
    heartbeats, spools), the SQLite completed-unit index, verification
    and the doctor.  Opening a directory that holds a legacy
    ``manifest.json`` index and no ``manifest.db`` raises
    :class:`StoreError`: ``campaign migrate`` imports it first.

    Args:
        root: store directory; created on :meth:`initialize`.
    """

    #: Name of the index file under ``root``.
    index_filename = _INDEX_DB_FILE

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        if (self.root / _LEGACY_MANIFEST_FILE).exists() and not (
            self.root / _INDEX_DB_FILE
        ).exists():
            raise StoreError(
                f"store at {self.root} has a legacy {_LEGACY_MANIFEST_FILE} "
                "index; import it into a new directory with 'campaign "
                f"migrate --dir {self.root} --out NEW'"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({str(self.root)!r})"

    # ------------------------------------------------------------------
    # The SQLite index.
    # ------------------------------------------------------------------
    def _connect(self, create: bool = False) -> sqlite3.Connection:
        """Open a fresh connection (per-operation; see module docstring)."""
        path = self.root / _INDEX_DB_FILE
        if not create and not path.exists():
            raise StoreError(f"no manifest at {self.root}")
        connection = sqlite3.connect(path, timeout=30.0, isolation_level=None)
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA busy_timeout=30000")
            # WAL + NORMAL is durable against process crash (the
            # paper-scale failure mode the chaos suite injects); only a
            # power loss can lose the tail of the log, and campaigns
            # re-run missing units.
            connection.execute("PRAGMA synchronous=NORMAL")
        except sqlite3.DatabaseError as error:
            connection.close()
            raise StoreError(f"corrupt manifest index at {path}: {error}")
        return connection

    def _index_exists(self) -> bool:
        return (self.root / _INDEX_DB_FILE).exists()

    def _index_create(self, campaign: CampaignSpec) -> None:
        """Create an empty index bound to ``campaign`` (caller locks)."""
        with closing(self._connect(create=True)) as connection:
            connection.execute("BEGIN IMMEDIATE")
            connection.executescript(_SCHEMA_SQL)
            connection.executemany(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                [
                    ("schema", _MANIFEST_SCHEMA),
                    ("campaign_key", campaign.key()),
                    ("campaign_name", campaign.name),
                ],
            )
            connection.commit()

    def _index_entries(self) -> dict[str, dict]:
        """Every ``key -> entry`` mapping, sorted by key."""
        with closing(self._connect()) as connection:
            rows = connection.execute(
                f"SELECT {_ROW_COLUMNS} FROM units ORDER BY key"
            ).fetchall()
        return dict(_row_to_entry(row) for row in rows)

    def _index_get(self, key: str) -> dict | None:
        with closing(self._connect()) as connection:
            row = connection.execute(
                f"SELECT {_ROW_COLUMNS} FROM units WHERE key = ?", (key,)
            ).fetchone()
        return None if row is None else _row_to_entry(row)[1]

    def _index_delete(self, key: str) -> None:
        with closing(self._connect()) as connection:
            connection.execute("DELETE FROM units WHERE key = ?", (key,))

    def manifest(self) -> dict:
        """The canonical index document (schema, campaign, units).

        A pure function of the index *contents*, independent of the
        order rows were written — what makes :meth:`index_digest` an
        equality check between stores.
        """
        with closing(self._connect()) as connection:
            meta = dict(connection.execute("SELECT key, value FROM meta"))
        if meta.get("schema") != _MANIFEST_SCHEMA:
            raise StoreError(
                f"unexpected manifest schema {meta.get('schema')!r}"
            )
        return {
            "schema": meta["schema"],
            "campaign_key": meta["campaign_key"],
            "campaign_name": meta["campaign_name"],
            "units": self._index_entries(),
        }

    def close(self) -> None:
        """No-op: connections never outlive one operation."""

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def initialize(self, campaign: CampaignSpec) -> None:
        """Bind this store to ``campaign``, creating it if needed.

        Re-initialising an existing store with the *same* campaign (by
        content key) is the resume path and is a no-op; initialising
        with a different campaign raises :class:`StoreError` instead of
        silently mixing artifacts from two grids.  The check-then-create
        runs under the store lock so two processes racing to initialise
        the same directory cannot both write the seed files.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        with self._lock():
            existing = self.campaign_key()
            if existing is not None:
                if existing != campaign.key():
                    raise StoreError(
                        f"store at {self.root} belongs to campaign key "
                        f"{existing}; refusing to run campaign "
                        f"{campaign.key()} ({campaign.name!r}) into it"
                    )
                return
            (self.root / _UNITS_DIR).mkdir(exist_ok=True)
            _atomic_write(
                self.root / _CAMPAIGN_FILE,
                json.dumps(
                    {"key": campaign.key(), "spec": campaign.to_dict()},
                    indent=2,
                )
                + "\n",
            )
            self._index_create(campaign)

    def _lock(self):
        """The store-wide writer lock (see :func:`_exclusive_lock`)."""
        return _exclusive_lock(self.root / _LOCK_FILE)

    def campaign_key(self) -> str | None:
        """The bound campaign's content key (``None`` if uninitialised)."""
        path = self.root / _CAMPAIGN_FILE
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))["key"]
        except (json.JSONDecodeError, KeyError) as error:
            raise StoreError(f"corrupt campaign file {path}: {error}") from None

    def campaign(self) -> CampaignSpec:
        """The campaign this store was initialised with."""
        path = self.root / _CAMPAIGN_FILE
        if not path.exists():
            raise StoreError(f"no campaign at {self.root}")
        data = json.loads(path.read_text(encoding="utf-8"))
        return CampaignSpec.from_dict(data["spec"])

    def unit_dir(self, key: str) -> Path:
        """Artifact directory of the unit with content key ``key``."""
        return self.root / _UNITS_DIR / key

    @property
    def spool_dir(self) -> Path:
        """Where live worker telemetry spools stream during execution.

        Spools are *runtime* telemetry, not artifacts: they carry wall
        times and worker pids, so they live outside ``units/`` and are
        excluded from the index — the artifact bytes stay a pure
        function of the campaign spec.
        """
        return self.root / _SPOOLS_DIR

    @property
    def quarantine_dir(self) -> Path:
        """Where failure records and quarantined artifacts live.

        ``quarantine/<key>/attempt-N.json`` is the failure record of the
        unit's N-th failed attempt (1-based); ``quarantine/<key>/artifacts/``
        holds artifact files evicted from ``units/`` when a recorded
        unit turned out corrupt.  Like spools, quarantine is *runtime*
        state — it carries wall times and tracebacks, lives outside the
        index, and never affects artifact bytes.
        """
        return self.root / _QUARANTINE_DIR

    @property
    def heartbeat_dir(self) -> Path:
        """Where workers drop per-unit heartbeat files while executing.

        ``heartbeats/<key>.json`` names the executing pid and attempt —
        the mapping the supervised scheduler uses to attribute a broken
        process pool to the unit whose worker actually died, and to aim
        watchdog kills at the right process.
        """
        return self.root / _HEARTBEATS_DIR

    # ------------------------------------------------------------------
    # Writing.
    # ------------------------------------------------------------------
    def record_unit(
        self,
        spec: RunSpec,
        history: TrainingHistory,
        result: dict,
        telemetry_jsonl: str | None = None,
    ) -> str:
        """Persist one completed unit and mark it complete.

        Artifact files land first; the index entry (with checksums) is
        written last and atomically, so completion is all-or-nothing.
        Concurrent runner processes sharing one store never drop each
        other's completed-unit entries: each commits a single-row
        transaction.  Returns the unit's content key.
        """
        key = spec.key()
        unit_dir = self.unit_dir(key)
        unit_dir.mkdir(parents=True, exist_ok=True)
        files = {
            _SPEC_FILE: spec.to_json(indent=2) + "\n",
            _HISTORY_FILE: history_to_json(history, indent=2) + "\n",
            _RESULT_FILE: json.dumps(result, indent=2, sort_keys=True) + "\n",
        }
        if telemetry_jsonl is not None:
            files[_TELEMETRY_FILE] = telemetry_jsonl
        checksums = {}
        for filename, text in files.items():
            _atomic_write(unit_dir / filename, text)
            checksums[filename] = _sha256(text.encode("utf-8"))
        self.put_entry(key, {"name": spec.name, "files": checksums})
        return key

    # The repository-protocol spelling of record_unit.
    def put(
        self,
        spec: RunSpec,
        history: TrainingHistory,
        result: dict,
        telemetry_jsonl: str | None = None,
    ) -> str:
        """Alias of :meth:`record_unit` (the repository API spelling)."""
        return self.record_unit(spec, history, result, telemetry_jsonl)

    def put_entry(self, key: str, entry: dict) -> None:
        """Upsert one *index entry* without touching artifact files.

        Low-level: the entry is trusted as-is (``{"name": ..., "files":
        {filename: sha256}}``).  The legacy import and the store
        benchmark use this; campaign execution goes through
        :meth:`record_unit`, which writes the artifacts the entry
        vouches for.
        """
        with closing(self._connect()) as connection:
            connection.execute(_UPSERT_SQL, _entry_to_row(key, entry))

    def bulk_put_entries(self, entries: dict[str, dict]) -> None:
        """Upsert many index entries in one transaction.

        The import fast path: a 10^5-unit store must not pay one
        commit per unit.
        """
        rows = [_entry_to_row(key, entry) for key, entry in entries.items()]
        with closing(self._connect()) as connection:
            connection.execute("BEGIN IMMEDIATE")
            connection.executemany(_UPSERT_SQL, rows)
            connection.commit()

    # ------------------------------------------------------------------
    # Failure records and quarantine.
    # ------------------------------------------------------------------
    def record_failure(self, key: str, record: dict) -> Path:
        """Persist one failed attempt of unit ``key``; return its path.

        Attempt numbers continue from the records already on disk, so a
        campaign killed mid-retry and resumed keeps counting where it
        left off — the failure trail *is* the durable attempt counter.
        """
        directory = self.quarantine_dir / key
        directory.mkdir(parents=True, exist_ok=True)
        with self._lock():
            attempt = self.attempts_used(key) + 1
            document = {"schema": _FAILURE_SCHEMA, "key": key, **record}
            document["attempt"] = attempt
            path = directory / f"attempt-{attempt}.json"
            _atomic_write(
                path, json.dumps(document, indent=2, sort_keys=True) + "\n"
            )
        return path

    def failure_records(self, key: str) -> list[dict]:
        """Every failed-attempt record of ``key``, in attempt order."""
        directory = self.quarantine_dir / key
        if not directory.exists():
            return []
        numbered = []
        for path in directory.iterdir():
            match = _ATTEMPT_PATTERN.match(path.name)
            if match is None:
                continue
            try:
                numbered.append((int(match.group(1)), json.loads(path.read_text(encoding="utf-8"))))
            except json.JSONDecodeError:
                continue
        numbered.sort(key=lambda pair: pair[0])
        return [record for _, record in numbered]

    def attempts_used(self, key: str) -> int:
        """How many failed attempts of ``key`` are on record."""
        directory = self.quarantine_dir / key
        if not directory.exists():
            return 0
        return sum(
            1
            for path in directory.iterdir()
            if _ATTEMPT_PATTERN.match(path.name)
        )

    def quarantined_keys(self) -> set[str]:
        """Keys given up on: a terminal failure record, no index entry."""
        directory = self.quarantine_dir
        if not directory.exists():
            return set()
        quarantined = set()
        for unit_dir in directory.iterdir():
            if not unit_dir.is_dir() or self.contains(unit_dir.name):
                continue
            records = self.failure_records(unit_dir.name)
            if records and any(r.get("quarantined") for r in records):
                quarantined.add(unit_dir.name)
        return quarantined

    def clear_failures(self, key: str) -> None:
        """Forget ``key``'s failure trail, granting a fresh retry budget."""
        directory = self.quarantine_dir / key
        if directory.exists():
            shutil.rmtree(directory)

    def quarantine_unit(self, key: str) -> None:
        """Evict a recorded-but-bad unit from the completed set.

        Drops the index entry and moves the unit's artifact directory
        under ``quarantine/<key>/artifacts`` so the bad bytes stay
        inspectable but can never satisfy a resume check or feed a
        report again.
        """
        self._index_delete(key)
        unit_dir = self.unit_dir(key)
        if unit_dir.exists():
            destination = self.quarantine_dir / key / _ARTIFACTS_SUBDIR
            destination.parent.mkdir(parents=True, exist_ok=True)
            if destination.exists():
                shutil.rmtree(destination)
            shutil.move(str(unit_dir), str(destination))

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Whether the unit with content key ``key`` is complete.

        The resume hot path: one primary-key probe.
        """
        with closing(self._connect()) as connection:
            row = connection.execute(
                "SELECT 1 FROM units WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def keys(self, prefix: str | None = None) -> list[str]:
        """Sorted content keys of every complete unit.

        ``prefix`` restricts to keys starting with it.  Content keys
        are lowercase hex, so a prefix names the contiguous key range
        ``[prefix, prefix + '\\uffff')`` — an indexed range scan, not
        a table scan.
        """
        with closing(self._connect()) as connection:
            if prefix is None:
                rows = connection.execute("SELECT key FROM units ORDER BY key")
            else:
                rows = connection.execute(
                    "SELECT key FROM units WHERE key >= ? AND key < ? "
                    "ORDER BY key",
                    (prefix, prefix + "\uffff"),
                )
            return [row[0] for row in rows]

    def completed_keys(self) -> set[str]:
        """Content keys of every unit the index marks complete."""
        return set(self.keys())

    def units(self) -> Iterator[UnitArtifact]:
        """Handles onto every completed unit, in key order."""
        for key, entry in self._index_entries().items():
            yield UnitArtifact(self, key, entry)

    def iter_units(self) -> Iterator[UnitArtifact]:
        """Alias of :meth:`units` (the repository API spelling)."""
        return self.units()

    def unit(self, key: str) -> UnitArtifact:
        """Handle onto one completed unit."""
        entry = self._index_get(key)
        if entry is None:
            raise StoreError(f"unit {key} is not complete in {self.root}")
        return UnitArtifact(self, key, entry)

    def get(self, key: str) -> UnitArtifact:
        """Alias of :meth:`unit` (the repository API spelling)."""
        return self.unit(key)

    def index_digest(self) -> str:
        """SHA-256 over the canonical index content.

        Hashes the :meth:`manifest` document, which is a pure function
        of the entries — so two stores holding the same completed units
        under the same campaign produce the same digest, whatever order
        the units completed in.  The legacy import asserts exactly
        this.
        """
        return _sha256(
            json.dumps(self.manifest(), sort_keys=True).encode("utf-8")
        )

    # ------------------------------------------------------------------
    # Integrity.
    # ------------------------------------------------------------------
    def verify_unit(self, key: str, entry: dict | None = None) -> list[str]:
        """Re-hash one recorded unit's artifacts; return its problems.

        Checks that every file the index entry lists exists and
        matches its recorded checksum, and that the stored spec still
        hashes to the directory key.  The runner calls this right after
        every ``record_unit`` — verify-after-write — so a torn or
        corrupted artifact write fails the *attempt* instead of
        poisoning resume checks and reports later.
        """
        if entry is None:
            entry = self._index_get(key)
            if entry is None:
                return [f"{key}: not in manifest"]
        problems: list[str] = []
        unit_dir = self.unit_dir(key)
        for filename, recorded in entry["files"].items():
            path = unit_dir / filename
            if not path.exists():
                problems.append(f"{key}: missing {filename}")
                continue
            actual = _sha256(path.read_bytes())
            if actual != recorded:
                problems.append(
                    f"{key}: checksum mismatch on {filename} "
                    f"(recorded {recorded[:12]}, actual {actual[:12]})"
                )
        spec_path = unit_dir / _SPEC_FILE
        if spec_path.exists():
            try:
                spec = RunSpec.from_json(spec_path.read_text(encoding="utf-8"))
            except ValueError as error:
                problems.append(f"{key}: unreadable spec ({error})")
            else:
                if spec.key() != key:
                    problems.append(
                        f"{key}: spec content hashes to {spec.key()}"
                    )
        return problems

    def orphan_unit_keys(self) -> list[str]:
        """Unit directories on disk that the index does not list.

        The crash window between files-first and index-last leaves
        exactly this shape behind.  Sorted for deterministic reporting.
        Note that a store being written *right now* has transient
        orphans (units mid-checkpoint); orphan reports are meaningful
        for stores at rest.
        """
        units_dir = self.root / _UNITS_DIR
        if not units_dir.exists():
            return []
        completed = self.completed_keys()
        return sorted(
            path.name
            for path in units_dir.iterdir()
            if path.is_dir() and path.name not in completed
        )

    def verify(self) -> StoreHealthReport:
        """Integrity-check the whole store; return the health report.

        A healthy report means the store is internally consistent:
        every index entry's files exist and match their recorded
        checksums, every stored spec hashes to its directory key, and
        no unit directory sits on disk unaccounted for by the index.
        (The report compares equal to a plain list of problem strings,
        preserving the legacy ``verify() == []`` contract.)
        """
        problems: list[str] = []
        entries = self._index_entries()
        for key, entry in entries.items():
            problems.extend(self.verify_unit(key, entry))
        for key in self.orphan_unit_keys():
            problems.append(
                f"{key}: orphan unit directory (on disk but not in manifest)"
            )
        return StoreHealthReport(
            checked=len(entries),
            problems=problems,
            healthy=not problems,
        )

    # ------------------------------------------------------------------
    # Self-healing.
    # ------------------------------------------------------------------
    def _adopt_orphan(self, key: str) -> None:
        """Promote a self-consistent orphan directory into the index.

        The directory must hold a parseable spec whose content key
        matches the directory name, plus parseable history and result
        documents — i.e. everything ``record_unit`` would have written
        before the crash stole the index update.  Checksums are
        recomputed from the bytes on disk, so the rebuilt index entry
        is byte-identical to the one the crash lost.
        """
        unit_dir = self.unit_dir(key)
        spec = RunSpec.from_json(
            (unit_dir / _SPEC_FILE).read_text(encoding="utf-8")
        )
        if spec.key() != key:
            raise StoreError(
                f"orphan {key}: spec content hashes to {spec.key()}"
            )
        history_from_json((unit_dir / _HISTORY_FILE).read_text(encoding="utf-8"))
        json.loads((unit_dir / _RESULT_FILE).read_text(encoding="utf-8"))
        checksums = {}
        for filename in (_SPEC_FILE, _HISTORY_FILE, _RESULT_FILE, _TELEMETRY_FILE):
            path = unit_dir / filename
            if path.exists():
                checksums[filename] = _sha256(path.read_bytes())
        self.put_entry(key, {"name": spec.name, "files": checksums})

    def doctor(self, repair: bool = False) -> StoreHealthReport:
        """Diagnose — and with ``repair=True``, heal — this store.

        Diagnosis covers a missing index, corrupt recorded units
        (checksum/key mismatches) and orphan unit directories.  Repair
        never retrains anything: it rebuilds a missing index from the
        campaign binding, adopts orphan directories that are fully
        self-consistent (recomputing their checksums), and quarantines
        everything else — corrupt recorded units are evicted to
        ``quarantine/<key>/artifacts`` with a non-terminal failure
        record, so a subsequent ``campaign run`` retrains exactly the
        evicted units and nothing more.

        Meaningful for stores at rest: a campaign writing concurrently
        makes units mid-checkpoint look like orphans.
        """
        report = StoreHealthReport(repaired=bool(repair))
        if not (self.root / _CAMPAIGN_FILE).exists():
            report.problems.append(
                f"{_CAMPAIGN_FILE} missing — store is not recoverable "
                "(the campaign binding cannot be reconstructed)"
            )
            report.healthy = False
            return report
        campaign = self.campaign()
        if not self._index_exists():
            report.problems.append(f"{self.index_filename} missing")
            if repair:
                with self._lock():
                    if not self._index_exists():
                        self._index_create(campaign)
                report.actions.append(
                    "rebuilt empty manifest from campaign binding"
                )
            else:
                report.healthy = False
                return report
        entries = self._index_entries()
        report.checked = len(entries)
        for key, entry in entries.items():
            unit_problems = self.verify_unit(key, entry)
            if not unit_problems:
                continue
            report.problems.extend(unit_problems)
            if repair:
                self.quarantine_unit(key)
                # Not a *terminal* record: the eviction grants the unit
                # back to the next `campaign run`, which retrains it.
                self.record_failure(
                    key,
                    {
                        "unit": entry.get("name", key),
                        "kind": "corrupt-artifact",
                        "error": "; ".join(unit_problems),
                        "traceback": None,
                        "spool_tail": None,
                        "quarantined": False,
                    },
                )
                report.quarantined.append(key)
                report.actions.append(f"quarantined corrupt unit {key}")
        for key in self.orphan_unit_keys():
            report.problems.append(
                f"{key}: orphan unit directory (on disk but not in manifest)"
            )
            if not repair:
                continue
            try:
                self._adopt_orphan(key)
            except (StoreError, ValueError, OSError, json.JSONDecodeError) as error:
                self.quarantine_unit(key)
                self.record_failure(
                    key,
                    {
                        "unit": key,
                        "kind": "corrupt-artifact",
                        "error": f"unadoptable orphan: {error}",
                        "traceback": None,
                        "spool_tail": None,
                        "quarantined": False,
                    },
                )
                report.quarantined.append(key)
                report.actions.append(f"quarantined unadoptable orphan {key}")
            else:
                report.adopted.append(key)
                report.actions.append(f"adopted orphan unit {key} into manifest")
        if repair:
            report.healthy = self.verify().healthy
        else:
            report.healthy = not report.problems
        return report

