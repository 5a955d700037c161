"""The campaign repository API: protocol, factory, and legacy import.

This module is the *contract* layer of campaign storage.  Runners,
schedulers, status monitors, reports, and the CLI program against
:class:`CampaignRepository` — the structural protocol the store
satisfies — and open stores through :func:`open_store`.  The one
implementation is :class:`~repro.campaign.store.ArtifactStore`, whose
completed-unit index is a WAL-mode SQLite ``manifest.db``.

:func:`migrate_store` imports a store whose index is a legacy
``manifest.json`` document into a new directory.  Artifact bytes are
copied verbatim and the index is rebuilt from the manifest's recorded
checksums, so the imported store's logical index digest equals the
digest of the legacy document.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Protocol, runtime_checkable

from repro.campaign.spec import CampaignSpec, RunSpec
from repro.campaign.store import (
    ArtifactStore,
    StoreError,
    StoreHealthReport,
    UnitArtifact,
    _LEGACY_MANIFEST_FILE,
    _LOCK_FILE,
    _MANIFEST_SCHEMA,
    _sha256,
)
from repro.fl.metrics import TrainingHistory

__all__ = [
    "CampaignRepository",
    "MigrationResult",
    "open_store",
    "migrate_store",
]


@runtime_checkable
class CampaignRepository(Protocol):
    """What campaign storage looks like to everything above it.

    A structural protocol (``isinstance`` works, subclassing is not
    required): any object with these methods can back a campaign.  The
    semantics each implementation must honour:

    * **Completion is atomic.** A unit is either listed with all its
      artifact checksums or absent; :meth:`put` writes artifacts first
      and the index entry last.
    * **Content-addressed.** Keys are ``RunSpec.key()`` content hashes;
      the same spec always lands in the same slot, which is what makes
      kill-and-resume and parallel-vs-sequential runs converge on
      byte-identical stores.
    * **Verifiable.** :meth:`verify` re-hashes every recorded artifact
      against the index; :meth:`doctor` additionally heals (rebuilds a
      missing index, adopts self-consistent orphans, quarantines the
      rest).  Both return the same typed
      :class:`~repro.campaign.store.StoreHealthReport`.
    """

    def initialize(self, campaign: CampaignSpec) -> None:
        """Bind the store to ``campaign``; no-op on same-key resume."""
        ...

    def campaign(self) -> CampaignSpec:
        """The campaign this store was initialised with."""
        ...

    def contains(self, key: str) -> bool:
        """Whether the unit with content key ``key`` is complete."""
        ...

    def keys(self, prefix: str | None = None) -> list[str]:
        """Sorted completed-unit keys, optionally prefix-filtered."""
        ...

    def get(self, key: str) -> UnitArtifact:
        """Handle onto one completed unit (raises if incomplete)."""
        ...

    def put(
        self,
        spec: RunSpec,
        history: TrainingHistory,
        result: dict,
        telemetry_jsonl: str | None = None,
    ) -> str:
        """Persist one completed unit; return its content key."""
        ...

    def iter_units(self) -> Iterator[UnitArtifact]:
        """Handles onto every completed unit, in key order."""
        ...

    def verify(self) -> StoreHealthReport:
        """Re-hash every recorded artifact; report integrity problems."""
        ...

    def doctor(self, repair: bool = False) -> StoreHealthReport:
        """Diagnose (and with ``repair=True`` heal) the store."""
        ...

    def close(self) -> None:
        """Release any held resources (idempotent)."""
        ...


def open_store(
    root: str | Path, backend: str | None = None
) -> ArtifactStore:
    """Open the campaign store at ``root``; the repository entry point.

    Equivalent to ``ArtifactStore(root)`` — this spelling exists so
    callers can program against :class:`CampaignRepository` without
    importing a concrete class.  ``backend`` is accepted for callers
    that name the index format; it must be ``None`` or ``"sqlite"``.
    """
    if backend not in (None, "sqlite"):
        raise StoreError(
            f"unknown store backend {backend!r}: the store index is "
            "SQLite; import a legacy manifest.json store with "
            "'campaign migrate'"
        )
    return ArtifactStore(root)


@dataclass(frozen=True)
class MigrationResult:
    """What :func:`migrate_store` did.

    Attributes:
        source: root of the legacy store imported from.
        destination: root of the store created.
        units: completed-unit entries carried over.
        files_copied: artifact/runtime files copied verbatim.
        index_digest: logical index digest shared by the legacy
            manifest and the new index — the import fails loudly
            rather than return with the digests unequal.
    """

    source: Path
    destination: Path
    units: int
    files_copied: int
    index_digest: str

    def render(self) -> str:
        """One-paragraph summary for the ``campaign migrate`` CLI."""
        return (
            f"imported {self.source} ({_LEGACY_MANIFEST_FILE}) -> "
            f"{self.destination}: "
            f"{self.units} unit(s), {self.files_copied} file(s) copied, "
            f"index digest {self.index_digest[:12]}"
        )


def _read_legacy_manifest(source: Path) -> dict:
    path = source / _LEGACY_MANIFEST_FILE
    if not path.exists():
        raise StoreError(
            f"no campaign store with a legacy {_LEGACY_MANIFEST_FILE} "
            f"at {source}"
        )
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise StoreError(f"corrupt manifest {path}: {error}") from None
    if manifest.get("schema") != _MANIFEST_SCHEMA:
        raise StoreError(
            f"unexpected manifest schema {manifest.get('schema')!r}"
        )
    return manifest


def migrate_store(
    source: str | Path, destination: str | Path
) -> MigrationResult:
    """Import the legacy ``manifest.json`` store at ``source``.

    Everything except the index is copied byte-for-byte — ``units/``,
    ``campaign.json``, and the ``quarantine/`` failure trail (attempt
    counters must survive the import or resumed campaigns would restart
    retry budgets).  Runtime droppings that only describe a *live* run
    are left behind: the ``.lock`` file, ``heartbeats/``, ``spools/``,
    and the legacy ``manifest.json`` itself.  The SQLite index is then
    built in one batch from the manifest's entries, keeping their
    recorded checksums: they are the values that detect corruption, so
    a unit byte changed after the manifest recorded it still fails
    ``verify()``.  Finally the new index digest is compared with the
    digest of the legacy document — a mismatch raises
    :class:`~repro.campaign.store.StoreError`.

    ``destination`` must not already contain a store (or anything
    else); the import never merges.  The source is read-only
    throughout, so a failed or interrupted import costs nothing but the
    partial destination directory.
    """
    source = Path(source)
    destination = Path(destination)
    manifest = _read_legacy_manifest(source)
    if destination.resolve() == source.resolve():
        raise StoreError("migration destination must differ from the source")
    if destination.exists() and any(destination.iterdir()):
        raise StoreError(
            f"migration destination {destination} is not empty; "
            "refusing to merge into an existing directory"
        )

    skip_names = {_LOCK_FILE, _LEGACY_MANIFEST_FILE, "heartbeats", "spools"}
    destination.mkdir(parents=True, exist_ok=True)
    files_copied = 0
    for item in sorted(source.iterdir()):
        if item.name in skip_names:
            continue
        target = destination / item.name
        if item.is_dir():
            shutil.copytree(item, target)
            files_copied += sum(1 for p in target.rglob("*") if p.is_file())
        else:
            shutil.copy2(item, target)
            files_copied += 1

    store = ArtifactStore(destination)
    with store._lock():
        store._index_create(store.campaign())
    store.bulk_put_entries(manifest["units"])

    legacy_digest = _sha256(
        json.dumps(manifest, sort_keys=True).encode("utf-8")
    )
    digest = store.index_digest()
    if digest != legacy_digest:
        raise StoreError(
            f"import produced a different logical index "
            f"(legacy {legacy_digest[:12]}, imported {digest[:12]})"
        )
    return MigrationResult(
        source=source,
        destination=destination,
        units=len(manifest["units"]),
        files_copied=files_copied,
        index_digest=digest,
    )
