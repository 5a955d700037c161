"""Process-level chaos harness: deterministic saboteurs for campaign units.

:mod:`repro.faults.models` injects faults *inside* a federated round —
clients crash, uploads corrupt, batteries die — but the campaign layer
has its own failure surface: whole worker *processes* segfault, hang,
get OOM-killed, or tear artifact writes.  This module provides the
deterministic saboteurs the ``chaos_smoke`` acceptance suite drives
through the supervised campaign runtime:

* ``crash`` — raise :class:`ChaosError` for the first N attempts, then
  let the unit succeed (models a transient failure a retry absorbs);
* ``hang`` — sleep instead of training, so only the watchdog's deadline
  or heartbeat-staleness detection can reclaim the worker;
* ``kill`` — ``SIGKILL`` the worker's own process mid-unit (models a
  segfault or the kernel OOM killer: no exception, no cleanup, the
  executor's pool breaks);
* ``corrupt`` — flip bytes in a written artifact after the store
  recorded its checksum (models a torn write; caught by the runner's
  verify-after-write pass);
* ``interrupt`` — raise :class:`KeyboardInterrupt`, simulating Ctrl-C
  landing mid-unit (the hook the killed-mid-retry resume test uses).

Saboteurs are pure functions of ``(unit name match, attempt number)``:
given the same plan and the same attempt sequence they misbehave
identically, which is what lets chaos tests assert byte-identical
artifacts and exact attempt counts across interrupted and uninterrupted
runs.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass

__all__ = ["ChaosError", "Saboteur", "ChaosPlan"]

_KINDS = ("crash", "hang", "kill", "corrupt", "interrupt")

# Deterministic garbage for "corrupt": recognisable in a hex dump and a
# guaranteed checksum mismatch against any JSON artifact.
_CORRUPT_BYTES = b"\x00CHAOS\x00"


class ChaosError(RuntimeError):
    """A saboteur deliberately crashed a campaign unit."""


@dataclass(frozen=True)
class Saboteur:
    """One deterministic misbehaviour, applied per unit attempt.

    Attributes:
        kind: ``crash`` | ``hang`` | ``kill`` | ``corrupt`` |
            ``interrupt``.
        times: act on attempts ``0 .. times-1``; ``-1`` means every
            attempt (an unrecoverable unit).
        hang_s: how long a ``hang`` sleeps.  A safety bound, not a
            behaviour knob — set it above the watchdog deadline under
            test but low enough that a broken watchdog fails the test
            instead of wedging the suite.
    """

    kind: str
    times: int = 1
    hang_s: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown saboteur kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.times < -1:
            raise ValueError(f"times must be >= -1; got {self.times}")
        if self.hang_s <= 0:
            raise ValueError(f"hang_s must be positive; got {self.hang_s}")

    def should_act(self, attempt: int) -> bool:
        """Whether this saboteur misbehaves on ``attempt`` (0-based)."""
        if self.times < 0:
            return True
        return attempt < self.times

    def on_start(self, attempt: int) -> None:
        """Pre-training sabotage: crash, hang, kill, or interrupt."""
        if not self.should_act(attempt):
            return
        if self.kind == "crash":
            raise ChaosError(
                f"chaos: deliberate crash on attempt {attempt}"
            )
        if self.kind == "interrupt":
            raise KeyboardInterrupt(
                f"chaos: deliberate interrupt on attempt {attempt}"
            )
        if self.kind == "hang":
            # Sleep in small slices so a hard cancel's interrupt can
            # still unwind this frame; SIGKILL needs no cooperation.
            deadline = time.monotonic() + self.hang_s
            while time.monotonic() < deadline:
                time.sleep(0.1)
            raise ChaosError(
                f"chaos: hang survived {self.hang_s}s without being killed"
            )
        if self.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)

    def corrupt_artifacts(self, unit_dir, attempt: int) -> None:
        """Post-write sabotage: tear bytes in the recorded history file."""
        if self.kind != "corrupt" or not self.should_act(attempt):
            return
        target = unit_dir / "history.json"
        if not target.exists():  # pragma: no cover - defensive
            return
        data = bytearray(target.read_bytes())
        garbage = (_CORRUPT_BYTES * (len(data) // len(_CORRUPT_BYTES) + 1))[
            : min(len(data), 64)
        ]
        data[: len(garbage)] = garbage
        target.write_bytes(bytes(data))

    def to_dict(self) -> dict:
        """Plain-type dict form; inverse of :meth:`from_dict`."""
        return {
            "kind": self.kind,
            "times": int(self.times),
            "hang_s": float(self.hang_s),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Saboteur":
        """Rebuild a saboteur from :meth:`to_dict` output."""
        try:
            return cls(
                kind=str(data["kind"]),
                times=int(data.get("times", 1)),
                hang_s=float(data.get("hang_s", 60.0)),
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed saboteur {data!r}: {error}") from None


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic assignment of saboteurs to campaign units.

    Units are matched by *name substring* — campaign unit names embed
    their grid coordinates (``K2-E4-s0`` …), so a token like ``"K2-E4"``
    pins a saboteur to exactly one grid cell without hard-coding content
    keys.  The first matching token (in declaration order) wins.
    """

    saboteurs: tuple[tuple[str, Saboteur], ...] = ()

    @classmethod
    def build(cls, mapping: dict[str, Saboteur]) -> "ChaosPlan":
        """Plan from a ``{name-token: saboteur}`` mapping."""
        return cls(saboteurs=tuple(mapping.items()))

    def saboteur_for(self, unit_name: str) -> Saboteur | None:
        """The saboteur assigned to ``unit_name``, or ``None``."""
        for token, saboteur in self.saboteurs:
            if token in unit_name:
                return saboteur
        return None

    def to_dict(self) -> dict:
        """Plain-type dict form; inverse of :meth:`from_dict`."""
        return {
            "saboteurs": [
                {"match": token, **saboteur.to_dict()}
                for token, saboteur in self.saboteurs
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        try:
            entries = data["saboteurs"]
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed chaos plan {data!r}: {error}") from None
        saboteurs = []
        for entry in entries:
            if "match" not in entry:
                raise ValueError(f"chaos entry missing 'match': {entry!r}")
            saboteurs.append((str(entry["match"]), Saboteur.from_dict(entry)))
        return cls(saboteurs=tuple(saboteurs))

    def to_json(self, indent: int | None = None) -> str:
        """JSON form; inverse of :meth:`from_json`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        """Rebuild a plan from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
