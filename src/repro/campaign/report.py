"""Campaign aggregation: tables and grids from stored artifacts alone.

Everything here reads the campaign store through its repository API
(:class:`~repro.campaign.repository.CampaignRepository`) and nothing
else — no trainer, no prototype, no randomness — so a
finished (or half-finished) campaign can be re-analysed arbitrarily
often without re-running a single round of training.  That is the
workflow the paper's figures imply: run the expensive ``(K, E)`` sweep
once, then slice it.

* :func:`load_rows` — flatten every completed unit into one plain-dict
  row (the measurement snapshot plus the axis coordinates).
* :meth:`CampaignReport.energy_grid` — the Fig. 5/6 object: mean energy
  per ``(K, E)`` cell, seed-averaged, ``None`` where no run reached the
  target.
* :meth:`CampaignReport.best_plan` — the empirical ``(K*, E*)`` cell,
  i.e. the paper's headline extraction (the 49.8 % saving is this cell
  compared against ``(K=1, E=1)``).
* :meth:`CampaignReport.render` — the CLI's text report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.store import ArtifactStore
from repro.experiments.report import format_percent, render_table
from repro.obs.aggregate import CampaignTelemetry

__all__ = ["CampaignReport", "campaign_telemetry", "load_rows"]


def campaign_telemetry(store: ArtifactStore) -> CampaignTelemetry:
    """Fold every completed unit's stored telemetry into one reducer.

    Units that ran without telemetry contribute nothing; the returned
    :class:`~repro.obs.aggregate.CampaignTelemetry` is empty when the
    whole campaign ran dark.  Like everything in this module it reads
    the store alone — the campaign-wide energy ledger is reproducible
    from artifacts long after the worker processes are gone.
    """
    telemetry = CampaignTelemetry(store.campaign().name)
    for artifact in store.units():
        records = artifact.telemetry_records()
        if records is not None:
            telemetry.add_unit(
                artifact.key, artifact.name, records, artifact.result()
            )
    return telemetry


def load_rows(store: ArtifactStore) -> list[dict]:
    """One plain-dict row per completed unit, in index (key) order.

    Each row is the unit's ``result.json`` measurement snapshot with
    its content ``key`` added — everything the aggregations below need,
    without parsing the (much larger) per-round histories.
    """
    rows = []
    for artifact in store.units():
        row = dict(artifact.result())
        row["key"] = artifact.key
        rows.append(row)
    return rows


@dataclass(frozen=True)
class CampaignReport:
    """Aggregated view over one campaign's completed units.

    Build with :meth:`from_store`; all methods are pure functions of
    the loaded rows.
    """

    campaign_name: str
    rows: tuple[dict, ...]
    quarantined: tuple[dict, ...] = ()

    @classmethod
    def from_store(cls, store: ArtifactStore) -> "CampaignReport":
        """Load every completed unit's measurements from ``store``.

        Quarantined units contribute no measurement rows, but the
        report names them (with attempt counts and the last recorded
        error) so a degraded campaign can't masquerade as a complete
        one.
        """
        quarantined = []
        for key in sorted(store.quarantined_keys()):
            records = store.failure_records(key)
            last = records[-1] if records else {}
            quarantined.append(
                {
                    "key": key,
                    "name": last.get("unit", key),
                    "attempts": len(records),
                    "last_kind": last.get("kind", "?"),
                    "last_error": last.get("error", "?"),
                }
            )
        return cls(
            campaign_name=store.campaign().name,
            rows=tuple(load_rows(store)),
            quarantined=tuple(quarantined),
        )

    # ------------------------------------------------------------------
    # Aggregations.
    # ------------------------------------------------------------------
    def energy_grid(self) -> dict[tuple[int, int], float | None]:
        """Seed-averaged total energy per ``(K, E)`` cell.

        A cell is ``None`` when none of its runs reached the accuracy
        target (infeasible, matching the dashes in Figs. 5-6); runs in
        fixed-budget mode (``train_to_target=False``) always count.
        """
        sums: dict[tuple[int, int], list[float]] = {}
        seen: set[tuple[int, int]] = set()
        for row in self.rows:
            cell = (int(row["participants"]), int(row["epochs"]))
            seen.add(cell)
            if row["reached_target"] or not row.get("train_to_target", True):
                sums.setdefault(cell, []).append(float(row["total_energy_j"]))
        grid: dict[tuple[int, int], float | None] = {}
        for cell in seen:
            values = sums.get(cell)
            grid[cell] = sum(values) / len(values) if values else None
        return grid

    def energy_vs_participants(
        self, epochs: int
    ) -> dict[int, float | None]:
        """Fig. 5's series: ``K -> mean energy`` at fixed ``E``."""
        return {
            k: energy
            for (k, e), energy in sorted(self.energy_grid().items())
            if e == epochs
        }

    def energy_vs_epochs(self, participants: int) -> dict[int, float | None]:
        """Fig. 6's series: ``E -> mean energy`` at fixed ``K``."""
        return {
            e: energy
            for (k, e), energy in sorted(self.energy_grid().items())
            if k == participants
        }

    def best_plan(self) -> tuple[int, int] | None:
        """The feasible ``(K, E)`` cell with the lowest mean energy."""
        feasible = {
            cell: energy
            for cell, energy in self.energy_grid().items()
            if energy is not None
        }
        if not feasible:
            return None
        return min(feasible, key=feasible.__getitem__)

    def savings_vs(self, baseline: tuple[int, int] = (1, 1)) -> float | None:
        """Energy saving of the best cell vs a baseline cell.

        The paper's headline is this number with the default baseline:
        49.8 % saved at ``(K*, E*)`` relative to ``(K=1, E=1)``.
        Returns ``None`` when either cell is missing or infeasible.
        """
        grid = self.energy_grid()
        best = self.best_plan()
        if best is None:
            return None
        base_energy = grid.get(baseline)
        if base_energy is None or base_energy <= 0:
            return None
        return 1.0 - grid[best] / base_energy

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Full text report: per-unit table, energy grid, headline."""
        unit_rows = [
            [
                row["name"],
                row["backend"],
                row["rounds"],
                f"{row['total_energy_j']:.3f}",
                f"{row['wasted_energy_j']:.3f}",
                f"{row['final_accuracy']:.3f}",
                "yes" if row["reached_target"] else "-",
                row["degraded_rounds"],
            ]
            for row in self.rows
        ]
        units_table = render_table(
            [
                "unit",
                "backend",
                "rounds",
                "energy (J)",
                "wasted (J)",
                "final acc",
                "hit target",
                "degraded",
            ],
            unit_rows,
            title=(
                f"Campaign {self.campaign_name!r} — "
                f"{len(self.rows)} completed units"
            ),
        )
        grid = self.energy_grid()
        e_values = sorted({e for _, e in grid})
        k_values = sorted({k for k, _ in grid})
        grid_rows = []
        for k in k_values:
            cells = [
                f"{grid[(k, e)]:.3f}" if grid.get((k, e)) is not None else "-"
                for e in e_values
            ]
            grid_rows.append([k, *cells])
        grid_table = render_table(
            ["K \\ E", *(f"E={e}" for e in e_values)],
            grid_rows,
            title="Mean energy (J) per (K, E) cell — Fig. 5/6 grid",
        )
        lines = [units_table, "", grid_table]
        if self.quarantined:
            quarantine_rows = [
                [
                    entry["name"],
                    entry["attempts"],
                    entry["last_kind"],
                    entry["last_error"],
                ]
                for entry in self.quarantined
            ]
            lines += [
                "",
                render_table(
                    ["unit", "attempts", "kind", "last error"],
                    quarantine_rows,
                    title=(
                        f"QUARANTINED — {len(self.quarantined)} unit(s) "
                        "excluded from every aggregate above"
                    ),
                ),
            ]
        best = self.best_plan()
        if best is not None:
            lines.append(
                f"best plan: K={best[0]}, E={best[1]} "
                f"({grid[best]:.3f} J)"
            )
            savings = self.savings_vs()
            if savings is not None:
                lines.append(
                    "saving vs (K=1, E=1) baseline (paper: 49.8%): "
                    + format_percent(savings)
                )
        return "\n".join(lines)
