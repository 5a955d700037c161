"""Outside-in instrumentation of the program's layers.

Nothing inside ``src/`` is edited: every hook here replaces a public
entry point (a class method or a module-level function) with a wrapper,
from the benchmark's own files, before the workload runs.

* :class:`RoundClock` timestamps ``FederatedTrainer.run_round``.  It is
  the only hook in an untraced run; the round boundaries it records
  split each operation into set-up and run time.
* :class:`Recorder` (traced runs only) opens one
  :class:`~repro.obs.tracing.Span` per call of each coarse layer and
  folds hot leaf calls (the Pi energy ledger, ``Observer.emit``,
  ``simulate_upload`` ...) into two attributes on the enclosing span,
  ``<layer>_s`` and ``<layer>_n``, which keeps the trace small and the
  overhead low.

Campaign units run in forked pool workers.  The hooks are installed
before the pool forks, so workers inherit them; a worker notices it is
not the process that installed them and hands its samples to the parent
through files (``rounds-<pid>.jsonl``, ``spans-<pid>.jsonl``) that the
parent merges after the pass.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

from repro.campaign import runner as runner_module
from repro.campaign.store import ArtifactStore
from repro.data import synthetic_mnist
from repro.faults.injector import FaultInjector
from repro.fl import engine, training
from repro.fl.model import LogisticRegressionModel
from repro.fl.sampling import UniformSampler
from repro.fl.server import Coordinator
from repro.hardware import prototype
from repro.hardware.raspberry_pi import RaspberryPiEdgeServer
from repro.obs.observer import Observer
from repro.obs.sink import SpoolObserver, TelemetrySpool
from repro.obs.tracing import Span, Tracer
from repro.perf.cache import EvalCache
from repro.sim.engine import Simulator

_FAULT_INJECTOR_METHODS = (
    "available",
    "crashed",
    "slowdown",
    "corrupts",
    "corrupt_payload",
    "upload_loss_model",
    "channel_rng",
    "record_burst_loss",
    "battery",
    "note_participation",
)
_LEDGER_METHODS = (
    "round_timing",
    "phase_energies",
    "upload_energy",
    "training_duration",
)
_ENGINES = (
    engine.SequentialEngine,
    engine.BatchedEngine,
    engine.PopulationEngine,
    engine.PoolEngine,
)


def _append_line(path: Path, document) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(document) + "\n")


def _drain_lines(directory: Path, pattern: str) -> list:
    """Parse and delete every ``pattern`` JSONL file in ``directory``."""
    documents = []
    for path in sorted(directory.glob(pattern)):
        documents += [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line
        ]
        path.unlink()
    return documents


class RoundClock:
    """Start, end and participant count of every federated round."""

    def __init__(self, spill_dir: Path) -> None:
        self._pid = os.getpid()
        self._spill_dir = spill_dir
        self._rounds: list[tuple[float, float, int]] = []
        original = training.FederatedTrainer.run_round
        clock = self

        @functools.wraps(original)
        def run_round(trainer):
            start = time.perf_counter()
            record = original(trainer)
            clock._note(start, time.perf_counter(), len(record.participants))
            return record

        training.FederatedTrainer.run_round = run_round

    def _note(self, start: float, end: float, participants: int) -> None:
        if os.getpid() == self._pid:
            self._rounds.append((start, end, participants))
        else:
            # perf_counter is CLOCK_MONOTONIC, shared by every process on
            # the host, so worker timestamps line up with the parent's.
            _append_line(
                self._spill_dir / f"rounds-{os.getpid()}.jsonl",
                [start, end, participants],
            )

    def drain(self) -> list[tuple[float, float, int]]:
        """Rounds since the last drain, from this process and its workers."""
        rounds = self._rounds + [
            tuple(r) for r in _drain_lines(self._spill_dir, "rounds-*.jsonl")
        ]
        self._rounds = []
        return sorted(rounds)


class Recorder:
    """Per-layer spans for a traced run (see the module docstring)."""

    def __init__(self, spill_dir: Path) -> None:
        self.tracer = Tracer()
        self._spill_dir = spill_dir
        self._pid = os.getpid()
        self._in_worker = False
        # Open leaf calls: [layer, seconds spent in nested leaf calls].
        self._leaves: list[list] = []

    def _check_fork(self) -> None:
        if os.getpid() != self._pid:
            # A forked worker inherits the parent's open spans; start a
            # fresh forest whose roots are spilled as they close.
            self._pid = os.getpid()
            self._in_worker = True
            self.tracer = Tracer()
            self._leaves = []

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        self._check_fork()
        return self.tracer.span(name)

    def _closed(self, span: Span) -> None:
        if self._in_worker and self.tracer.depth == 0:
            # The worker label puts each worker on its own Chrome track.
            span.attributes["worker"] = os.getpid()
            _append_line(
                self._spill_dir / f"spans-{os.getpid()}.jsonl", span.to_dict()
            )

    def merge_workers(self) -> None:
        """Adopt the root spans worker processes spilled."""
        for document in _drain_lines(self._spill_dir, "spans-*.jsonl"):
            self.tracer.roots.append(Span.from_dict(document))

    def roots(self) -> list[dict]:
        return [root.to_dict() for root in self.tracer.roots]

    # ------------------------------------------------------------------
    # Wrappers.
    # ------------------------------------------------------------------
    def wrap_span(
        self,
        owner,
        attribute: str,
        name: str,
        count: tuple | None = None,
        parent: str | None = None,
        root_only: bool = False,
    ) -> None:
        """Replace ``owner.attribute`` with a version that opens a span.

        ``count=(key, fn)`` stores ``fn(args)`` on the span under
        ``key``.  With ``parent`` the span opens only when that span is
        the innermost open one, and with ``root_only`` only when no span
        is open; otherwise the call runs unwrapped and its time stays in
        the enclosing layer.
        """
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            recorder._check_fork()
            tracer = recorder.tracer
            current = tracer.current
            if (parent is not None and (current is None or current.name != parent)) or (
                root_only and current is not None
            ):
                return original(*args, **kwargs)
            with tracer.span(name) as span:
                if count is not None:
                    span.attributes[count[0]] = count[1](args)
                result = original(*args, **kwargs)
            recorder._closed(span)
            return result

        setattr(owner, attribute, wrapper)

    def wrap_leaf(
        self, owner, attribute: str, layer: str, tally: tuple | None = None
    ) -> None:
        """Replace ``owner.attribute`` with a call folded into its span.

        The call's self time and call count accumulate as
        ``<layer>_s`` / ``<layer>_n`` on the innermost open span; a
        nested leaf call of another layer is subtracted from the outer
        one, and a re-entrant call of the same layer (``super().emit``)
        counts once.  ``tally=(key, fn)`` adds ``fn(result)`` under
        ``key``.
        """
        original = getattr(owner, attribute)
        recorder = self
        clock = time.perf_counter
        seconds_key, calls_key = f"{layer}_s", f"{layer}_n"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            recorder._check_fork()
            leaves = recorder._leaves
            if leaves and leaves[-1][0] == layer:
                return original(*args, **kwargs)
            frame = [layer, 0.0]
            leaves.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                leaves.pop()
                if leaves:
                    leaves[-1][1] += elapsed
            span = recorder.tracer.current
            if span is not None:
                attributes = span.attributes
                attributes[seconds_key] = (
                    attributes.get(seconds_key, 0.0) + elapsed - frame[1]
                )
                attributes[calls_key] = attributes.get(calls_key, 0) + 1
                if tally is not None:
                    attributes[tally[0]] = attributes.get(tally[0], 0) + tally[1](
                        result
                    )
            return result

        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        """Wrap every layer's public entry points."""
        span, leaf = self.wrap_span, self.wrap_leaf
        span(synthetic_mnist, "load_synthetic_mnist", "data.load")
        span(runner_module, "load_synthetic_mnist", "data.load")
        span(runner_module, "execute_unit", "campaign.runner.unit")
        span(prototype.HardwarePrototype, "__init__", "hardware.prototype.init")
        span(prototype, "build_clients", "fl.training.build_clients")
        span(training.FederatedTrainer, "__init__", "fl.training.init")
        # HardwarePrototype.run prices each round in a closure the
        # simulator calls; both count as the prototype's round layer.
        span(prototype.HardwarePrototype, "run", "hardware.prototype.round")
        self._wrap_round_events()
        span(Simulator, "run", "sim.engine.run")
        span(training.FederatedTrainer, "run_round", "fl.training.loop")
        span(UniformSampler, "select", "fl.sampling.select")
        for engine_class in _ENGINES:
            span(
                engine_class,
                "train_round",
                "fl.engine.train",
                count=("fl.engine.clients", lambda args: len(args[1])),
            )
        for method in ("loss", "accuracy"):
            span(
                LogisticRegressionModel,
                method,
                "fl.model.eval",
                count=("fl.model.eval_rows", lambda args: len(args[1])),
                parent="fl.training.loop",
            )
        span(
            Coordinator,
            "aggregate",
            "fl.server.aggregate",
            count=("fl.server.updates", lambda args: len(args[1])),
        )
        span(
            Coordinator,
            "skip_round",
            "fl.server.aggregate",
            count=("fl.server.updates", lambda args: 0),
        )
        leaf(
            EvalCache,
            "lookup",
            "perf.cache.eval",
            tally=("perf.cache.eval_hits", lambda result: result is not None),
        )
        for method in _LEDGER_METHODS:
            leaf(RaspberryPiEdgeServer, method, "hardware.raspberry_pi.ledger")
        leaf(
            training,
            "simulate_upload",
            "faults.upload",
            tally=("faults.upload_attempts", lambda outcome: outcome.attempts),
        )
        for method in _FAULT_INJECTOR_METHODS:
            leaf(FaultInjector, method, "faults.injector")
        leaf(Observer, "emit", "obs.observer.emit")
        leaf(SpoolObserver, "emit", "obs.observer.emit")
        leaf(TelemetrySpool, "append", "obs.sink.spool")
        leaf(TelemetrySpool, "record_event_batch", "obs.sink.spool")
        span(ArtifactStore, "record_unit", "campaign.store.record")
        # Verify-after-write in the worker; the read pass's store.verify()
        # calls verify_unit too, and that time stays in its own span.
        span(
            ArtifactStore,
            "verify_unit",
            "campaign.store.verify_unit",
            root_only=True,
        )

    def _wrap_round_events(self) -> None:
        original = Simulator.schedule
        recorder = self

        @functools.wraps(original)
        def schedule(simulator, delay, action, priority=0, label=""):
            if label == "round-start":
                inner = action

                def action(sim):
                    recorder._check_fork()
                    with recorder.tracer.span("hardware.prototype.round"):
                        inner(sim)

            return original(simulator, delay, action, priority, label)

        Simulator.schedule = schedule
