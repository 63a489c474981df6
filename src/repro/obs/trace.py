"""Structured tracing: monotonic-clock spans with parent/child nesting.

A **span** is one timed unit of work — an HMN stage, one routing
search, one BatchRunner cell, one chaos repair transaction — recorded
as a plain dict with a fixed schema:

``id``
    Integer, unique within one trace, assigned in *start* order.
``parent``
    Id of the enclosing span, or ``None`` for a root.
``name``
    Dotted event name (``hmn.map``, ``route.query``, ``batch.cell``,
    ``chaos.event`` ...).
``t0`` / ``dur``
    Start offset and duration in seconds on the **monotonic** clock
    (:func:`time.perf_counter`), relative to the tracer's origin.
    Offsets from different processes share no origin — compare spans
    within one ``pid`` only.
``pid``
    OS process id that recorded the span (worker spans keep theirs
    when merged into a parent trace).
``attrs``
    Free-form JSON-safe details (engine, cache hit, retries, ...).

The two recorder implementations share one duck-typed surface:

* :class:`Tracer` — records spans in memory, optionally feeds a
  :class:`~repro.obs.metrics.MetricsRegistry`, and serializes to JSONL
  (one span dict per line) via :meth:`Tracer.write`.
* :class:`NullRecorder` — the disabled fast path.  ``enabled`` is a
  *class* attribute set to ``False`` and every method is a no-op; hot
  loops guard their instrumentation with a single
  ``if rec.enabled:`` attribute check and pay nothing else.

Worker processes each build a private :class:`Tracer`; the parent
merges the finished span lists back with :meth:`Tracer.adopt`, which
renumbers ids (preserving the intra-worker parent/child shape) in the
deterministic order the caller supplies — cell order for grid sweeps,
never completion order — so a parallel run's trace is a stable
function of the workload, not of scheduling.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

__all__ = [
    "SPAN_REQUIRED_KEYS",
    "Span",
    "Tracer",
    "NullRecorder",
    "load_trace",
    "validate_trace",
]

#: Every span line must carry these keys (the trace-schema contract the
#: CI smoke validates; ``id``/``pid``/``attrs`` are present too but the
#: four below are what downstream readers may rely on).
SPAN_REQUIRED_KEYS = ("name", "t0", "dur", "parent")


class Span:
    """A live span handle: mutate :attr:`attrs` until the ``with``
    block exits, at which point ``dur`` is fixed and the span is
    immutable for all practical purposes."""

    __slots__ = ("_tracer", "_record", "_start")

    def __init__(self, tracer: "Tracer", record: dict[str, Any], start: float) -> None:
        self._tracer = tracer
        self._record = record
        self._start = start

    @property
    def id(self) -> int:
        return self._record["id"]

    @property
    def attrs(self) -> dict[str, Any]:
        return self._record["attrs"]

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (chainable): ``sp.set(feasible=False)``."""
        self._record["attrs"].update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._record["dur"] = time.perf_counter() - self._start
        if exc_type is not None:
            self._record["attrs"].setdefault("error", exc_type.__name__)
        self._tracer._pop(self._record["id"])


class _NullSpan:
    """Shared no-op span: absorbs every interaction, costs nothing."""

    __slots__ = ()

    attrs: dict[str, Any] = {}
    id: int | None = None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled observability fast path.

    ``enabled`` is ``False`` at *class* level so the hot-loop guard
    ``if rec.enabled:`` resolves through the type without touching the
    instance dict; every method exists so call sites never need a
    second kind of check.
    """

    __slots__ = ()

    enabled: bool = False
    metrics = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def count(self, name: str, value: float = 1.0, **labels: Any) -> None:
        return None

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        return None

    def observe(self, name: str, value: float, **labels: Any) -> None:
        return None

    def adopt(self, spans: Iterable[dict], parent: int | None = None) -> None:
        return None

    def __repr__(self) -> str:
        return "<NullRecorder>"


class Tracer:
    """In-memory span recorder with JSONL serialization.

    Parameters
    ----------
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` that
        :meth:`count` / :meth:`gauge` / :meth:`observe` forward to, so
        one recorder handle carries both signals.

    Spans nest by *dynamic* extent: :meth:`span` makes the new span a
    child of the innermost still-open span of this tracer.  The tracer
    is process-local and single-threaded by design (worker processes
    get their own and are merged after the fact with :meth:`adopt`).
    """

    __slots__ = ("spans", "metrics", "_origin", "_next_id", "_stack")

    enabled: bool = True

    def __init__(self, metrics=None) -> None:
        self.spans: list[dict[str, Any]] = []
        self.metrics = metrics
        self._origin = time.perf_counter()
        self._next_id = 0
        self._stack: list[int] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span; use as a context manager to time its extent."""
        now = time.perf_counter()
        record = {
            "id": self._next_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "t0": now - self._origin,
            "dur": 0.0,
            "pid": os.getpid(),
            "attrs": dict(attrs),
        }
        self._next_id += 1
        self.spans.append(record)
        self._stack.append(record["id"])
        return Span(self, record, now)

    def event(self, name: str, **attrs: Any) -> None:
        """A zero-duration span (point-in-time annotation)."""
        with self.span(name, **attrs):
            pass

    def _pop(self, span_id: int) -> None:
        # Exits happen in LIFO order under the context-manager protocol;
        # tolerate a mismatched id rather than corrupt the stack.
        if self._stack and self._stack[-1] == span_id:
            self._stack.pop()
        elif span_id in self._stack:  # pragma: no cover - defensive
            self._stack.remove(span_id)

    # ------------------------------------------------------------------
    # metrics forwarding
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1.0, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc(value)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name, **labels).observe(value)

    # ------------------------------------------------------------------
    # merging + serialization
    # ------------------------------------------------------------------
    def adopt(self, spans: Iterable[dict], parent: int | None = None) -> None:
        """Merge a finished child trace (a worker's span list) into this
        one.

        Ids are renumbered into this tracer's sequence and parent links
        remapped; spans that were roots in the child become children of
        *parent* (or stay roots).  Call in a deterministic order — the
        merged trace is exactly as stable as the order of adoption.
        """
        id_map: dict[int, int] = {}
        for rec in spans:
            new = dict(rec)
            new["attrs"] = dict(rec.get("attrs", {}))
            id_map[rec["id"]] = new["id"] = self._next_id
            self._next_id += 1
            old_parent = rec.get("parent")
            new["parent"] = id_map.get(old_parent, parent) if old_parent is not None else parent
            self.spans.append(new)

    def write(self, path: str | Path) -> Path:
        """Serialize the trace as JSONL (one span per line, id order)."""
        path = Path(path)
        with path.open("w") as fh:
            for rec in sorted(self.spans, key=lambda r: r["id"]):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return path

    def __repr__(self) -> str:
        open_spans = len(self._stack)
        return f"<Tracer: {len(self.spans)} spans ({open_spans} open)>"


# ----------------------------------------------------------------------
# reading + validation
# ----------------------------------------------------------------------
def load_trace(path: str | Path) -> list[dict[str, Any]]:
    """Read a JSONL trace back into span dicts (validates the schema)."""
    spans = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            spans.append(rec)
    errors = validate_trace(spans)
    if errors:
        raise ValueError(f"{path}: invalid trace: " + "; ".join(errors[:5]))
    return spans


def validate_trace(spans: Sequence[dict]) -> list[str]:
    """Check span dicts against the schema; returns human-readable
    problems (empty list == valid).

    Validated: required keys present and typed, ids unique, every
    non-null parent resolves to a span in the same trace.
    """
    errors: list[str] = []
    seen_ids: set = set()
    for i, rec in enumerate(spans):
        if not isinstance(rec, dict):
            errors.append(f"span {i}: not an object")
            continue
        for key in SPAN_REQUIRED_KEYS:
            if key not in rec:
                errors.append(f"span {i}: missing {key!r}")
        if not isinstance(rec.get("name"), str) or not rec.get("name"):
            errors.append(f"span {i}: name must be a non-empty string")
        for key in ("t0", "dur"):
            value = rec.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"span {i}: {key} must be a number")
            elif value < 0:
                errors.append(f"span {i}: {key} must be >= 0")
        parent = rec.get("parent")
        if parent is not None and not isinstance(parent, int):
            errors.append(f"span {i}: parent must be an int or null")
        span_id = rec.get("id")
        if span_id is not None:
            if span_id in seen_ids:
                errors.append(f"span {i}: duplicate id {span_id}")
            seen_ids.add(span_id)
    for i, rec in enumerate(spans):
        if not isinstance(rec, dict):
            continue
        parent = rec.get("parent")
        if isinstance(parent, int) and parent not in seen_ids:
            errors.append(f"span {i}: parent {parent} not in trace")
    return errors
