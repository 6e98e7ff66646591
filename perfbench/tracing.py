"""Span recording around the public functions of each mmlink layer.

A Tracer replaces module (and class) attributes with wrappers for the
duration of one traced run and restores them afterwards, so the timed run
executes the program untouched. Spans stay in memory and are written out
when the run ends. Everything runs in one thread: child spans of a span
never overlap, and the parent of a new span is the innermost open one.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "mmlink"

# (module, attribute path) of every wrapped function, in layer order.
LAYERS = (
    ("montecarlo", "run_sweep"),
    ("montecarlo", "run_realization"),
    ("core", "SeedTree.rng"),
    ("core", "validate_config"),
    ("channel", "synthesize_band"),
    ("channel", "JakesProcess.gains"),
    ("channel", "stochastic_channel"),
    ("channel", "los_sequence"),
    ("pilots", "build_pilot_grid"),
    ("pilots", "transmit_training"),
    ("estimation", "ls_estimate"),
    ("estimation", "estimate_k_factor"),
    ("estimation", "estimate_angles"),
    ("estimation", "oob_aided_estimate"),
    ("combining", "combine_mrc"),
    ("transceiver", "design_link"),
    ("transceiver", "waterfill_power"),
    ("metrics", "evaluate_link"),
    ("metrics", "perfect_gain_diagonals"),
)

# Functions whose spans are reported per band, keyed by the positional
# index of their band argument.
BAND_ARG = {"channel.synthesize_band": 1}


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "id": self.span_id,
                "name": self.name,
                "parent": self.parent,
                "start": self.start,
                "end": self.end,
                **self.attrs,
            }
        )


class Tracer:
    """Records one span per call of each wrapped function.

    layers is the subset of LAYERS to wrap (all of them by default).
    observers maps a layer name ("module.function") to a callable
    (span, args, result) run after the span has ended; it may add
    attributes to the span or keep samples of the call.
    """

    def __init__(self, observers: dict | None = None, layers=LAYERS):
        self.spans: list[Span] = []
        self._layers = layers
        self._open: list[int] = []
        self._observers = observers or {}

    def _wrap(self, name: str, fn):
        band_arg = BAND_ARG.get(name)
        observer = self._observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if band_arg is not None:
                band = args[band_arg] if len(args) > band_arg else kwargs["band_id"]
                label = f"{name}.{band.value}"
            span = Span(
                span_id=len(self.spans),
                name=label,
                parent=self._open[-1] if self._open else None,
                start=time.perf_counter(),
            )
            self.spans.append(span)
            self._open.append(span.span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if observer is not None:
                observer(span, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the tracer's layers for the duration of the block.

        A function imported by name into another module (for example
        metrics' own binding of transceiver.waterfill_power) is replaced
        there too, so calls through either name are recorded.
        """
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        undo = []
        try:
            for mod_name, path in self._layers:
                owner = sys.modules[f"{PACKAGE}.{mod_name}"]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self._wrap(f"{mod_name}.{path}", original)
                targets = [owner] if outer else modules
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            undo.append((target, key, value))
                            setattr(target, key, wrapper)
            yield self
        finally:
            for target, key, value in reversed(undo):
                setattr(target, key, value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(span.to_json() + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(s.span_id, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[s.span_id] = (s.end - s.start) - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """(calls, summed self seconds) per span name."""
    own = self_times(spans)
    totals: dict[str, tuple[int, float]] = {}
    for s in spans:
        calls, secs = totals.get(s.name, (0, 0.0))
        totals[s.name] = (calls + 1, secs + own[s.span_id])
    return totals
