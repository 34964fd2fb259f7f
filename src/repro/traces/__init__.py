"""Trace capture, replay and multi-programmed mixes.

This package decouples *input preparation* from *experimentation*:

* :mod:`~repro.traces.format` — the compact ``.npz``-backed trace
  container (parallel per-access arrays + JSON header with a SHA-256
  content fingerprint), memory-mapped on read;
* :mod:`~repro.traces.recorder` — :class:`TraceRecorder` freezes any
  workload's chunked stream to disk, once;
* :mod:`~repro.traces.replay` — :class:`TraceReplayWorkload` streams a
  recording back through the simulator, bit-identical to live generation;
* :mod:`~repro.traces.mix` — :class:`MixWorkload` composes
  multi-programmed scenarios (disjoint core groups, disjoint address
  bands, proportional deterministic interleave).

Everything here implements or consumes the ordinary
:class:`~repro.workloads.base.Workload` interface, so the engine
(``RunSpec.trace`` / ``RunSpec.mix``), the experiment drivers and the
``repro-run trace``/``repro-run mix`` CLI verbs all compose freely.
"""

from repro.traces.format import TRACE_FORMAT_VERSION, TraceFile, TraceHeader, write_trace
from repro.traces.mix import PROGRAM_STRIDE_BITS, MixWorkload, parse_mix
from repro.traces.recorder import TraceRecorder, accesses_for_run
from repro.traces.replay import TraceReplayWorkload

__all__ = [
    "TRACE_FORMAT_VERSION",
    "TraceFile",
    "TraceHeader",
    "write_trace",
    "TraceRecorder",
    "accesses_for_run",
    "TraceReplayWorkload",
    "MixWorkload",
    "parse_mix",
    "PROGRAM_STRIDE_BITS",
]
