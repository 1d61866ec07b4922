"""Dynamic slicing for multi-threaded programs (paper Sections 3 and 5).

The pipeline, mirroring the paper's three steps plus the two precision
improvements:

1. **Per-thread local traces** — :class:`~repro.slicing.tracer.TraceCollector`
   attaches to a pinball replay and records, per retired instruction, the
   registers and memory addresses defined/used, the dynamic control-
   dependence parent (Xin-Zhang online algorithm over refined-CFG
   post-dominators), indirect-jump target observations (CFG refinement,
   Section 5.1), and dynamically verified save/restore pairs
   (Section 5.2).
2. **Combined global trace** — :func:`~repro.slicing.global_trace.merge_traces`
   topologically merges the per-thread traces honoring the shared-memory
   access-order edges stored in the pinball, clustering per-thread runs
   for LP locality exactly as the paper describes.
3. **Backward traversal** — :class:`~repro.slicing.slicer.BackwardSlicer`
   recovers the dynamic data and control dependences reachable from the
   criterion, skipping irrelevant trace blocks with the Limited
   Preprocessing (LP) summaries of Zhang et al., optionally bypassing
   save/restore pairs.

By default step 3 is served by the build-once CSR dependence index of
:mod:`repro.slicing.ddg` (``SliceOptions(index="ddg")``): one pass
compiles every dependence edge, then interactive queries are memoized
graph traversals — the LP backward scan remains available as the
``"columnar"`` baseline.

High-level entry point: :class:`~repro.slicing.api.SlicingSession`.
"""

from repro.slicing.options import SliceOptions
from repro.slicing.trace import TraceRecord
from repro.slicing.slice import DynamicSlice
from repro.slicing.global_trace import GlobalTrace, merge_traces
from repro.slicing.ddg import DependenceIndex
from repro.slicing.slicer import BackwardSlicer
from repro.slicing.tracer import TraceCollector
from repro.slicing.api import SlicingSession
from repro.slicing.dual import DualSliceResult, dual_slice

__all__ = [
    "BackwardSlicer",
    "DependenceIndex",
    "DualSliceResult",
    "DynamicSlice",
    "GlobalTrace",
    "SliceOptions",
    "SlicingSession",
    "TraceCollector",
    "TraceRecord",
    "dual_slice",
    "merge_traces",
]
