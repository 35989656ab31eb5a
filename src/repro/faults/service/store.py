"""The result store's historical import path (``perf/trace.py`` traces
``IncrementalResultStore.add`` here).  It lives in
:mod:`repro.faults.store`, because every campaign driver merges
through it."""

from ..store import (IncrementalResultStore, sampled_flop_counts,  # noqa: F401
                     streaming_digest)
