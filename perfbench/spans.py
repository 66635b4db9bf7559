"""In-memory spans around calls into the mfph modules.

A span is (name, start, end, parent) with times from perf_counter; the
parent is the span that was open when this one started, so a layer's
self time is its duration minus the durations of its direct children.
The benchmark opens its own spans (set-up repetitions, rounds, routes)
in every run.  Spans around the program's functions exist only while
`Tracer.patched()` is active: it replaces module attributes with timing
wrappers, including the names that `mfph.cli` and `mfph.generators`
imported from other modules, so the calls the program makes
internally become child spans too.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from time import perf_counter

# (owner, attribute, span name), the owner a module or "module:Class".
# The program looks these attributes up at call time, so wrapping them
# changes nothing but the timing.  Hot inner helpers (column_axpy,
# low_extended, betti_at) are left out: a span per call would cost more
# than the work it measures.
PATCHES = (
    ("mfph.generators", "sample_shape", "generators.sample_shape"),
    ("mfph.generators", "rips_filtration", "generators.rips_filtration"),
    ("mfph.generators", "linial_meshulam", "generators.linial_meshulam"),
    ("mfph.generators", "FilteredComplex", "complexes.build"),
    ("mfph.complexes", "save_filtration", "complexes.save_filtration"),
    ("mfph.multifield", "reduce_multifield", "multifield.reduce_multifield"),
    ("mfph.multifield", "partial_inverse", "crt.partial_inverse"),
    ("mfph.multifield:MultiFieldDiagram", "project", "multifield.project"),
    ("mfph.single_field", "reduce_single_field", "single_field.reduce_single_field"),
    ("mfph.cli", "main", "cli.main"),
    ("mfph.cli", "load_filtration", "complexes.load_filtration"),
    ("mfph.cli", "reduce_multifield", "multifield.reduce_multifield"),
    ("mfph.cli", "betti_table", "torsion.betti_table"),
    ("mfph.cli", "infer_torsion", "torsion.infer_torsion"),
    ("mfph.cli", "torsion_report", "torsion.torsion_report"),
    ("mfph.cli", "torsion_csv_rows", "torsion.torsion_csv_rows"),
    ("mfph.cli", "annotate_diagram", "torsion.annotate_diagram"),
)


def _resolve(path: str):
    """A module named "pkg.mod", or a class in it named "pkg.mod:Class"."""
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans in memory; `workload` tags every span written out."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span for the with-block; yields its index."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def duration(self, idx: int) -> float:
        _, start, end, _ = self.spans[idx]
        return end - start

    def wrap(self, fn, name: str):
        def timed(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        # updated=() keeps a wrapped class's attributes out of the wrapper
        return functools.update_wrapper(timed, fn, updated=())

    @contextlib.contextmanager
    def patched(self):
        """Install the timing wrappers of PATCHES; restore on exit."""
        saved = []
        try:
            for path, attr, name in PATCHES:
                owner = _resolve(path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def subtree(self, root: int) -> list[int]:
        """Span `root` and every span opened while it was open, in order."""
        inside = [root]
        end = self.spans[root][2]
        for idx in range(root + 1, len(self.spans)):
            if self.spans[idx][1] > end:
                break
            inside.append(idx)
        return inside

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per span name over the subtree of span `root`."""
        inside = self.subtree(root)
        child_time: dict[int, float] = {}
        for idx in inside[1:]:
            parent = self.spans[idx][3]
            child_time[parent] = child_time.get(parent, 0.0) + self.duration(idx)
        totals: dict[str, float] = {}
        for idx in inside:
            name = self.spans[idx][0]
            own = self.duration(idx) - child_time.get(idx, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write(self, path, extra: dict) -> None:
        records = [
            {
                "id": idx,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "workload": self.workload,
            }
            for idx, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=records), fh, indent=1)
            fh.write("\n")

