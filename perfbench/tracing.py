"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions of ``floqtrk``'s modules in
place, groups them into layers, and records one span per call: layer,
function, start, end, parent span and job id. Spans stay in memory until
:meth:`Tracer.dump`. Nothing under ``src/`` changes.

A function is replaced in *every* ``floqtrk`` module namespace that binds
it: ``diagonalize_hermitian`` is imported by ``cli``, ``sumrule`` and
``qed``, and patching only ``floquet`` would charge the eigensolves nested
in ``static_trk`` or ``photon_cutoff_convergence`` to their callers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

#: layer -> (module, attribute) pairs; ``Class.method`` names patch the class.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "model.build": (
        ("model", "build_grid_hamiltonian"),
        ("model", "build_two_electron_hamiltonian"),
        ("model", "build_dipole"),
        ("model", "FewLevelModel.hamiltonian"),
        ("model", "FewLevelModel.dipole_operator"),
    ),
    "model.oracle": (("model", "double_commutator_expectation"),),
    "floquet.assemble": (
        ("floquet", "fourier_blocks_of_hamiltonian"),
        ("floquet", "assemble_floquet_matrix"),
    ),
    "floquet.eigensolve": (("floquet", "diagonalize_hermitian"),),
    "floquet.fold_select": (("floquet", "fold_and_select_ffbz"),),
    "sumrule.static": (("sumrule", "static_trk"),),
    "sumrule.sambe": (("sumrule", "sumrule_sambe"),),
    "sumrule.ffbz": (("sumrule", "sumrule_ffbz"),),
    "sumrule.density": (("sumrule", "spectral_density"),),
    "qed.build": (("qed", "build_joint_hamiltonian"), ("qed", "joint_dipole")),
    "qed.sumrule": (("qed", "sumrule_qed"),),
    "qed.convergence": (("qed", "photon_cutoff_convergence"),),
    "cli.load_config": (("cli", "load_config"),),
    "cli.run_job": (("cli", "run_job"),),
    "cli.serialize": (("cli", "report_payload"), ("cli", "write_report")),
}

#: The span around one whole job; its self time is the unattributed time.
JOB = "job"

_LEDGER_LAYERS = ("sumrule.static", "sumrule.sambe", "sumrule.ffbz", "qed.sumrule")

#: Per-job counts, all exact. ``n3_sum`` (sum of dim**3 over eigensolves) is
#: a computed flop proxy, and ``assemble.matrix_bytes`` (the Sambe matrix and
#: the joint QED Hamiltonian) is computed from array sizes.
COUNTS = (
    "floquet.eigensolve.calls",
    "floquet.eigensolve.n3_sum",
    "floquet.eigensolve.dim_max",
    "assemble.matrix_bytes",
    "floquet.fold_select.labels",
    "sumrule.ledger_rows",
    "cli.run_job.calls",
    "cli.files_written",
)


@dataclass
class Span:
    id: int
    layer: str
    function: str
    start: float
    end: float
    parent: int | None
    job: int


class Tracer:
    """Installs the wrappers, records spans and per-job counts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, int]] = {}
        self._stack: list[Span] = []
        self._job = -1
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever a ``floqtrk`` module binds it.

        A listed name the program no longer has is recorded in ``missing``
        and its layer reads 0.
        """
        self.missing.clear()
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "floqtrk" or name.startswith("floqtrk.")
        ]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules.get(f"floqtrk.{module_name}")
                cls_name, _, method = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name, None)
                original = vars(owner).get(method) if owner is not None else None
                if not callable(original):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                if cls_name:
                    self._patch(owner, method, self._wrap(layer, attr, original))
                    continue
                wrapper = self._wrap(layer, attr, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner: object, name: str, wrapper: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, layer: str, function: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer._open(layer, function)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer._count(layer, function, args, result)
            return result

        return wrapper

    # -- spans and counts --------------------------------------------------

    def _open(self, layer: str, function: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), layer, function, 0.0, 0.0, parent, self._job)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _count(self, layer: str, function: str, args, result) -> None:
        counts = self.counts[self._job]
        if layer == "floquet.eigensolve":
            dim = int(args[0].shape[0])
            counts["floquet.eigensolve.calls"] += 1
            counts["floquet.eigensolve.n3_sum"] += dim**3
            counts["floquet.eigensolve.dim_max"] = max(
                counts["floquet.eigensolve.dim_max"], dim
            )
        elif function == "assemble_floquet_matrix":
            counts["assemble.matrix_bytes"] += int(result.matrix.nbytes)
        elif function == "build_joint_hamiltonian":
            counts["assemble.matrix_bytes"] += int(result.nbytes)
        elif layer == "floquet.fold_select":
            counts["floquet.fold_select.labels"] += len(result.labels)
        elif layer in _LEDGER_LAYERS:
            counts["sumrule.ledger_rows"] += len(result.contributions)
        elif layer == "cli.run_job":
            counts["cli.run_job.calls"] += 1
        elif function == "write_report":
            counts["cli.files_written"] += len(result)

    @contextlib.contextmanager
    def job(self, job_id: int):
        """The root span of one job; spans and counts inside belong to it."""
        self._job = job_id
        self.counts[job_id] = dict.fromkeys(COUNTS, 0)
        span = self._open(JOB, JOB)
        try:
            yield
        finally:
            self._close(span)

    # -- results -----------------------------------------------------------

    def layer_self_times(self, job_id: int) -> dict[str, float]:
        """Self time of each layer in one job: span time minus child spans."""
        spans = [s for s in self.spans if s.job == job_id]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        self_time = {layer: 0.0 for layer in (*LAYERS, JOB)}
        for s in spans:
            self_time[s.layer] += (s.end - s.start) - child_time[s.id]
        return self_time

    def job_wall(self, job_id: int) -> float:
        root = next(s for s in self.spans if s.job == job_id and s.layer == JOB)
        return root.end - root.start

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)

