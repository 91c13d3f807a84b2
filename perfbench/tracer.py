"""Layer tracing installed from outside the package, for the traced run only.

Each traced function is replaced, in every ``virfock`` module that binds it,
by a wrapper that counts calls, sums total and self time, and keeps a span
(id, name, start, end, parent) for the first ``SPAN_CAP`` calls of the
process.  A layer's self time is its duration minus the time of the traced
calls it made.  Nothing in ``src/`` changes; a name a later version of the
program no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Spans kept per process; later calls are still counted and timed.
SPAN_CAP = 50_000
# module.function -> metrics calls, total_s, self_s
TIMED = (
    "fock.enumerate_basis",
    "fock.apply_mode",
    "operators.safe_basis_for_pair",
    "operators.apply_operator",
    "operators.commutator_action",
    "operators.build_L",
    "operators.linear_bracket",
    "verify.extract_central_charge",
    "verify.check_virasoro_relation",
    "verify.check_primary_laws",
    "verify.check_christoffel",
    "verify.check_jacobi",
    "verify.check_window_doubling",
    "verify.run_dirac_checks",
    "dirac.delta_contract_residuals",
    "dirac.mode_compatibility_reports",
    "dirac.dirac_bracket",
    "dirac.invert_c",
    "dirac.classify",
    "dirac.verify_compatibility",
    "cli.main",
)
# Too hot and too small to time without distorting its callers: calls only.
COUNTED = ("algebra.canonical_bracket",)
# metric prefix -> the lru_cache whose cache_info() it reports
CACHES = {
    "fock.mode_cache": "fock._apply_to_basis",
    "operators.op_cache": "operators._apply_to_basis",
}


def _resolve(qualname: str):
    module, name = qualname.split(".")
    try:
        return getattr(importlib.import_module(f"virfock.{module}"), name)
    except (ImportError, AttributeError):
        return None


class Tracer:
    def __init__(self):
        self.names: list = []
        self.calls: list = []
        self.total: list = []
        self.own: list = []
        self.depth: list = []
        self.absent: list = []
        self.stack: list = []  # [span id, time spent in traced children]
        self.spans: list = []
        self.next_id = 0

    def _slot(self, name: str) -> int:
        self.names.append(name)
        for column in (self.calls, self.total, self.own, self.depth):
            column.append(0)
        return len(self.names) - 1

    def _timed(self, i: int, fn):
        stack, spans, cap, perf = self.stack, self.spans, SPAN_CAP, time.perf_counter
        calls, total, own, depth = self.calls, self.total, self.own, self.depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            depth[i] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                depth[i] -= 1
                dur = end - start
                calls[i] += 1
                own[i] += dur - frame[1]
                if not depth[i]:  # count a recursive layer's time once
                    total[i] += dur
                if stack:
                    stack[-1][1] += dur
                if sid < cap:
                    spans.append((sid, i, start, end, parent))
        return wrapper

    def _counted(self, i: int, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[i] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Rebind every traced function in every loaded virfock module."""
        for qualnames, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for qualname in qualnames:
                i = self._slot(qualname)
                original = _resolve(qualname)
                if original is None:
                    self.absent.append(qualname)
                    continue
                wrapper = make(i, original)
                for name, module in list(sys.modules.items()):
                    if name == "virfock" or name.startswith("virfock."):
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)

    def layers(self) -> dict:
        """Per-layer counters of this process, keyed by metric name."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            if name in TIMED:
                out[f"{name}.total_s"] = self.total[i]
                out[f"{name}.self_s"] = self.own[i]
        for prefix, qualname in CACHES.items():
            cache_info = getattr(_resolve(qualname), "cache_info", None)
            if cache_info is None:
                self.absent.append(prefix)
                out[f"{prefix}.hits"] = out[f"{prefix}.misses"] = 0
            else:
                info = cache_info()
                out[f"{prefix}.hits"], out[f"{prefix}.misses"] = info.hits, info.misses
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["id", "name", "start", "end", "parent"],
                       "spans_total": self.next_id,
                       "spans": sorted(self.spans)}, fh)
