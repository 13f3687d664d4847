"""Span recorder for the traced benchmark run.

``Recorder.install`` replaces the public functions of each ``minbasis`` layer,
and ``svd``, ``lstsq``, ``qr`` and ``norm`` of ``numpy.linalg``, with wrappers
that open a span on entry and close it on return.  Nothing in ``src/`` is
changed: the wrappers are bound in place of the originals in every module
that imported them, and ``uninstall`` puts the originals back.

Every span has a name, start, end, parent span and op id (the benchmark call
that caused it).  Spans are aggregated as they close, into calls, busy time
and self time (busy time minus the time covered by child spans).  The first
``KEEP_SPANS`` raw spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
from time import perf_counter

import numpy as np

# Public functions wrapped per layer.  ``sylvester.sylvester`` is recorded as
# ``sylvester.build`` and ``certify_minimal_basis`` as ``minimal.certify``.
LAYER_FUNCTIONS = {
    "polymat": ("load", "evaluate", "poly_multiply_transpose"),
    "sylvester": ("sylvester", "rank_nullity", "singular_values"),
    "minimal": ("rank_profile", "certify_minimal_basis", "right_minimal_indices"),
    "fullsyl": ("has_full_sylvester_rank", "genericity_experiment",
                "sample_full_sylvester", "sample_polymat"),
    "robust": ("robustness_radius_minimal", "robustness_radius_fullsyl", "thetas",
               "distance"),
    "dual": ("dual_minimal_basis", "verify_duality", "propagate_perturbation",
             "admissible_radius"),
    "lify": ("build_lification", "backward_error_map"),
    "oracle": ("exact_rank", "exact_rank_profile"),
    "cli": ("main",),
}
RENAMED = {"sylvester.sylvester": "sylvester.build",
           "minimal.certify_minimal_basis": "minimal.certify"}
LINALG_FUNCTIONS = ("svd", "lstsq", "qr", "norm")
# numpy.linalg.norm(x, 2) calls the module-level svd of this module, not the
# numpy.linalg attribute, so both bindings are replaced.
LINALG_MODULES = ("numpy.linalg", "numpy.linalg._linalg")
# Raw spans kept for the spans file; aggregates cover every span.
KEEP_SPANS = 200_000


def svd_flops(shape: tuple[int, ...], complex_: bool, uv: bool) -> int:
    """Flop count of one SVD computed from its shape (Golub and Van Loan,
    Matrix Computations, 4th ed., Fig. 8.6.1): 4mn^2 - 4n^3/3 for singular
    values only, 4m^2n + 8mn^2 + 9n^3 with U and V, m >= n.  Complex
    arithmetic counts four real flops per operation.  Whole numbers, so that
    sums repeat exactly."""
    m, n = max(shape[-2:]), min(shape[-2:])
    flops = 4 * m * m * n + 8 * m * n * n + 9 * n**3 if uv else 4 * m * n * n - 4 * n**3 // 3
    return flops * (4 if complex_ else 1)


class Recorder:
    """Records spans and per-layer counts while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.agg: dict[str, list[float]] = {}  # name -> [calls, busy s, self s]
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, child seconds, span index]
        self._linalg_depth = 0
        self._op = -1
        self._op_name = ""
        self._op_svd_start = 0
        self._op_svd_inputs: set = set()
        # op name -> [calls, SVD calls, distinct SVD inputs], summed over calls
        self.op_svd: dict[str, list[int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def _open(self, name: str) -> None:
        index = -1
        if len(self.spans) < KEEP_SPANS:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self._op])
        if name.startswith("linalg."):
            self._linalg_depth += 1
        self._stack.append([name, perf_counter(), 0.0, index])

    def _close(self) -> None:
        end = perf_counter()
        name, start, child, index = self._stack.pop()
        duration = end - start
        row = self.agg.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if name.startswith("linalg."):
            self._linalg_depth -= 1
            if self._linalg_depth == 0:
                self.count("linalg.outer_busy_s", duration)
        if index >= 0:
            self.spans[index][1:3] = [start, end]

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def begin_op(self, op: str) -> None:
        """Opens the top-level span of one benchmark call."""
        self._op += 1
        self._op_name = op
        self._op_svd_start = self.calls("linalg.svd")
        self._op_svd_inputs = set()
        self._open(f"op.{op}")

    def end_op(self) -> None:
        """Closes the call's span; SVD inputs are told apart within one call."""
        self._close()
        distinct = len(self._op_svd_inputs)
        self.count("linalg.svd.distinct", distinct)
        row = self.op_svd.setdefault(self._op_name, [0, 0, 0])
        row[0] += 1
        row[1] += self.calls("linalg.svd") - self._op_svd_start
        row[2] += distinct

    # -- per-call hooks -----------------------------------------------------------

    def _on_svd(self, args, kwargs, result) -> None:
        a = np.asarray(args[0])
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        key = hashlib.blake2b(a.tobytes(), digest_size=16).digest()
        self._op_svd_inputs.add((a.shape, a.dtype.str, key))
        if uv:
            self.count("linalg.svd.uv_calls")
        self.count("linalg.svd.flops", svd_flops(a.shape, np.iscomplexobj(a), bool(uv)))

    def _on_norm(self, args, kwargs, result) -> None:
        order = kwargs.get("ord", args[1] if len(args) > 1 else None)
        if order == 2 and np.ndim(args[0]) == 2:
            self.count("linalg.norm2.calls")

    def _on_build(self, args, kwargs, result) -> None:
        self.count("sylvester.build.bytes", result.data.nbytes)

    def _on_rank_profile(self, args, kwargs, result) -> None:
        self.count("minimal.rank_profile.k_scanned", len(result.ranks))

    def _on_certify(self, args, kwargs, result) -> None:
        if result.marginal:
            self.count("minimal.certify.marginal")

    # -- installation -------------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        hooks = {
            "linalg.svd": self._on_svd,
            "linalg.norm": self._on_norm,
            "sylvester.build": self._on_build,
            "minimal.rank_profile": self._on_rank_profile,
            "minimal.certify": self._on_certify,
        }
        wrappers: dict[int, object] = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"minbasis.{layer}")
            for fname in names:
                span = RENAMED.get(f"{layer}.{fname}", f"{layer}.{fname}")
                fn = getattr(module, fname)
                wrappers[id(fn)] = self._wrap(span, fn, hooks.get(span))
        package = [m for name, m in sys.modules.items()
                   if name == "minbasis" or name.startswith("minbasis.")]
        for module in package:
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        for fname in LINALG_FUNCTIONS:
            span = f"linalg.{fname}"
            fn = getattr(np.linalg, fname)
            wrapper = self._wrap(span, fn, hooks.get(span))
            for modname in LINALG_MODULES:
                module = importlib.import_module(modname)
                if getattr(module, fname, None) is fn:
                    self._patch(module, fname, wrapper)

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.agg.get(name, (0, 0.0, 0.0))[0])

    def busy_ms(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[1] * 1e3

    def self_ms(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[2] * 1e3

    def op_busy_ms(self) -> float:
        return sum(row[1] for name, row in self.agg.items() if name.startswith("op.")) * 1e3
