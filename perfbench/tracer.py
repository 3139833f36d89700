"""Outside-in tracer: spans around calls into relcalc's public functions and
the numpy.linalg entry points, recorded without editing relcalc.

relcalc's modules import each other's functions by name, so a wrapper placed
only on the defining module would miss most callers.  ``install`` therefore
replaces every reference to a public function in every ``relcalc`` module
namespace (the defining module's globals included, so calls inside one
module are seen too).  numpy.linalg is patched on the module object, which is
how relcalc reaches it (``np.linalg.svd``); numpy's internal calls between
its own routines stay unwrapped, so ``pinv`` does not also count an SVD.

A span is recorded only while an operation is open (``begin_op``), so input
generation, the calibration kernel and the reference checks leave no spans.
Spans stay in memory and are reduced once, at the end of the traced pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("subspaces", "relations", "mvproj", "weighted", "lss", "splines", "oracles", "cli")
# the numpy.linalg entry points relcalc calls
LINALG_NAMES = ("svd", "lstsq", "pinv", "eigh", "eigvalsh", "inv", "norm", "matrix_rank")
EIG_NAMES = ("eigh", "eigvalsh")


def svd_flops(shape, full_matrices=True, compute_uv=True) -> float:
    """Computed flop count of a complex SVD (Golub & Van Loan, table 8.6.1,
    times 4 for complex arithmetic).  A model of the work, not a measurement."""
    if len(shape) != 2:
        return 0.0
    m, n = max(shape), min(shape)
    if not compute_uv:
        real = 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    elif full_matrices:
        real = 4.0 * m * m * n + 22.0 * n ** 3
    else:
        real = 6.0 * m * n * n + 20.0 * n ** 3
    return 4.0 * real


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span name by id, e.g. "relations.parts"
        self.spans: list = []  # (name id, start, end, parent index, op id, extra)
        self.stack: list[int] = []
        self.op: int | None = None  # id of the open operation
        self.n_ops = 0
        self._patched: list = []  # (namespace, attribute, original)
        self._keepalive: list = []  # objects whose id() is a parts key this op
        self._parts_seen: set = set()

    # -- operations -------------------------------------------------------

    def begin_op(self):
        self.op = self.n_ops
        self.n_ops += 1
        self._parts_seen.clear()
        self._keepalive.clear()

    def end_op(self):
        self.op = None
        self._parts_seen.clear()
        self._keepalive.clear()

    # -- wrapping ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, extra=None):
        fid = self._name_id(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            info = extra(args, kwargs) if extra is not None else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.op, info)

        return traced

    def _parts_key(self, args, kwargs):
        """1 when this parts call recomputes a (relation, tolerance) pair
        already seen in the operation, else 0."""
        rel = args[0] if args else kwargs.get("T")
        tol = args[1] if len(args) > 1 else kwargs.get("tol")
        # tol=None is served by relcalc's own per-relation cache once filled
        cached = tol is None and "_default_parts" in getattr(rel, "__dict__", {})
        if tol is None or tol == type(tol)():
            key = (id(rel), "default")
        else:
            key = (id(rel), repr(tol))
        repeat = key in self._parts_seen and not cached
        self._parts_seen.add(key)
        self._keepalive.append(rel)
        return int(repeat)

    def install(self, package):
        """Wrap relcalc's public functions everywhere they are referenced,
        and the numpy.linalg entry points."""
        import numpy.linalg as linalg

        modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    extra = self._parts_key if (layer, attr) == ("relations", "parts") else None
                    wrapped[id(value)] = (value, self._wrap(value, f"{layer}.{attr}", extra))
        namespaces = [package] + [m for k, m in sys.modules.items() if k.startswith(package.__name__ + ".")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, hit[1])
        for attr in LINALG_NAMES:
            original = getattr(linalg, attr)
            extra = None
            if attr == "svd":
                extra = lambda a, k: svd_flops(
                    getattr(a[0], "shape", ()),
                    a[1] if len(a) > 1 else k.get("full_matrices", True),
                    a[2] if len(a) > 2 else k.get("compute_uv", True),
                )
            self._patched.append((linalg, attr, original))
            setattr(linalg, attr, self._wrap(original, f"linalg.{attr}", extra))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- reduction --------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-operation counts and times by layer, from the recorded spans."""
        spans = self.spans
        names = self.names
        child = [0.0] * len(spans)
        for fid, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        layer_of = [name.split(".", 1)[0] for name in names]

        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        by_name_calls: dict[str, int] = {}
        by_name_s: dict[str, float] = {}  # inclusive, outermost call of a name only
        svd_flop = 0.0
        parts_repeats = 0
        solve_svd = 0
        solve_calls = 0
        # names open above each span; the sets are interned, as few paths repeat
        root = frozenset()
        path: list[frozenset] = [root] * len(spans)
        interned: dict = {}
        for i, (fid, start, end, parent, _, info) in enumerate(spans):
            name = names[fid]
            above = root
            if parent >= 0:
                key = (id(path[parent]), spans[parent][0])
                above = interned.get(key)
                if above is None:
                    above = interned[key] = path[parent] | {names[spans[parent][0]]}
            path[i] = above
            layer = layer_of[fid]
            calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[i]
            by_name_calls[name] = by_name_calls.get(name, 0) + 1
            if name not in above:
                by_name_s[name] = by_name_s.get(name, 0.0) + (end - start)
            if name == "linalg.svd":
                svd_flop += info
                if "lss.solve" in above:
                    solve_svd += 1
            elif name == "relations.parts":
                parts_repeats += info
            elif name == "lss.solve" and "lss.solve" not in above:
                solve_calls += 1

        per = 1.0 / max(n_ops, 1)
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS + ("linalg",):
            out[f"{layer}.calls"] = (calls.get(layer, 0) * per, "count")
            out[f"{layer}.self_ms"] = (self_s.get(layer, 0.0) * 1e3 * per, "ms")

        def count(name):
            return by_name_calls.get(name, 0) * per

        def ms(name):
            return by_name_s.get(name, 0.0) * 1e3 * per

        for fn in ("orthonormalize", "null_space", "subspace_complement", "subspace_intersect"):
            out[f"subspaces.{fn}.calls"] = (count(f"subspaces.{fn}"), "count")
        out["subspaces.subspace_intersect.ms"] = (ms("subspaces.subspace_intersect"), "ms")
        out["relations.parts.calls"] = (count("relations.parts"), "count")
        out["relations.parts.ms"] = (ms("relations.parts"), "ms")
        n_parts = by_name_calls.get("relations.parts", 0)
        out["relations.parts.repeat_share"] = (parts_repeats / n_parts if n_parts else 0.0, "ratio")
        out["relations.compose.ms"] = (ms("relations.compose"), "ms")
        out["relations.apply_to_coset.ms"] = (ms("relations.apply_to_coset"), "ms")
        out["weighted.make_pws.ms"] = (ms("weighted.make_pws"), "ms")
        out["linalg.svd_calls"] = (count("linalg.svd"), "count")
        out["linalg.svd_gflop"] = (svd_flop * 1e-9 * per, "gflop-computed")
        out["linalg.eig_calls"] = (sum(count(f"linalg.{e}") for e in EIG_NAMES), "count")
        out["linalg.lstsq_calls"] = (count("linalg.lstsq"), "count")
        out["linalg.pinv_calls"] = (count("linalg.pinv"), "count")
        out["lss.solve.svd_calls"] = (solve_svd / solve_calls if solve_calls else 0.0, "count")
        for stage in ("parse", "dispatch", "emit"):
            out[f"cli.{stage}.ms"] = (ms(f"cli.{stage}"), "ms")
        return out
