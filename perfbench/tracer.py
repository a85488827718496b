"""A tracer that wraps trophodge's public functions from outside the package.

`Tracer.install()` replaces each function listed in LAYERS with a wrapper
that records a span (name, start, end, parent). A module-level function is
replaced in its defining module and in every `trophodge.*` module that bound
it with `from .x import y`; a method is replaced on its class. `uninstall()`
puts the originals back. Spans stay in memory until `dump()` writes them.

A layer's self time is its spans' durations minus the time their child
spans cover. Several functions may share one span name; their spans then
add up under that name.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _matrix_sizes(tracer, args, result):
    counters, m = tracer.counters, args[0]
    counters["linalg.entries"] += m.rows * m.cols
    counters["linalg.nnz"] += len(m.entries)
    counters["linalg.max_cols"] = max(counters["linalg.max_cols"], m.cols)


def _cochain_sizes(tracer, args, result):
    tracer.counters["cohomology.cochain_dim"] += sum(result.terms.values())
    tracer.counters["cohomology.d_nnz"] += sum(len(m.entries) for m in result.diffs.values())


def _d_nnz(tracer, args, result):
    tracer.counters["steenbrink.d_nnz"] += len(result.entries)


def _h_basis_key(tracer, args, result):
    # Distinct (complex, degree) pairs expose recomputation; the owners list
    # keeps each complex alive so that its id() stays unique.
    tracer.h_basis_owners.append(args[0])
    tracer.h_basis_keys.add((id(args[0]), args[1]))


def _faces(key):
    def sizer(tracer, args, result):
        tracer.counters[key] += len(result.faces)
    return sizer


# (module, function or Class.method names, span name, sizer). A function that
# only a listed function calls is left out where that span already names its
# layer: build_complex, for one, counts as part of the load.
LAYERS = [
    ("polyhedral", ["complex_from_json"], "polyhedral.load", _faces("polyhedral.load.faces")),
    ("polyhedral", ["compactify"], "polyhedral.compactify", _faces("polyhedral.compactify.faces_out")),
    ("polyhedral", ["FaceComplex.star_fan"], "polyhedral.star_fan", None),
    ("polyhedral", ["FaceComplex.sign"], "polyhedral.sign", None),
    ("lattice", ["vec_gcd", "primitive", "row_hnf", "hnf_basis", "kernel_basis_int", "det_int",
                 "maximal_minor_gcd", "spans_unimodularly", "saturate", "quotient_presentation",
                 "apply_rows"], "lattice", None),
    ("linalg", ["rank"], "linalg.rank", _matrix_sizes),
    ("linalg", ["kernel_basis"], "linalg.kernel_basis", _matrix_sizes),
    ("linalg", ["solve"], "linalg.solve", _matrix_sizes),
    ("linalg", ["quotient_dim", "row_space_rank", "in_span"], "linalg.other", None),
    ("cohomology", ["cochain_complex"], "cohomology.cochain_complex", _cochain_sizes),
    ("cohomology", ["GradedComplex.h_basis"], "cohomology.h_basis", _h_basis_key),
    ("cohomology", ["QuotientBasis.coordinates", "CoefficientSpace.coordinates"],
     "cohomology.coordinates", None),
    ("cohomology", ["hodge_diamond", "tropical_cohomology", "coefficient_space", "induced_map",
                    "poincare_pairing", "GradedComplex.check"], "cohomology.other", None),
    ("chow", ["ring_of"], "chow.ring_of", None),
    ("chow", ["fan_ring", "minkowski_weights", "restriction", "gysin", "weight_from_class",
              "mw_evaluate", "star_fan_weights", "ChowRing.dim", "ChowRing.basis",
              "ChowRing.reduce_class", "ChowRing.multiply", "ChowRing.degree", "ChowRing.pairing"],
     "chow.other", None),
    ("steenbrink", ["SteenbrinkPage.d_matrix"], "steenbrink.d_matrix", _d_nnz),
    ("steenbrink", ["SteenbrinkPage.k_complex", "SteenbrinkPage.r_complex"], "steenbrink.kr_complex", None),
    ("steenbrink", ["verify_hl"], "steenbrink.verify_hl", None),
    ("steenbrink", ["SteenbrinkPage.psi"], "steenbrink.psi", None),
    ("steenbrink", ["build_steenbrink", "steenbrink_cohomology", "surviving_relative",
                    "n_power_h_matrix", "primitive_basis", "primitive_parts", "random_homogeneous",
                    "SteenbrinkPage.n_matrix", "SteenbrinkPage.row_complex", "SteenbrinkPage.h_basis",
                    "SteenbrinkPage.apply_d", "SteenbrinkPage.apply_n"], "steenbrink.other", None),
    ("clemens_schmid", ["tropical_clemens_schmid", "clemens_schmid_sequences", "steenbrink_triple",
                        "check_hl"], "clemens_schmid.tropical_cs", None),
    ("clemens_schmid", ["mapping_cone_check"], "clemens_schmid.mapping_cone", None),
    ("hodge_cycles", ["hodge_locus_basis", "k_cocycle_vectors", "is_cocycle"], "hodge_cycles.locus", None),
    ("hodge_cycles", ["hodge_to_cycle", "local_weight"], "hodge_cycles.to_cycle", None),
    ("hodge_cycles", ["numerical_vs_homological"], "hodge_cycles.num_vs_hom", None),
    ("hodge_cycles", ["verify_class", "zigzag_representative"], "hodge_cycles.other", None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index or -1)
        self.counters = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []
        self.h_basis_keys: set = set()
        self.h_basis_owners: list = []

    # -- spans ------------------------------------------------------------
    def span(self, name, fn, args=(), kwargs=None, sizer=None):
        """Call fn(*args, **kwargs) inside a span called name."""
        kwargs = kwargs or {}
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)
        self.counters[name + ".calls"] += 1
        if sizer is not None:
            sizer(self, args, result)
        return result

    def _wrap(self, name, fn, sizer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs, sizer)
        return wrapper

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for module, targets, name, sizer in LAYERS:
            mod = importlib.import_module(f"trophodge.{module}")
            for target in targets:
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(mod, cls_name)
                    self._patch(cls, meth, self._wrap(name, cls.__dict__[meth], sizer))
                else:
                    orig = getattr(mod, target)
                    wrapped = self._wrap(name, orig, sizer)
                    for other in list(sys.modules.values()):
                        if getattr(other, "__name__", "").partition(".")[0] == "trophodge":
                            for attr, value in list(vars(other).items()):
                                if value is orig:
                                    self._patch(other, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take_counters(self) -> dict:
        """The counters since the last call, then start counting afresh."""
        out = dict(self.counters)
        out["cohomology.h_basis.distinct"] = len(self.h_basis_keys)
        self.counters.clear()
        self.h_basis_keys.clear()
        self.h_basis_owners.clear()
        return out

    # -- results ----------------------------------------------------------
    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Self seconds per span name over spans[first:last], a range that holds its spans' parents."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent - first] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            out[name] += end - start - child[i]
        return out

    def dump(self, path: str) -> None:
        """Write the spans as tab-separated lines: index, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart\tend\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
