"""Span tracer that wraps modcov's entry points from outside the package.

Every entry point is replaced in each ``modcov`` namespace that binds it
(``generators`` imports ``matmul_mod`` as ``_mm``, ``chains`` binds
``matmul_mod``/``rref_mod``/``asmod``, ``poly`` and ``covariants`` import
``field.solve`` ...), so calls made inside the package are traced too.
Class attributes (``Echelon.add_rows``, ``PieceChains.__init__``) are
replaced on the class.

Spans are kept in memory: one tuple (name, parent span, start, end) per
call, written out by ``write_spans`` when the run ends.  Per-name
aggregates are updated as spans close:

  calls     number of completed calls
  self_s    span time minus the time of the spans it directly encloses
  total_s   span time of outermost calls only (recursion counted once)

plus the exact work counts each entry point's counter adds.  Self times
telescope: summed over every name they equal the time of the top-level
spans, which ``top_s`` accumulates.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

NILPOTENT = "chains.nilpotent_chains"
PIECE_CHAINS = "chains.PieceChains"


def _rows(m):
    return np.atleast_2d(np.asarray(m)).shape[0]


def _max(st, key, value):
    if value > st[key]:
        st[key] = value


# -- exact work counters: (stats, positional args, result) -> None -------


def _count_add_rows(st, args, out):
    st["rows_in"] += _rows(args[1])
    st["rank_out"] += len(out)


def _count_matmul(st, args, out):
    (m, k), n = args[0].shape, args[1].shape[1]
    st["flops"] += 2 * m * k * n
    # computed, not measured: both float64 operands plus the reduced output
    st["bytes"] += 8 * (m * k + k * n) + out.nbytes


def _count_rref_mod(st, args, out):
    _max(st, "max_rows", _rows(args[0]))


def _count_nilpotent(st, args, out):
    _max(st, "max_dim", _rows(args[0]))


def _count_piece_chains(st, args, out):
    _max(st, "max_size", args[0].index.size)


def _count_mult_map(st, args, out):
    st["elems"] += out.size


def _count_field_rref(st, args, out):
    _max(st, "max_cells", args[0].rows * args[0].cols)


# (module, attribute or Class.attribute, span name, counter)
TARGETS = [
    ("modcov.cli", "main", "cli.main", None),
    ("modcov.generators", "gamma", "generators.gamma", None),
    ("modcov.generators", "coinvariants_dims", "generators.coinvariants_dims", None),
    ("modcov.generators", "algebra_beta", "generators.algebra_beta", None),
    ("modcov.generators", "covariant_beta", "generators.covariant_beta", None),
    ("modcov.generators", "module_generators", "generators.module_generators", None),
    ("modcov.chains", "PieceChains.__init__", PIECE_CHAINS, _count_piece_chains),
    ("modcov.chains", "nilpotent_chains", NILPOTENT, _count_nilpotent),
    ("modcov.chains", "multiplication_map", "chains.multiplication_map", _count_mult_map),
    # the add_rows span name depends on the caller, see Tracer._name
    ("modcov.fastlinalg", "Echelon.add_rows", "fastlinalg.add_rows", _count_add_rows),
    ("modcov.fastlinalg", "matmul_mod", "fastlinalg.matmul_mod", _count_matmul),
    ("modcov.fastlinalg", "rref_mod", "fastlinalg.rref_mod", _count_rref_mod),
    ("modcov.fastlinalg", "_reduce_against", "fastlinalg.reduce_against", None),
    ("modcov.fastlinalg", "asmod", "fastlinalg.asmod", None),
    ("modcov.covariants", "decompose_by_norm", "covariants.decompose_by_norm", None),
    (
        "modcov.covariants",
        "decompose_transfer_covariant",
        "covariants.decompose_transfer_covariant",
        None,
    ),
    ("modcov.poly", "delta_power", "poly.delta_power", None),
    ("modcov.poly", "delta_power_preimage", "poly.delta_power_preimage", None),
    ("modcov.poly", "divide_by_norm", "poly.divide_by_norm", None),
    ("modcov.poly", "invariant_basis", "poly.invariant_basis", None),
    ("modcov.poly", "norm", "poly.norm", None),
    ("modcov.field", "rref", "field.rref", _count_field_rref),
    ("modcov.field", "solve", "field.solve", None),
    ("modcov.field", "kernel_basis", "field.kernel_basis", None),
]

LAYERS = ("cli", "generators", "chains", "fastlinalg", "covariants", "poly", "field")


class Tracer:
    """Wraps TARGETS for the life of the process once ``install`` has run;
    records spans only while ``active``."""

    def __init__(self):
        self.active = False
        self.stack = []  # open spans: [name, start, child time, span index]
        self.depth = defaultdict(int)  # open spans per name
        self.stats = defaultdict(lambda: defaultdict(int))
        self.spans = []  # (name, parent span index or -1, start, end)
        self.top_s = 0.0
        self.nilpotent_in_pieces_s = 0.0
        self.bindings = {}  # span name -> namespaces patched

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "modcov" or k.startswith("modcov.")]
        for modname, attr, name, counter in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr], counter))
                self.bindings[name] = 1
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, counter)
            count = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        count += 1
            self.bindings[name] = count

    # -- spans ------------------------------------------------------------

    def _name(self, name):
        if name == "fastlinalg.add_rows":
            # inserts made while building nilpotent chains vs span inserts
            return name + (".chains" if self.depth[NILPOTENT] else ".span")
        return name

    def _wrap(self, base_name, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = tracer._name(base_name)
            stack = tracer.stack
            parent = stack[-1][3] if stack else -1
            span = len(tracer.spans)
            tracer.spans.append(None)
            tracer.depth[name] += 1
            frame = [name, time.perf_counter(), 0.0, span]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.depth[name] -= 1
                tracer._close(frame, end, parent)
            if counter is not None:
                counter(tracer.stats[name], args, out)
            return out

        return wrapper

    def _close(self, frame, end, parent):
        name, start, child_s, span = frame
        dur = end - start
        self.spans[span] = (name, parent, start, end)
        st = self.stats[name]
        st["calls"] += 1
        st["self_s"] += dur - child_s
        if not self.depth[name]:
            st["total_s"] += dur
            if name == NILPOTENT and self.depth[PIECE_CHAINS]:
                self.nilpotent_in_pieces_s += dur
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.top_s += dur

    # -- results ----------------------------------------------------------

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in self.stats.items():
            out[name.split(".")[0]] += st["self_s"]
        return out

    def write_spans(self, path):
        """One tab-separated line per span: index, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start!r}\t{end!r}\n")
