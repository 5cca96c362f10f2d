"""Spans around dicke_dipole's public functions, recorded from outside.

The package modules bind imported names directly (``from .meanfield import
solve_gap``), so wrapping ``meanfield.solve_gap`` alone would miss every call
made through ``sweep.solve_gap``.  `Tracer.patched` therefore replaces each
wrapped function under every module-level name that is bound to it, in every
module of the package, and restores the originals on exit.

Spans are kept in memory (name, start, end, parent) and summarised at the end;
a span's self time is its duration minus the durations of its child spans.
"""

import contextlib
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

PACKAGE_MODULES = (
    "dicke_dipole",
    "dicke_dipole.model",
    "dicke_dipole.meanfield",
    "dicke_dipole.exact",
    "dicke_dipole.sweep",
    "dicke_dipole.cli",
)

# (module, function) pairs that get a span
SPANNED = (
    ("meanfield", "solve_gap"),
    ("meanfield", "free_energy_diff"),
    ("sweep", "evaluate_point"),
    ("sweep", "run_grid"),
    ("sweep", "write_sweep_csv"),
    ("sweep", "oracle_table"),
    ("exact", "build_collective"),
    ("exact", "build_full"),
    ("exact", "free_energy_exact"),
    ("exact", "thermal_boson_occupation"),
    ("exact", "fermionic_identity_check"),
    ("cli", "main"),
)
# called too often for a span to be worth its cost; only counted
COUNTED = (("model", "validate"),)


class Tracer:
    """In-memory span recorder for one traced sample."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = []
        self.counts = {}
        # (span, (params, n_atoms, j, n_max), dim, want_occupations, free-energy span)
        self.builds = []
        self.full_builds = []  # (n_max, free-energy span)
        self.csv_bytes = 0
        self.superradiant = 0

    def __len__(self):
        return len(self.start)

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _enclosing(self, name):
        """The innermost open span called name, or -1."""
        nid = self._name_ids.get(name)
        for sid in reversed(self._stack):
            if self.name_id[sid] == nid:
                return sid
        return -1

    def span(self, name, fn):
        short = name.rsplit(".", 1)[-1]
        before = getattr(self, "_before_" + short, None)
        after = getattr(self, "_after_" + short, None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            token = before(signature.bind(*args, **kwargs).arguments) if before else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.start[sid] = start
                self.end[sid] = end
                self._stack.pop()
            if after:
                after(sid, lambda: signature.bind(*args, **kwargs).arguments, result, token)
            return result

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # A _before_<name> hook sees the bound arguments before the call and
    # returns a token; an _after_<name> hook gets the span id, a function
    # returning the bound arguments, the result and that token.

    def _after_solve_gap(self, sid, arguments, result, token):
        if result.phase.value == "superradiant":
            self.superradiant += 1

    # every traced write goes to an io.StringIO, whose position is its length
    def _before_write_sweep_csv(self, arguments):
        return arguments["stream"].tell()

    def _after_write_sweep_csv(self, sid, arguments, result, token):
        self.csv_bytes += arguments()["stream"].tell() - token

    def _after_build_collective(self, sid, arguments, result, token):
        bound = arguments()
        self.builds.append((
            sid,
            (bound["params"], bound["n_atoms"], float(bound["j"]), bound["trunc"].n_max),
            result.dimension,
            bool(bound.get("want_occupations", False)),
            self._enclosing("exact.free_energy_exact"),
        ))

    def _after_build_full(self, sid, arguments, result, token):
        self.full_builds.append(
            (arguments()["trunc"].n_max, self._enclosing("exact.free_energy_exact"))
        )

    @contextlib.contextmanager
    def patched(self):
        """Wrap every traced function under each name bound to it."""
        modules = [importlib.import_module(name) for name in PACKAGE_MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        wrappers = {}
        for module_name, fn_name in SPANNED:
            fn = getattr(by_name[module_name], fn_name)
            wrappers[id(fn)] = (fn, self.span(f"{module_name}.{fn_name}", fn))
        for module_name, fn_name in COUNTED:
            fn = getattr(by_name[module_name], fn_name)
            wrappers[id(fn)] = (fn, self.counter(f"{module_name}.{fn_name}", fn))
        saved = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        try:
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def arrays(self):
        # copies, so that the arrays stay free to grow
        return (np.array(self.name_id), np.array(self.start),
                np.array(self.end), np.array(self.parent))

    def root_seconds(self, count):
        """Summed duration of the top-level spans among the first count."""
        _, start, end, parent = self.arrays()
        roots = parent[:count] == -1
        return float((end[:count] - start[:count])[roots].sum())

    def summary(self):
        """Per-layer metrics over every span recorded."""
        name_id, start, end, parent = self.arrays()
        duration = end - start
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_time = duration - child
        total, own, calls = {}, {}, {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            total[name] = float(duration[mask].sum())
            own[name] = float(self_time[mask].sum())
            calls[name] = int(mask.sum())

        seen, repeats, vec_s, ops, dim_max = set(), 0, 0.0, 0, 0
        cutoff_evals = set()
        for sid, key, dim, vectors, fe in self.builds:
            repeats += key in seen
            seen.add(key)
            if vectors:
                vec_s += float(duration[sid])
            ops += dim**3
            dim_max = max(dim_max, dim)
            if fe >= 0:
                cutoff_evals.add((fe, key[-1]))
        cutoff_evals.update((fe, n_max) for n_max, fe in self.full_builds if fe >= 0)

        gap_calls = calls.get("meanfield.solve_gap", 0)
        return {
            "meanfield.solve_gap.calls": gap_calls,
            "meanfield.solve_gap.self_s": own.get("meanfield.solve_gap", 0.0),
            "meanfield.superradiant_share": self.superradiant / gap_calls if gap_calls else 0.0,
            "meanfield.free_energy_diff.self_s": own.get("meanfield.free_energy_diff", 0.0),
            "model.validate.calls": self.counts.get("model.validate", 0),
            "sweep.evaluate_point.self_s": own.get("sweep.evaluate_point", 0.0),
            "sweep.run_grid.s": total.get("sweep.run_grid", 0.0),
            "sweep.write_sweep_csv.s": total.get("sweep.write_sweep_csv", 0.0),
            "sweep.write_sweep_csv.bytes": self.csv_bytes,
            "exact.build_collective.calls": calls.get("exact.build_collective", 0),
            "exact.build_collective.self_s": own.get("exact.build_collective", 0.0),
            "exact.build_collective.dim_max": dim_max,
            "exact.build_collective.vec_s": vec_s,
            "exact.eig_ops_computed": ops,
            "exact.repeat_builds": repeats,
            "exact.cutoff_evals": len(cutoff_evals),
            "exact.free_energy_exact.s": total.get("exact.free_energy_exact", 0.0),
            "exact.thermal_boson_occupation.s": total.get("exact.thermal_boson_occupation", 0.0),
            "sweep.oracle_table.s": total.get("sweep.oracle_table", 0.0),
            "exact.build_full.s": total.get("exact.build_full", 0.0),
            "exact.fermionic_identity_check.s": total.get("exact.fermionic_identity_check", 0.0),
        }

    def save(self, path):
        """Write the raw spans out, for a look beyond the summary."""
        name_id, start, end, parent = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id,
            start=start, end=end, parent=parent,
        )
