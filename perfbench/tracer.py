"""Run the eigenbehavior CLI in-process with a span around each layer boundary.

    python3 perfbench/tracer.py SPANS_JSON -- <eigenbehavior CLI arguments>

Every public boundary function listed below is replaced, in every
eigenbehavior module that binds it, by a wrapper that records a span (name,
start, end, parent) and a few counts read from its arguments and result.
Per-value helpers such as persist.fmt are never wrapped.  Spans stay in
memory and SPANS_JSON is written once, when the command has finished.  The
program itself is not modified.
"""

from __future__ import annotations

import functools
import json
import sys
import time

BOUNDARIES = {
    "trace": ("load_records", "load_location_map", "aggregate_locations", "build_matrices"),
    "summaries": ("summary_table", "eigen_behaviors", "behavioral_modes"),
    "distances": (
        "eigen_sets_for",
        "sim_matrix",
        "normalized_sim_table",
        "eigen_distance_matrix",
        "amvd_distance_matrix",
    ),
    "cluster": ("agglomerate", "distance_cdfs"),
    "groups": ("group_profiles",),
    "pipeline": ("run_pipeline", "build_distance_matrix", "cluster_population"),
    "profilecast": ("split_trace", "extract_encounters", "build_messages", "simulate"),
    # persist: every write_*/load_* function and sha256_file, found at install time
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _simulate_attrs(args, kwargs, out) -> dict:
    total = out.aggregate
    return {
        "scheme": _arg(args, kwargs, 2, "config").scheme,
        "transmissions": int(total.overhead),
        "delivered": int(total.delivered),
        "n_targets": int(total.n_targets),
    }


# Counts recorded at a boundary: span name -> f(args, kwargs, result) -> attrs.
ATTRS = {
    "trace.load_records": lambda a, k, out: {"records": len(out)},
    "trace.build_matrices": lambda a, k, out: {"users": len(out)},
    "distances.sim_matrix": lambda a, k, out: {
        "basis_vectors": sum(s.k for s in _arg(a, k, 0, "sets"))
    },
    "cluster.agglomerate": lambda a, k, out: {"merges": len(out.merge_history)},
    "groups.group_profiles": lambda a, k, out: {"clusters": len(out)},
    "profilecast.extract_encounters": lambda a, k, out: {"encounters": len(out)},
    "profilecast.build_messages": lambda a, k, out: {"messages": len(out)},
    "profilecast.simulate": _simulate_attrs,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "attrs": {},
            }
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.monotonic_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic_ns()
                self._open.pop()
            if attrs_of is not None:
                try:
                    span["attrs"] = attrs_of(args, kwargs, out)
                except (AttributeError, KeyError, IndexError, TypeError):
                    pass  # the boundary changed shape: its counts read 0
            return out

        return traced


def boundaries(modules) -> dict[str, tuple[str, ...]]:
    persist = modules["eigenbehavior.persist"]
    persist_fns = tuple(
        name
        for name, value in vars(persist).items()
        if callable(value)
        and getattr(value, "__module__", None) == persist.__name__
        and (name.startswith(("write_", "load_")) or name == "sha256_file")
    )
    return {**BOUNDARIES, "persist": persist_fns}


def install(tracer: Tracer) -> None:
    """Rebind every boundary function in every eigenbehavior module to its wrapper."""
    modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "eigenbehavior"}
    for layer, names in boundaries(modules).items():
        module = modules[f"eigenbehavior.{layer}"]
        for fname in names:
            original = getattr(module, fname, None)
            if original is None:  # boundary removed from the program: its metrics read 0
                continue
            wrapped = tracer.wrap(f"{layer}.{fname}", original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    import eigenbehavior.cli as cli

    imported_ns = time.monotonic_ns()
    tracer = Tracer()
    install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"imported_ns": imported_ns, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
