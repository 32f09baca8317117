"""Span tracing of the cloneforge layers, installed from outside the package.

Only a traced run calls `Tracer.install`. It replaces each public layer
function in every ``cloneforge`` module that holds it, and in module-level
lists such as ``verify._SUITES``, because ``from .x import f`` binds the name
again in each importing module. `Tracer.uninstall` puts every original back.

A span is ``(bucket, parent_index, start_ns, end_ns)``. A bucket's self time
is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns

#: wrapped functions by defining module, grouped into metric buckets;
#: every public function of ``cloneforge.bounds`` and every ``check_*`` suite
#: of ``cloneforge.verify`` is added by `targets`
LAYER_FUNCTIONS = {
    "cloneforge.gates": {
        "gates.build": (
            "transfer_gate",
            "separation_gate",
            "clone_gate",
            "cnot",
            "separation_rotation",
            "conjugating_rotation",
        ),
        "gates.decompose": ("decompose_transfer", "decompose_separation"),
    },
    "cloneforge.linalg": {
        "linalg.apply": ("apply_gate",),
        "linalg.measure": ("project_qubit", "discard_qubit", "global_fidelity"),
    },
    "cloneforge.networks": {
        "networks.assemble": (
            "compression_sequence",
            "decompression_sequence",
            "exact_network",
            "approx_network",
            "hybrid_network",
        ),
        "networks.expand": ("expand_decompositions",),
        "networks.run": ("run_network",),
        "networks.evaluate": ("evaluate_cloner",),
    },
    "cloneforge.verify": {"verify.run_all": ("run_all",)},
}


def targets():
    """``(module, name, bucket)`` for every layer function that exists."""
    found = []
    for module_name, buckets in LAYER_FUNCTIONS.items():
        module = importlib.import_module(module_name)
        for bucket, names in buckets.items():
            found.extend((module, name, bucket) for name in names if hasattr(module, name))
    bounds = importlib.import_module("cloneforge.bounds")
    verify = importlib.import_module("cloneforge.verify")
    for module, prefix, bucket_of in (
        (bounds, "", lambda name: "bounds"),
        (verify, "check_", lambda name: "verify." + name[len("check_"):]),
    ):
        for name, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not name.startswith("_")
                and name.startswith(prefix)
            ):
                found.append((module, name, bucket_of(name)))
    return found


def self_times(spans):
    """Per-bucket ``[calls, self_ns, total_ns]`` of a list of spans."""
    covered = [0] * len(spans)
    for _, parent, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    stats = {}
    for (bucket, _, start, end), child_ns in zip(spans, covered):
        entry = stats.setdefault(bucket, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start - child_ns
        entry[2] += end - start
    return stats


class Tracer:
    """Records spans and work counts while installed; `take` drains them."""

    def __init__(self):
        self.spans = []
        self.current = None
        self.amps = 0
        self.bytes = 0
        self.placements = 0
        self.build_keys = set()
        self._keys_taken = 0
        self._patched = []

    def _note(self, bucket, name, args, kwargs):
        if bucket == "linalg.apply":
            state, gate = args[0], args[1]
            self.amps += state.amps.size
            # read and write the state once, read the gate once (complex128)
            self.bytes += 32 * state.amps.size + 16 * gate.dim * gate.dim
        elif bucket == "gates.build":
            self.build_keys.add(repr((name, args, sorted(kwargs.items()))))
        elif bucket == "networks.run":
            self.placements += len(args[0].placements)

    def _wrap(self, fn, name, bucket):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._note(bucket, name, args, kwargs)
            spans = tracer.spans
            parent = tracer.current
            index = len(spans)
            spans.append(None)
            tracer.current = index
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (bucket, parent, start, perf_counter_ns())
                tracer.current = parent

        return traced

    def install(self):
        """Wrap every layer function wherever a cloneforge module binds it."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "cloneforge" or name.startswith("cloneforge.")
        ]
        for owner, name, bucket in targets():
            original = getattr(owner, name)
            wrapper = self._wrap(original, name, bucket)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
                    elif isinstance(value, list):
                        for i, item in enumerate(value):
                            if item is original:
                                self._patched.append((value, i, original))
                                value[i] = wrapper

    def uninstall(self):
        """Restore every patched attribute and list entry."""
        for holder, key, original in reversed(self._patched):
            if isinstance(holder, list):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patched = []

    def take(self):
        """Drain the spans and counts recorded since the last call.

        ``new_builds`` counts gate builds whose arguments this tracer had not
        seen before, the builds a per-process cache could not avoid.
        """
        record = {
            "buckets": self_times(self.spans),
            "amps": self.amps,
            "bytes": self.bytes,
            "placements": self.placements,
            "new_builds": len(self.build_keys) - self._keys_taken,
        }
        self._keys_taken = len(self.build_keys)
        self.spans = []
        self.amps = self.bytes = self.placements = 0
        return record
