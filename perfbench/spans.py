"""In-memory spans around calls into loopfloer's public functions.

`Tracer.install()` replaces each traced function, in every loopfloer module
namespace that refers to it, by a wrapper that records a span: its name, start
and end, the span it ran inside, and the id of the benchmark item being
worked on.  Calls the program makes internally go through those namespaces too,
so nested stages become child spans.  `uninstall()` puts the originals back.
Nothing here is active unless the benchmark runs with --trace 1.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import loopfloer as lf
import loopfloer.cli  # noqa: F401  (not imported by the package itself)
from loopfloer import algebra

# (layer, module, attribute): the public functions that get spans.  A name
# imported into several modules is wrapped wherever it appears, except where
# a layer entry below names a single module to attribute it to.
TRACED = [
    ("algebra", "algebra", "homology"),
    ("loops", "loops", "word_in"),
    ("loops", "loops", "canonicalize"),
    ("loops", "loops", "euler_chars"),
    ("loops", "loops", "word_to_graph"),
    ("twists", "twists", "reparametrize"),
    ("twists", "twists", "twist"),
    ("twists", "twists", "ex"),
    ("twists", "twists", "fill"),
    ("oracle", "oracle", "fill_oracle"),
    ("oracle", "oracle", "pair_complex"),
    ("oracle", "oracle", "make_bounded"),
    ("oracle", "oracle", "to_type_a"),
    ("oracle", "oracle", "label_path_trie"),
    ("oracle", "oracle", "box_tensor"),
    ("detection", "detection", "lspace_interval"),
    ("detection", "detection", "all_unstable_form"),
    ("detection", "detection", "is_lspace_slope"),
    ("detection", "detection", "is_strict_lspace_slope"),
    ("gluing", "gluing", "glue_is_lspace"),
    ("gluing", "gluing", "lspace_aligned"),
    ("plumbing", "plumbing", "cfd"),
    ("plumbing", "plumbing", "hf_dim_closed"),
    ("plumbing", "plumbing", "merge_loops"),
    ("cli", "cli", "run"),
]
# solid_torus_like lives in detection but is the gluing decision's shortcut;
# only the calls made from the gluing module are traced, under that layer
TRACED_ONLY_IN = [("gluing", "detection", "solid_torus_like", "gluing")]

# sizes recorded on a span, computed from the call's arguments and result
SIZES: Dict[str, Callable] = {
    "algebra.check": lambda args, _: {
        "generators": len(args[0].generators),
        "differentials": len(args[0].differential),
    },
    "oracle.to_type_a": lambda _, a: {"operations": len(a.operations)},
    "plumbing.cfd": lambda _, loops: {"letters": sum(len(l) for l in loops)},
    "detection.lspace_interval": lambda _, s: {
        "exact" if s.certified == "exact" else "sweep": 1
    },
}


def _modules():
    return [getattr(lf, name) for name in
            ("algebra", "loops", "twists", "oracle", "detection", "gluing", "plumbing", "cli")] + [lf]


class Tracer:
    """Records spans as (name, start, end, parent index, item, sizes)."""

    def __init__(self):
        self.spans: List[tuple] = []
        # the census runs rows on a thread pool: each thread nests its own
        # spans, and slots in self.spans are taken under a lock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.item: Optional[str] = None
        self.active = True  # off while the benchmark builds its inputs
        self._undo: List[tuple] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, lock, clock = self.spans, self._lock, time.perf_counter
        size = SIZES.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            with lock:
                idx = len(spans)
                spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.item, None)
            if size is not None:
                spans[idx] = spans[idx][:5] + (size(args, out),)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for layer, module, attr in TRACED:
            orig = getattr(getattr(lf, module), attr)
            wrapped = self._wrap(f"{layer}.{attr}", orig)
            for mod in _modules():
                if mod.__dict__.get(attr) is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        for layer, module, attr, only in TRACED_ONLY_IN:
            mod = getattr(lf, only)
            orig = getattr(mod, attr)
            self._undo.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(f"{layer}.{attr}", orig))
        check = algebra.ChainComplexF2.check
        self._undo.append((algebra.ChainComplexF2, "check", check))
        algebra.ChainComplexF2.check = self._wrap("algebra.check", check)

    def _stack(self) -> List[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- summaries ---------------------------------------------------------

    def by_name(self) -> Dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, sizes."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                                    "sizes": defaultdict(int)})
        for i, (name, t0, t1, parent, _, sizes) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - child_time[i]
            for k, v in (sizes or {}).items():
                rec["sizes"][k] += v
        return out

    def layer_self_time(self) -> Dict[str, float]:
        """Seconds each layer spent outside its child spans."""
        out: Dict[str, float] = defaultdict(float)
        for name, rec in self.by_name().items():
            out[name.split(".")[0]] += rec["self_s"]
        return dict(out)

    def write(self, path: str, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "item", "sizes"],
            "spans": [
                [code[n], round(t0, 7), round(t1, 7), p, item, sizes]
                for n, t0, t1, p, item, sizes in self.spans
            ],
            "layer_self_s": self.layer_self_time(),
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
