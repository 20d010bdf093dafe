"""In-memory span recorder that wraps public functions of the meterfaas package.

Nothing inside ``src/`` is instrumented. A wrapper replaces a function in every
place a caller looks it up: the attribute of each ``meterfaas`` module whose
value is the original function (``meterfaas.worker.run_metered`` as well as
``meterfaas.metering.run_metered``), or the attribute on the class for a
method. ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, root]``: ``parent`` and ``root`` are
indices into ``spans`` (-1 for none), so all spans of one operation share the
root span's index as their identifier.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

NAME, START, END, PARENT, ROOT = range(5)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # --- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        root = self.spans[parent][ROOT] if parent >= 0 else idx
        self.spans.append([name, time.perf_counter(), 0.0, parent, root])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- installing ------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module: str, attr: str, name: str,
                      observe: Callable | None = None, count_only: bool = False) -> None:
        """Wrap a module-level function everywhere a meterfaas module binds it."""
        orig = getattr(sys.modules[module], attr)
        wrapper = self._count_wrapper(name, orig) if count_only else self._span_wrapper(name, orig, observe)
        for modname, mod in list(sys.modules.items()):
            if modname != "meterfaas" and not modname.startswith("meterfaas."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str, observe: Callable | None = None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._span_wrapper(name, raw.__func__, observe))
        else:
            wrapped = self._span_wrapper(name, raw, observe)
        self._set(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # --- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
