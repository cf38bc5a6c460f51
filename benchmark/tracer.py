"""In-memory span tracer that wraps freqmia's public functions from outside.

A span is ``[name, start, end, parent, attrs]`` with ``parent`` the index of
the enclosing span (or -1). Spans stay in memory; the caller writes them out
after the measured region. Every patch is undone by :meth:`Tracer.restore`.

A function is patched under its name in every ``freqmia`` module that holds
it, so ``freqmia.cli.run_attack`` and ``freqmia.experiment.run_attack`` both
record. A function or method that no longer exists is listed in
``Tracer.missing`` instead of raising, so the traced run survives API
deletions.
"""

import functools
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._patches = []

    def clear(self):
        self.spans = []
        self._stack = []

    def open(self, name, attrs=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, attrs=None, result=None):
        """``attrs(args, kwargs)`` and ``result(value)`` return dicts stored on
        the span; both run inside it, so keep them cheap."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, attrs(args, kwargs) if attrs else None)
            try:
                value = fn(*args, **kwargs)
                if result:
                    extra = result(value)
                    span = self.spans[index]
                    span[4] = {**(span[4] or {}), **extra}
                return value
            finally:
                self.close(index)

        return traced

    def patch_function(self, module_name, attr, name, attrs=None, result=None):
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module else None
        if original is None:
            self.missing.append(name)
            return
        wrapper = self.wrap(original, name, attrs, result)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "freqmia" and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, original))

    def patch_method(self, module_name, class_name, attr, name, attrs=None, result=None):
        cls = getattr(sys.modules.get(module_name), class_name, None)
        original = cls.__dict__.get(attr) if cls is not None else None
        if original is None:
            self.missing.append(name)
            return
        setattr(cls, attr, self.wrap(original, name, attrs, result))
        self._patches.append((cls, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
