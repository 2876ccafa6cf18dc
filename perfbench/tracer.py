"""Outside-in tracing: spans around calls into the sqdigits modules.

The program is not edited.  ``Tracer.install`` replaces each public
function of the traced modules with a wrapper, on every name a caller
resolves it by: ``harness`` calls ``prime_arrays`` and ``phase_of`` through
its own module globals, ``carry`` calls ``phase_of`` the same way, so each
alias in any loaded ``sqdigits`` module is patched with the same wrapper.
``restore`` puts every original back.

A span is (name, start, end, parent).  Spans live in flat arrays while the
pass runs and are written once, at the end.  A generator function (the
sieve) gets one span per ``next()``, so its spans cover exactly the time the
consumer spends waiting for the next segment.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# module -> the public functions to wrap; None means every public function
# the module defines itself
TRACED = {
    "sieve": ("prime_arrays",),
    "harness": None,
    "fourier": None,
    "vaaler": None,
    "expsums": None,
    "qmult": ("phase_of",),
    "carry": None,
    "cli": ("run",),
}


def _qmean_elements(f, lam, *_args, **_kwargs) -> int:
    return sum(f.q**level for level in range(1, lam + 1))


def _carry_elements(spec, *_args, **_kwargs) -> int:
    return 0 if spec.r == 0 else spec.q**spec.nu - spec.q ** (spec.nu - 1)


# work counts taken from the arguments at the call boundary; the sieve's
# count is the number of primes its generator yields
ELEMENT_COUNTS = {
    "harness.phase_array": lambda f, values: values.size,
    "harness.digit_sums_array": lambda values, q: values.size,
    "fourier.quadratic_mean": _qmean_elements,
    "carry.count_mismatch": _carry_elements,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.elements: Counter = Counter()
        self.errors: Counter = Counter()
        self._last_error: dict[str, BaseException] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _error(self, module: str, exc: BaseException) -> None:
        # one exception crossing several wrappers of a module counts once
        if self._last_error.get(module) is not exc:
            self._last_error[module] = exc
            self.errors[module] += 1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, module: str, name: str):
        name_id = self._name_id(name)
        counter = ELEMENT_COUNTS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(idx)
                        return
                    except BaseException as exc:
                        tracer._close(idx)
                        tracer._error(module, exc)
                        raise
                    tracer._close(idx)
                    tracer.elements[name] += len(item)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if counter is not None:
                tracer.elements[name] += counter(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(module, exc)
                raise
            finally:
                tracer._close(idx)

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions on every alias in the loaded sqdigits modules."""
        loaded = [m for key, m in sys.modules.items()
                  if m is not None and (key == "sqdigits" or key.startswith("sqdigits."))]
        for module, only in TRACED.items():
            mod = sys.modules[f"sqdigits.{module}"]
            for attr in only or _public_functions(mod):
                original = getattr(mod, attr)
                wrapper = self._wrap(original, module, f"{module}.{attr}")
                for holder in loaded:
                    for alias, value in list(vars(holder).items()):
                        if value is original:
                            self._patched.append((holder, alias, original))
                            setattr(holder, alias, wrapper)

    def restore(self) -> None:
        for holder, alias, original in reversed(self._patched):
            setattr(holder, alias, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _public_functions(mod) -> list[str]:
    """Public callables a module defines itself (classes excluded)."""
    return sorted(
        attr for attr, value in vars(mod).items()
        if not attr.startswith("_") and callable(value) and not isinstance(value, type)
        and getattr(value, "__module__", None) == mod.__name__
    )


def summarize(tracer: Tracer) -> dict:
    """Calls, inclusive and self seconds per span name, from the recorded spans.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    import numpy as np

    name = np.asarray(tracer.name, dtype=np.int64)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)
    nested = parent >= 0
    self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    k = len(tracer.names)
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=self_t, minlength=k)
    return {
        "spans": {n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
                  for i, n in enumerate(tracer.names) if calls[i]},
        "elements": dict(tracer.elements),
        "errors": dict(tracer.errors),
    }


def write_spans(tracer: Tracer, path: str) -> None:
    """All spans as one compressed numpy archive (names, name ids, parents, times)."""
    import numpy as np

    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name=np.asarray(tracer.name, dtype=np.int64),
        parent=np.asarray(tracer.parent, dtype=np.int64),
        start=np.asarray(tracer.start),
        end=np.asarray(tracer.end),
    )
