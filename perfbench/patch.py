"""The one way the benchmark wraps a library function.

Both the op meter (``passes.py``) and the tracer (``tracer.py``) replace a
function defined on a class or module with a wrapper that runs a hook before
and after each call. :class:`Nesting` tells the outermost call under a key
from a re-entry (``super().run``, ``run_until`` -> ``run``), so either can
count a re-entered entry point once.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from typing import Any, Callable, Dict, Optional

# before(args) -> token; after(token, args, result, exc)
Before = Callable[[tuple], Any]
After = Callable[[Any, tuple, Any, Optional[BaseException]], None]


class Nesting:
    """Depth of the calls in progress under each key."""

    def __init__(self) -> None:
        self.depth: Dict[str, int] = defaultdict(int)

    def enter(self, key: str) -> bool:
        """Note one more call under ``key``; True if it is the outermost."""
        self.depth[key] += 1
        return self.depth[key] == 1

    def leave(self, key: str) -> None:
        self.depth[key] -= 1


def patch(owner: Any, attr: str, before: Before, after: After) -> None:
    """Replace ``owner.attr``, a function, staticmethod or classmethod that
    ``owner`` defines itself, with a wrapper that calls ``before`` and
    ``after`` around each call. ``after`` also runs when the call raises."""
    raw = vars(owner).get(attr)
    if raw is None:
        raise AttributeError(f"{owner.__name__}.{attr}: not defined on its owner")
    kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
    fn = raw.__func__ if kind else raw
    if inspect.iscoroutinefunction(fn):
        # a hook pair across an await would interleave with other tasks
        raise TypeError(f"{owner.__name__}.{attr}: coroutine functions are not wrapped")

    def wrapped(*args, **kwargs):
        token = before(args)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            after(token, args, None, exc)
            raise
        after(token, args, result, None)
        return result

    setattr(owner, attr, kind(wrapped) if kind else wrapped)
