"""In-memory span recorder for the traced benchmark runs.

The recorder wraps public functions of the program from the outside
(``wrap`` replaces a class or module attribute and ``close`` puts the
original back), so the untraced runs execute the program exactly as
shipped.  Each span records its name, start, end, parent span and the
run id; spans are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional


class SpanRecorder:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "run": self.run_id,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Record a span around every call of ``owner.attribute``."""
        original = getattr(owner, attribute)
        owned = attribute in vars(owner)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original, owned))

    def close(self) -> None:
        """Restore every wrapped attribute (last wrapped, first restored)."""
        while self._patches:
            owner, attribute, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- analysis
    def named(self, name: str, within: Optional[dict] = None) -> List[dict]:
        """Spans called ``name``, optionally only those inside ``within``'s
        time interval (which also catches spans of other threads)."""
        found = [span for span in self.spans if span["name"] == name]
        if within is not None:
            found = [
                span
                for span in found
                if span["start"] >= within["start"] and span["end"] <= within["end"]
            ]
        return sorted(found, key=lambda span: span["start"])

    def total(self, name: str, within: Optional[dict] = None) -> float:
        return sum(duration(span) for span in self.named(name, within))

    def count(self, name: str, within: Optional[dict] = None) -> int:
        return len(self.named(name, within))

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus what their children cover."""
        children: Dict[int, List[dict]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append(span)
        return sum(
            duration(span) - covered(span, children[span["id"]])
            for span in self.named(name)
        )

    def to_json(self) -> dict:
        origin = min((span["start"] for span in self.spans), default=0.0)
        return {
            "run": self.run_id,
            "spans": [
                dict(span, start=span["start"] - origin, end=span["end"] - origin)
                for span in sorted(self.spans, key=lambda span: span["id"])
            ],
        }


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def covered(span: dict, children: List[dict]) -> float:
    """Length of the union of ``children``'s intervals clipped to ``span``."""
    total = 0.0
    reach = span["start"]
    for child in sorted(children, key=lambda child: child["start"]):
        start = max(child["start"], reach)
        end = min(child["end"], span["end"])
        if end > start:
            total += end - start
            reach = end
    return total
