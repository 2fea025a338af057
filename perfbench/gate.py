"""Correctness gate: every op's exit code, verdict fields and report bytes."""

from __future__ import annotations

import json
from collections import Counter

_MISSING = object()


def lookup(doc, path):
    """Values at a dotted path; a `*` segment fans out over a list."""
    values = [doc]
    for key in path.split("."):
        nxt = []
        for value in values:
            if key == "*":
                nxt.extend(value if isinstance(value, list) else [_MISSING])
            elif isinstance(value, dict):
                nxt.append(value.get(key, _MISSING))
            else:
                nxt.append(_MISSING)
        values = nxt
    return values


def verdict_failure(op, code, stdout):
    """Why the report breaks the op's expectations, or None when it holds."""
    if code != op.code:
        return f"exit {code} != {op.code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    for path, want in op.expect.items():
        got = lookup(doc, path)
        if not got or any(v != want for v in got):
            return f"{path} = {got} != {want!r}"
    return None


class Gate:
    """Counts attempted and failed ops; the first report of an op is its reference."""

    def __init__(self):
        self.attempted = 0
        self.reasons = Counter()
        self.first = {}
        self.examples = {}

    @property
    def failed(self):
        return sum(self.reasons.values())

    def fail(self, reason, detail=""):
        self.attempted += 1
        self.reasons[reason] += 1
        self.examples.setdefault(reason, detail)

    def check(self, key, op, code, stdout):
        """Gate one finished op; `key` names the op within the run."""
        reference = self.first.setdefault(key, stdout)
        why = verdict_failure(op, code, stdout)
        if why is not None:
            self.fail("verdict", f"{' '.join(op.argv)}: {why}")
        elif stdout != reference:
            self.fail("not-identical", " ".join(op.argv))
        else:
            self.attempted += 1
