"""Lightweight event recorder for non-fatal conditions (clamping, degeneracies)."""

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Diagnostics:
    """Accumulates warning events instead of raising.

    Operations that must stay total (inverse embeddings, prediction
    post-processing) report clamping and degenerate inputs here; callers
    decide whether to surface them.
    """

    events: list = field(default_factory=list)

    def warn(self, code: str, message: str = "", count: int = 1):
        self.events.append((code, message, int(count)))

    def count(self, code: str) -> int:
        return sum(n for c, _, n in self.events if c == code)

    def summary(self) -> dict:
        out = Counter()
        for code, _, n in self.events:
            out[code] += n
        return dict(sorted(out.items()))

    def __bool__(self) -> bool:
        return bool(self.events)

    def format_lines(self):
        return [f"{code}: {n}" + (f" ({msg})" if msg else "")
                for (code, msg, n) in self.events]
