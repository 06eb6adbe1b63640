"""Check reports: stable machine-readable JSON and aligned human output.

The JSON payload is byte-deterministic for a fixed seed: checks are sorted
by name and wall-times are reported as 0 there (measured times go to the
human-readable rendering only, since they would break reproducibility).
"""

from __future__ import annotations

import json

REPORT_VERSION = "1"

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"
ERROR = "ERROR"

_ORDER = {PASS: 0, SKIP: 1, FAIL: 2, ERROR: 3}


# Plain slotted classes: importing dataclasses would load inspect, ast and
# dis, about a third of the CLI's cold import.


class CheckRecord:
    __slots__ = ("name", "status", "residual", "ms")

    def __init__(self, name: str, status: str, residual: str | None = None, ms: float = 0.0):
        self.name = name
        self.status = status
        self.residual = residual
        self.ms = ms


class ModelReport:
    __slots__ = ("model", "seed", "checks")

    def __init__(self, model: str, seed: int | None = None, checks=None):
        self.model = model
        self.seed = seed
        self.checks = [] if checks is None else checks

    def add(self, record: CheckRecord):
        if any(c.name == record.name for c in self.checks):
            raise ValueError(f"duplicate check record {record.name!r}")
        self.checks.append(record)

    def sorted_checks(self):
        return sorted(self.checks, key=lambda c: c.name)

    def exit_code(self) -> int:
        worst = max((_ORDER[c.status] for c in self.checks), default=0)
        if worst >= _ORDER[ERROR]:
            return 2
        if worst >= _ORDER[FAIL]:
            return 1
        return 0

    def to_json(self, include_timings: bool = False) -> str:
        doc = {
            "version": REPORT_VERSION,
            "model": self.model,
            "seed": self.seed,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "residual": c.residual,
                    "ms": round(c.ms, 3) if include_timings else 0,
                }
                for c in self.sorted_checks()
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def human(self) -> str:
        rows = [("check", "status", "ms", "detail")]
        for c in self.sorted_checks():
            detail = c.residual or ""
            if len(detail) > 60:
                detail = detail[:57] + "..."
            rows.append((c.name, c.status, f"{c.ms:.1f}", detail))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = []
        for r in rows:
            lines.append(
                "  ".join(col.ljust(widths[i]) for i, col in enumerate(r)).rstrip()
            )
        return "\n".join(lines) + "\n"
