"""Pass/fail bookkeeping for property suites."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass
class PropertyResult:
    passed: int = 0
    failed: int = 0
    counterexample: str | None = None

    def record(self, ok: bool, witness: str | Callable[[], str] = "") -> None:
        """Count one outcome.  A callable witness is formatted only for the
        first failure, the one that is kept."""
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.counterexample is None:
                self.counterexample = witness() if callable(witness) else witness

    @property
    def ok(self) -> bool:
        return self.failed == 0


@dataclass
class CheckReport:
    """Per-property tallies with the first counterexample kept verbatim."""

    results: dict[str, PropertyResult] = field(default_factory=dict)

    def prop(self, name: str) -> PropertyResult:
        result = self.results.get(name)
        if result is None:  # built only when missing, not on every record
            result = self.results[name] = PropertyResult()
        return result

    def record(self, name: str, ok: bool, witness: str | Callable[[], str] = "") -> None:
        self.prop(name).record(ok, witness)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results.values())

    def failing(self) -> list[str]:
        return [name for name, r in self.results.items() if not r.ok]

    def to_dict(self) -> dict:
        return {
            name: {
                "pass": r.passed,
                "fail": r.failed,
                "counterexample": r.counterexample,
            }
            for name, r in self.results.items()
        }

    def merged_with(self, other: "CheckReport") -> "CheckReport":
        out = CheckReport()
        for src in (self, other):
            for name, r in src.results.items():
                dst = out.prop(name)
                dst.passed += r.passed
                dst.failed += r.failed
                if dst.counterexample is None:
                    dst.counterexample = r.counterexample
        return out
