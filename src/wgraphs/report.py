"""A tiny pass/fail report collected by the verification operations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class Report:
    """Outcome of an exact verification: failed identities plus a check count."""

    title: str
    failures: List[str] = field(default_factory=list)
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def require(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self.failures.append(message)

    def merge(self, other: "Report") -> None:
        self.checks += other.checks
        self.failures.extend(f"{other.title}: {m}" for m in other.failures)

    def summary(self) -> str:
        status = "ok" if self.ok else f"FAILED ({len(self.failures)} failures)"
        return f"{self.title}: {status} [{self.checks} checks]"

    def __str__(self) -> str:
        lines = [self.summary()]
        lines.extend(f"  - {m}" for m in self.failures)
        return "\n".join(lines)
