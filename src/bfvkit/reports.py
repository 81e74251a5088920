"""Validation and command reports with deterministic rendering."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
UNDECIDED = "undecided"


@dataclass
class CheckLine:
    name: str
    status: str
    detail: str = ""


@dataclass
class ValidationReport:
    """Outcome of a family of exact identity checks.

    Every violated identity is listed with the offending index tuple, so
    user-supplied structure constants can be debugged from the report.
    """

    title: str
    checks: list = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = ""):
        self.checks.append(CheckLine(name, PASS if ok else FAIL, detail))

    def record_undecided(self, name: str, detail: str = ""):
        self.checks.append(CheckLine(name, UNDECIDED, detail))

    @property
    def failures(self):
        return [c for c in self.checks if c.status == FAIL]

    @property
    def undecided(self):
        return [c for c in self.checks if c.status == UNDECIDED]

    @property
    def passed(self) -> bool:
        return not self.failures and not self.undecided

    def lines(self):
        for c in self.checks:
            suffix = f" {c.detail}" if c.detail else ""
            yield f"{self.title}.{c.name}={c.status}{suffix}"

    def __str__(self):
        return "\n".join(self.lines()) or f"{self.title}=pass"
