"""Check statuses, the record rule, exit codes and report rendering.

This module owns what a check outcome means.  A check is ``pass``, ``fail``
or ``undecided`` (a bounded solve that could not tell).  Every command ends
in one :class:`ValidationReport`, and its exit code is 1 when any check
failed, else 3 when any is undecided, else 0: fail takes precedence over
undecided.  :meth:`ValidationReport.lines` is the one rendering rule:
``title.name=status`` in machine format, with the detail on ``fail`` only
so that repeated failures stay distinct, and ``title name: status
[detail]`` in text format, with the detail on every status.
"""

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

    def record_each(self, name: str, failures, ok: bool = True):
        """Record each failure, or one pass of ``name`` when there is none
        and ``ok`` holds.

        A failure is a detail, recorded under ``name``, or a ``(name,
        detail)`` pair, recorded under its own name in the given order.
        """
        for failure in failures:
            fname, detail = failure if isinstance(failure, tuple) else (name, failure)
            self.record(fname, False, detail)
            ok = False
        if ok:
            self.record(name, True)

    def merge(self, sub: ValidationReport):
        """Append the checks of ``sub``, each name prefixed with its title."""
        self.checks.extend(CheckLine(f"{sub.title}.{c.name}", c.status, c.detail)
                           for c in sub.checks)

    @property
    def failures(self):
        return [c for c in self.checks if c.status == FAIL]

    @property
    def undecided(self):
        return [c for c in self.checks if c.status == UNDECIDED]

    @property
    def passed(self) -> bool:
        return not self.failures and not self.undecided

    @property
    def exit_code(self) -> int:
        """1 when a check failed, else 3 when one is undecided, else 0."""
        if self.failures:
            return 1
        return 3 if self.undecided else 0

    def lines(self, fmt: str):
        """One line per check in ``fmt``, ``"machine"`` or ``"text"``."""
        for c in self.checks:
            if fmt == "machine":
                suffix = f" {c.detail}" if c.status == FAIL and c.detail else ""
                yield f"{self.title}.{c.name}={c.status}{suffix}"
            else:
                suffix = f"  [{c.detail}]" if c.detail else ""
                yield f"{self.title} {c.name}: {c.status}{suffix}"
