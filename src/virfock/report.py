"""Structured check reports shared by the verification suites and the CLI."""

from __future__ import annotations

from typing import NamedTuple


class CheckReport(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "skipped"
    expected: str = ""
    got: str = ""
    probe: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def line(self) -> str:
        text = f"{self.name} expected={self.expected} got={self.got} {self.status}"
        if self.status == "fail" and self.probe:
            text += f" probe={self.probe}"
        return text


def report(name, ok, expected, got, probe="") -> CheckReport:
    return CheckReport(name, "pass" if ok else "fail", str(expected), str(got), str(probe))
