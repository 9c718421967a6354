"""Uniform status vocabulary and result record for the theorem-encoding checks."""

from dataclasses import dataclass
from enum import Enum


class CheckStatus(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not-applicable"
    HYPOTHESIS_NOT_MET = "hypothesis-not-met"
    ERROR = "error"  # a resource limit, an unrealisable family or a crash: no verdict


@dataclass
class CheckResult:
    status: CheckStatus
    detail: str = ""
    wall_ms: float = 0.0

    def to_dict(self) -> dict:
        return {"status": self.status.value, "detail": self.detail, "wall_ms": self.wall_ms}
