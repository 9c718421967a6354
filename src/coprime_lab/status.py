"""Uniform status vocabulary for the theorem-encoding checks."""

from enum import Enum


class CheckStatus(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not-applicable"
    HYPOTHESIS_NOT_MET = "hypothesis-not-met"
    ERROR = "error"  # a resource limit, an unrealisable family or a crash: no verdict
