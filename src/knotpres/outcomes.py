"""Three-valued results for decision procedures and semi-decisions."""

from __future__ import annotations

from typing import NamedTuple, Optional


# A NamedTuple may not define __new__, so the check is in a subclass.
class _CheckOutcome(NamedTuple):
    verdict: str
    evidence: Optional[dict] = None
    budget_used: Optional[int] = None


class CheckOutcome(_CheckOutcome):
    """yes / no / unknown, with optional evidence and budget accounting."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.verdict not in ("yes", "no", "unknown"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    @classmethod
    def yes(
        cls, evidence: Optional[dict] = None, budget_used: Optional[int] = None
    ) -> "CheckOutcome":
        return cls("yes", evidence, budget_used)

    @classmethod
    def no(
        cls, evidence: Optional[dict] = None, budget_used: Optional[int] = None
    ) -> "CheckOutcome":
        return cls("no", evidence, budget_used)

    @classmethod
    def unknown(
        cls, budget_used: Optional[int] = None, evidence: Optional[dict] = None
    ) -> "CheckOutcome":
        return cls("unknown", evidence, budget_used)

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes"

    @property
    def is_no(self) -> bool:
        return self.verdict == "no"

    @property
    def is_unknown(self) -> bool:
        return self.verdict == "unknown"

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.evidence is not None:
            out["evidence"] = self.evidence
        if self.budget_used is not None:
            out["budget_used"] = self.budget_used
        return out
