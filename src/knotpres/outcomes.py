"""Three-valued results for decision procedures and semi-decisions."""

from __future__ import annotations

from collections import namedtuple


class CheckOutcome(namedtuple("CheckOutcome", "verdict evidence budget_used",
                              defaults=(None, None))):
    """yes / no / unknown, with optional evidence and budget accounting."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.verdict not in ("yes", "no", "unknown"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    @classmethod
    def yes(cls, evidence: dict | None = None, budget_used: int | None = None) -> CheckOutcome:
        return cls("yes", evidence, budget_used)

    @classmethod
    def no(cls, evidence: dict | None = None, budget_used: int | None = None) -> CheckOutcome:
        return cls("no", evidence, budget_used)

    @classmethod
    def unknown(cls, budget_used: int | None = None, evidence: dict | None = None) -> CheckOutcome:
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
