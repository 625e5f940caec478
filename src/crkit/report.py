"""The one result shape of every pass/fail analysis.

A check either holds exactly, fails with a witness, or cannot be decided
from the data at hand.  Validation, the CR axioms, the fiber
globalization facts, the fine-classification conclusions and catalog
verification all return a Report of such Checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import format_rational


@dataclass(frozen=True)
class Check:
    """One named condition: ok is True, False, or None for not checkable.

    detail is the human-readable text shown with the result; witness, when
    the check failed, is the first counterexample found.
    """

    name: str
    ok: bool | None
    detail: str = ""
    witness: object = None


def witness_check(name, witness, prefix=""):
    """A check that holds exactly when no witness was found.

    The witness is a tuple of rationals (a vector or an index triple),
    shown with tuple punctuation and each entry as format_rational writes
    it: (0, 0, 2), (1, -1/2).
    """
    if witness is None:
        return Check(name, True)
    return Check(name, False, prefix + _format_tuple(witness), witness)


def _format_tuple(values):
    parts = [format_rational(x) for x in values]
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


@dataclass(frozen=True)
class Report:
    checks: tuple

    @property
    def ok(self):
        """True when every check holds; a not-checkable row is not a pass."""
        return all(c.ok is True for c in self.checks)

    def by_name(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self):
        """The checks that did not hold, including the not-checkable ones."""
        return [c for c in self.checks if c.ok is not True]
