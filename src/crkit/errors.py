"""Exception hierarchy shared across the toolkit, and how a message echoes input."""


class CrkitError(Exception):
    """Base class for all toolkit errors."""


class InputError(CrkitError):
    """Malformed user input: bad file, bad dimensions, bad parameters."""


class StructureError(CrkitError):
    """A value violates a structural precondition (not an axiom failure).

    Axiom failures are report content; structural errors mean the question
    itself was ill-posed (h not inside R, J not preserving R, odd CR rank).
    """


class InternalError(CrkitError):
    """A mathematical invariant the code relies on was violated. Never expected."""


# longest piece of input an error message echoes in full
EXCERPT = 60


def excerpt(text):
    """text as a message shows it: past EXCERPT characters, a prefix and the length."""
    if len(text) <= EXCERPT:
        return text
    return f"{text[:EXCERPT]}... ({len(text)} characters)"
