"""Validation errors that name the field each broken rule belongs to."""
from __future__ import annotations


class FieldErrors(ValueError):
    """Every rule a constructor found broken, each as ``"field: message"``.

    ``str()`` joins the messages, so the error reads like a plain ValueError;
    the configuration layer prefixes each field with its JSON path.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def check(rules) -> None:
    """Raise FieldErrors listing every ``(passed, field, message)`` rule
    that did not pass."""
    errors = [f"{name}: {message}" for passed, name, message in rules if not passed]
    if errors:
        raise FieldErrors(errors)
