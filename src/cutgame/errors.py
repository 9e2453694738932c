"""The error class of bad input from outside the program."""


class InputError(ValueError):
    """Input that validation refuses: a negative genus or budget, a
    malformed graph, a corpus that does not parse.  The CLI exits 64 on
    it; any other ``ValueError`` out of the engine or the oracles is an
    internal error (exit 70)."""
