"""How the testing loops skip a generated statement that fails."""

from __future__ import annotations

from repro.errors import ReproError


class SkipFailures:
    """Context manager skipping a statement that fails, as SQLancer skips
    statements a real DBMS rejects (a :class:`~repro.errors.ReproError`).

    Any other exception is a defect of this program: skipped too, so the
    round completes, but counted in :attr:`unexpected`.  :attr:`failed`
    tells whether the last block was skipped.
    """

    def __init__(self) -> None:
        self.unexpected = 0
        self.failed = False

    @classmethod
    def load(cls, dialect, statements) -> "SkipFailures":
        """Run the set-up *statements* on *dialect*, skipping the ones it
        rejects (e.g. a key violation), then analyze its tables.

        Returns the skipper, so the loop that follows keeps counting.
        """
        skip = cls()
        for statement in statements:
            with skip:
                dialect.execute(statement)
        dialect.analyze_tables()
        return skip

    def __enter__(self) -> "SkipFailures":
        return self

    def __exit__(self, kind, value, traceback) -> bool:
        self.failed = kind is not None and issubclass(kind, Exception)
        if self.failed and not issubclass(kind, ReproError):
            self.unexpected += 1
        return self.failed
