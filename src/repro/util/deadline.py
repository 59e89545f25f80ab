"""Deadlines and cooperative cancellation for the request lifecycle.

A :class:`Deadline` is an absolute point on the monotonic clock; a
:class:`CancelToken` couples an optional deadline with an explicit cancel
signal and is threaded through the execution stack (service admission →
engine phases → backend queries). Work checks the token at natural
boundaries — phase transitions, incremental rounds, per-query — and raises
the appropriate typed :class:`~repro.util.errors.ServiceError` when the
budget is gone.

Backends sit several layers below the planner and must not grow token
parameters through every signature, so the module also provides a
thread-local *cancel scope*: the engine installs the active token with
:func:`cancel_scope` and backends consult :func:`current_token` /
:func:`check_current` without any plumbing. Scopes are per-thread, so
work handed to pool threads re-installs the submitter's token there
(:func:`~repro.optimizer.parallel.run_steps` does this per claimer).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.util.errors import Cancelled, ConfigError, DeadlineExceeded

__all__ = [
    "CancelToken",
    "Deadline",
    "cancel_scope",
    "check_current",
    "current_token",
]


class Deadline:
    """An absolute expiry instant on the monotonic clock."""

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float):
        self.expires_at = float(expires_at)

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        return cls(time.monotonic() + float(seconds))

    @classmethod
    def from_ms(cls, deadline_ms: "float | None") -> "Optional[Deadline]":
        """A deadline ``deadline_ms`` from now, or None when unset."""
        if deadline_ms is None:
            return None
        ms = float(deadline_ms)
        if ms <= 0:
            raise ConfigError(f"deadline_ms must be positive, got {deadline_ms!r}")
        return cls.after(ms / 1000.0)

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self.expires_at - time.monotonic()

    def remaining_ms(self) -> float:
        return self.remaining() * 1000.0

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


class CancelToken:
    """Explicit-cancel signal plus an optional deadline, checked cooperatively.

    ``cancel()`` is idempotent and thread-safe; callbacks registered with
    :meth:`on_cancel` run exactly once, on the cancelling thread (used
    e.g. to ``interrupt()`` a DuckDB connection). Deadline expiry is
    *polled* — :meth:`check` / :meth:`should_stop` compute it on demand —
    so no timer thread exists per request.
    """

    def __init__(self, deadline: "Deadline | None" = None):
        self.deadline = deadline
        self._lock = threading.Lock()
        self._cancelled = False
        self._reason = ""
        self._callbacks: "list[Callable[[], None]]" = []

    @property
    def cancelled(self) -> bool:
        """True only on explicit :meth:`cancel` — not on deadline expiry."""
        return self._cancelled

    def expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired()

    def should_stop(self) -> bool:
        """Cheap predicate for hot loops (e.g. SQLite progress handler)."""
        return self._cancelled or self.expired()

    def cancel(self, reason: str = "request cancelled") -> None:
        with self._lock:
            if self._cancelled:
                return
            self._cancelled = True
            self._reason = reason
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            try:
                callback()
            except Exception:
                pass

    def on_cancel(self, callback: Callable[[], None]) -> Callable[[], None]:
        """Register ``callback`` to run on cancel; returns an unregister fn.

        If the token is already cancelled the callback fires immediately.
        """
        with self._lock:
            if not self._cancelled:
                self._callbacks.append(callback)

                def _unregister() -> None:
                    with self._lock:
                        try:
                            self._callbacks.remove(callback)
                        except ValueError:
                            pass

                return _unregister
        callback()
        return lambda: None

    def error(self) -> "Exception | None":
        """The typed error this token currently implies, or None."""
        if self._cancelled:
            return Cancelled(self._reason or "request cancelled")
        if self.expired():
            return DeadlineExceeded("deadline_ms budget exhausted")
        return None

    def check(self) -> None:
        """Raise ``Cancelled`` / ``DeadlineExceeded`` if the token stopped."""
        error = self.error()
        if error is not None:
            raise error

    def check_cancel(self) -> None:
        """Raise only on explicit cancel — lets deadline-partial work finish."""
        if self._cancelled:
            raise Cancelled(self._reason or "request cancelled")

    def remaining(self) -> "float | None":
        """Seconds of deadline budget left, or None when no deadline."""
        if self.deadline is None:
            return None
        return self.deadline.remaining()

    def remaining_ms(self) -> "float | None":
        remaining = self.remaining()
        return None if remaining is None else remaining * 1000.0


_SCOPE = threading.local()


def current_token() -> "CancelToken | None":
    """The cancel token installed for the calling thread, if any."""
    return getattr(_SCOPE, "token", None)


class cancel_scope:
    """Install ``token`` as the calling thread's current cancel token.

    ``with cancel_scope(token): ...`` — a ``None`` token is a no-op scope,
    so call sites need no conditional. Scopes nest; the previous token is
    restored on exit.
    """

    def __init__(self, token: "CancelToken | None"):
        self._token = token
        self._previous: "CancelToken | None" = None

    def __enter__(self) -> "CancelToken | None":
        self._previous = getattr(_SCOPE, "token", None)
        if self._token is not None:
            _SCOPE.token = self._token
        return self._token

    def __exit__(self, *exc_info) -> None:
        if self._token is not None:
            _SCOPE.token = self._previous


def check_current() -> None:
    """Raise if the calling thread's current cancel token has stopped."""
    token = current_token()
    if token is not None:
        token.check()
