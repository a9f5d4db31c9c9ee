"""Active/Dormant account status (Section III-D).

A pseudo-honeypot node only earns its keep while its parasitic body is
*Active* — posting recently and drawing mentions.  Dormant accounts are
dropped at the next hourly switch.  The policy reads only public data:
the account's recent timeline through the REST API, or its last-post
time already observed in the sample stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..twittersim.api.rest import RestClient
from ..twittersim.clock import SECONDS_PER_HOUR
from ..twittersim.errors import TwitterSimError


@dataclass(frozen=True)
class ActivityPolicy:
    """Defines *Active*: posted within the last ``window_hours``.

    Attributes:
        window_hours: recency horizon for the last post.
    """

    window_hours: float = 24.0

    def is_active_from_history(
        self, last_post_at: float | None, now: float
    ) -> bool:
        """Active test from an already-observed last-post timestamp."""
        if last_post_at is None:
            return False
        return now - last_post_at <= self.window_hours * SECONDS_PER_HOUR

    def is_active(self, rest: RestClient, user_id: int, now: float) -> bool:
        """Active test via a REST timeline read (Dormant on any error)."""
        try:
            last_post_at = rest.latest_post_time(user_id)
        except TwitterSimError:
            return False
        return self.is_active_from_history(last_post_at, now)
