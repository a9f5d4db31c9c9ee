"""The 16 account-profile features (Section IV-A, "Account Profile").

Extracted from the profile snapshot embedded in tweet JSON, for both
the sender and — when the tweet mentions a pseudo-honeypot node — the
receiver.  Tweets without an applicable receiver get a zero block
(footnote 2: receiver features exist only for receivers we can single
out).

The extractor gathers each row's raw profile fields and
:func:`profile_block` turns a whole batch of them into feature blocks
column-wise.
"""

from __future__ import annotations

import numpy as np

from ..twittersim.clock import SECONDS_PER_DAY

N_PROFILE_FEATURES = 16


def profile_block(fields: np.ndarray, now: np.ndarray) -> np.ndarray:
    """The (m, 16) profile features of m gathered profiles.

    Args:
        fields: (m, 13) float64 raw fields: friends, followers,
            statuses, listed and favourites counts, verified, default
            profile image, screen-name, name and description lengths,
            description emoji and digit counts, and ``created_at``.
        now: (m,) extraction time of each row.

    Age is ``max((now - created_at) / SECONDS_PER_DAY, 1.0)`` days —
    clamped so the per-day averages stay finite for brand-new
    accounts — and each per-day average divides its count by it.
    """
    out = np.empty((len(fields), N_PROFILE_FEATURES))
    age = np.maximum((now - fields[:, 12]) / SECONDS_PER_DAY, 1.0)
    out[:, 0:2] = fields[:, 0:2]  # friends, followers
    out[:, 2] = age
    out[:, 3] = fields[:, 2]  # statuses
    np.divide(fields[:, 2], age, out=out[:, 4])
    out[:, 5] = fields[:, 3]  # listed
    np.divide(fields[:, 3], age, out=out[:, 6])
    np.divide(fields[:, 4], age, out=out[:, 7])
    out[:, 8:16] = fields[:, 4:12]  # favourites .. description digits
    return out
