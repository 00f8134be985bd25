"""Rule schedulers: who gets searched, and how many matches get applied.

The :class:`~repro.egraph.runner.Runner` used to hard-code one policy —
every rule, every iteration, every match.  That policy is still the
default (:class:`SimpleScheduler`, bit-for-bit identical outcomes), but
the search and apply phases are now mediated by a :class:`RuleScheduler`,
so saturation can ration its budget instead of letting one exploding rule
(associativity is the usual culprit) drown every iteration:

* :class:`SimpleScheduler` — search everything, apply everything.
* :class:`BackoffScheduler` — egg's exponential-backoff policy: a rule
  whose match count blows past its (per-rule, doubling) threshold has the
  whole batch dropped and is banned for an exponentially growing number
  of iterations, freeing the iteration budget for cheap rules.
* :class:`MatchBudgetScheduler` — caps the matches *applied* per rule per
  iteration to a rotating window of the PR-3 sorted-bucket match order
  (children ids, payload), so the retained window — and therefore the
  whole run — is deterministic across processes.

**Soundness with incremental search.**  The runner only advances a rule's
incremental-scan stamp when every match found in an iteration was handed
to ``apply``.  Both curtailing schedulers report a dropped or truncated
batch via the second element of :meth:`RuleScheduler.admit`'s return
value, which keeps the stamp pinned: the next un-banned scan returns
every match using a row changed since the last *committed* scan, so
dropped matches are re-found rather than lost.

**Saturation detection.**  An iteration that applies zero unions only
proves saturation if no rule was skipped or curtailed along the way;
schedulers expose that through :meth:`RuleScheduler.exhaustive`, and the
runner keeps iterating (within its limits) instead of mis-reporting
``SATURATED`` while rules sit banned.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from repro.egraph.rewrite import Rewrite

__all__ = [
    "BackoffScheduler",
    "MatchBudgetScheduler",
    "RuleScheduler",
    "SimpleScheduler",
    "make_scheduler",
]

#: A match batch as produced by :meth:`Rewrite.search_rows`: flat
#: ``(class id, v0, v1, ..)`` rows.
MatchList = List[tuple]


class RuleScheduler:
    """Policy hooks the saturation loop consults around search and apply.

    The base class *is* the do-nothing policy; subclasses override the
    hooks they care about.  One scheduler instance drives one
    :meth:`Runner.run` at a time (:meth:`reset` re-arms it for reuse).
    """

    #: Spelling used by :func:`make_scheduler` and recorded in reports.
    name: str = "scheduler"

    def reset(self, rules: Sequence[Rewrite]) -> None:
        """Called once when a run starts, before the first iteration."""

    def begin_iteration(self, iteration: int) -> None:
        """Called at the top of every iteration, before any search."""

    def should_search(self, iteration: int, index: int, rule: Rewrite) -> bool:
        """Whether *rule* participates in this iteration's search phase."""

        return True

    def admit(
        self, iteration: int, index: int, rule: Rewrite, matches: MatchList
    ) -> Tuple[MatchList, bool]:
        """Decide which of *matches* the apply phase receives.

        Returns ``(matches_to_apply, complete)``.  ``complete`` must be
        False whenever any found match was dropped — the runner then keeps
        the rule's incremental-scan stamp unchanged so the dropped matches
        are re-found by a later scan.
        """

        return matches, True

    def end_iteration(self, iteration: int, applied: int) -> None:
        """Called after apply+rebuild with the iteration's union count."""

    def exhaustive(self) -> bool:
        """True if the scheduler can certify the iteration was exhaustive.

        Only then may the runner interpret an iteration with zero unions
        as saturation.  Trivially true for the base policy; curtailing
        schedulers must either have skipped nothing this iteration or
        otherwise prove that every pending match has been tried (see
        :meth:`MatchBudgetScheduler.exhaustive`).
        """

        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name!r}>"


class SimpleScheduler(RuleScheduler):
    """Every rule, every iteration, every match — the classic loop.

    This is the default and reproduces the pre-scheduler runner outcome
    bit for bit (same search order, same apply order, same stamps).
    """

    name = "simple"


class BackoffScheduler(RuleScheduler):
    """Exponential backoff per rule, after egg's ``BackoffScheduler``.

    Each rule starts with a match threshold of ``match_limit``.  When one
    search turns up more matches than the threshold, the batch is dropped
    and the rule is banned for ``ban_length << times_banned`` iterations;
    each ban doubles both the threshold and the next ban length.  Hot
    rules with huge match sets thus fire occasionally at full blast
    instead of dominating every iteration, while cheap rules keep running
    — the egg heuristic for not letting associativity starve the rest of
    the rule set.

    All state is integer arithmetic over deterministically ordered match
    lists, so backoff runs are byte-identical across processes.
    """

    name = "backoff"

    def __init__(self, match_limit: int = 1000, ban_length: int = 5) -> None:
        if match_limit < 1:
            raise ValueError("match_limit must be at least 1")
        if ban_length < 1:
            raise ValueError("ban_length must be at least 1")
        self.match_limit = match_limit
        self.ban_length = ban_length
        #: Per-rule-index ban counters (parallel to the runner's rules).
        self._times_banned: List[int] = []
        self._banned_until: List[int] = []
        self._curtailed = False

    def reset(self, rules: Sequence[Rewrite]) -> None:
        self._times_banned = [0] * len(rules)
        self._banned_until = [0] * len(rules)
        self._curtailed = False

    def begin_iteration(self, iteration: int) -> None:
        self._curtailed = False

    def should_search(self, iteration: int, index: int, rule: Rewrite) -> bool:
        if iteration < self._banned_until[index]:
            self._curtailed = True
            return False
        return True

    def admit(
        self, iteration: int, index: int, rule: Rewrite, matches: MatchList
    ) -> Tuple[MatchList, bool]:
        banned = self._times_banned[index]
        threshold = self.match_limit << banned
        if len(matches) > threshold:
            # drop the whole batch and ban the rule; the incremental-scan
            # stamp stays pinned (complete=False) so the next un-banned
            # scan re-finds these matches
            self._times_banned[index] = banned + 1
            self._banned_until[index] = iteration + 1 + (self.ban_length << banned)
            self._curtailed = True
            return [], False
        return matches, True

    def exhaustive(self) -> bool:
        # a zero-union iteration proves nothing while any rule sat out —
        # its banked matches may still union something once it returns
        # (every live ban trips should_search, which sets _curtailed)
        return not self._curtailed

    # -- introspection (tests, benchmarks) -------------------------------

    def stats_dict(self) -> Dict[str, Dict[str, int]]:
        """Per-rule-index ban state, for reports and assertions."""

        return {
            str(index): {"times_banned": banned, "banned_until": until}
            for index, (banned, until) in enumerate(
                zip(self._times_banned, self._banned_until)
            )
            if banned
        }


class MatchBudgetScheduler(RuleScheduler):
    """Cap the matches applied per rule per iteration at a fixed budget.

    Matches arrive in the PR-3 deterministic sorted-bucket order; each
    over-budget batch contributes a **rotating window** of that order —
    the window start advances by ``budget`` per truncated batch, wrapping
    around — so successive iterations work through the whole match set
    instead of re-applying the same prefix forever (the incremental-scan
    stamp stays pinned while truncating, so every batch re-finds the
    still-pending matches).  Window starts are a pure function of the
    iteration history, so truncated runs are reproducible across
    processes.
    """

    name = "match-budget"

    def __init__(self, budget: int = 256) -> None:
        if budget < 1:
            raise ValueError("budget must be at least 1")
        self.budget = budget
        self._curtailed = False
        #: Per-rule-index rotating window start into the match order.
        self._offset: List[int] = []
        #: Iterations one full rotation of this iteration's largest
        #: truncated batch takes (0 when nothing was truncated).
        self._iter_cycle = 0
        #: Consecutive zero-union truncated iterations, and the longest
        #: rotation cycle seen across them (see :meth:`exhaustive`).
        self._zero_streak = 0
        self._streak_cycle = 0

    def reset(self, rules: Sequence[Rewrite]) -> None:
        self._curtailed = False
        self._offset = [0] * len(rules)
        self._iter_cycle = 0
        self._zero_streak = 0
        self._streak_cycle = 0

    def begin_iteration(self, iteration: int) -> None:
        self._curtailed = False
        self._iter_cycle = 0

    def admit(
        self, iteration: int, index: int, rule: Rewrite, matches: MatchList
    ) -> Tuple[MatchList, bool]:
        n = len(matches)
        if n <= self.budget:
            # the whole batch fits: committed, and the rotation restarts
            # from the top of whatever the next over-budget batch holds
            self._offset[index] = 0
            return matches, True
        self._curtailed = True
        self._iter_cycle = max(self._iter_cycle, -(-n // self.budget))
        start = self._offset[index] % n
        self._offset[index] = start + self.budget
        window = matches[start : start + self.budget]
        if len(window) < self.budget:
            window += matches[: self.budget - len(window)]
        return window, False

    def end_iteration(self, iteration: int, applied: int) -> None:
        if applied == 0 and self._curtailed:
            self._zero_streak += 1
            self._streak_cycle = max(self._streak_cycle, self._iter_cycle)
        else:
            self._zero_streak = 0
            self._streak_cycle = 0

    def exhaustive(self) -> bool:
        # Truncated iterations can still certify saturation: a zero-union
        # iteration leaves the e-graph untouched, so the (pinned-stamp)
        # match lists of the next iteration are identical and the windows
        # keep rotating — once the zero streak spans a full rotation of
        # the largest truncated batch, every pending match has been
        # applied without producing a union.
        if not self._curtailed:
            return True
        return self._streak_cycle > 0 and self._zero_streak >= self._streak_cycle


def make_scheduler(
    spec: Union[None, str, RuleScheduler] = None
) -> RuleScheduler:
    """Build a scheduler from its CLI/config spelling.

    ``None`` and ``"simple"`` mean :class:`SimpleScheduler`;
    ``"backoff[:MATCH_LIMIT[:BAN_LENGTH]]"`` and
    ``"match-budget[:BUDGET]"`` parameterise the other two.  An existing
    :class:`RuleScheduler` passes through unchanged.
    """

    if spec is None:
        return SimpleScheduler()
    if isinstance(spec, RuleScheduler):
        return spec
    text = spec.strip().lower()
    name, _, params = text.partition(":")
    args = [p for p in params.split(":") if p] if params else []
    try:
        if name == "simple" and not args:
            return SimpleScheduler()
        if name == "backoff" and len(args) <= 2:
            return BackoffScheduler(*(int(a) for a in args))
        if name in ("match-budget", "budget") and len(args) <= 1:
            return MatchBudgetScheduler(*(int(a) for a in args))
    except ValueError as exc:
        raise ValueError(f"invalid scheduler spec {spec!r}: {exc}") from exc
    raise ValueError(
        f"unknown scheduler spec {spec!r}; expected simple, "
        f"backoff[:MATCH_LIMIT[:BAN_LENGTH]] or match-budget[:BUDGET]"
    )
