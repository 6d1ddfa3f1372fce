"""MCMC mutator selection (§2.2.2): Metropolis–Hastings over mutators.

The target distribution is geometric over the success-rate ranking:
``Pr(X = k) = (1 - p)^(k-1) · p`` for the mutator ranked ``k``.  Because
proposals are uniform (symmetric), the Metropolis choice reduces to

    A(mu1 → mu2) = min(1, (1 - p)^(k2 - k1))

so a proposal ranked better than the current mutator is always accepted,
and worse proposals are accepted with geometrically decaying probability.
Success rates are re-estimated and the ranking re-sorted after every
accepted representative classfile (Algorithm 1, lines 15–16).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.mutators.base import Mutator
from repro.observe.events import MCMC_TRANSITION

#: The paper's choice: p = 3/129 ≈ 0.023, inside the valid (0.022, 0.025).
DEFAULT_P = 3 / 129


def estimate_p_range(mutator_count: int = 129,
                     mass_floor: float = 0.95,
                     epsilon: float = 0.001) -> Tuple[float, float]:
    """The valid range for the geometric parameter ``p`` (§2.2.2).

    The three conditions:

    1. the distribution places at least ``mass_floor`` of its mass on the
       first ``mutator_count`` ranks: ``1 - (1-p)^n ≥ mass_floor``;
    2. the top-ranked mutator is favoured over uniform: ``p ≥ 1/n``;
    3. the bottom-ranked mutator keeps a chance above ``epsilon``:
       ``(1-p)^(n-1) · p > epsilon``.

    Returns:
        ``(low, high)`` with ``low`` from conditions 1–2 and ``high`` from
        condition 3 (found numerically).
    """
    n = mutator_count
    low_mass = 1.0 - (1.0 - mass_floor) ** (1.0 / n)
    low = max(low_mass, 1.0 / n)
    # Condition 3: find the largest p with (1-p)^(n-1) * p > epsilon.
    high = 1.0
    lo, hi = low, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if (1.0 - mid) ** (n - 1) * mid > epsilon:
            lo = mid
        else:
            hi = mid
    high = lo
    return low, high


def geometric_pmf(rank: int, p: float = DEFAULT_P) -> float:
    """``Pr(X = rank)`` for a 1-based rank."""
    if rank < 1:
        raise ValueError("rank is 1-based")
    return (1.0 - p) ** (rank - 1) * p


@dataclass
class MutatorStats:
    """Per-mutator bookkeeping.

    Attributes:
        selected: how many times the mutator was chosen for a mutation.
        successes: how many representative classfiles it created.
    """

    selected: int = 0
    successes: int = 0

    @property
    def success_rate(self) -> float:
        """``succ(mu)`` of §2.2.2 (0 when never selected)."""
        if self.selected == 0:
            return 0.0
        return self.successes / self.selected


class McmcMutatorSelector:
    """Metropolis–Hastings mutator sampler (Algorithm 1, lines 3–10)."""

    def __init__(self, mutators: Sequence[Mutator],
                 p: float = DEFAULT_P,
                 rng: Optional[random.Random] = None,
                 telemetry=None, algorithm: str = ""):
        if not mutators:
            raise ValueError("need at least one mutator")
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
        self.p = p
        self.rng = rng or random.Random()
        self.telemetry = telemetry
        #: The run's label (e.g. ``classfuzz[stbr]``), stamped on every
        #: ``mcmc_transition`` event as on the run's ``iteration`` events.
        self.algorithm = algorithm
        if telemetry is not None:
            self._transitions = telemetry.registry.counter(
                "repro_mcmc_transitions_total",
                "Accepted Metropolis-Hastings chain steps.")
            self._proposals = telemetry.registry.counter(
                "repro_mcmc_proposals_total",
                "Proposals drawn by the Metropolis-Hastings chain "
                "(including rejected ones).")
        else:
            self._transitions = self._proposals = None
        #: Mutators sorted by descending success rate.  Ties are ordered
        #: randomly at every resort so the all-zero cold start (and any
        #: later tie group) carries no registry-order bias in the
        #: Metropolis choice, while the between-group index gaps keep the
        #: full geometric selection pressure.
        self.ranked: List[Mutator] = list(mutators)
        self.stats: Dict[str, MutatorStats] = {
            mutator.name: MutatorStats() for mutator in mutators}
        self._index: Dict[str, int] = {}
        self._resort()
        #: The chain's current sample (line 3: a random initial mutator).
        self.current: Mutator = self.rng.choice(self.ranked)

    # -- the chain ------------------------------------------------------------

    def next_mutator(self) -> Mutator:
        """Draw the next sample via the Metropolis choice.

        Proposes uniformly until a proposal is accepted with probability
        ``A(mu1 → mu2) = min(1, (1-p)^(k2-k1))``, then advances the chain
        (line 17): a proposal ranked at least as well as the current
        mutator is always accepted; a worse one with geometrically
        decaying probability.
        """
        previous = self.current.name
        k1 = self._index[previous]
        proposals = 0
        while True:
            proposal = self.rng.choice(self.ranked)
            proposals += 1
            k2 = self._index[proposal.name]
            if k2 <= k1:
                break  # A = 1: better (or equal) rank always accepted
            if self.rng.random() < (1.0 - self.p) ** (k2 - k1):
                break
        self.current = proposal
        self.stats[proposal.name].selected += 1
        if self.telemetry is not None:
            self._record_transition(previous, proposal, k1, k2, proposals)
        return proposal

    def _record_transition(self, previous: str, proposal: Mutator,
                           k1: int, k2: int, proposals: int) -> None:
        self._transitions.inc()
        self._proposals.inc(proposals)
        if self.telemetry.bus.enabled:
            self.telemetry.bus.emit(
                MCMC_TRANSITION, algorithm=self.algorithm,
                frm=previous, to=proposal.name,
                from_rank=k1 + 1, to_rank=k2 + 1,
                proposals=proposals,
                success_rate=self.stats[proposal.name].success_rate)

    def next_mutators(self, count: int) -> List[Mutator]:
        """Draw ``count`` consecutive chain samples (one batch round).

        The speculative pipeline draws a whole batch of selections before
        any acceptance feedback arrives, so all ``count`` draws walk the
        chain against the *same* ranking — the bounded staleness the
        batched pipeline trades for throughput.  At ``count=1`` this is
        exactly one :meth:`next_mutator` call.
        """
        return [self.next_mutator() for _ in range(count)]

    def acceptance_probability(self, current: Mutator,
                               proposal: Mutator) -> float:
        """``A(mu1 → mu2)`` for inspection and tests."""
        k1 = self._index[current.name]
        k2 = self._index[proposal.name]
        return min(1.0, (1.0 - self.p) ** (k2 - k1))

    # -- feedback -------------------------------------------------------------------

    def record_success(self, mutator: Mutator) -> None:
        """Credit ``mutator`` with a representative classfile and re-sort
        (Algorithm 1, lines 15–16)."""
        self.stats[mutator.name].successes += 1
        self._resort()

    def _resort(self) -> None:
        tiebreak = {mutator.name: self.rng.random()
                    for mutator in self.ranked}
        self.ranked.sort(
            key=lambda mutator: (-self.stats[mutator.name].success_rate,
                                 tiebreak[mutator.name]))
        self._index = {mutator.name: i
                       for i, mutator in enumerate(self.ranked)}

    # -- checkpointing --------------------------------------------------------

    def get_state(self) -> Dict[str, object]:
        """Picklable chain state: stats, ranking order, current sample."""
        return {
            "kind": "mcmc",
            "stats": {name: (stats.selected, stats.successes)
                      for name, stats in self.stats.items()},
            "ranked": [mutator.name for mutator in self.ranked],
            "current": self.current.name,
        }

    def set_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`get_state` snapshot onto this mutator set.

        Raises:
            ValueError: when the snapshot came from a different selector
                kind or a different mutator set.
        """
        if state.get("kind") != "mcmc":
            raise ValueError(
                f"checkpoint selector kind {state.get('kind')!r} does "
                "not match this run's 'mcmc'")
        by_name = {mutator.name: mutator for mutator in self.ranked}
        if set(state["ranked"]) != set(by_name):
            raise ValueError(
                "checkpoint mutator set does not match this run's")
        self.stats = {name: MutatorStats(selected, successes)
                      for name, (selected, successes)
                      in state["stats"].items()}
        self.ranked = [by_name[name] for name in state["ranked"]]
        self._index = {mutator.name: i
                       for i, mutator in enumerate(self.ranked)}
        self.current = by_name[state["current"]]

    # -- reporting ---------------------------------------------------------------------

    def report(self) -> List[Tuple[str, int, int, float]]:
        """``(name, selected, successes, success_rate)`` rows, rank order."""
        return [(mutator.name,
                 self.stats[mutator.name].selected,
                 self.stats[mutator.name].successes,
                 self.stats[mutator.name].success_rate)
                for mutator in self.ranked]


class UniformMutatorSelector:
    """The guidance-free selector used by uniquefuzz/randfuzz/greedyfuzz."""

    def __init__(self, mutators: Sequence[Mutator],
                 rng: Optional[random.Random] = None):
        if not mutators:
            raise ValueError("need at least one mutator")
        self.mutators = list(mutators)
        self.rng = rng or random.Random()
        self.stats: Dict[str, MutatorStats] = {
            mutator.name: MutatorStats() for mutator in mutators}

    def next_mutator(self) -> Mutator:
        """Uniformly random choice."""
        mutator = self.rng.choice(self.mutators)
        self.stats[mutator.name].selected += 1
        return mutator

    def next_mutators(self, count: int) -> List[Mutator]:
        """Draw ``count`` uniform selections (one batch round)."""
        return [self.next_mutator() for _ in range(count)]

    def record_success(self, mutator: Mutator) -> None:
        self.stats[mutator.name].successes += 1

    def get_state(self) -> Dict[str, object]:
        """Picklable tallies (same checkpoint protocol as the MCMC chain)."""
        return {
            "kind": "uniform",
            "stats": {name: (stats.selected, stats.successes)
                      for name, stats in self.stats.items()},
        }

    def set_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`get_state` snapshot onto this mutator set."""
        if state.get("kind") != "uniform":
            raise ValueError(
                f"checkpoint selector kind {state.get('kind')!r} does "
                "not match this run's 'uniform'")
        if set(state["stats"]) != set(self.stats):
            raise ValueError(
                "checkpoint mutator set does not match this run's")
        self.stats = {name: MutatorStats(selected, successes)
                      for name, (selected, successes)
                      in state["stats"].items()}

    def report(self) -> List[Tuple[str, int, int, float]]:
        """Same shape as :meth:`McmcMutatorSelector.report`."""
        rows = [(mutator.name,
                 self.stats[mutator.name].selected,
                 self.stats[mutator.name].successes,
                 self.stats[mutator.name].success_rate)
                for mutator in self.mutators]
        rows.sort(key=lambda row: -row[3])
        return rows
