"""The mutation seed pool: scheduled picks, per-seed stats, lineage.

The fuzzing engine used to keep its seeds as a bare ``List[JClass]`` and
pick uniformly.  :class:`SeedPool` replaces that list with a corpus that

* tracks per-seed statistics — times picked, accepted children, the
  coverage novelty those children contributed, classfile byte size —
  which feed the v2 suite manifest and the campaign checkpoints;
* delegates the pick decision to a pluggable, deterministic
  :class:`~repro.corpus.schedule.SeedScheduler` (default: the paper's
  uniform policy, byte-identical to the historical ``rng.choice``);
* accumulates the pool-wide set of interned coverage sites so each
  accepted mutant's *novelty* (sites never hit before by the suite) can
  be credited back to the seed it was mutated from.

The pool itself never touches the RNG except through the scheduler, and
interned site ids never leave the process: :meth:`get_state` exports only
raw Python objects (the interned novelty set is rebuilt on restore by
re-absorbing tracefiles).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.corpus.schedule import SeedScheduler, make_scheduler
from repro.jimple.model import JClass

#: Entry origin markers.
ORIGIN_SEED = "seed"
ORIGIN_MUTANT = "mutant"


@dataclass
class SeedEntry:
    """One pool member and its scheduling statistics.

    Attributes:
        jclass: the Jimple form handed to mutators.
        label: the class name (manifest lineage key).
        origin: ``"seed"`` for corpus members, ``"mutant"`` for accepted
            representatives fed back (Algorithm 1, line 14).
        size: classfile byte size (0 when the seed was never dumped).
        picks: times the scheduler chose this entry.
        accepted: accepted children mutated from this entry.
        novelty: interned coverage sites first opened by those children.
    """

    jclass: JClass
    label: str
    origin: str = ORIGIN_SEED
    size: int = 0
    picks: int = 0
    accepted: int = 0
    novelty: int = 0

    def stats_row(self) -> Dict[str, object]:
        """The manifest/checkpoint view of this entry (no class body)."""
        return {"label": self.label, "origin": self.origin,
                "size": self.size, "picks": self.picks,
                "accepted": self.accepted, "novelty": self.novelty}


class SeedPool:
    """The scheduled corpus of mutation seeds.

    Attributes:
        scheduler: the pick policy (uniform unless configured).
        entries: pool members in insertion order — the original seed
            corpus first (``seed_count`` of them), accepted mutants after.
        seed_count: how many leading entries are original corpus seeds.
    """

    def __init__(self, seeds: Sequence[JClass],
                 scheduler: Optional[SeedScheduler] = None):
        self.scheduler = scheduler if scheduler is not None \
            else make_scheduler(None)
        self.entries: List[SeedEntry] = [
            SeedEntry(seed.clone(), seed.name) for seed in seeds]
        if not self.entries:
            raise ValueError("need at least one seed class")
        self.seed_count = len(self.entries)
        self._seen_statements: Set[int] = set()
        self._seen_branches: Set[int] = set()

    def __len__(self) -> int:
        return len(self.entries)

    # -- scheduling ---------------------------------------------------------

    def pick(self, rng: random.Random) -> Tuple[int, SeedEntry]:
        """Choose the next mutation seed; counts the pick."""
        index = self.scheduler.pick(rng, self.entries)
        entry = self.entries[index]
        entry.picks += 1
        return index, entry

    # -- feedback -----------------------------------------------------------

    def add(self, jclass: JClass, label: str, size: int = 0) -> int:
        """Feed an accepted representative back into the pool."""
        self.entries.append(SeedEntry(jclass, label,
                                      origin=ORIGIN_MUTANT, size=size))
        return len(self.entries) - 1

    def absorb(self, trace) -> int:
        """Fold a tracefile's sites into the pool-wide coverage set.

        Returns the *novelty*: how many interned statement/branch sites
        the trace hit that no previously absorbed trace had.  Seed
        priming absorbs the corpus's own coverage first, so mutant
        novelty is measured against the whole suite.
        """
        new = len(trace.stmt_ids - self._seen_statements) \
            + len(trace.br_ids - self._seen_branches)
        if new:
            self._seen_statements |= trace.stmt_ids
            self._seen_branches |= trace.br_ids
        return new

    def credit(self, index: int, novelty: int = 0) -> None:
        """Credit entry ``index`` with one accepted child."""
        entry = self.entries[index]
        entry.accepted += 1
        entry.novelty += novelty

    # -- reporting ----------------------------------------------------------

    def stats_rows(self, active_only: bool = True
                   ) -> List[Dict[str, object]]:
        """Per-seed stats rows (manifest v2's ``seed_stats``).

        ``active_only`` drops never-picked, never-credited corpus seeds
        so a 1,216-seed manifest stays readable; accepted mutants are
        always included (they *are* the lineage).
        """
        return [entry.stats_row() for entry in self.entries
                if not active_only or entry.picks or entry.accepted
                or entry.origin == ORIGIN_MUTANT]

    def summary(self) -> Dict[str, object]:
        """Aggregate pool statistics."""
        return {
            "scheduler": self.scheduler.name,
            "size": len(self.entries),
            "seed_count": self.seed_count,
            "total_picks": sum(e.picks for e in self.entries),
            "total_accepted": sum(e.accepted for e in self.entries),
            "total_novelty": sum(e.novelty for e in self.entries),
        }

    # -- checkpointing ------------------------------------------------------

    def get_state(self, ref: Optional[Callable[[JClass], object]] = None
                  ) -> Dict[str, object]:
        """Picklable pool state (no interned ids — see :meth:`set_state`).

        ``ref`` replaces each entry's Jimple with a reference to it (the
        checkpoint journal stores the bodies once); by default the Jimple
        stays inline.
        """
        body = ref if ref is not None else (lambda jclass: jclass)
        return {
            "scheduler": self.scheduler.spec(),
            "seed_count": self.seed_count,
            "entries": [(body(entry.jclass), entry.label, entry.origin,
                         entry.size, entry.picks, entry.accepted,
                         entry.novelty) for entry in self.entries],
        }

    def set_state(self, state: Dict[str, object]) -> None:
        """Restore entries and stats from :meth:`get_state` output.

        Entries must carry their Jimple inline: a checkpoint resolves
        the references it stored before restoring.  The interned novelty
        set is *not* restored — interned ids are process-local — so the
        resume path must re-absorb the seed-prime and accepted tracefiles
        (exactly what the fuzzing pipeline's priming step does).
        """
        spec = state["scheduler"]
        if spec["name"] != self.scheduler.name:
            raise ValueError(
                f"checkpoint used seed schedule {spec['name']!r}, "
                f"this run uses {self.scheduler.name!r}")
        self.seed_count = state["seed_count"]
        self.entries = [
            SeedEntry(jclass, label, origin=origin, size=size,
                      picks=picks, accepted=accepted, novelty=novelty)
            for jclass, label, origin, size, picks, accepted, novelty
            in state["entries"]]
        self._seen_statements = set()
        self._seen_branches = set()
