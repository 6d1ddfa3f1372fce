"""JVM execution outcomes and their encoding (§2.3 of the paper).

Each test run is simplified to a phase code: (0) normally invoked,
(1) rejected during loading, (2) rejected during linking, (3) rejected
during initialization, (4) rejected at runtime.  A *discrepancy* appears
when the per-JVM code vector is not constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Optional, Sequence, Tuple


class Phase(IntEnum):
    """Startup phase codes, ordered as in Figure 3 of the paper."""

    INVOKED = 0
    LOADING = 1
    LINKING = 2
    INITIALIZATION = 3
    RUNTIME = 4

    @property
    def label(self) -> str:
        return {
            Phase.INVOKED: "normally invoked",
            Phase.LOADING: "rejected during the creation/loading phase",
            Phase.LINKING: "rejected during the linking phase",
            Phase.INITIALIZATION: "rejected during the initialization phase",
            Phase.RUNTIME: "rejected at runtime",
        }[self]


@dataclass(frozen=True)
class Outcome:
    """The observable behaviour ``r`` of one JVM execution.

    Attributes:
        phase: the phase code (0 = the main method ran to completion).
        error: the Java error/exception simple name, or ``None`` when
            invoked normally.
        message: the error detail message.
        output: lines the program printed before stopping.
        jvm_name: which JVM produced this outcome.
        site: the check that raised ``error``; outside equality and hashing.
    """

    phase: Phase
    error: Optional[str] = None
    message: str = ""
    output: Tuple[str, ...] = ()
    jvm_name: str = ""
    site: Optional[str] = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        """Whether the class was normally invoked."""
        return self.phase is Phase.INVOKED

    @property
    def code(self) -> int:
        """The 0–4 phase code used in encoded sequences."""
        return int(self.phase)

    def brief(self) -> str:
        """One-line human summary."""
        if self.ok:
            return f"{self.jvm_name}: invoked normally"
        return f"{self.jvm_name}: {self.error} during {self.phase.name.lower()}"


def encode_outcomes(outcomes: Sequence[Outcome]) -> Tuple[int, ...]:
    """Encode a per-JVM outcome list into the paper's bit sequence."""
    return tuple(outcome.code for outcome in outcomes)


def encode_outcomes_fine(outcomes: Sequence[Outcome]
                         ) -> Tuple[Tuple[int, str], ...]:
    """The fine-grained encoding of §2.3: (phase, error class) per JVM.

    The phase-only simplification "can raise both false positives and
    negatives in practice because the JVMs may report different errors...
    thrown during the same phase"; comparing error classes as well removes
    the false negatives.
    """
    return tuple((outcome.code, outcome.error or "") for outcome
                 in outcomes)


def is_discrepancy(codes: Sequence[int]) -> bool:
    """Whether an encoded sequence indicates a JVM discrepancy."""
    return len(set(codes)) > 1


@dataclass
class DifferentialResult:
    """The outcome of running one classfile across all JVMs.

    Attributes:
        outcomes: per-JVM outcomes, in harness JVM order.
        label: an identifier for the classfile under test.
    """

    outcomes: List[Outcome] = field(default_factory=list)
    label: str = ""

    @property
    def codes(self) -> Tuple[int, ...]:
        return encode_outcomes(self.outcomes)

    @property
    def fine_codes(self) -> Tuple[Tuple[int, str], ...]:
        """The §2.3 fine-grained (phase, error) encoding."""
        return encode_outcomes_fine(self.outcomes)

    @property
    def is_discrepancy(self) -> bool:
        return is_discrepancy(self.codes)

    @property
    def is_fine_discrepancy(self) -> bool:
        """Discrepant under the fine-grained encoding (catches JVMs that
        reject in the same phase but with different error classes)."""
        return len(set(self.fine_codes)) > 1

    @property
    def all_invoked(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def all_rejected_same_stage(self) -> bool:
        codes = set(self.codes)
        return len(codes) == 1 and codes != {0}

    def summary(self) -> str:
        """Multi-line report of each JVM's behaviour."""
        lines = [f"class {self.label}: codes={self.codes}"]
        lines.extend("  " + outcome.brief() for outcome in self.outcomes)
        return "\n".join(lines)
