"""The Iterative reconstruction algorithm (Sabary, Yucovich, Shapira,
Yaakobi — "Reconstruction Algorithms for DNA-Storage Systems").

The algorithm builds an initial one-way consensus and then *iterates*:
each round re-aligns every noisy copy against the current estimate using
maximum-likelihood edit operations and applies every correction a
majority of copies agrees on (substitute a position, delete a spurious
position, insert a missing base).  Rounds repeat until a fixed point or a
round cap.

Behavioural properties the paper measures and that emerge here:

* **strength** — edit-distance re-alignment corrects interior errors far
  better than pointer voting, so per-strand accuracy beats BMA on real
  data (Table 2.2: 66.7% vs 29.0% at N = 5);
* **one-directional error propagation** — the estimate is never assembled
  from a backward pass, so residual indels push Hamming errors toward the
  end of the strand: the post-reconstruction Hamming curve is linear, not
  A-shaped (Fig. 3.4a), and the paper proposes two-way execution as the
  fix (Section 4.3, implemented in :mod:`repro.reconstruct.two_way`);
* **deletion-dominated residuals** — unsupported positions are deleted
  and never padded back, so most surviving errors are deletions
  (Section 3.4.1 reports 90%);
* **terminal sensitivity** — votes at the last positions are easily
  overwhelmed when errors concentrate there, which is exactly the
  over-correction the paper's three-position skew model triggers
  (Tables 3.1/3.2).
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Sequence

from repro.align.operations import OpKind, edit_operations_batch
from repro.reconstruct.base import Reconstructor
from repro.reconstruct.bma import bma_forward_pass


class IterativeReconstruction(Reconstructor):
    """Iterative majority-correction reconstruction.

    Args:
        rounds: maximum refinement rounds (3 by default; rounds stop
            early at a fixed point).
        seed: seed for edit-operation tie-breaking among equally likely
            alignments; None keeps alignment deterministic.
    """

    name = "Iterative"

    def __init__(self, rounds: int = 3, seed: int | None = None) -> None:
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        self.rounds = rounds
        self.rng = random.Random(seed) if seed is not None else None

    def reconstruct(self, copies: Sequence[str], strand_length: int) -> str:
        if not copies:
            return ""
        estimate = bma_forward_pass(copies, strand_length)
        for _ in range(self.rounds):
            refined = self._refine(estimate, copies, strand_length)
            if refined == estimate:
                break
            estimate = refined
        # The designed length is known: surplus bases at the tail are cut.
        # Deficits are *not* padded — missing bases stay missing, which is
        # why the algorithm's residual errors are deletion-dominated.
        return estimate[:strand_length]

    # ---------------------------------------------------------------- #

    def _refine(
        self, estimate: str, copies: Sequence[str], strand_length: int
    ) -> str:
        """One correction round: align every copy to the estimate (in one
        lane-batched call) and apply majority-supported edits."""
        length = len(estimate)
        # votes[i] counts, for estimate position i: keep/substitute-to-base
        # (by emitted base) and deletion.
        base_votes: list[Counter] = [Counter() for _ in range(length)]
        delete_votes = [0] * length
        insert_votes: list[Counter] = [Counter() for _ in range(length + 1)]
        voters = [0] * length

        alignments = edit_operations_batch(
            ((estimate, copy) for copy in copies), self.rng
        )
        for operations in alignments:
            for operation in operations:
                position = operation.reference_position
                if operation.kind is OpKind.INSERTION:
                    # Canonicalise within homopolymer runs: inserting X
                    # anywhere inside a run of X is one and the same event;
                    # without this, votes from different copies fragment
                    # across equivalent positions and majorities are lost.
                    position = self._canonical_insertion(
                        estimate, min(position, length), operation.copy_base
                    )
                    insert_votes[position][operation.copy_base] += 1
                    continue
                if operation.kind is OpKind.DELETION:
                    position = self._canonical_deletion(estimate, position)
                    voters[position] += 1
                    delete_votes[position] += 1
                else:  # EQUAL or SUBSTITUTION: a vote for the emitted base
                    voters[position] += 1
                    base_votes[position][operation.copy_base] += 1

        half = len(copies) / 2.0
        refined: list[str] = []
        # Map original estimate positions to positions in `refined` so the
        # length-repair pass below can insert at the right spots.
        position_map: list[int] = []
        applied_insertions: set[int] = set()
        for position in range(length):
            insertion = self._majority_insertion(insert_votes[position], half)
            if insertion is not None:
                refined.append(insertion)
                applied_insertions.add(position)
            position_map.append(len(refined))
            if delete_votes[position] > half:
                continue  # a majority says this position is spurious
            counts = base_votes[position]
            if counts:
                best = max(counts.values())
                refined.append(
                    min(base for base, count in counts.items() if count == best)
                )
            else:
                refined.append(estimate[position])
        tail_insertion = self._majority_insertion(insert_votes[length], half)
        if tail_insertion is not None:
            refined.append(tail_insertion)
            applied_insertions.add(length)
        position_map.append(len(refined))
        return self._repair_length(
            refined,
            strand_length,
            insert_votes,
            applied_insertions,
            position_map,
        )

    def _repair_length(
        self,
        refined: list[str],
        strand_length: int,
        insert_votes: list[Counter],
        applied_insertions: set[int],
        position_map: list[int],
    ) -> str:
        """Length-aware repair: the design length L is known, so when the
        estimate comes up short, apply the strongest *sub-majority*
        insertion candidates (at least two supporting copies) to close the
        deficit.  This recovers bases whose restoration votes were split
        across equivalent alignments — without it, near-tie deletions are
        unrecoverable and per-strand accuracy collapses."""
        deficit = strand_length - len(refined)
        if deficit <= 0:
            return "".join(refined)
        candidates: list[tuple[int, int, int, str]] = []  # (-votes, pos, new_pos, base)
        for position, counts in enumerate(insert_votes):
            if position in applied_insertions or not counts:
                continue
            base, votes = counts.most_common(1)[0]
            if votes >= 2:
                candidates.append(
                    (-votes, position, position_map[min(position, len(position_map) - 1)], base)
                )
        candidates.sort()
        chosen = candidates[:deficit]
        # Insert right-to-left so earlier insertion points stay valid.
        for _negative_votes, _position, new_position, base in sorted(
            chosen, key=lambda item: -item[2]
        ):
            refined.insert(new_position, base)
        return "".join(refined)

    @staticmethod
    def _canonical_insertion(estimate: str, position: int, base: str) -> int:
        """Slide an insertion point to the left edge of a run of ``base``."""
        while position > 0 and estimate[position - 1] == base:
            position -= 1
        return position

    @staticmethod
    def _canonical_deletion(estimate: str, position: int) -> int:
        """Slide a deletion to the left edge of its homopolymer run."""
        while position > 0 and estimate[position - 1] == estimate[position]:
            position -= 1
        return position

    @staticmethod
    def _majority_insertion(counts: Counter, half: float) -> str | None:
        """The base a strict majority of copies wants inserted, if any."""
        if not counts:
            return None
        base, count = counts.most_common(1)[0]
        if count > half:
            return base
        return None
