"""Star multiple-sequence-alignment consensus reconstruction.

Section 1.1.2 lists Multiple Sequence Alignment among the classic trace
reconstruction approaches.  Full MSA is NP-hard; the standard practical
surrogate is *star alignment*: pick a centre copy (the one with minimum
total edit distance to the others), align every copy to it, and take a
column-wise vote — including vote columns for insertions relative to the
centre.

Compared to the Iterative algorithm this does a single global voting
round around a real copy rather than an evolving estimate; it is a
useful mid-strength baseline between BMA and Iterative.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from repro.align.kernels import edit_distances_one_to_many
from repro.align.operations import OpKind, edit_operations_batch
from repro.reconstruct.base import Reconstructor


class StarMSAConsensus(Reconstructor):
    """Star-alignment column consensus.

    Args:
        max_centre_candidates: the centre is chosen among the first this
            many copies (total-distance scoring is quadratic in cluster
            size; clusters rarely need more).
    """

    name = "Star MSA"

    def __init__(self, max_centre_candidates: int = 8) -> None:
        if max_centre_candidates < 1:
            raise ValueError(
                f"max_centre_candidates must be >= 1, got {max_centre_candidates}"
            )
        self.max_centre_candidates = max_centre_candidates

    def reconstruct(self, copies: Sequence[str], strand_length: int) -> str:
        if not copies:
            return ""
        if len(copies) == 1:
            return copies[0][:strand_length]
        centre = self._choose_centre(copies)
        # Column votes over the centre's coordinates.
        base_votes: list[Counter] = [Counter() for _ in range(len(centre))]
        delete_votes = [0] * len(centre)
        insert_votes: list[Counter] = [Counter() for _ in range(len(centre) + 1)]
        alignments = edit_operations_batch((centre, copy) for copy in copies)
        for operations in alignments:
            for operation in operations:
                position = operation.reference_position
                if operation.kind is OpKind.INSERTION:
                    insert_votes[min(position, len(centre))][
                        operation.copy_base
                    ] += 1
                elif operation.kind is OpKind.DELETION:
                    delete_votes[position] += 1
                else:
                    base_votes[position][operation.copy_base] += 1
        half = len(copies) / 2.0
        consensus: list[str] = []
        for position in range(len(centre)):
            insertion = insert_votes[position].most_common(1)
            if insertion and insertion[0][1] > half:
                consensus.append(insertion[0][0])
            if delete_votes[position] > half:
                continue
            counts = base_votes[position]
            if counts:
                best = max(counts.values())
                consensus.append(
                    min(base for base, count in counts.items() if count == best)
                )
        tail = insert_votes[len(centre)].most_common(1)
        if tail and tail[0][1] > half:
            consensus.append(tail[0][0])
        return "".join(consensus)[:strand_length]

    def _choose_centre(self, copies: Sequence[str]) -> str:
        candidates = copies[: self.max_centre_candidates]
        best_copy = candidates[0]
        best_score = None
        for candidate in candidates:
            # One-vs-many kernel: each candidate centre's pattern masks
            # are built once and swept over the whole cluster.
            score = sum(edit_distances_one_to_many(candidate, copies))
            if best_score is None or score < best_score:
                best_score = score
                best_copy = candidate
        return best_copy
