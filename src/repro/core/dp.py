"""Algorithm 2 machinery: shared-block combinations and knapsack solvers.

The Spec solver decomposes each per-server sub-problem **P2.1m** into:

1. a traversal of *combinations of shared parameter blocks* ``N ∈ A``
   (:func:`enumerate_shared_combinations`), and
2. for each combination, a 0/1 knapsack over the eligible models' specific
   blocks within the capacity left after caching ``N``.

Four interchangeable knapsack backends are provided:

* :func:`knapsack_value_dp` — the paper's rounded DP over utility values
  (eq. 16/19): ``(1 - ε)``-optimal, polynomial in ``1/ε``;
* :func:`knapsack_weight_dp` — DP over quantised weights: exact up to the
  conservative ceiling of item sizes to the quantum;
* :func:`knapsack_branch_and_bound` — exact, no quantisation; the ε = 0
  reference used by the Fig. 6 optimality study and the test suite;
* :func:`knapsack_best_first` — the same exact search driven by a
  priority queue instead of depth-first recursion: it expands only nodes
  whose LP bound beats the incumbent, which collapses the node count on
  the wide-value instances that blow up the rounded DP.

:class:`ValueDpTables` memoises the capacity-independent part of the
rounded DP so a Spec solve that re-poses the same filtered sub-instance
across combinations and servers pays for the table fill once, and each
table memoises its backtrack per best state.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import SolverError
from repro.models.library import ModelLibrary


# ----------------------------------------------------------------------
# Shared-block combination enumeration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedCombination:
    """One element ``N`` of the combination set ``A``.

    Attributes
    ----------
    blocks:
        The shared block ids cached by this combination.
    size_bytes:
        ``d_N``: total size of those blocks.
    """

    blocks: FrozenSet[int]
    size_bytes: int


def _distinct_shared_sets(library: ModelLibrary) -> List[FrozenSet[int]]:
    """Distinct non-empty per-model shared-block sets."""
    seen: Set[FrozenSet[int]] = set()
    for model_id in library.model_ids:
        shared = library.shared_blocks_of(model_id)
        if shared:
            seen.add(shared)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def _group_nested_chains(
    shared_sets: Sequence[FrozenSet[int]],
) -> List[List[FrozenSet[int]]]:
    """Group shared sets into families of pairwise-overlapping sets.

    For layer-freezing libraries every family is a chain of nested
    prefixes of one root; the caller verifies nestedness.
    """
    parent = list(range(len(shared_sets)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for a, b in itertools.combinations(range(len(shared_sets)), 2):
        if shared_sets[a] & shared_sets[b]:
            union(a, b)
    groups: Dict[int, List[FrozenSet[int]]] = {}
    for index, shared in enumerate(shared_sets):
        groups.setdefault(find(index), []).append(shared)
    return [sorted(members, key=len) for members in groups.values()]


def _chains_are_nested(chain: Sequence[FrozenSet[int]]) -> bool:
    """Is ``chain`` (sorted by size) totally ordered by inclusion?"""
    for smaller, larger in zip(chain, chain[1:]):
        if not smaller <= larger:
            return False
    return True


class SharedCombinations(list):
    """The combination set ``A``: a list of :class:`SharedCombination`
    that also carries its dense form.

    Attributes
    ----------
    block_ids:
        The library's shared block ids in ascending order — the columns
        of ``mask``.
    mask:
        ``(|A|, B_shared)`` bool: row ``n`` marks the blocks of ``A[n]``.
    sizes:
        ``(|A|,)`` int64: ``d_N`` per combination (``A[n].size_bytes``).
    """

    def __init__(
        self,
        combos: Sequence[SharedCombination],
        block_ids: Sequence[int],
        mask: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        super().__init__(combos)
        self.block_ids = tuple(block_ids)
        self.mask = mask
        self.sizes = sizes


#: Per-library memo of enumerated combination sets. Libraries are
#: logically immutable and compared by identity, so weak keying is exact;
#: entries vanish with their library. A sweep that shares one library
#: across topologies (the paper fixes the library) enumerates ``A`` once
#: instead of once per solve.
_COMBINATION_CACHE: "weakref.WeakKeyDictionary[ModelLibrary, Dict[Tuple[str, int], SharedCombinations]]" = (
    weakref.WeakKeyDictionary()
)


def enumerate_shared_combinations(
    library: ModelLibrary,
    mode: str = "auto",
    max_combinations: int = 1_000_000,
    cache: bool = True,
) -> SharedCombinations:
    """Build the combination set ``A`` for Algorithm 2.

    With ``cache=True`` (default) the result is memoised per library
    object (treat it as immutable — every built-in path does); pass
    ``cache=False`` to force a fresh enumeration, e.g. for benchmarking
    the pre-cache pipeline.

    Sizes come from one integer matmul of the combination mask with the
    shared block sizes, so ``d_N`` is the exact integer block-size sum.

    Modes
    -----
    ``"exhaustive"``
        Every subset of the shared blocks — the paper's literal ``2^β``;
        only viable for tiny block counts (tests).
    ``"prefix"``
        Exploits the structure fine-tuning creates: per-model shared sets
        form nested chains (one per root/family), and a union of
        non-maximal prefixes of the *same* chain is never preferable, so
        ``A`` is the product over chains of (no prefix | one of its
        distinct prefixes). Raises :class:`SolverError` if the library's
        shared sets are not chain-structured.
    ``"auto"``
        ``"prefix"`` when the library is chain-structured, otherwise
        ``"exhaustive"``.

    Raises
    ------
    SolverError
        If the resulting ``A`` would exceed ``max_combinations``.
    """
    if mode not in ("auto", "prefix", "exhaustive"):
        raise SolverError(f"unknown combination mode {mode!r}")
    if cache:
        per_library = _COMBINATION_CACHE.setdefault(library, {})
        key = (mode, max_combinations)
        cached = per_library.get(key)
        if cached is None:
            cached = enumerate_shared_combinations(
                library, mode, max_combinations, cache=False
            )
            per_library[key] = cached
        return cached
    shared = sorted(library.shared_block_ids)
    column = {block_id: pos for pos, block_id in enumerate(shared)}
    block_sizes = np.array(
        [library.block_size(block_id) for block_id in shared], dtype=np.int64
    )

    def sized(
        blocks: Sequence[FrozenSet[int]], mask: np.ndarray
    ) -> SharedCombinations:
        sizes = mask.astype(np.int64) @ block_sizes
        combos = [
            SharedCombination(combo_blocks, size)
            for combo_blocks, size in zip(blocks, sizes.tolist())
        ]
        return SharedCombinations(combos, shared, mask, sizes)

    if not shared:
        return sized([frozenset()], np.zeros((1, 0), dtype=bool))

    if mode in ("auto", "prefix"):
        shared_sets = _distinct_shared_sets(library)
        chains = _group_nested_chains(shared_sets)
        nested = all(_chains_are_nested(chain) for chain in chains)
        if not nested and mode == "prefix":
            raise SolverError(
                "library's shared blocks are not chain-structured; "
                "use mode='exhaustive'"
            )
        if nested:
            count = 1
            for chain in chains:
                count *= len(chain) + 1
                if count > max_combinations:
                    raise SolverError(
                        f"combination set would exceed {max_combinations} "
                        f"elements; the library is too general for Spec"
                    )
            choice_lists = [
                [frozenset()] + list(chain) for chain in chains
            ]
            blocks = [
                frozenset().union(*selection)
                for selection in itertools.product(*choice_lists)
            ]
            # np.indices is C-ordered (last axis fastest) — exactly the
            # itertools.product order of ``blocks``.
            choice = np.indices([len(choices) for choices in choice_lists])
            choice = choice.reshape(len(chains), -1)
            mask = np.zeros((count, len(shared)), dtype=bool)
            for chain_pos, choices in enumerate(choice_lists):
                level_mask = np.zeros((len(choices), len(shared)), dtype=bool)
                for level, members in enumerate(choices):
                    level_mask[level, [column[b] for b in members]] = True
                mask |= level_mask[choice[chain_pos]]
            return sized(blocks, mask)

    count = 2 ** len(shared)
    if count > max_combinations:
        raise SolverError(
            f"2^{len(shared)} shared-block subsets exceed {max_combinations}; "
            "the library is too general for exhaustive enumeration"
        )
    mask = np.zeros((count, len(shared)), dtype=bool)
    blocks = []
    for r in range(len(shared) + 1):
        for subset in itertools.combinations(range(len(shared)), r):
            mask[len(blocks), list(subset)] = True
            blocks.append(frozenset(shared[pos] for pos in subset))
    return sized(blocks, mask)


# ----------------------------------------------------------------------
# Knapsack backends
# ----------------------------------------------------------------------
def _validate_knapsack(
    values: Sequence[float], weights: Sequence[int], capacity: int
) -> None:
    if len(values) != len(weights):
        raise SolverError("values and weights must have equal length")
    if capacity < 0:
        raise SolverError(f"capacity must be non-negative, got {capacity}")
    if any(v < 0 for v in values):
        raise SolverError("knapsack values must be non-negative")
    if any(w < 0 for w in weights):
        raise SolverError("knapsack weights must be non-negative")


def knapsack_value_dp(
    values: Sequence[float],
    weights: Sequence[int],
    capacity: int,
    epsilon: float = 0.1,
    max_states: int = 5_000_000,
) -> Tuple[float, List[int]]:
    """The paper's rounded value-dimension DP (Algorithm 2, eq. 16/19).

    Values are rounded to integers ``⌊v / (ε · v_min)⌋`` (``v_min`` =
    smallest positive value), then ``T[w] = minimal weight achieving
    rounded value w`` is filled item by item. Guarantees total value at
    least ``(1 - ε)`` of the optimum.

    A one-shot :class:`ValueDpTables` solve, so the fill (one boolean
    "improved" mask per item) and the backtrack over those masks exist
    once. Values are read as float64; selections and values are then
    bit-identical to the seed implementation (retained as
    :func:`repro.core.reference.reference_knapsack_value_dp`).

    Returns ``(true_value_of_selection, selected_indices)``.

    Raises
    ------
    SolverError
        If ``epsilon <= 0`` (use the exact backends instead) or the DP
        table would exceed ``max_states``.
    """
    _validate_knapsack(values, weights, capacity)
    if epsilon <= 0:
        raise SolverError("knapsack_value_dp requires epsilon > 0")
    return ValueDpTables(epsilon, max_states).solve(values, weights, capacity)


def knapsack_weight_dp(
    values: Sequence[float],
    weights: Sequence[int],
    capacity: int,
    quantum: int = 1_000_000,
    max_states: int = 50_000_000,
) -> Tuple[float, List[int]]:
    """DP over quantised weights: exact for the quantised instance.

    Item weights are *ceiled* to multiples of ``quantum`` (conservative:
    a returned selection always fits the true capacity). With byte-exact
    weights and ``quantum=1`` this is the textbook exact DP.
    """
    _validate_knapsack(values, weights, capacity)
    if quantum <= 0:
        raise SolverError(f"quantum must be positive, got {quantum}")
    cap_units = capacity // quantum
    items = [
        (index, float(values[index]), -(-int(weights[index]) // quantum))
        for index in range(len(values))
        if values[index] > 0
    ]
    items = [item for item in items if item[2] <= cap_units]
    if not items:
        return 0.0, []
    if (cap_units + 1) * len(items) > max_states:
        raise SolverError(
            f"weight DP needs {(cap_units + 1) * len(items)} states "
            f"(> {max_states}); increase the quantum"
        )
    best = np.zeros(cap_units + 1)
    take = np.zeros((len(items), cap_units + 1), dtype=bool)
    for item_pos, (_, value, weight_units) in enumerate(items):
        if weight_units == 0:
            # Fits for free after quantisation: always take.
            best += value
            take[item_pos, :] = True
            continue
        shifted = best[: cap_units + 1 - weight_units] + value
        segment = best[weight_units:]
        improved = shifted > segment
        segment[improved] = shifted[improved]
        take[item_pos, weight_units:] = improved
    units = int(np.argmax(best))
    selected = []
    for item_pos in range(len(items) - 1, -1, -1):
        if take[item_pos, units]:
            selected.append(items[item_pos][0])
            units -= items[item_pos][2]
    selected.reverse()
    true_value = float(sum(values[index] for index in selected))
    return true_value, selected


def knapsack_branch_and_bound(
    values: Sequence[float],
    weights: Sequence[int],
    capacity: int,
) -> Tuple[float, List[int]]:
    """Exact 0/1 knapsack via depth-first branch and bound.

    Items are explored in decreasing value density with the fractional
    (LP) relaxation as the pruning bound. Exponential worst case but fast
    at the sub-problem sizes Spec produces; the ε = 0 reference solver.
    """
    _validate_knapsack(values, weights, capacity)
    items = [
        (index, float(values[index]), int(weights[index]))
        for index in range(len(values))
        if values[index] > 0 and weights[index] <= capacity
    ]
    if not items:
        return 0.0, []
    items.sort(key=lambda item: item[1] / max(item[2], 1e-12), reverse=True)

    n = len(items)
    best_value = 0.0
    best_set: List[int] = []
    chosen: List[int] = []

    def bound(position: int, value: float, remaining: int) -> float:
        upper = value
        for idx in range(position, n):
            _, item_value, item_weight = items[idx]
            if item_weight <= remaining:
                upper += item_value
                remaining -= item_weight
            else:
                if item_weight > 0:
                    upper += item_value * remaining / item_weight
                break
        return upper

    def dfs(position: int, value: float, remaining: int) -> None:
        nonlocal best_value, best_set
        if value > best_value:
            best_value = value
            best_set = list(chosen)
        if position == n:
            return
        if bound(position, value, remaining) <= best_value + 1e-12:
            return
        index, item_value, item_weight = items[position]
        if item_weight <= remaining:
            chosen.append(index)
            dfs(position + 1, value + item_value, remaining - item_weight)
            chosen.pop()
        dfs(position + 1, value, remaining)

    dfs(0, 0.0, capacity)
    return best_value, sorted(best_set)


def knapsack_best_first(
    values: Sequence[float],
    weights: Sequence[int],
    capacity: int,
    max_nodes: int = 1_000_000,
) -> Tuple[float, List[int]]:
    """Exact 0/1 knapsack via best-first branch and bound.

    Explores the same include-first decision tree as
    :func:`knapsack_branch_and_bound` (items in decreasing value density,
    fractional LP relaxation as the bound) but pops nodes from a priority
    queue ordered by bound instead of recursing depth-first. Only nodes
    whose bound exceeds the optimum are ever expanded, so the node count
    collapses on instances where depth-first churns — exactly the
    wide-value-spread instances that overflow the rounded value DP.

    The queue is tie-broken on the DFS preorder path (include = 0 sorts
    before exclude = 1), and the incumbent keeps the preorder-earliest
    achiever of the maximal value, so equal-value optima resolve to the
    *same* selection the depth-first reference returns. The one
    theoretical divergence is the DFS's ``1e-12`` pruning slack, which
    can make it miss an improvement smaller than ``1e-12`` absolute that
    this backend finds; no generic float instance exercises that corner
    (the equivalence tests pin the two backends selection-identical).

    Raises
    ------
    SolverError
        If more than ``max_nodes`` nodes are expanded. Exact 0/1
        knapsack is exponential in the worst case; the Spec fallback
        chain catches the budget overrun and drops to the quantised DP.
    """
    _validate_knapsack(values, weights, capacity)
    items = [
        (index, float(values[index]), int(weights[index]))
        for index in range(len(values))
        if values[index] > 0 and weights[index] <= capacity
    ]
    if not items:
        return 0.0, []
    items.sort(key=lambda item: item[1] / max(item[2], 1e-12), reverse=True)
    n = len(items)

    def bound(position: int, value: float, remaining: int) -> float:
        upper = value
        for idx in range(position, n):
            _, item_value, item_weight = items[idx]
            if item_weight <= remaining:
                upper += item_value
                remaining -= item_weight
            else:
                if item_weight > 0:
                    upper += item_value * remaining / item_weight
                break
        return upper

    best_value = 0.0
    best_set: Tuple[int, ...] = ()
    # Sentinel larger than every real path (paths start with 0 or 1).
    best_path: Tuple[int, ...] = (2,)
    expanded = 0
    # Heap entry: (-bound, preorder path, position, value, remaining,
    # chosen original indices). Python's tuple comparison gives us
    # best-bound-first with preorder tie-breaks for free.
    root = (-bound(0, 0.0, capacity), (), 0, 0.0, capacity, ())
    heap: List[Tuple[float, Tuple[int, ...], int, float, int, Tuple[int, ...]]] = [root]
    while heap:
        neg_bound, path, position, value, remaining, chosen = heapq.heappop(heap)
        node_bound = -neg_bound
        # The heap pops in (bound desc, preorder) order, so once the top
        # cannot strictly improve — or can at best tie at a later
        # preorder position — nothing below it can either.
        if node_bound < best_value or (
            node_bound == best_value and path > best_path
        ):
            break
        if value > best_value or (value == best_value and path < best_path):
            best_value = value
            best_set = chosen
            best_path = path
        if position == n:
            continue
        expanded += 1
        if expanded > max_nodes:
            raise SolverError(
                f"best-first knapsack expanded more than {max_nodes} nodes; "
                "use a DP backend for this instance"
            )
        index, item_value, item_weight = items[position]
        if item_weight <= remaining:
            include_value = value + item_value
            include_remaining = remaining - item_weight
            heapq.heappush(
                heap,
                (
                    -bound(position + 1, include_value, include_remaining),
                    path + (0,),
                    position + 1,
                    include_value,
                    include_remaining,
                    chosen + (index,),
                ),
            )
        heapq.heappush(
            heap,
            (
                -bound(position + 1, value, remaining),
                path + (1,),
                position + 1,
                value,
                remaining,
                chosen,
            ),
        )
    return best_value, sorted(best_set)


class _ValueDpTable:
    """One filled rounded table plus its memoised backtracks.

    ``improved[i][k]`` says whether item ``i`` lowered the minimal weight
    of state ``k + rounded[i]``. ``suffix_min[u]`` is the smallest
    minimal weight over states ``>= u`` — non-decreasing, so the best
    state within a capacity is one binary search.
    """

    __slots__ = ("values", "rounded", "improved", "suffix_min", "backtracks")

    def __init__(
        self,
        values: List[float],
        rounded: List[int],
        improved: List[np.ndarray],
        min_weight: np.ndarray,
    ) -> None:
        self.values = values
        self.rounded = rounded
        self.improved = improved
        self.suffix_min = np.minimum.accumulate(min_weight[::-1])[::-1]
        self.backtracks: Dict[int, Tuple[float, Tuple[int, ...]]] = {}

    def select(self, capacity: int) -> Tuple[float, Tuple[int, ...]]:
        """``(true_value, filtered positions)`` of the best selection."""
        # The last state whose minimal weight fits: suffix_min[0] = 0, so
        # at least state 0 qualifies.
        best_units = int(np.searchsorted(self.suffix_min, capacity, "right")) - 1
        memo = self.backtracks.get(best_units)
        if memo is not None:
            return memo
        rounded, improved = self.rounded, self.improved
        positions: List[int] = []
        units = best_units
        for item_pos in range(len(rounded) - 1, -1, -1):
            state = units - rounded[item_pos]
            mask = improved[item_pos]
            if 0 <= state < len(mask) and mask[state]:
                positions.append(item_pos)
                units -= rounded[item_pos]
        if units != 0:
            raise SolverError("value DP backtrack failed (internal error)")
        positions.reverse()
        true_value = float(sum(self.values[position] for position in positions))
        memo = (true_value, tuple(positions))
        self.backtracks[best_units] = memo
        return memo


class ValueDpTables:
    """Memoised capacity-independent :func:`knapsack_value_dp` tables.

    The rounded table ``min_weight[units]`` depends only on the
    *filtered* item list (positive value, weight ≤ capacity) and
    ``epsilon`` — the capacity enters through the item filter and the
    final best-units/backtrack step, not the fill. Within one Spec solve
    the same filtered sub-instance recurs across combinations and
    servers (utilities only change for models whose demand an earlier
    placement already served), so keying the fill on the filtered
    ``(values, weights)`` bytes turns repeat calls into a lookup.

    The fill is one numpy slice-shift update per item (the shifted
    candidate row is materialised before the masked write, which gives
    exactly the 0/1 semantics of the seed's descending Python loop); each
    item keeps its boolean ``improved`` mask instead of a dense
    ``(items × states)`` take matrix. The backtrack tests those masks
    directly and is memoised per ``(table, best state)``, so a repeated
    capacity — common, since a capacity is a server's storage minus a
    combination's shared size — costs one binary search. The selected
    value is summed from the same floats in the same order either way,
    so selections and values are byte-identical to the seed
    implementation (asserted by the equivalence tests).
    """

    def __init__(
        self,
        epsilon: float,
        max_states: int = 5_000_000,
        max_entries: int = 100_000,
    ) -> None:
        if epsilon <= 0:
            raise SolverError("ValueDpTables requires epsilon > 0")
        self.epsilon = epsilon
        self.max_states = max_states
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        # Each entry is a filled table, or the error message of a table
        # past ``max_states`` (repeat calls re-raise without re-deriving).
        self._tables: Dict[Tuple[bytes, bytes], Union[_ValueDpTable, str]] = {}

    # ------------------------------------------------------------------
    def _fill(self, filtered_values: np.ndarray, filtered_weights: np.ndarray):
        """The capacity-independent part of ``knapsack_value_dp``: the
        filled table, or the error message of a table past ``max_states``."""
        count = filtered_values.shape[0]
        v_min = float(filtered_values.min())
        unit = self.epsilon * v_min
        ratio = np.floor(filtered_values / unit)
        # Beyond 2**53 the float ratios stop being the exact floors the
        # seed's integer arithmetic produces — but any such instance is
        # astronomically past max_states, so the blown message is exact.
        if not np.all(np.isfinite(ratio)) or float(ratio.max()) >= 2.0**53:
            return (
                f"value DP needs more than {self.max_states} states; "
                "increase epsilon or use another backend"
            )
        rounded = np.maximum(ratio, 1.0).astype(np.int64).tolist()
        total_rounded = sum(rounded)
        if (total_rounded + 1) * count > self.max_states:
            return (
                f"value DP needs {(total_rounded + 1) * count} states "
                f"(> {self.max_states}); increase epsilon or use another backend"
            )
        min_weight = np.full(total_rounded + 1, np.inf)
        min_weight[0] = 0.0
        improved_masks: List[np.ndarray] = []
        reachable = 0
        for weight, value_units in zip(filtered_weights.tolist(), rounded):
            reachable = min(reachable + value_units, total_rounded)
            shifted = min_weight[: reachable - value_units + 1] + weight
            segment = min_weight[value_units : reachable + 1]
            improved = shifted < segment
            np.copyto(segment, shifted, where=improved)
            improved_masks.append(improved)
        return _ValueDpTable(
            filtered_values.tolist(), rounded, improved_masks, min_weight
        )

    # ------------------------------------------------------------------
    def solve(
        self, values: Sequence[float], weights: Sequence[int], capacity: int
    ) -> Tuple[float, List[int]]:
        """``knapsack_value_dp(values, weights, capacity)``, memoised.

        Raises :class:`SolverError` exactly when the uncached call
        would: negative inputs, mismatched lengths, or a rounded table
        past ``max_states``.
        """
        all_values = np.asarray(values, dtype=float)
        all_weights = np.asarray(weights, dtype=np.int64)
        if all_values.shape[0] != all_weights.shape[0]:
            raise SolverError("values and weights must have equal length")
        if capacity < 0:
            raise SolverError(f"capacity must be non-negative, got {capacity}")
        if all_values.size and float(all_values.min()) < 0:
            raise SolverError("knapsack values must be non-negative")
        if all_weights.size and int(all_weights.min()) < 0:
            raise SolverError("knapsack weights must be non-negative")
        keep = (all_values > 0) & (all_weights <= capacity)
        original = np.flatnonzero(keep)
        if original.size == 0:
            return 0.0, []
        filtered_values = np.ascontiguousarray(all_values[keep])
        filtered_weights = np.ascontiguousarray(all_weights[keep])
        key = (filtered_values.tobytes(), filtered_weights.tobytes())
        table = self._tables.get(key)
        if table is None:
            self.misses += 1
            table = self._fill(filtered_values, filtered_weights)
            if len(self._tables) < self.max_entries:
                self._tables[key] = table
        else:
            self.hits += 1
        if isinstance(table, str):
            raise SolverError(table)
        true_value, positions = table.select(capacity)
        return true_value, [int(original[position]) for position in positions]


#: Backend registry used by the Spec solver.
KNAPSACK_BACKENDS = {
    "value_dp": knapsack_value_dp,
    "weight_dp": knapsack_weight_dp,
    "exact": knapsack_branch_and_bound,
    "best_first": knapsack_best_first,
}
