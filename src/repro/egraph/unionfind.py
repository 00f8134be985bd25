"""Union-find (disjoint set) over e-class ids.

E-class ids are dense non-negative integers handed out by :meth:`make_set`.
``find`` uses path compression; ``union`` uses union-by-size so that merge
chains stay near-constant amortised, which matters because saturation on the
larger NPB kernels performs tens of thousands of merges.
"""

from __future__ import annotations

from typing import List

__all__ = ["UnionFind"]


class UnionFind:
    """Disjoint-set forest over integer ids."""

    def __init__(self) -> None:
        self._parent: List[int] = []
        self._size: List[int] = []

    def __len__(self) -> int:
        return len(self._parent)

    def make_set(self) -> int:
        """Create a new singleton set and return its id."""

        new_id = len(self._parent)
        self._parent.append(new_id)
        self._size.append(1)
        return new_id

    def is_root(self, x: int) -> bool:
        """True if *x* is its set's canonical representative.

        Hot loops that have already bound ``self._parent`` locally may
        inline this as ``parent[x] == x``; that array contract (a root is
        its own parent) is part of this class's interface.
        """

        return self._parent[x] == x

    def find(self, x: int) -> int:
        """Return the canonical representative of *x* (with path compression)."""

        parent = self._parent
        # fast paths: roots and depth-1 nodes dominate once compression has
        # run (find is the single hottest call in saturation)
        root = parent[x]
        if root == x:
            return x
        up = parent[root]
        if up == root:
            return root
        while parent[up] != up:
            up = parent[up]
        root = up
        # path compression
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the sets containing *a* and *b*; return the surviving root.

        The larger set's root survives (union by size); ties keep *a*'s root,
        making the operation deterministic, which keeps extraction results
        reproducible run to run.
        """

        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        return self.union_roots(ra, rb)

    def union_roots(self, ra: int, rb: int) -> int:
        """Merge two sets given their (distinct) roots — no finds.

        Same survivor rule as :meth:`union`: the larger set's root wins,
        ties keep *ra*.
        """

        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return ra

    def same(self, a: int, b: int) -> bool:
        """Return True if *a* and *b* are in the same set."""

        return self.find(a) == self.find(b)

    def roots(self) -> List[int]:
        """Return every canonical representative currently live."""

        return [i for i in range(len(self._parent)) if self._parent[i] == i]

    def copy(self) -> "UnionFind":
        """Return an independent copy of this union-find."""

        dup = UnionFind()
        dup._parent = list(self._parent)
        dup._size = list(self._size)
        return dup
