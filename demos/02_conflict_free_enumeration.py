"""Enumerating conflict-free sets from compatibility sets.

The compatibility set C(i) holds the arguments that can sit next to i in
a conflict-free set. A depth-first walk grows each set by one argument
above its current maximum that is compatible with every member, so every
conflict-free set is produced exactly once; the family is then reported
level by level (by cardinality).
"""

from itertools import groupby

from afmat import Framework, basic_sets, extensions, iter_conflict_free

f = Framework(5, {(1, 2), (2, 3), (2, 5), (4, 3), (5, 4)})
print("framework: 1->2, 2->3, 2->5, 4->3, 5->4")

print("\ncompatibility sets:")
for i, compatible in basic_sets(f).items():
    print(f"  C({i}) = {sorted(compatible)}")

print("\nlevels of the conflict-free family:")
family = extensions(f, "cf")
for r, level in groupby(family.ordered(), key=len):
    print(f"  size {r}: {list(level)}")
print(f"  total {len(family)} sets")

print("\nthe streaming order (cardinality, then lexicographic):")
print(" ", list(iter_conflict_free(f)))

print("\nself-attackers never appear:")
g = Framework(3, {(1, 1), (2, 3)})
print("  1 attacks itself, 2 attacks 3 ->", list(iter_conflict_free(g)))
