"""Deciding semantics with sub-blocks and norm forms.

The verdicts for one candidate set come from block tests: stable needs
every outgoing column non-zero, admissible needs outgoing cover for each
incoming attack, complete additionally forbids defending any outsider.
The norm form makes the same tests visible as a block layout.
"""

from afmat import (
    Framework,
    extensions,
    extract_subblocks,
    is_admissible,
    is_complete,
    is_stable,
    to_norm_form,
)

f = Framework(5, {(1, 2), (1, 3), (3, 1), (4, 5), (5, 1), (5, 4)})
print("framework: 1->2, 1->3, 3->1, 4->5, 5->1, 5->4")

s = (3, 4)
sb = extract_subblocks(f, s)
print(f"\nsub-blocks of {s} (outsiders {sb.outsiders}):")
print("  outgoing", sb.outgoing)
print("  incoming", sb.incoming)
print("  outer   ", sb.outer)
print("  stable?    ", is_stable(f, s))
print("  admissible?", is_admissible(f, s))
print("  complete?  ", is_complete(f, s))

nf = to_norm_form(f, s)
print(f"\nnorm form of {s}: labels {nf.matrix.labels}, (k, q, l) = {(nf.k, nf.q, nf.l)}")
for row in nf.matrix.to_grid():
    print("   ", " ".join(str(x) for x in row))
print("  undefeated outsiders:", nf.undefeated)
print("  the undefeated square block", nf.block("undefeated", "undefeated"),
      "has a zero column, so {3, 4} leaves argument 2 defended: not complete.")

print("\nall families:")
for tag in ("cf", "st", "ad", "co", "pr", "gr", "id", "sst", "eg"):
    print(f"  {tag:3s} {extensions(f, tag).ordered()}")
