"""Inside the range machinery and the ideal fixed point.

Semi-stable and stage extensions maximize the range (the set plus everything
it attacks).  This walks through the maximal ranges of a framework with no
stable extension, lists its stage extensions (the naive sets whose range is
maximal) grouped by range, and then traces the ideal computation from one
preferred extension on a second framework.  Everything is cross-checked
against the brute-force reference.

Run with:  python3 demos/03_ranges_and_ideal.py
"""

import afsolve as afs
from afsolve import oracle_extensions
from afsolve.ideal import credulous_profile, ideal_extension
from afsolve.kernel import maximize_complete
from afsolve.ranges import max_ranges, range_of, semi_stable_all, stage_all

# a three-cycle plus a self-attacker hanging off it: no stable extension
af = afs.parse_apx(
    "arg(a). arg(b). arg(c). arg(s)."
    "att(a,b). att(b,c). att(c,a). att(s,s). att(c,s)."
)
show = lambda mask: "{" + ",".join(af.names_of(mask)) + "}"

print("stable extensions:", list(afs.solve(af, afs.TaskSpec.from_problem("EE-ST")).extensions))
print()

# stage maximizes the ranges of conflict-free sets, semi-stable those of
# complete extensions; stage_all orders by range, then canonically, so the
# first member of each range's group is its canonically least witness
stage = stage_all(af)
by_range = {}
for e in stage:
    by_range.setdefault(range_of(af, e), []).append(e)
print("maximal stage ranges:")
for r, group in by_range.items():
    print(f"  range {show(r)} witnessed by {show(group[0])}")
print("maximal semi-stable ranges:")
for rw in max_ranges(af):
    print(f"  range {show(rw.range_mask)} witnessed by {show(rw.witness)}")
print()

print("stage extensions, grouped by range:")
for r, group in by_range.items():
    print(f"  range {show(r)}: {[show(e) for e in group]}")
assert set(stage) == oracle_extensions(af, "STG")
print("stage_all matches the brute-force reference")
print()

print("semi-stable:", [show(e) for e in semi_stable_all(af)])
assert set(semi_stable_all(af)) == oracle_extensions(af, "SST")
print()

# the ideal extension from one preferred extension P: a and b attack each
# other and both attack c, c attacks d, and the unattacked g attacks h
af = afs.parse_apx(
    "arg(a). arg(b). arg(c). arg(d). arg(g). arg(h)."
    "att(a,b). att(b,a). att(a,c). att(b,c). att(c,d). att(g,h)."
)
p = maximize_complete(af)
attacked = credulous_profile(af, p)
print("a preferred extension:", show(p))
print("attacked credulously: ", show(attacked))
print("fixed-point seed:     ", show(p & ~attacked))
print("ideal extension:      ", show(ideal_extension(af)))
assert {ideal_extension(af)} == oracle_extensions(af, "ID")
print("ideal matches the brute-force reference")
