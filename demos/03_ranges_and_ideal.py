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
from afsolve import RangeSemantics, oracle_extensions

# a three-cycle plus a self-attacker hanging off it: no stable extension
af = afs.parse_apx(
    "arg(a). arg(b). arg(c). arg(s)."
    "att(a,b). att(b,c). att(c,a). att(s,s). att(c,s)."
)
show = lambda mask: "{" + ",".join(af.names_of(mask)) + "}"

print("stable extensions:", afs.base_extensions(af, afs.BaseSemantics.STABLE))
print()

# stage maximizes the ranges of conflict-free sets, semi-stable those of
# complete extensions
for sem in (RangeSemantics.STAGE, RangeSemantics.SEMI_STABLE):
    print(f"maximal {sem.value} ranges:")
    for rw in afs.max_ranges(af, sem):
        print(f"  range {show(rw.range_mask)} witnessed by {show(rw.witness)}")
print()

print("stage extensions, grouped by range:")
stage = afs.stage_all(af)
for rw in afs.max_ranges(af, RangeSemantics.STAGE):
    group = [show(e) for e in stage if afs.range_of(af, e) == rw.range_mask]
    print(f"  range {show(rw.range_mask)}: {group}")
assert set(stage) == oracle_extensions(af, "STG")
print("stage_all matches the brute-force reference")
print()

print("semi-stable:", [show(e) for e in afs.semi_stable_all(af)])
assert set(afs.semi_stable_all(af)) == oracle_extensions(af, "SST")
print()

# the ideal extension from one preferred extension P: a and b attack each
# other and both attack c, c attacks d, and the unattacked g attacks h
af = afs.parse_apx(
    "arg(a). arg(b). arg(c). arg(d). arg(g). arg(h)."
    "att(a,b). att(b,a). att(a,c). att(b,c). att(c,d). att(g,h)."
)
p = afs.some_preferred(af)
attacked = afs.credulous_profile(af, p)
print("a preferred extension:", show(p))
print("attacked credulously: ", show(attacked))
print("fixed-point seed:     ", show(p & ~attacked))
print("ideal extension:      ", show(afs.ideal_extension(af)))
assert {afs.ideal_extension(af)} == oracle_extensions(af, "ID")
print("ideal matches the brute-force reference")
