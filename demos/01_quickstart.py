"""Quickstart: parse an apx framework and query every semantics.

Run with:  python3 demos/01_quickstart.py
"""

import afsolve as afs
from afsolve.kernel import grounded

TEXT = """
% five arguments; a and b attack each other, both attack c,
% c attacks d, d attacks e and e attacks itself
arg(a). arg(b). arg(c). arg(d). arg(e).
att(a,b). att(b,a).
att(a,c). att(b,c).
att(c,d). att(d,e). att(e,e).
"""

af = afs.parse_apx(TEXT)
print(f"framework: {af.n} arguments, {len(af.attacks)} attacks")
print("names:", ", ".join(af.names))
print()

# extension sets are plain ints used as bitmasks; names_of renders them
show = lambda mask: "{" + ",".join(af.names_of(mask)) + "}"

print("grounded:", show(grounded(af)))
print()

# every semantics through the task layer: EE lists its extensions
for sem in afs.Semantics:
    exts = afs.solve(af, afs.TaskSpec(afs.Task.EE, sem)).extensions
    label = f"EE-{sem.value}:"
    print(f"{label:<8}{[show(e) for e in exts]}")
print()

# the other tasks ask for one extension, a count or a verdict
for problem in ("SE-PR", "CE-CO", "DC-SST", "DS-ID"):
    query = "d" if problem.startswith(("DC", "DS")) else None
    spec = afs.TaskSpec.from_problem(problem, query)
    result = afs.solve(af, spec)
    payload = (
        result.verdict
        if result.verdict is not None
        else result.count
        if result.count is not None
        else show(result.extension)
        if result.extension is not None
        else [show(e) for e in result.extensions]
    )
    suffix = f" (query {query})" if query else ""
    print(f"{problem}{suffix}: {payload}")
