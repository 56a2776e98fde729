"""Answer checks that do not trust the search.

Frameworks with at most ORACLE_MAX_N arguments are compared with
``afsolve.oracle``, which scans all subsets.  Larger ones get definitional
checks written here over the generator's own attack list: conflict-free,
complete through the characteristic function, stable range equal to all
arguments, naive sets, and the ideal extension admissible, containing the
grounded extension and contained in every preferred extension found.  Answers
to different problems on one instance are cross-checked: DC-CO = DC-PR,
DS-CO = grounded membership, CE = len(EE), acceptance against enumerations,
and any verified stable extension proves that stable extensions exist.
"""

from workloads import Instance

ORACLE_MAX_N = 11


class Graph:
    """Attack lists of one instance, with the textbook set operations."""

    def __init__(self, inst: Instance):
        self.n = inst.n
        self.attacks = inst.attacks
        self.attackers: list[list[int]] = [[] for _ in range(inst.n)]
        for a, b in inst.attacks:
            self.attackers[b].append(a)
        self.self_attacking = [False] * inst.n
        for a, b in inst.attacks:
            if a == b:
                self.self_attacking[a] = True

    def members(self, mask: int) -> list[bool]:
        if mask >> self.n:
            raise ValueError("extension names an argument outside the framework")
        return [c == "1" for c in bin(mask)[2:].zfill(self.n)[::-1]]

    def mask(self, s: list[bool]) -> int:
        return int("".join("1" if x else "0" for x in reversed(s)) or "0", 2)

    def attacked(self, s: list[bool]) -> list[bool]:
        hit = [False] * self.n
        for a, b in self.attacks:
            if s[a]:
                hit[b] = True
        return hit

    def conflict_free(self, s: list[bool]) -> bool:
        return not any(s[a] and s[b] for a, b in self.attacks)

    def defended(self, s: list[bool]) -> list[bool]:
        """The characteristic function: arguments all of whose attackers
        are attacked by s."""
        hit = self.attacked(s)
        return [all(hit[a] for a in self.attackers[x]) for x in range(self.n)]

    def admissible(self, s: list[bool]) -> bool:
        if not self.conflict_free(s):
            return False
        d = self.defended(s)
        return all(d[x] for x in range(self.n) if s[x])

    def complete(self, s: list[bool]) -> bool:
        return self.conflict_free(s) and self.defended(s) == s

    def stable(self, s: list[bool]) -> bool:
        if not self.conflict_free(s):
            return False
        hit = self.attacked(s)
        return all(s[x] or hit[x] for x in range(self.n))

    def naive(self, s: list[bool]) -> bool:
        if not self.conflict_free(s):
            return False
        blocked = list(s)
        for a, b in self.attacks:
            if s[a] or a == b:
                blocked[b] = True
            if s[b]:
                blocked[a] = True
        return all(blocked)

    def single_admissible_extension(self, s: list[bool]) -> bool:
        """Some x outside s makes s + {x} admissible (so s is not preferred)."""
        for x in range(self.n):
            if not s[x] and not self.self_attacking[x]:
                t = list(s)
                t[x] = True
                if self.admissible(t):
                    return True
        return False

    def grounded(self) -> list[bool]:
        """Least fixed point of the characteristic function, by the usual
        linear-time propagation: an argument is in once all its attackers
        are out, and out once some attacker is in."""
        targets: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.attacks:
            targets[a].append(b)
        live = [len(self.attackers[x]) for x in range(self.n)]
        inside = [False] * self.n
        out = [False] * self.n
        todo = [x for x in range(self.n) if live[x] == 0]
        while todo:
            x = todo.pop()
            inside[x] = True
            for y in targets[x]:
                if not out[y]:
                    out[y] = True
                    for z in targets[y]:
                        live[z] -= 1
                        if live[z] == 0 and not out[z]:
                            todo.append(z)
        return inside


def parse_text(problem: str, text: str, n: int):
    """The command-line output of one problem as a result value."""
    line = text.strip()
    task = problem[:2]
    if task in ("DC", "DS"):
        if line not in ("YES", "NO"):
            raise ValueError(f"bad verdict {line!r}")
        return line == "YES"
    if task == "CE":
        return int(line)
    if task == "SE":
        return None if line == "NO" else _names_mask(line, n)
    if not (line.startswith("[") and line.endswith("]")):
        raise ValueError(f"bad extension list {line[:40]!r}")
    inner = line[1:-1]
    if not inner:
        return ()
    return tuple(_names_mask("[" + part.strip("[]") + "]", n) for part in inner.split("],["))


def _names_mask(text: str, n: int) -> int:
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"bad extension {text[:40]!r}")
    mask = 0
    for name in filter(None, text[1:-1].split(",")):
        if not name.startswith("a") or not name[1:].isdigit() or int(name[1:]) >= n:
            raise ValueError(f"unknown argument {name!r}")
        mask |= 1 << int(name[1:])
    return mask


def check_instance(inst: Instance, answers: dict[str, object]) -> dict[str, str]:
    """Problems on *inst* whose answer is wrong, mapped to the reason."""
    if inst.n <= ORACLE_MAX_N:
        return _check_with_oracle(inst, answers)
    return _check_by_definition(inst, answers)


def _check_with_oracle(inst: Instance, answers: dict[str, object]) -> dict[str, str]:
    from afsolve import ArgumentationFramework
    from afsolve.oracle import oracle_extensions

    af = ArgumentationFramework([f"a{i}" for i in range(inst.n)], inst.attacks)
    expected: dict[str, set[int]] = {}
    wrong = {}
    q = inst.query
    for problem, got in answers.items():
        task, sem = problem.split("-")
        if sem not in expected:
            expected[sem] = oracle_extensions(af, sem)
        exts = expected[sem]
        if task == "SE":
            ok = got is None if not exts else got in exts
        elif task == "EE":
            ok = len(got) == len(set(got)) and set(got) == exts
        elif task == "CE":
            ok = got == len(exts)
        elif task == "DC":
            ok = got == any((e >> q) & 1 for e in exts)
        else:
            ok = got == all((e >> q) & 1 for e in exts)
        if not ok:
            wrong[problem] = f"oracle disagrees: got {got!r}"
    return wrong


def _check_by_definition(inst: Instance, answers: dict[str, object]) -> dict[str, str]:
    g = Graph(inst)
    q = inst.query
    wrong: dict[str, str] = {}
    grounded = g.grounded()
    grounded_attacks = g.attacked(grounded)

    def fail(problem: str, reason: str) -> None:
        wrong.setdefault(problem, reason)

    def exts_of(problem: str) -> list[int]:
        got = answers.get(problem)
        if problem.startswith("SE"):
            return [] if got is None else [got]
        return list(got) if got is not None else []

    # every returned extension satisfies its semantics' definition; only
    # extensions that pass feed the cross-checks below
    proven_stable: list[int] = []
    valid: dict[str, list[int]] = {}
    for problem, got in answers.items():
        task, sem = problem.split("-")
        if task not in ("SE", "EE"):
            continue
        exts = exts_of(problem)
        if task == "EE" and len(exts) != len(set(exts)):
            fail(problem, "duplicate extensions")
        for e in exts:
            try:
                s = g.members(e)
            except ValueError as exc:
                fail(problem, str(exc))
                continue
            if sem == "CO" and not g.complete(s):
                fail(problem, "extension is not complete")
            elif sem == "PR":
                if not g.complete(s):
                    fail(problem, "extension is not complete")
                elif g.single_admissible_extension(s):
                    fail(problem, "extension is not maximal admissible")
            elif sem == "ST":
                if not g.stable(s):
                    fail(problem, "extension is not stable")
            elif sem == "SST" and not g.complete(s):
                fail(problem, "extension is not complete")
            elif sem == "STG" and not g.naive(s):
                fail(problem, "extension is not naive")
            elif sem == "ID" and not g.admissible(s):
                fail(problem, "ideal extension is not admissible")
            if sem in ("CO", "PR", "SST", "ID") and any(
                grounded[x] and not s[x] for x in range(g.n)
            ):
                fail(problem, "extension misses a grounded argument")
            if sem in ("ST", "SST", "STG") and g.stable(s):
                proven_stable.append(e)
            if problem not in wrong:
                valid.setdefault(problem, []).append(e)

    # stable extensions exist iff some verified one was returned
    if proven_stable:
        if "SE-ST" in answers and answers["SE-ST"] is None:
            fail("SE-ST", "NO although a stable extension exists")
        if answers.get("CE-ST") == 0:
            fail("CE-ST", "0 although a stable extension exists")
        if "EE-ST" in answers and not answers["EE-ST"]:
            fail("EE-ST", "empty although a stable extension exists")
        for problem in ("SE-SST", "EE-SST", "SE-STG", "EE-STG"):
            for e in valid.get(problem, ()):
                if not g.stable(g.members(e)):
                    fail(problem, "not stable although stable extensions exist")
        if "EE-ST" in answers:
            stable_set = set(answers["EE-ST"])
            for problem in ("EE-SST", "EE-STG"):
                if problem in answers and set(answers[problem]) != stable_set:
                    fail(problem, "differs from EE-ST although stable extensions exist")
    for sem in ("SST", "STG"):
        ranges = {e | g.mask(g.attacked(g.members(e))) for e in valid.get(f"EE-{sem}", ())}
        if any(r1 != r2 and r1 & ~r2 == 0 for r1 in ranges for r2 in ranges):
            fail(f"EE-{sem}", "a range is strictly inside another")
    for problem in ("SE-ID", "EE-ID"):
        for e in valid.get(problem, ()):
            for p in valid.get("SE-PR", []) + valid.get("EE-PR", []):
                if e & ~p:
                    fail(problem, "ideal extension not inside a preferred extension")
    if "EE-ID" in answers and "SE-ID" in answers and answers["EE-ID"] != (answers["SE-ID"],):
        fail("EE-ID", "differs from SE-ID")

    # counts agree with enumerations
    for sem in ("CO", "PR", "ST", "SST", "STG", "ID"):
        count = answers.get(f"CE-{sem}")
        if count is None:
            continue
        if f"EE-{sem}" in answers and count != len(answers[f"EE-{sem}"]):
            fail(f"CE-{sem}", "differs from the number of EE extensions")
        if sem == "ID" and count != 1:
            fail("CE-ID", "the ideal extension is unique")
        if sem in ("CO", "PR", "SST", "STG") and count < 1:
            fail(f"CE-{sem}", "this semantics always has an extension")

    # acceptance queries
    def verdict(problem: str):
        return answers.get(problem)

    def expect(problem: str, value: bool, why: str) -> None:
        if problem in answers and answers[problem] != value:
            fail(problem, f"expected {'YES' if value else 'NO'}: {why}")

    expect("DS-CO", grounded[q], "grounded membership")
    if grounded[q]:
        for problem in ("DC-CO", "DC-PR", "DS-PR", "DC-ID", "DS-ID", "DC-SST", "DS-SST"):
            expect(problem, True, "q is in the grounded extension")
    if grounded_attacks[q]:
        for problem in ("DC-CO", "DC-PR", "DC-SST", "DC-ID", "DC-ST"):
            expect(problem, False, "q is attacked by the grounded extension")
    if verdict("DC-CO") is not None:
        expect("DC-PR", verdict("DC-CO"), "DC-CO = DC-PR")
    for sem in ("CO", "PR", "ST", "SST", "STG"):
        for task in ("SE", "EE"):
            for e in valid.get(f"{task}-{sem}", ()):
                if (e >> q) & 1:
                    expect(f"DC-{sem}", True, f"q is in an extension returned by {task}-{sem}")
                    if sem in ("PR", "SST"):
                        expect("DC-CO", True, f"q is in an extension returned by {task}-{sem}")
                else:
                    expect(f"DS-{sem}", False, f"an extension returned by {task}-{sem} omits q")
        if f"EE-{sem}" in answers:
            exts = answers[f"EE-{sem}"]
            expect(f"DC-{sem}", any((e >> q) & 1 for e in exts), f"EE-{sem}")
            expect(f"DS-{sem}", all((e >> q) & 1 for e in exts), f"EE-{sem}")
    if proven_stable and "EE-ST" in answers:
        exts = answers["EE-ST"]
        expect("DC-SST", any((e >> q) & 1 for e in exts), "semi-stable = stable here")
        expect("DS-SST", all((e >> q) & 1 for e in exts), "semi-stable = stable here")
    ideal = answers.get("SE-ID")
    if ideal is not None:
        expect("DC-ID", bool((ideal >> q) & 1), "membership in SE-ID")
        expect("DS-ID", bool((ideal >> q) & 1), "membership in SE-ID")
    elif verdict("DC-ID") is not None:
        expect("DS-ID", verdict("DC-ID"), "DC-ID = DS-ID for the unique ideal extension")
    return wrong
