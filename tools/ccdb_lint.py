#!/usr/bin/env python3
"""CCDB project-invariant linter (wired into ctest as `ccdb_lint`).

Enforces the repo's documented contracts that the compiler cannot:

  no-throw        src/ never throws or aborts — library boundaries return
                  Status/Result (the worker exception *barrier* in
                  query_service.cc may catch, but nothing in src/ raises).
  raw-mutex       all locking in src/ goes through the annotated wrappers
                  in src/util/mutex.h (raw std::mutex cannot carry Clang
                  thread-safety capabilities).
  void-discard    a Status-returning call is never silenced with a
                  `(void)` cast — intentional discards use IgnoreError()
                  so they stay greppable. (`(void)identifier;` for unused
                  locals is fine.)
  metrics         every name in src/obs/metric_names.h is (a) emitted
                  somewhere in src/, (b) documented in DESIGN.md's
                  Observability table, and (c) listed in AllMetricNames()
                  — the list the Prometheus-exposition coverage test
                  iterates, so a name missing from it would silently
                  escape the /metrics surface. Subsumes the retired
                  check_metrics_doc.sh, including its governance-family
                  canary.
  no-iostream     library code never writes to std::cout/std::cerr or
                  C stdio console streams (the shell and tools own the
                  terminal; the TraceSink writes to a caller-owned
                  std::ostream).
  governance      every CQA operator function that materializes tuples
                  (calls .Insert( inside a loop) polls a governance
                  check-point, so deadlines/cancellation can always
                  unwind and budget trips can truncate soundly.
  net-socket      raw socket syscalls (socket/bind/listen/accept/connect/
                  send/recv/setsockopt/getaddrinfo/...) appear only in
                  src/util/socket.cc — everything else speaks through the
                  Status-returning Socket/Listener wrappers, so error
                  handling, SIGPIPE suppression, and shutdown semantics
                  live in exactly one place.
  mvcc-publish    direct catalog mutation (`CatalogEdit`, `PublishSnapshot`)
                  appears only in src/data/snapshot.{h,cc} and the query
                  service's commit path — every other layer reads pinned
                  snapshots or writes through the service's transactional
                  API, so conflict detection and WAL-before-visibility
                  cannot be bypassed.
  net-retries     src/net/ never calls a raw sleep primitive
                  (std::this_thread::sleep_for, usleep, nanosleep, ...) —
                  waiting goes through ccdb::SleepForMs under a Backoff
                  schedule (util/backoff.h) — and never spins an
                  unbounded retry loop: a `while (true)` / `for (;;)`
                  that sleeps-and-retries must be bounded by a deadline,
                  a stop flag, or a Backoff, so a dead peer produces a
                  typed kUnavailable instead of a hang.
  lock-discipline every `ccdb::Mutex` / `SharedMutex` member either
                  guards at least one `CCDB_GUARDED_BY` field in its
                  file or carries a `protocol-lock:` comment saying what
                  non-field invariant it serializes — an unexplained
                  mutex is either dead weight or an undeclared contract.
                  Also: no bare TryLock spin loops — a loop that retries
                  TryLock must be bounded by a deadline, stop flag, or
                  Backoff (spinning on a held lock is a latent livelock).
  one-executor    the CQA operator functions (cqa::Select, Project,
                  NaturalJoin, Union, Difference, Rename) are called only
                  by the plan executor (core/plan.cc), by each other in
                  core/operators.cc, and by StoredRelation's refine
                  (core/access.cc) — every query, the calculus's included,
                  runs as a PlanNode tree that cqa::Optimize sees, never
                  through a private evaluator.

Run from anywhere:  tools/ccdb_lint.py  (exit 0 = clean).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

violations: list[str] = []


def report(rule: str, path: Path, lineno: int, message: str) -> None:
    rel = path.relative_to(REPO)
    violations.append(f"[{rule}] {rel}:{lineno}: {message}")


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure so line numbers survive."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j == -1 else j
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            out.extend(ch if ch == "\n" else " " for ch in text[i : j + 2])
            i = j + 2
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append(" ")
                    i += 1
                    if i < n:
                        out.append(" " if text[i] != "\n" else "\n")
                        i += 1
                else:
                    out.append(" " if text[i] != "\n" else "\n")
                    i += 1
            out.append(" ")
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def src_files() -> list[Path]:
    return sorted(
        p for p in SRC.rglob("*") if p.suffix in (".h", ".cc") and p.is_file()
    )


# The deadlock detector's own implementation (see its file header): it
# cannot lock through the wrappers it instruments (raw std::mutex), and a
# detected cycle is by definition unreportable through Status — the whole
# point is to abort with both hold-stacks on stderr before the process
# deadlocks. Exempt from no-throw, raw-mutex, and no-iostream only.
LOCK_GRAPH_IMPL = SRC / "util" / "lock_graph.cc"


# --- Rule: no-throw ---------------------------------------------------------

THROW_RE = re.compile(r"\bthrow\b")
ABORT_RE = re.compile(r"\b(?:std::)?abort\s*\(|\bstd::terminate\s*\(|\bexit\s*\(")


def check_no_throw(path: Path, clean: str) -> None:
    if path == LOCK_GRAPH_IMPL:
        return
    for lineno, line in enumerate(clean.splitlines(), 1):
        if THROW_RE.search(line):
            report("no-throw", path, lineno,
                   "`throw` in library code — return a Status instead "
                   "(only the worker exception barrier may *catch*)")
        if ABORT_RE.search(line):
            report("no-throw", path, lineno,
                   "process-killing call in library code — return a "
                   "Status instead")


# --- Rule: raw-mutex --------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|timed_mutex|recursive_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock)\b"
)
MUTEX_WRAPPER = SRC / "util" / "mutex.h"


def check_raw_mutex(path: Path, clean: str) -> None:
    if path in (MUTEX_WRAPPER, LOCK_GRAPH_IMPL):
        return
    for lineno, line in enumerate(clean.splitlines(), 1):
        m = RAW_MUTEX_RE.search(line)
        if m:
            report("raw-mutex", path, lineno,
                   f"raw `{m.group(0)}` — use the annotated wrappers in "
                   "src/util/mutex.h (ccdb::Mutex, MutexLock, ...)")


# --- Rule: void-discard -----------------------------------------------------

VOID_CALL_RE = re.compile(r"\(\s*void\s*\)\s*[A-Za-z_][\w:.\->]*\s*\(")


def check_void_discard(path: Path, clean: str) -> None:
    for lineno, line in enumerate(clean.splitlines(), 1):
        if VOID_CALL_RE.search(line):
            report("void-discard", path, lineno,
                   "`(void)` cast of a call expression — use "
                   "IgnoreError(...) from util/status.h so intentional "
                   "discards stay greppable")


# --- Rule: metrics ----------------------------------------------------------

METRIC_DECL_RE = re.compile(
    r"inline constexpr char (k[A-Za-z0-9]+)\[\] = \"([^\"]+)\"")


def check_metrics() -> None:
    names_header = SRC / "obs" / "metric_names.h"
    design = REPO / "DESIGN.md"
    if not names_header.is_file():
        violations.append("[metrics] missing src/obs/metric_names.h")
        return
    if not design.is_file():
        violations.append("[metrics] missing DESIGN.md")
        return
    decls = METRIC_DECL_RE.findall(names_header.read_text())
    if not decls:
        violations.append(
            "[metrics] no metric names parsed from metric_names.h — "
            "lint is broken or the header changed shape")
        return
    # Canary (from the retired check_metrics_doc.sh): a family rename or
    # deletion must not silently shrink the linted set.
    if not any(name.startswith("governance.") for _, name in decls):
        violations.append(
            "[metrics] no governance.* metrics in metric_names.h — "
            "family missing?")
    design_text = design.read_text()
    # The AllMetricNames() body — the list the exposition coverage test
    # registers and scrapes; a constant absent from it never reaches the
    # rendered-output assertion.
    header_text = names_header.read_text()
    all_names_m = re.search(
        r"AllMetricNames\(\)\s*\{\s*return\s*\{(.*?)\}\s*;\s*\}",
        header_text, re.DOTALL)
    all_names = set(re.findall(r"\bk[A-Za-z0-9]+\b", all_names_m.group(1))
                    ) if all_names_m else set()
    if not all_names:
        violations.append(
            "[metrics] could not parse AllMetricNames() from "
            "metric_names.h — lint is broken or the header changed shape")
    # Every usage of names::kConstant anywhere in src/ except the header.
    usage = "\n".join(
        p.read_text() for p in src_files() if p != names_header)
    for constant, name in decls:
        if not re.search(rf"\bnames::{constant}\b", usage):
            violations.append(
                f"[metrics] {constant} (\"{name}\") is declared but never "
                "emitted in src/ — dead metric or missed publication point")
        if f"`{name}`" not in design_text:
            violations.append(
                f"[metrics] undocumented metric: {name} — add it to "
                "DESIGN.md's Observability table")
        if all_names and constant not in all_names:
            violations.append(
                f"[metrics] {constant} (\"{name}\") is missing from "
                "AllMetricNames() — it would never be covered by the "
                "exposition test or scraped from /metrics")


# --- Rule: no-iostream ------------------------------------------------------

IOSTREAM_RE = re.compile(
    r"\bstd::(?:cout|cerr|clog)\b|(?<![\w.])(?:printf|puts|putchar)\s*\(|"
    r"\bfprintf\s*\(\s*std(?:out|err)\b")


def check_no_iostream(path: Path, clean: str) -> None:
    if path == LOCK_GRAPH_IMPL:
        return
    for lineno, line in enumerate(clean.splitlines(), 1):
        if IOSTREAM_RE.search(line):
            report("no-iostream", path, lineno,
                   "console write from library code — return data, or "
                   "take a caller-owned std::ostream")


# --- Rule: net-socket -------------------------------------------------------

# Raw socket-layer syscalls; the capitalized wrapper methods (SendAll,
# Accept, ...) never match. `(?:^|[^\w.>])` keeps `foo::connect(` (a
# namespaced method) out while still catching a global-namespace
# ` ::connect(`.
SOCKET_CALL_RE = re.compile(
    r"(?:^|[^\w.>])(?:::\s*)?"
    r"(socket|bind|listen|accept|accept4|connect|send|recv|sendto|"
    r"recvfrom|sendmsg|recvmsg|setsockopt|getsockopt|getaddrinfo|"
    r"freeaddrinfo|getsockname|getpeername|shutdown|inet_pton|inet_ntop|"
    r"htons|ntohs|htonl|ntohl)\s*\(")
SOCKET_IMPL = SRC / "util" / "socket.cc"


def check_net_socket(path: Path, clean: str) -> None:
    if path == SOCKET_IMPL:
        return
    for lineno, line in enumerate(clean.splitlines(), 1):
        m = SOCKET_CALL_RE.search(line)
        if m:
            report("net-socket", path, lineno,
                   f"raw socket call `{m.group(1)}(` outside "
                   "src/util/socket.cc — go through the Socket/Listener "
                   "wrappers (src/util/socket.h)")


# --- Rule: mvcc-publish -----------------------------------------------------

# Direct mutable-catalog access: building a commit candidate or publishing
# one. Everything outside the allowlist goes through the service's write
# API (autocommit or BEGIN/COMMIT), which owns conflict detection and
# WAL-before-visibility ordering.
MVCC_TOKEN_RE = re.compile(r"\bCatalogEdit\b|\bPublishSnapshot\s*\(")
MVCC_ALLOWED = (
    SRC / "data" / "snapshot.h",
    SRC / "data" / "snapshot.cc",
    SRC / "service" / "query_service.h",
    SRC / "service" / "query_service.cc",
)


def check_mvcc_publish(path: Path, clean: str) -> None:
    if path in MVCC_ALLOWED:
        return
    for lineno, line in enumerate(clean.splitlines(), 1):
        m = MVCC_TOKEN_RE.search(line)
        if m:
            report("mvcc-publish", path, lineno,
                   f"direct mutable-catalog access `{m.group(0)}` outside "
                   "the commit path — go through QueryService's "
                   "transactional write API")


# --- Rule: net-retries ------------------------------------------------------

# Raw sleep primitives: the network layer waits via ccdb::SleepForMs,
# normally under a Backoff schedule, so stress/chaos tests stay
# deterministic and every wait has one greppable implementation.
# (Lowercase match: ccdb::SleepForMs itself never triggers.)
RAW_SLEEP_RE = re.compile(
    r"\bstd::this_thread::sleep_(?:for|until)\b|"
    r"(?:^|[^\w.:>])(?:usleep|nanosleep|sleep)\s*\(")
INFINITE_LOOP_RE = re.compile(r"\bwhile\s*\(\s*true\s*\)|\bfor\s*\(\s*;\s*;\s*\)")
# Tokens that bound a retry/poll loop: a wall-clock deadline, the owner's
# stop flag, or a capped Backoff schedule.
LOOP_BOUND_TOKENS = ("deadline", "stop_", "backoff", "Backoff")
NET_DIR = SRC / "net"


def check_net_retries(path: Path, clean: str) -> None:
    if NET_DIR not in path.parents:
        return
    for lineno, line in enumerate(clean.splitlines(), 1):
        if RAW_SLEEP_RE.search(line):
            report("net-retries", path, lineno,
                   "raw sleep in src/net/ — wait via ccdb::SleepForMs "
                   "under a Backoff schedule (util/backoff.h)")
    for m in INFINITE_LOOP_RE.finditer(clean):
        brace = clean.find("{", m.end())
        if brace == -1:
            continue
        depth = 0
        k = brace
        while k < len(clean):
            if clean[k] == "{":
                depth += 1
            elif clean[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        body = clean[brace : k + 1]
        # An event loop blocks in I/O and exits on failure; a RETRY loop
        # waits (sleeps) and goes around again. Only the latter must be
        # bounded — an unbounded one hangs forever against a dead peer.
        if "SleepForMs" not in body:
            continue
        if not any(tok in body for tok in LOOP_BOUND_TOKENS):
            lineno = clean.count("\n", 0, m.start()) + 1
            report("net-retries", path, lineno,
                   "unbounded retry loop in src/net/ — bound it with a "
                   "deadline, a stop flag, or a Backoff schedule")


# --- Rule: one-executor ----------------------------------------------------

CQA_OPERATORS = r"(Select|Project|NaturalJoin|Union|Difference|Rename)"
QUALIFIED_CQA_CALL_RE = re.compile(
    r"\bcqa::" + CQA_OPERATORS + r"\s*\(|\busing\s+(?:ccdb::)?cqa::" +
    CQA_OPERATORS + r"\b")
BARE_CQA_NAME_RE = re.compile(r"\b" + CQA_OPERATORS + r"\s*\(")
CQA_NAMESPACE_RE = re.compile(r"\bnamespace\s+(?:ccdb::)?cqa\b")
ONE_EXECUTOR_ALLOWED = (
    SRC / "core" / "plan.cc",
    SRC / "core" / "operators.cc",
    # StoredRelation's refine, until ROADMAP item 6 makes it a plan leaf.
    SRC / "core" / "access.cc",
)


def bare_call(prefix: str) -> bool:
    """Whether a bare operator name after `prefix` (its line so far) is a
    call: not a member (`.Project(`), a qualified name (`PlanNode::Select(`)
    or a declaration (`Result<Relation> Select(`)."""
    prefix = prefix.rstrip()
    if prefix.endswith((".", "->", "::")):
        return False
    if re.search(r"[\w>*&]$", prefix):
        return re.search(r"\breturn$", prefix) is not None
    return True


def check_one_executor(path: Path, clean: str) -> None:
    if path in ONE_EXECUTOR_ALLOWED:
        return
    in_cqa = CQA_NAMESPACE_RE.search(clean) is not None
    for lineno, line in enumerate(clean.splitlines(), 1):
        calls = [m.group(0) for m in QUALIFIED_CQA_CALL_RE.finditer(line)]
        if in_cqa:
            calls += [m.group(0) for m in BARE_CQA_NAME_RE.finditer(line)
                      if bare_call(line[:m.start()])]
        for call in calls:
            report("one-executor", path, lineno,
                   f"`{call.strip()}` runs a CQA operator outside the plan "
                   "executor — build PlanNodes and run them with "
                   "cqa::Optimize and cqa::Execute")


# --- Rule: lock-discipline --------------------------------------------------

# A Mutex/SharedMutex member declaration (annotation macros and the
# registered-name initializer may follow the identifier).
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:ccdb::)?(?:Mutex|SharedMutex)\s+(\w+)\s*[;{C\n]",
    re.MULTILINE)
# The justification marker for a mutex that guards a protocol rather than
# fields (e.g. commit ordering, whole-RPC serialization). Greppable.
PROTOCOL_LOCK_MARKER = "protocol-lock"
TRYLOCK_RE = re.compile(r"\bTryLock\s*\(")
LOOP_HEAD_RE = re.compile(r"\b(?:while|for)\s*\(")


def check_lock_discipline(path: Path, clean: str, raw: str) -> None:
    if path in (MUTEX_WRAPPER, LOCK_GRAPH_IMPL):
        return
    raw_lines = raw.splitlines()
    for m in MUTEX_MEMBER_RE.finditer(clean):
        name = m.group(1)
        # Anchor on the identifier, not the match start: `^\s*` swallows
        # preceding blank lines under MULTILINE.
        lineno = clean.count("\n", 0, m.start(1)) + 1
        if re.search(rf"GUARDED_BY\(\s*{re.escape(name)}\s*\)", clean):
            continue
        # No guarded field: the contiguous comment block directly above
        # the declaration must say what the lock serializes.
        justified = False
        i = lineno - 2  # 0-based index of the line above the declaration
        while i >= 0 and re.match(r"\s*(?://|///)", raw_lines[i]):
            if PROTOCOL_LOCK_MARKER in raw_lines[i]:
                justified = True
            i -= 1
        if not justified:
            report("lock-discipline", path, lineno,
                   f"mutex `{name}` guards no CCDB_GUARDED_BY field and "
                   "has no `protocol-lock:` comment above it — declare "
                   "what it protects or justify the protocol it "
                   "serializes")
    # Bare TryLock spin loops: a loop that goes around again on TryLock
    # failure must be bounded, or a held lock becomes a livelock.
    for m in LOOP_HEAD_RE.finditer(clean):
        # Brace-match the loop body (condition first, then body).
        depth = 0
        i = m.end() - 1
        while i < len(clean):
            if clean[i] == "(":
                depth += 1
            elif clean[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        cond = clean[m.end() - 1 : i + 1]
        j = i + 1
        while j < len(clean) and clean[j] not in "{;":
            j += 1
        body = ""
        if j < len(clean) and clean[j] == "{":
            depth = 0
            k = j
            while k < len(clean):
                if clean[k] == "{":
                    depth += 1
                elif clean[k] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            body = clean[j : k + 1]
        if not TRYLOCK_RE.search(cond + body):
            continue
        if not any(tok in body or tok in cond for tok in LOOP_BOUND_TOKENS):
            lineno = clean.count("\n", 0, m.start()) + 1
            report("lock-discipline", path, lineno,
                   "bare TryLock spin loop — bound it with a deadline, "
                   "stop flag, or Backoff schedule (or just Lock(): the "
                   "deadlock detector orders blocking acquisitions)")


# --- Rule: governance check-points ------------------------------------------

# Files whose tuple-materializing operator loops must poll governance.
GOVERNANCE_FILES = ("core/operators.cc", "core/spatial.cc")
FUNC_START_RE = re.compile(r"^[A-Za-z_][\w:<>,&*\s]*?\b([A-Za-z_]\w*)\s*\($",
                           re.MULTILINE)


def function_bodies(clean: str):
    """Yields (name, start_line, body) for top-level function definitions
    (clang-format style: signature starts at column 0, body brace-matched)."""
    lines = clean.splitlines(keepends=True)
    text = "".join(lines)
    # A definition: identifier( at top level followed eventually by '{'.
    for m in re.finditer(r"^(?!\s)(?:[\w:&<>,*~\[\]]+\s+)+([A-Za-z_]\w*)\s*\(",
                         text, re.MULTILINE):
        name = m.group(1)
        # Find the opening brace of the body (skip the parameter list).
        depth = 0
        i = m.end() - 1
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        # After the parameter list: a body brace means a definition; a ';'
        # first means a declaration.
        j = i + 1
        while j < len(text) and text[j] not in "{;":
            j += 1
        if j >= len(text) or text[j] == ";":
            continue
        # Brace-match the body.
        depth = 0
        k = j
        while k < len(text):
            if text[k] == "{":
                depth += 1
            elif text[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        start_line = text.count("\n", 0, m.start()) + 1
        yield name, start_line, text[j : k + 1]


GOV_TOKENS = ("CheckGovernance", "GovernanceTruncating", "GovernTuples")
# Tuple-materialization markers: direct Relation inserts, plus spatial.cc's
# EmitPair helper (its only writer of output tuples).
MATERIALIZE_RE = re.compile(r"(?:\.|->)Insert\(|\bEmitPair\(")


def check_governance() -> None:
    for rel in GOVERNANCE_FILES:
        path = SRC / rel
        if not path.is_file():
            violations.append(f"[governance] missing {path}")
            continue
        clean = strip_comments_and_strings(path.read_text())
        for name, lineno, body in function_bodies(clean):
            materializes = MATERIALIZE_RE.search(body)
            loops = re.search(r"\b(?:for|while)\s*\(", body)
            if not (materializes and loops):
                continue
            if not any(tok in body for tok in GOV_TOKENS):
                report("governance", path, lineno,
                       f"operator `{name}` materializes tuples in a loop "
                       "without a governance check-point "
                       "(obs::CheckGovernance / GovernanceTruncating)")


def main() -> int:
    files = src_files()
    if not files:
        print("ccdb_lint: no sources found under src/ — broken checkout?",
              file=sys.stderr)
        return 1
    for path in files:
        raw = path.read_text()
        clean = strip_comments_and_strings(raw)
        check_no_throw(path, clean)
        check_raw_mutex(path, clean)
        check_void_discard(path, clean)
        check_no_iostream(path, clean)
        check_net_socket(path, clean)
        check_mvcc_publish(path, clean)
        check_net_retries(path, clean)
        check_lock_discipline(path, clean, raw)
        check_one_executor(path, clean)
    check_metrics()
    check_governance()

    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        print(f"ccdb_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"ccdb_lint: ok ({len(files)} files, 11 rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
