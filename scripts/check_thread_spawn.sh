#!/usr/bin/env bash
# check_thread_spawn.sh — enforce the one-worker-lifecycle-layer rule
# (DESIGN.md §13): every worker thread in the tree is constructed by
# sec::exec::WorkerPool, never by a raw std::thread.
#
# Fails (exit 1) when `std::thread(` appears anywhere under include/, src/,
# tests/, or bench/ outside include/exec/ and src/exec_* — the WorkerPool
# implementation itself, the one place allowed to spawn.
#
# Run from the repository root:  scripts/check_thread_spawn.sh
set -u

allow='^(include/exec/|src/exec_)'

hits=$(grep -rn 'std::thread(' include src tests bench 2>/dev/null |
       grep -Ev "$allow")

if [ -n "$hits" ]; then
    echo "check_thread_spawn: raw std::thread( outside sec::exec:" >&2
    echo "$hits" >&2
    echo "" >&2
    echo "Spawn workers through sec::exec::WorkerPool (include/exec/" >&2
    echo "worker_pool.hpp) so tid registration, placement, QSBR hooks," >&2
    echo "and perf counters stay in one layer. If a new non-worker" >&2
    echo "thread genuinely needs a raw std::thread, extend the" >&2
    echo "allowlist here and document why in DESIGN.md §13." >&2
    exit 1
fi

echo "check_thread_spawn: ok (std::thread( only in sec::exec)"
