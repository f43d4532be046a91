#!/usr/bin/env sh
# check_followup_seam.sh — fail when follow-up work grows a second
# implementation, in non-test Go outside benchmark/:
#   (i)   a bookkeeping label (PendingAlertLabel, PartialLabel, OutboxLabel)
#         is scanned with NodesByLabel( anywhere but the bookkeeping
#         primitive, internal/core/bookkeeping.go;
#   (ii)  Engine.SkipLabels is assigned outside internal/core;
#   (iii) the retry timing knobs (BackoffBase ...) are declared in more than
#         one package (internal/backoff holds them);
#   (iv)  a periodic loop is built on time.NewTicker or time.Tick( anywhere
#         but core.Driver (internal/core/bookkeeping.go) and the WAL's
#         interval fsync (internal/wal/wal.go, which cannot import core).
#
# Usage: ./scripts/check_followup_seam.sh   (from the repository root)
set -eu

seam=internal/core/bookkeeping.go
if [ ! -f go.mod ] || [ ! -d internal/core ]; then
    echo "check_followup_seam: run from the repository root" >&2
    exit 1
fi

files=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | sort)
status=0

bad=$(echo "$files" | grep -v "^\./$seam\$" | xargs grep -nE \
    'NodesByLabel\(([A-Za-z]+\.)?(PendingAlertLabel|PartialLabel|OutboxLabel)\)' || true)
if [ -n "$bad" ]; then
    echo "check_followup_seam: bookkeeping label scanned outside $seam (use Bookkeeping.Scan):" >&2
    echo "$bad" >&2
    status=1
fi

bad=$(echo "$files" | grep -v '^\./internal/core/' | xargs grep -nE \
    'SkipLabels(\[[^]]*\])?[[:space:]]*=[^=]' || true)
if [ -n "$bad" ]; then
    echo "check_followup_seam: Engine.SkipLabels assigned outside internal/core (use Bookkeeping.Hide):" >&2
    echo "$bad" >&2
    status=1
fi

decl=$(echo "$files" | xargs grep -nE '^[[:space:]]*BackoffBase[[:space:]]+time\.Duration' || true)
if [ "$(echo "$decl" | sed 's|/[^/]*$||' | sort -u | grep -c .)" -gt 1 ]; then
    echo "check_followup_seam: BackoffBase declared in more than one package (embed backoff.Policy):" >&2
    echo "$decl" >&2
    status=1
fi

bad=$(echo "$files" | grep -v "^\./$seam\$" | grep -v '^\./internal/wal/wal\.go$' | xargs grep -nE \
    'time\.(NewTicker|Tick)\(' || true)
if [ -n "$bad" ]; then
    echo "check_followup_seam: periodic loop outside core.Driver (use core.Drive):" >&2
    echo "$bad" >&2
    status=1
fi

[ "$status" -eq 0 ] && echo "check_followup_seam: ok"
exit "$status"
