#!/usr/bin/env sh
# check_event_seam.sh — fail when the rule event model grows a second home.
# internal/trigger/event.go is the only file that knows the eight event kinds
# (the table of their DSL, JSON and APOC forms) and the only one that walks a
# round's change record (the events enumerator). In non-test Go under
# internal/trigger, internal/cep and cmd/, everywhere else, this fails on:
#   (i)  a `case` over the kind constants (CreateNode … RemoveProperty), or a
#        map or table keyed or valued by them — a restated taxonomy;
#   (ii) a read of a graph.TxData field (.CreatedNodes … .RemovedProps) — a
#        second walker of the change record.
# Allowed besides event.go: termination.go's canTrigger, a static analysis of
# which rule's writes can raise which kind (no change record involved).
#
# Sites this finds at the parent of the commit that added it (PR 20):
#   internal/trigger/engine.go   dispatchIndex.candidates (8 TxData loops),
#                                Engine.filterSkipped (two passes, 6 fields)
#   internal/trigger/event.go    EventKind.String (switch),
#                                Event.occurrences (switch + 8 TxData loops)
#   internal/trigger/apoc.go     apocSources (map), selector-condition switch
#   internal/trigger/dsl.go      parseEventFields (8 Event{Kind: …} returns)
#   internal/trigger/rule.go     footprint: case CreateRelationship, Delete…
#   internal/cep/apoc.go         apocSources (map), selector-condition switch
#   internal/cep/dsl.go          eventSpecText (switch)
#   cmd/rkm-server/main.go       eventKinds (map)
#
# Usage: ./scripts/check_event_seam.sh   (from the repository root)
set -eu

if [ ! -f go.mod ] || [ ! -f internal/trigger/event.go ]; then
    echo "check_event_seam: run from the repository root" >&2
    exit 1
fi

kind='(CreateNode|DeleteNode|CreateRelationship|DeleteRelationship|SetLabel|RemoveLabel|SetProperty|RemoveProperty)'
field='(CreatedNodes|DeletedNodes|CreatedRels|DeletedRels|AssignedLabels|RemovedLabels|AssignedProps|RemovedProps)'

files=$(find internal/trigger internal/cep cmd -name '*.go' ! -name '*_test.go' \
    ! -path internal/trigger/event.go | sort)
status=0

bad=$(echo "$files" | grep -v '^internal/trigger/termination\.go$' | xargs grep -nE \
    "(^[[:space:]]*case[[:space:]].*\b$kind\b)|(^[[:space:]]*([a-z]+\.)?$kind:)|(:[[:space:]]*([a-z]+\.)?$kind,)" || true)
if [ -n "$bad" ]; then
    echo "check_event_seam: event kinds restated outside internal/trigger/event.go (add a column to its kinds table):" >&2
    echo "$bad" >&2
    status=1
fi

bad=$(echo "$files" | xargs grep -nE "\.$field\b" || true)
if [ -n "$bad" ]; then
    echo "check_event_seam: change record walked outside internal/trigger/event.go (extend the events enumerator):" >&2
    echo "$bad" >&2
    status=1
fi

[ "$status" -eq 0 ] && echo "check_event_seam: ok"
exit "$status"
