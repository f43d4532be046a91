#!/usr/bin/env sh
# check_plan_seam.sh — fail when a Cypher planning decision grows a second home.
# In non-test Go under internal/cypher:
#   (i)  the function table (functions.go, the keys of `functions`) is the only
#        place a function name means something: a `case` listing a function
#        name as a string literal is a second name switch;
#   (ii) walkExpr (ast.go) is the one recursion over the expression AST and
#        compile.go the one lowering of it: a `case *ListComp` anywhere else is
#        a hand-kept copy of that recursion.
#
# Sites this finds at the parent of the commit that added it:
#   internal/cypher/functions.go  isAggregateFunc, applyFunc and its
#                                 tolower/trim inner switch, mathFunc
#                                 (38 case lines naming functions)
#   internal/cypher/agg.go        newAggregator (7 case lines)
#   internal/cypher/plan.go       collectVarNames, collectAggregates
#                                 (case *ListComp)
#   internal/cypher/inspect.go    StatementInfo.addExpr (case *ListComp)
#
# Usage: ./scripts/check_plan_seam.sh   (from the repository root)
set -eu

table=internal/cypher/functions.go
if [ ! -f go.mod ] || [ ! -f "$table" ]; then
    echo "check_plan_seam: run from the repository root" >&2
    exit 1
fi

names=$(sed -nE 's/^[[:space:]]*"([a-z]+)":[[:space:]]*\{.*/\1/p' "$table" | paste -sd '|' -)
if [ -z "$names" ]; then
    echo "check_plan_seam: no function table found in $table" >&2
    exit 1
fi

files=$(find internal/cypher -name '*.go' ! -name '*_test.go' | sort)
status=0

bad=$(echo "$files" | xargs grep -nE "^[[:space:]]*case[[:space:]].*\"($names)\"" || true)
if [ -n "$bad" ]; then
    echo "check_plan_seam: function names switched on outside the function table (add a row to $table):" >&2
    echo "$bad" >&2
    status=1
fi

bad=$(echo "$files" | grep -vE '^internal/cypher/(ast|compile)\.go$' |
    xargs grep -nE "case[[:space:]]+\*ListComp\b" || true)
if [ -n "$bad" ]; then
    echo "check_plan_seam: expression AST walked outside walkExpr (use walkExpr with a visit function):" >&2
    echo "$bad" >&2
    status=1
fi

[ "$status" -eq 0 ] && echo "check_plan_seam: ok"
exit "$status"
