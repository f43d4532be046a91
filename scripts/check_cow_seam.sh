#!/usr/bin/env sh
# check_cow_seam.sh — fail when internal/graph copies a map anywhere but the
# copy-on-write container (cow.go) and, in the two record clone() methods,
# a record's labels and props: one place knows how a snapshot shares
# structure with its predecessor, and a record's adjacency is a cowMap.
#
# Usage: ./scripts/check_cow_seam.sh   (from the repository root)
set -eu

dir=internal/graph
if [ ! -f "$dir/cow.go" ]; then
    echo "check_cow_seam: $dir/cow.go not found (run from the repository root)" >&2
    exit 1
fi

bad=$(find "$dir" -name '*.go' ! -name '*_test.go' ! -name cow.go | sort | xargs awk '
    FNR == 1 { inclone = 0 }
    /^func \((n \*nodeRec|r \*relRec)\) clone\(/ { inclone = 1 }
    inclone && /^}/ { inclone = 0 }
    /maps\.Clone/ && !(inclone && /maps\.Clone\([a-z]+\.(labels|props)\)/) { print FILENAME ":" FNR ": " $0 }
')
if [ -n "$bad" ]; then
    echo "check_cow_seam: maps.Clone outside $dir/cow.go and the record clone() methods' labels/props:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "check_cow_seam: ok"
