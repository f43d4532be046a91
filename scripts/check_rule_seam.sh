#!/usr/bin/env sh
# check_rule_seam.sh — fail when the rule language grows a second home.
# internal/trigger owns the one rule language: ParseRule (single-event and
# composite forms), Rule.Text, the keyword scanner and the APOC export, and
# its engine is the one rule registry. This fails when:
#   (i)   non-test Go outside internal/trigger (and internal/cypher, whose
#         CASE … WHEN … THEN is Cypher) spells a DSL keyword as a string
#         literal — a second parser or renderer of rule text;
#   (ii)  non-test Go outside internal/trigger defines ParseRule, a Text
#         method on a Rule, or an APOC exporter;
#   (iii) a cmd/rkm-server rule handler (handleRule*) references s.cep — a
#         second rule registry the server consults.
# The keyword scanner itself (findKeyword, wordAt, matchParen, …) is
# unexported, so the compiler already refuses a call from outside.
#
# Sites this finds at the parent of the commit that added it:
#   internal/cep/dsl.go        IsCompositeStatement, ParseRule, parseWhen:
#                              12 lines of keyword literals; ParseRule,
#                              IsCompositeStatement and Rule.Text defined
#   internal/cep/rule.go       Op.String ("SEQUENCE")
#   internal/cep/apoc.go       TranslateAPOC, Manager.TranslateAllAPOC
#   cmd/rkm-server/main.go     handleRulesList, handleRuleInstall,
#                              handleRuleDrop, handleRulesAPOC (8 s.cep lines)
# The root package's one-line ParseRule forward is the facade, not a parser.
#
# Usage: ./scripts/check_rule_seam.sh   (from the repository root)
set -eu

if [ ! -f go.mod ] || [ ! -f internal/trigger/dsl.go ]; then
    echo "check_rule_seam: run from the repository root" >&2
    exit 1
fi

files=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/trigger/*' | sort)
status=0

bad=$(echo "$files" | grep -v '^\./internal/cypher/' | xargs grep -nE \
    '"(AFTER|WHEN|WITHIN|THEN|SEQUENCE|ALERT)"' || true)
if [ -n "$bad" ]; then
    echo "check_rule_seam: rule DSL keywords spelled outside internal/trigger (extend trigger.ParseRule and Rule.Text):" >&2
    echo "$bad" >&2
    status=1
fi

bad=$(echo "$files" | xargs grep -nE \
    '^func (\([^)]*\) )?(ParseRule|IsCompositeStatement|TranslateAPOC|TranslateAllAPOC)\(|^func \([a-z]+ \*?Rule\) Text\(' |
    grep -v '{ return trigger\.' || true)
if [ -n "$bad" ]; then
    echo "check_rule_seam: rule parser, renderer or exporter outside internal/trigger:" >&2
    echo "$bad" >&2
    status=1
fi

bad=$(awk '/^func \(s \*server\) handleRule/ { inrule = 1 }
    inrule && /s\.cep/ { print FILENAME ":" FNR ": " $0 }
    inrule && /^}/ { inrule = 0 }' cmd/rkm-server/*.go | grep -v '_test\.go:' || true)
if [ -n "$bad" ]; then
    echo "check_rule_seam: rkm-server rule handler consults the composite runtime (use the knowledge base's one registry):" >&2
    echo "$bad" >&2
    status=1
fi

[ "$status" -eq 0 ] && echo "check_rule_seam: ok"
exit "$status"
