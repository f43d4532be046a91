// Package cyphertest holds the golden equivalence corpus shared by the
// query-engine tests: internal/cypher's TestGolden checks every case
// against the recorded behavior of the retired tree-walking interpreter,
// and internal/core's golden parity test re-runs the same corpus over its
// constructor table (a four-hub layout with knowledge bridges, in memory and
// durable) and requires identical results on every row. Keeping the table here lets both
// consumers import it without an import cycle (core imports cypher).
package cyphertest

import (
	"time"

	"repro/internal/value"
)

// Now is the fixed clock every corpus run uses, so datetime()/timestamp()
// render identically across engines and stores.
var Now = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// Case is one corpus entry. The fixture it runs against (4 Persons, 3
// Cities, 5 Widgets, 10 relationships, indexes on Person.name and
// City.code) is built by each consumer — see internal/cypher's
// goldenFixture and internal/core's parity fixture, which must
// create the same entities in the same order.
type Case struct {
	Name    string
	Query   string
	Params  map[string]value.Value
	Bind    map[string]value.Value
	Ordered bool // compare row order exactly (ORDER BY queries)
	Write   bool // run in a write tx against a fresh fixture, dump final state
}

// Cases returns the corpus. The table is append-only in spirit: renaming or
// deleting a case invalidates the recorded golden results.
func Cases() []Case {
	p := map[string]value.Value{
		"who":  value.Str("Ada"),
		"min":  value.Int(30),
		"list": value.ListOf([]value.Value{value.Int(1), value.Int(2), value.Int(3)}),
	}
	bindNew := map[string]value.Value{"NEW": value.Node(1), "OLD": value.Null}
	return []Case{
		// -- basic matching and predicates --
		{Name: "all-persons", Query: "MATCH (p:Person) RETURN p.name"},
		{Name: "full-scan", Query: "MATCH (n) RETURN count(*)"},
		{Name: "index-eq", Query: "MATCH (p:Person {name: 'Ada'}) RETURN p.age, p.score"},
		{Name: "index-eq-param", Query: "MATCH (p:Person {name: $who}) RETURN p.age", Params: p},
		{Name: "where-and-or", Query: "MATCH (p:Person) WHERE p.age > 30 AND (p.nick IS NULL OR p.age < 40) RETURN p.name"},
		{Name: "where-ternary-null", Query: "MATCH (p:Person) WHERE p.nick = 'cy' RETURN p.name"},
		{Name: "where-in", Query: "MATCH (p:Person) WHERE p.age IN [29, 36] RETURN p.name"},
		{Name: "where-in-param", Query: "MATCH (w:Widget) WHERE w.n IN $list RETURN w.n", Params: p},
		{Name: "string-preds", Query: "MATCH (p:Person) WHERE p.name STARTS WITH 'A' OR p.name ENDS WITH 'e' OR p.name CONTAINS 'y' RETURN p.name"},
		{Name: "regex", Query: "MATCH (c:City) WHERE c.code =~ '[LP].*' RETURN c.code"},
		{Name: "multi-label", Query: "MATCH (a:Person:Admin) RETURN a.name"},
		{Name: "not-null-check", Query: "MATCH (p:Person) WHERE p.nick IS NOT NULL RETURN p.name, p.nick"},
		{Name: "xor-not", Query: "MATCH (p:Person) WHERE (p.age > 30) XOR (p.name = 'Dee') RETURN p.name"},
		{Name: "arith", Query: "MATCH (p:Person {name: 'Ada'}) RETURN p.age + 4, p.age - 6, p.age * 2, p.age / 4, p.age % 5, 2 ^ 3, -p.age"},
		{Name: "comparison-chain", Query: "MATCH (p:Person) WHERE 29 <= p.age < 40 RETURN p.name"},

		// -- relationships, directions, joins --
		{Name: "rel-basic", Query: "MATCH (a:Person)-[k:KNOWS]->(b:Person) RETURN a.name, b.name, k.since"},
		{Name: "rel-undirected", Query: "MATCH (a:Person {name: 'Bob'})-[:KNOWS]-(b) RETURN b.name"},
		{Name: "rel-incoming", Query: "MATCH (a:Person)<-[:KNOWS]-(b:Person {name: 'Ada'}) RETURN a.name"},
		{Name: "rel-types-alt", Query: "MATCH (a:Person {name: 'Ada'})-[r:KNOWS|WORKS_WITH]->(b) RETURN type(r), b.name"},
		{Name: "rel-prop-filter", Query: "MATCH (a)-[k:KNOWS {since: 2019}]->(b) RETURN a.name, b.name"},
		{Name: "chain-anon", Query: "MATCH (a:Person)-[:KNOWS]->()-[:KNOWS]->(c) RETURN a.name, c.name"},
		{Name: "multi-pattern-join", Query: "MATCH (a:Person)-[:LIVES_IN]->(c:City), (b:Person)-[:LIVES_IN]->(c) WHERE a.name < b.name RETURN a.name, b.name, c.code"},
		{Name: "multi-pattern-cross", Query: "MATCH (a:Person {name: 'Ada'}), (c:City {code: 'REY'}) RETURN a.name, c.code"},
		{Name: "varhops", Query: "MATCH (a:Person {name: 'Ada'})-[:KNOWS*1..3]->(b) RETURN b.name"},
		{Name: "varhops-counted", Query: "MATCH (a:Person {name: 'Ada'})-[rs:KNOWS*2..2]->(b) RETURN size(rs), b.name"},
		{Name: "path-var", Query: "MATCH pth = (a:Person {name: 'Ada'})-[:KNOWS]->(b) RETURN size(pth), b.name"},
		{Name: "rel-uniqueness", Query: "MATCH (a)-[r1:KNOWS]->(b)-[r2:KNOWS]->(c) RETURN a.name, b.name, c.name"},
		{Name: "degree-fn", Query: "MATCH (p:Person {name: 'Ada'}) RETURN degree(p), degree(p, 'KNOWS')"},

		// -- OPTIONAL MATCH --
		{Name: "optional-hit-miss", Query: "MATCH (p:Person) OPTIONAL MATCH (p)-[:WORKS_WITH]->(w) RETURN p.name, w.name"},
		{Name: "optional-null-prop", Query: "MATCH (c:City) OPTIONAL MATCH (c)<-[:LIVES_IN]-(p:Person {age: 29}) RETURN c.code, p.name"},
		{Name: "optional-then-where", Query: "MATCH (p:Person) OPTIONAL MATCH (p)-[:LIVES_IN]->(c:City) WHERE c.pop > 3000000 RETURN p.name, c.code"},

		// -- UNWIND / WITH --
		{Name: "unwind-literal", Query: "UNWIND [3, 1, 2] AS x RETURN x", Ordered: true},
		{Name: "unwind-null-skip", Query: "UNWIND [1, null, 2] AS x RETURN x"},
		{Name: "unwind-param", Query: "UNWIND $list AS x RETURN x * 10", Params: p, Ordered: true},
		{Name: "unwind-nested", Query: "UNWIND [[1,2],[3]] AS xs UNWIND xs AS x RETURN x", Ordered: true},
		{Name: "with-filter", Query: "MATCH (p:Person) WITH p, p.age AS a WHERE a >= $min RETURN p.name, a", Params: p},
		{Name: "with-distinct", Query: "MATCH (p:Person) WITH DISTINCT p.age AS a RETURN a"},
		{Name: "with-star", Query: "MATCH (p:Person {name: 'Ada'}) WITH * RETURN p.name"},
		{Name: "with-orderby-limit", Query: "MATCH (p:Person) WITH p ORDER BY p.age DESC, p.name LIMIT 2 RETURN p.name", Ordered: true},
		{Name: "with-chain-agg", Query: "MATCH (p:Person)-[:LIVES_IN]->(c:City) WITH c, count(p) AS residents WHERE residents > 1 RETURN c.code, residents"},

		// -- projections, ORDER BY, SKIP/LIMIT, DISTINCT --
		{Name: "orderby-pre-projection", Query: "MATCH (p:Person) RETURN p.name ORDER BY p.age DESC, p.name ASC", Ordered: true},
		{Name: "orderby-alias", Query: "MATCH (p:Person) RETURN p.name AS n, p.age AS a ORDER BY a, n", Ordered: true},
		{Name: "skip-limit", Query: "MATCH (p:Person) RETURN p.name ORDER BY p.name SKIP 1 LIMIT 2", Ordered: true},
		{Name: "limit-expr", Query: "MATCH (p:Person) RETURN p.name ORDER BY p.name LIMIT 1 + 1", Ordered: true},
		{Name: "distinct-rows", Query: "MATCH (p:Person) RETURN DISTINCT p.age"},
		{Name: "return-star", Query: "MATCH (c:City {code: 'LON'}) RETURN *"},
		{Name: "duplicate-free-columns", Query: "MATCH (p:Person {name: 'Ada'}) RETURN p.age AS x, p.age + 1 AS y"},

		// -- aggregation --
		{Name: "agg-global", Query: "MATCH (p:Person) RETURN count(*), count(p.nick), sum(p.age), min(p.age), max(p.age)"},
		{Name: "agg-avg-stdev", Query: "MATCH (p:Person) RETURN avg(p.age), stdev(p.age)"},
		{Name: "agg-grouped", Query: "MATCH (p:Person) RETURN p.age AS a, count(*) ORDER BY a", Ordered: true},
		{Name: "agg-collect", Query: "MATCH (p:Person) WITH p ORDER BY p.name RETURN collect(p.name)", Ordered: true},
		{Name: "agg-distinct", Query: "MATCH (p:Person) RETURN count(DISTINCT p.age)"},
		{Name: "agg-empty-input", Query: "MATCH (p:Person {name: 'Nobody'}) RETURN count(*), sum(p.age), collect(p.name)"},
		{Name: "agg-expr-around", Query: "MATCH (p:Person) RETURN count(*) + 100, max(p.age) - min(p.age)"},
		// The WITH … ORDER BY fixes collect()'s input order: label scans
		// enumerate in map order, so without it the list order is arbitrary.
		{Name: "agg-key-and-agg-mixed", Query: "MATCH (p:Person)-[:LIVES_IN]->(c:City) WITH p, c ORDER BY p.name RETURN c.code AS code, collect(p.name), count(*) ORDER BY code", Ordered: true},

		// -- fast-count store --
		{Name: "fastcount-all", Query: "MATCH (n) RETURN count(n)"},
		{Name: "fastcount-label", Query: "MATCH (p:Person) RETURN count(p)"},
		{Name: "fastcount-prop", Query: "MATCH (p:Person {name: 'Ada'}) RETURN count(p)"},
		{Name: "fastcount-star", Query: "MATCH (w:Widget) RETURN count(*)"},
		{Name: "countnodes-fn", Query: "RETURN countNodes('Person'), countNodes('Person', 'name', 'Ada')"},

		// -- expressions: CASE, lists, maps, slices, reduce, quantifiers --
		{Name: "case-searched", Query: "MATCH (p:Person) RETURN p.name, CASE WHEN p.age < 30 THEN 'young' WHEN p.age < 40 THEN 'mid' ELSE 'senior' END"},
		{Name: "case-simple", Query: "MATCH (p:Person) RETURN p.name, CASE p.age WHEN 29 THEN 'twentynine' ELSE 'other' END"},
		{Name: "list-literal-index", Query: "RETURN [1, 2, 3][0], [1, 2, 3][-1], [1, 2, 3][5]"},
		{Name: "list-slice", Query: "RETURN [1,2,3,4][1..3], [1,2,3,4][..2], [1,2,3,4][-2..]"},
		{Name: "map-literal", Query: "RETURN {a: 1, b: 'two', c: [3]}"},
		{Name: "map-index", Query: "RETURN {a: 1}['a'], {a: 1}['b']"},
		{Name: "list-comp", Query: "RETURN [x IN range(1, 6) WHERE x % 2 = 0 | x * x]"},
		{Name: "list-comp-novar", Query: "RETURN [x IN [1,2,3]]"},
		{Name: "quantifiers", Query: "RETURN all(x IN [2,4] WHERE x % 2 = 0), any(x IN [1,2] WHERE x > 1), none(x IN [1] WHERE x > 5), single(x IN [1,2,3] WHERE x = 2)"},
		{Name: "quantifier-null", Query: "RETURN any(x IN [1, null] WHERE x > 5)"},
		{Name: "reduce", Query: "RETURN reduce(acc = 0, x IN [1,2,3,4] | acc + x)"},
		{Name: "reduce-over-prop", Query: "MATCH (p:Person {name: 'Ada'}) RETURN reduce(s = '', c IN ['a','b'] | s + c) + p.name"},
		{Name: "exists-pattern", Query: "MATCH (p:Person) WHERE (p)-[:WORKS_WITH]->() RETURN p.name"},
		{Name: "exists-fn", Query: "MATCH (p:Person) WHERE exists((p)-[:LIVES_IN]->(:City {code: 'PAR'})) RETURN p.name"},
		{Name: "not-exists", Query: "MATCH (p:Person) WHERE NOT (p)-[:WORKS_WITH]->() RETURN p.name"},

		// -- functions --
		{Name: "fn-entity", Query: "MATCH (a:Person {name: 'Ada'})-[r:KNOWS]->(b) RETURN id(a) >= 0, labels(a), type(r), id(startnode(r)) = id(a), id(endnode(r)) = id(b)"},
		{Name: "fn-props-keys", Query: "MATCH (p:Person {name: 'Cyd'}) RETURN properties(p), keys(p)"},
		{Name: "fn-strings", Query: "RETURN toLower('AbC'), toUpper('x'), trim('  hi  '), replace('aaa', 'a', 'b'), split('a,b', ','), left('hello', 2), right('hello', 3), reverse('abc'), substring('hello', 1, 3)"},
		{Name: "fn-numbers", Query: "RETURN abs(-3), ceil(1.2), floor(1.8), round(2.5), sqrt(16), sign(-2), toFloat('1.5'), toInteger('7'), toString(42), toBoolean('true')"},
		{Name: "fn-lists", Query: "RETURN size([1,2]), head([1,2]), last([1,2]), tail([1,2,3]), range(1, 7, 2), coalesce(null, 2, 3)"},
		{Name: "fn-temporal", Query: "RETURN timestamp(), datetime().year, datetime().epochSeconds, duration('90m')"},
		{Name: "fn-datetime-fields", Query: "WITH datetime('2024-06-15T10:30:00Z') AS d RETURN d.year, d.month, d.day, d.hour, d.minute, d.second"},

		// -- parameters and pre-bindings (rule-style) --
		{Name: "param-everywhere", Query: "MATCH (p:Person) WHERE p.name = $who RETURN p.age >= $min", Params: p},
		{Name: "bindings-new", Query: "RETURN NEW.name, NEW.age, OLD IS NULL", Bind: bindNew},
		{Name: "bindings-match", Query: "MATCH (NEW)-[:KNOWS]->(b) RETURN b.name", Bind: bindNew},

		// -- UNION --
		{Name: "union-dedupe", Query: "MATCH (p:Person {age: 29}) RETURN p.name AS n UNION MATCH (p:Person {name: 'Cyd'}) RETURN p.name AS n"},
		{Name: "union-all", Query: "RETURN 1 AS x UNION ALL RETURN 1 AS x UNION ALL RETURN 2 AS x"},

		// -- writes --
		{Name: "create-basic", Query: "CREATE (a:Thing {k: 1})-[:REL {w: 2}]->(b:Thing {k: 2}) RETURN a.k, b.k", Write: true},
		{Name: "create-from-match", Query: "MATCH (p:Person {name: 'Ada'}) CREATE (p)-[:TAGGED]->(t:Tag {name: 'vip'}) RETURN t.name", Write: true},
		{Name: "create-unwind", Query: "UNWIND [1,2,3] AS i CREATE (n:Num {v: i * 10}) RETURN n.v", Write: true},
		{Name: "merge-match-existing", Query: "MERGE (p:Person {name: 'Ada'}) ON CREATE SET p.created = true ON MATCH SET p.seen = 7 RETURN p.seen, p.created", Write: true},
		{Name: "merge-create-new", Query: "MERGE (p:Person {name: 'Eve'}) ON CREATE SET p.created = true RETURN p.name, p.created", Write: true},
		{Name: "merge-rel", Query: "MATCH (a:Person {name: 'Ada'}), (b:Person {name: 'Dee'}) MERGE (a)-[k:KNOWS]->(b) ON CREATE SET k.since = 2026 RETURN k.since", Write: true},
		{Name: "set-forms", Query: "MATCH (p:Person {name: 'Bob'}) SET p.age = 42, p:Senior SET p += {mood: 'fine'} RETURN p.age, labels(p), p.mood", Write: true},
		{Name: "set-replace-props", Query: "MATCH (c:City {code: 'REY'}) SET c = {code: 'REY', fresh: true} RETURN properties(c)", Write: true},
		{Name: "set-null-target", Query: "OPTIONAL MATCH (p:Person {name: 'Zed'}) SET p.x = 1 RETURN p", Write: true},
		{Name: "remove-forms", Query: "MATCH (p:Person {name: 'Cyd'}) REMOVE p.nick, p:Admin RETURN p.nick, labels(p)", Write: true},
		{Name: "delete-rel", Query: "MATCH (a:Person {name: 'Ada'})-[r:WORKS_WITH]->() DELETE r RETURN count(r)", Write: true},
		{Name: "detach-delete", Query: "MATCH (w:Widget) DETACH DELETE w", Write: true},
		{Name: "foreach", Query: "MATCH (c:City {code: 'LON'}) FOREACH (i IN range(1, 3) | CREATE (:Probe {n: i})) RETURN c.code", Write: true},
		{Name: "foreach-nested", Query: "FOREACH (i IN [1, 2] | FOREACH (j IN [10] | CREATE (:Cell {v: i + j})))", Write: true},
		{Name: "write-then-read", Query: "CREATE (x:Tmp {v: 1}) WITH x SET x.v = x.v + 1 RETURN x.v", Write: true},
	}
}
