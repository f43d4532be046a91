package schema

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/value"
)

// essentialSummarySrc is the paper's Fig. 4 schema, verbatim modulo
// whitespace.
const essentialSummarySrc = `
CREATE GRAPH TYPE EssentialSummary STRICT {
  (summaryType: Summary {date DATE}),
  (alertType: Alert {rule STRING, hub STRING, dateTime DATETIME, OPEN}),
  (currentType: summaryType & Current),
  (:summaryType)-[nextType: next]->(:summaryType),
  (:summaryType)-[hasType: has]->(:alertType)
  // Constraints
  FOR (x:summaryType) EXCLUSIVE MANDATORY SINGLETON x.date,
  FOR (x:alertType) EXCLUSIVE MANDATORY SINGLETON x.dateTime
}`

func TestParseEssentialSummary(t *testing.T) {
	g, err := ParseGraphType(essentialSummarySrc)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "EssentialSummary" || !g.Strict {
		t.Error("header")
	}
	if len(g.Nodes) != 3 || len(g.Edges) != 2 {
		t.Fatalf("nodes=%d edges=%d", len(g.Nodes), len(g.Edges))
	}
	alert := findType(g, "alertType")
	if alert == nil || !alert.Open || len(alert.Props) != 3 {
		t.Errorf("alertType: %+v", alert)
	}
	if len(alert.Keys) != 1 || alert.Keys[0].Prop != "dateTime" || !alert.Keys[0].Exclusive {
		t.Errorf("alert key: %+v", alert.Keys)
	}
	cur := findType(g, "currentType")
	if cur == nil || len(cur.Labels) != 2 || cur.Labels[0] != "Summary" || cur.Labels[1] != "Current" {
		t.Errorf("currentType labels: %+v", cur)
	}
	if len(cur.Props) != 1 || cur.Props[0].Name != "date" {
		t.Error("currentType should inherit the date property")
	}
	next := g.Edges[0]
	if next.Name != "nextType" || next.Type != "next" || next.From != "summaryType" || next.To != "summaryType" {
		t.Errorf("next edge: %+v", next)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"CREATE GRAPH TYPE X STRICT { (a: L { p BADTYPE }) }",
		"CREATE GRAPH TYPE X STRICT { (:a)-[e: t]->(:b) }",                 // dangling refs
		"CREATE GRAPH TYPE X STRICT { (a: L), FOR (x:zzz) MANDATORY x.p }", // unknown type in FOR
		"CREATE GRAPH TYPE X STRICT { (a: L), FOR (x:a) x.p }",             // missing facets
		"CREATE GRAPH TYPE X STRICT { (a: L), FOR (y:a) MANDATORY x.p }",   // var mismatch
		"CREATE GRAPH TYPE X STRICT { (a: L), (a: M) }",                    // duplicate alias
		"CREATE GRAPH TYPE X STRICT { (a: L",                               // unterminated
	}
	for _, src := range bad {
		if _, err := ParseGraphType(src); err == nil {
			t.Errorf("ParseGraphType(%q) should fail", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseGraphType should panic on bad input")
		}
	}()
	MustParseGraphType("garbage")
}

func boundStore(t *testing.T, src string) *graph.Store {
	t.Helper()
	g := MustParseGraphType(src)
	s := graph.NewStore()
	if err := g.Bind(s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStrictRejectsUnknownLabel(t *testing.T) {
	s := boundStore(t, essentialSummarySrc)
	err := s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Mystery"}, nil)
		return err
	})
	var ev *ErrViolations
	if !errors.As(err, &ev) {
		t.Fatalf("expected ErrViolations, got %v", err)
	}
	if !strings.Contains(err.Error(), "no declared node type") {
		t.Errorf("message: %v", err)
	}
	if s.Stats().Nodes != 0 {
		t.Error("violating commit must roll back")
	}
}

func TestLooseAllowsUnknownLabel(t *testing.T) {
	s := boundStore(t, "CREATE GRAPH TYPE T LOOSE { (a: Known {v INT}) }")
	err := s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Mystery"}, nil)
		return err
	})
	if err != nil {
		t.Errorf("loose schema should allow undeclared labels: %v", err)
	}
}

func TestMandatoryProperty(t *testing.T) {
	s := boundStore(t, essentialSummarySrc)
	err := s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Summary"}, nil) // missing date
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "missing mandatory property date") {
		t.Errorf("got %v", err)
	}
	err = s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Summary"},
			map[string]value.Value{"date": value.DateTime(time.Now())})
		return err
	})
	if err != nil {
		t.Errorf("valid summary rejected: %v", err)
	}
}

func TestOptionalProperty(t *testing.T) {
	s := boundStore(t, "CREATE GRAPH TYPE T STRICT { (a: L {must STRING, OPTIONAL may INT}) }")
	err := s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"L"}, map[string]value.Value{"must": value.Str("x")})
		return err
	})
	if err != nil {
		t.Errorf("optional property may be absent: %v", err)
	}
}

func TestPropertyTypeChecking(t *testing.T) {
	s := boundStore(t, essentialSummarySrc)
	err := s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Alert"}, map[string]value.Value{
			"rule":     value.Int(42), // should be STRING
			"hub":      value.Str("E"),
			"dateTime": value.DateTime(time.Now()),
		})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "kind INTEGER, want STRING") {
		t.Errorf("got %v", err)
	}
}

func TestOpenTypeAllowsExtraProps(t *testing.T) {
	s := boundStore(t, essentialSummarySrc)
	err := s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Alert"}, map[string]value.Value{
			"rule": value.Str("R2"), "hub": value.Str("A"),
			"dateTime": value.DateTime(time.Now()),
			"counter":  value.Int(150), // extra, allowed by OPEN
		})
		return err
	})
	if err != nil {
		t.Errorf("OPEN type should allow extras: %v", err)
	}
}

func TestClosedTypeRejectsExtraProps(t *testing.T) {
	s := boundStore(t, essentialSummarySrc)
	err := s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Summary"}, map[string]value.Value{
			"date":  value.DateTime(time.Now()),
			"extra": value.Int(1),
		})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "undeclared property extra") {
		t.Errorf("got %v", err)
	}
}

func TestExclusiveKey(t *testing.T) {
	s := boundStore(t, essentialSummarySrc)
	d := time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)
	err := s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Summary"}, map[string]value.Value{"date": value.DateTime(d)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Summary"}, map[string]value.Value{"date": value.DateTime(d)})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "not exclusive") {
		t.Errorf("duplicate key accepted: %v", err)
	}
	// A different date is fine.
	err = s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"Summary"},
			map[string]value.Value{"date": value.DateTime(d.Add(24 * time.Hour))})
		return err
	})
	if err != nil {
		t.Errorf("distinct key rejected: %v", err)
	}
}

// TestExclusiveKeyFollowsEquality: an EXCLUSIVE key compares values by
// Cypher's =, so {k: 1} collides with {k: 1.0}, and one instant collides
// with itself in another zone; 1.5 does not collide with 1.
func TestExclusiveKeyFollowsEquality(t *testing.T) {
	at := time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		a, b    value.Value
		collide bool
	}{
		{value.Int(1), value.Float(1), true},
		{value.Float(1), value.Int(1), true},
		{value.DateTime(at), value.DateTime(at.In(time.FixedZone("CEST", 2*3600))), true},
		{value.Int(1), value.Float(1.5), false},
	} {
		s := boundStore(t, "CREATE GRAPH TYPE T STRICT { (a: L {k ANY}), FOR (x:a) EXCLUSIVE x.k }")
		for i, v := range []value.Value{c.a, c.b} {
			err := s.Update(func(tx *graph.Tx) error {
				_, err := tx.CreateNode([]string{"L"}, map[string]value.Value{"k": v})
				return err
			})
			if collided := err != nil && strings.Contains(err.Error(), "not exclusive"); collided != (c.collide && i == 1) {
				t.Errorf("{k: %v} next to {k: %v}: %v", v, c.a, err)
			}
		}
	}
}

func TestSingletonKeyRejectsList(t *testing.T) {
	s := boundStore(t, "CREATE GRAPH TYPE T STRICT { (a: L {k ANY}), FOR (x:a) SINGLETON x.k }")
	err := s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateNode([]string{"L"},
			map[string]value.Value{"k": value.List(value.Int(1), value.Int(2))})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "singleton") {
		t.Errorf("got %v", err)
	}
}

func TestEdgeEndpointTyping(t *testing.T) {
	s := boundStore(t, essentialSummarySrc)
	d := time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)
	var sum1, sum2, alert graph.NodeID
	err := s.Update(func(tx *graph.Tx) error {
		var err error
		sum1, err = tx.CreateNode([]string{"Summary"}, map[string]value.Value{"date": value.DateTime(d)})
		if err != nil {
			return err
		}
		sum2, err = tx.CreateNode([]string{"Summary"},
			map[string]value.Value{"date": value.DateTime(d.Add(24 * time.Hour))})
		if err != nil {
			return err
		}
		alert, err = tx.CreateNode([]string{"Alert"}, map[string]value.Value{
			"rule": value.Str("R2"), "hub": value.Str("A"), "dateTime": value.DateTime(d)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Valid edges.
	if err := s.Update(func(tx *graph.Tx) error {
		if _, err := tx.CreateRel(sum1, sum2, "next", nil); err != nil {
			return err
		}
		_, err := tx.CreateRel(sum2, alert, "has", nil)
		return err
	}); err != nil {
		t.Fatalf("valid edges rejected: %v", err)
	}
	// Invalid: next from summary to alert.
	err = s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateRel(sum1, alert, "next", nil)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "do not satisfy") {
		t.Errorf("bad endpoints accepted: %v", err)
	}
	// Invalid in STRICT: undeclared relationship type.
	err = s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateRel(sum1, sum2, "mystery", nil)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "not declared") {
		t.Errorf("undeclared rel type accepted: %v", err)
	}
}

func TestValidationOnUpdateNotJustCreate(t *testing.T) {
	s := boundStore(t, essentialSummarySrc)
	var id graph.NodeID
	d := time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)
	_ = s.Update(func(tx *graph.Tx) error {
		id, _ = tx.CreateNode([]string{"Summary"}, map[string]value.Value{"date": value.DateTime(d)})
		return nil
	})
	// Removing the mandatory property must fail at commit.
	err := s.Update(func(tx *graph.Tx) error { return tx.RemoveNodeProp(id, "date") })
	if err == nil {
		t.Error("removing mandatory property should violate schema")
	}
	// Adding a label that changes the type match is re-validated.
	err = s.Update(func(tx *graph.Tx) error { return tx.SetLabel(id, "Current") })
	if err != nil {
		t.Errorf("Summary → Summary&Current is declared and should pass: %v", err)
	}
}

func TestNodeTypeForMostSpecific(t *testing.T) {
	g := MustParseGraphType(essentialSummarySrc)
	nt, ok := g.NodeTypeFor([]string{"Summary", "Current"})
	if !ok || nt.Name != "currentType" {
		t.Errorf("most specific type = %+v", nt)
	}
	nt, ok = g.NodeTypeFor([]string{"Summary"})
	if !ok || nt.Name != "summaryType" {
		t.Errorf("plain summary type = %+v", nt)
	}
	if _, ok := g.NodeTypeFor([]string{"Nope"}); ok {
		t.Error("unknown label should not match")
	}
}

func TestPropTypeAccepts(t *testing.T) {
	if !TypeFloat.Accepts(value.Int(1)) {
		t.Error("INT widens to FLOAT")
	}
	if TypeInt.Accepts(value.Float(1)) {
		t.Error("FLOAT does not narrow to INT")
	}
	if !TypeDateTime.Accepts(value.Str("2023-04-01")) {
		t.Error("DATE accepts ISO strings for ergonomic population")
	}
	if !TypeAny.Accepts(value.List()) {
		t.Error("ANY accepts everything")
	}
	for pt, name := range map[PropType]string{
		TypeString: "STRING", TypeInt: "INT", TypeFloat: "FLOAT",
		TypeBool: "BOOL", TypeDateTime: "DATETIME", TypeDuration: "DURATION",
		TypeAny: "ANY",
	} {
		if pt.String() != name {
			t.Errorf("PropType(%d).String() = %s", int(pt), pt)
		}
	}
}

func TestRunningExampleSchemaFig2(t *testing.T) {
	// A condensed version of the paper's Fig. 2 running-example schema.
	src := `
	CREATE GRAPH TYPE CovidScenario STRICT {
	  (effectType: Effect {type STRING, level STRING}),
	  (mutationType: Mutation {id STRING, hub STRING}),
	  (labType: Lab {name STRING, hub STRING}),
	  (sequenceType: Sequence {id STRING, hub STRING, OPTIONAL variant STRING}),
	  (variantType: Variant {name STRING, hub STRING}),
	  (hospitalType: Hospital {name STRING, hub STRING}),
	  (regionType: Region {name STRING, hub STRING}),
	  (patientType: Patient {id STRING, hub STRING, OPEN}),
	  (:mutationType)-[hasEffectType: HasEffect]->(:effectType),
	  (:sequenceType)-[sequencedAtType: SequencedAt]->(:labType),
	  (:sequenceType)-[assignedToType: AssignedTo]->(:variantType),
	  (:variantType)-[containsType: Contains]->(:mutationType),
	  (:labType)-[labInType: LocatedIn]->(:regionType),
	  (:hospitalType)-[hospInType: LocatedIn]->(:regionType),
	  (:patientType)-[treatedAtType: TreatedAt]->(:hospitalType),
	  FOR (x:regionType) EXCLUSIVE MANDATORY SINGLETON x.name,
	  FOR (x:sequenceType) EXCLUSIVE MANDATORY SINGLETON x.id
	}`
	g, err := ParseGraphType(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 8 || len(g.Edges) != 7 {
		t.Errorf("nodes=%d edges=%d", len(g.Nodes), len(g.Edges))
	}
	s := graph.NewStore()
	if err := g.Bind(s); err != nil {
		t.Fatal(err)
	}
	// LocatedIn is declared twice with different endpoints; both must work.
	err = s.Update(func(tx *graph.Tx) error {
		region, _ := tx.CreateNode([]string{"Region"},
			map[string]value.Value{"name": value.Str("Lombardy"), "hub": value.Str("R")})
		lab, _ := tx.CreateNode([]string{"Lab"},
			map[string]value.Value{"name": value.Str("L1"), "hub": value.Str("A")})
		hosp, _ := tx.CreateNode([]string{"Hospital"},
			map[string]value.Value{"name": value.Str("H1"), "hub": value.Str("C")})
		if _, err := tx.CreateRel(lab, region, "LocatedIn", nil); err != nil {
			return err
		}
		_, err := tx.CreateRel(hosp, region, "LocatedIn", nil)
		return err
	})
	if err != nil {
		t.Errorf("overloaded edge type: %v", err)
	}
}

func TestEdgePropertyValidation(t *testing.T) {
	s := boundStore(t, `CREATE GRAPH TYPE T STRICT {
		(at: A), (bt: B),
		(:at)-[et: LINK {weight FLOAT, OPTIONAL note STRING}]->(:bt),
		(:at)-[ot: OPENLINK {OPEN}]->(:bt)
	}`)
	var a, b graph.NodeID
	_ = s.Update(func(tx *graph.Tx) error {
		a, _ = tx.CreateNode([]string{"A"}, nil)
		b, _ = tx.CreateNode([]string{"B"}, nil)
		return nil
	})
	// Valid edge.
	if err := s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateRel(a, b, "LINK", map[string]value.Value{"weight": value.Float(0.5)})
		return err
	}); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	// Missing mandatory property.
	err := s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateRel(a, b, "LINK", nil)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "missing mandatory property weight") {
		t.Errorf("missing edge prop: %v", err)
	}
	// Wrong kind.
	err = s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateRel(a, b, "LINK", map[string]value.Value{"weight": value.Str("heavy")})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "want FLOAT") {
		t.Errorf("wrong edge prop kind: %v", err)
	}
	// Undeclared extra property on a closed edge type.
	err = s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateRel(a, b, "LINK", map[string]value.Value{
			"weight": value.Float(1), "bogus": value.Int(1)})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "undeclared property bogus") {
		t.Errorf("extra edge prop: %v", err)
	}
	// OPEN edge types accept anything.
	if err := s.Update(func(tx *graph.Tx) error {
		_, err := tx.CreateRel(a, b, "OPENLINK", map[string]value.Value{"x": value.Int(1)})
		return err
	}); err != nil {
		t.Errorf("open edge rejected: %v", err)
	}
}
