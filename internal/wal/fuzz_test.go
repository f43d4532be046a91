package wal

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/value"
)

// fuzzFixture builds the store every fuzzed record is applied to: two
// people, one relationship, typed properties on both.
func fuzzFixture(t testing.TB) *graph.Store {
	t.Helper()
	s := graph.NewStore()
	if err := s.Update(func(tx *graph.Tx) error {
		ada, err := tx.CreateNode([]string{"Person"}, map[string]value.Value{
			"name": value.Str("Ada"),
			"born": value.DateTime(time.Date(1815, 12, 10, 0, 0, 0, 0, time.UTC)),
		})
		if err != nil {
			return err
		}
		bob, err := tx.CreateNode([]string{"Person", "Admin"}, map[string]value.Value{
			"name": value.Str("Bob"),
			"tags": value.List(value.Str("x"), value.Int(1)),
		})
		if err != nil {
			return err
		}
		_, err = tx.CreateRel(ada, bob, "KNOWS", map[string]value.Value{"since": value.Int(2019)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func exportStore(t testing.TB, s *graph.Store) string {
	t.Helper()
	var b strings.Builder
	if err := s.Export(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// fuzzSeeds are the encoded records of real transactions, each committed
// on its own copy of the fixture.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	txs := []func(tx *graph.Tx) error{
		func(tx *graph.Tx) error {
			_, err := tx.CreateNode([]string{"Doc", "Draft"}, map[string]value.Value{
				"at":    value.DateTime(time.Date(2023, 4, 1, 8, 0, 0, 0, time.UTC)),
				"ttl":   value.Duration(2 * time.Hour),
				"flag":  value.Bool(false),
				"empty": value.Str(""),
				"score": value.Float(0.5),
				"meta":  value.Map(map[string]value.Value{"k": value.Int(1)}),
			})
			return err
		},
		func(tx *graph.Tx) error {
			_, err := tx.CreateRel(2, 1, "KNOWS", map[string]value.Value{"since": value.Int(2021)})
			return err
		},
		func(tx *graph.Tx) error {
			if err := tx.SetLabel(1, "Admin"); err != nil {
				return err
			}
			return tx.RemoveLabel(2, "Admin")
		},
		func(tx *graph.Tx) error {
			if err := tx.SetNodeProp(1, "name", value.Str("Ada L.")); err != nil {
				return err
			}
			if err := tx.RemoveNodeProp(2, "tags"); err != nil {
				return err
			}
			if err := tx.SetRelProp(1, "weight", value.Float(1.5)); err != nil {
				return err
			}
			return tx.RemoveRelProp(1, "since")
		},
		func(tx *graph.Tx) error { return tx.DeleteRel(1) },
		func(tx *graph.Tx) error { return tx.DeleteNode(2, true) },
	}
	var seeds [][]byte
	for _, fn := range txs {
		s := fuzzFixture(t)
		var rec *Record
		s.SetCommitHook(func(tx *graph.Tx) error {
			rec = RecordFromTx(tx)
			return nil
		})
		if err := s.Update(fn); err != nil {
			t.Fatal(err)
		}
		rec.Seq = 2
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// danglingRelSeed is a record whose relationship names an endpoint the
// fixture lacks — the shape of a bridge half logged by the removed per-hub
// shard streams. Applying it must fail and leave the store unchanged.
var danglingRelSeed = []byte(`{"seq":2,"ops":[{"op":"createRel","rel":5,"type":"LIVES_IN","start":1,"end":99,"ext":"bridge","value":null}],"nextNode":3,"nextRel":6}`)

// TestFuzzSeedsApply pins the seeds as valid: each reproduces its
// transaction on a fresh fixture.
func TestFuzzSeedsApply(t *testing.T) {
	for i, data := range fuzzSeeds(t) {
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if err := fuzzFixture(t).Update(func(tx *graph.Tx) error { return ApplyRecord(tx, &rec) }); err != nil {
			t.Fatalf("seed %d: %v\n%s", i, err, data)
		}
	}
}

// FuzzApplyRecord decodes arbitrary bytes as a replicated record and
// applies it to the fixture the way a follower does: inside one Update.
// Applying must not panic, and a record that fails must leave the store
// exactly as it was.
func FuzzApplyRecord(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add(danglingRelSeed)
	want := exportStore(f, fuzzFixture(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec Record
		if json.Unmarshal(data, &rec) != nil {
			return
		}
		s := fuzzFixture(t)
		if err := s.Update(func(tx *graph.Tx) error { return ApplyRecord(tx, &rec) }); err == nil {
			return
		}
		if got := exportStore(t, s); got != want {
			t.Fatalf("failed apply changed the store:\n%s\nwant\n%s", got, want)
		}
	})
}
