package bench

import (
	"bytes"
	"fmt"
	"testing"
)

// TestFiguresSmoke runs every row of the figure table at smoke size. A
// row's Run returns an error when one of its invariants does not hold
// (no commits, a bridge bound twice, sync and async alert sets differing,
// a follower that never caught up, ...), so this is the CI gate for all of
// them.
func TestFiguresSmoke(t *testing.T) {
	for _, f := range Figures {
		t.Run(f.Name, func(t *testing.T) {
			var out bytes.Buffer
			if err := f.Run(Config{Seed: 1}, true, &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if out.Len() == 0 {
				t.Error("figure printed nothing")
			}
		})
	}
}

// TestSelect pins rkm-bench's -fig surface: every row is selectable, "all"
// is the whole table, and a retired name is refused with a message that
// lists exactly the table's names.
func TestSelect(t *testing.T) {
	for _, f := range Figures {
		got, err := Select(f.Name)
		if err != nil || len(got) != 1 || got[0].Name != f.Name {
			t.Errorf("Select(%q) = %v, %v", f.Name, got, err)
		}
	}
	if all, err := Select("all"); err != nil || len(all) != len(Figures) {
		t.Errorf(`Select("all") = %d rows, %v`, len(all), err)
	}
	for _, retired := range []string{"conc", "wal", "plan", "cep", "fed", "shard", "xshard"} {
		want := fmt.Sprintf("unknown figure %q (want 9, 10, ablation, rules, async, replica or all)", retired)
		if _, err := Select(retired); err == nil || err.Error() != want {
			t.Errorf("Select(%q) error = %v\nwant %s", retired, err, want)
		}
	}
}
