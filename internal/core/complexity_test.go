package core

import (
	"fmt"
	"testing"

	"repro/internal/trigger"
	"repro/internal/value"
)

// TestComplexityContracts pins how the engine's work counters grow with
// what it holds. Each row measures one counter after the same write at
// several sizes and wants the same value at every size: a row whose counter
// grows with the size has lost a shared evaluation or an index, whatever the
// wall clock says.
func TestComplexityContracts(t *testing.T) {
	rows := []struct {
		name  string
		sizes []int
		// measure builds a knowledge base of size n, performs the row's
		// write and returns the counter the row constrains.
		measure func(t *testing.T, n int) int
		want    int
	}{{
		// n threshold rules NEW.account = 'acct-i' form one guard family:
		// one Txn event reads NEW.account once, however many rules it
		// checks. The event's account is the last rule's, so no pass
		// clears the memo before every other member has compared.
		name:  "guard family read once per event",
		sizes: []int{10, 1000},
		measure: func(t *testing.T, n int) int {
			kb, _ := newSimKB(t)
			for i := 0; i < n; i++ {
				if err := kb.InstallRule(trigger.Rule{
					Name:  fmt.Sprintf("thr-%04d", i),
					Event: trigger.Event{Kind: trigger.CreateNode, Label: "Txn"},
					Guard: fmt.Sprintf("NEW.account = 'acct-%04d'", i),
				}); err != nil {
					t.Fatal(err)
				}
			}
			_, rep, err := kb.ExecuteReport("CREATE (:Txn {account: $a})",
				map[string]value.Value{"a": value.Str(fmt.Sprintf("acct-%04d", n-1))})
			if err != nil {
				t.Fatal(err)
			}
			if rep.GuardChecks != n || len(rep.Activations) != 1 {
				t.Fatalf("n=%d: GuardChecks = %d, activations = %d; want %d and 1",
					n, rep.GuardChecks, len(rep.Activations), n)
			}
			return rep.GuardEvals
		},
		want: 1,
	}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, n := range row.sizes {
				if got := row.measure(t, n); got != row.want {
					t.Errorf("size %d: %d, want %d at every size", n, got, row.want)
				}
			}
		})
	}
}
