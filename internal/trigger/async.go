package trigger

import (
	"encoding/json"
	"fmt"

	"repro/internal/graph"
	"repro/internal/value"
)

// EncodeBinding serializes a binding as JSON with full type fidelity
// (datetimes, durations, nested maps, node/relationship references), so an
// AfterAsync activation can be stored on a durable pending queue and decoded
// after a restart.
func EncodeBinding(b Binding) (string, error) {
	m := make(map[string]any, len(b))
	for k, v := range b {
		m[k] = value.ToJSON(v)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("trigger: encode binding: %w", err)
	}
	return string(raw), nil
}

// DecodeBinding reverses EncodeBinding.
func DecodeBinding(s string) (Binding, error) {
	var m map[string]any
	if err := json.Unmarshal([]byte(s), &m); err != nil {
		return nil, fmt.Errorf("trigger: decode binding: %w", err)
	}
	b := make(Binding, len(m))
	for k, raw := range m {
		v, err := value.FromJSON(raw)
		if err != nil {
			return nil, fmt.Errorf("trigger: decode binding %s: %w", k, err)
		}
		b[k] = v
	}
	return b, nil
}

// EvaluateAsync runs the alert query of an AfterAsync rule against tx —
// typically a read-only transaction pinned to a committed snapshot — with
// the recorded binding's transition variables bound (see RunAlert).
func (e *Engine) EvaluateAsync(tx *graph.Tx, ruleName string, bind Binding) (cols []string, rows [][]value.Value, err error) {
	cr, err := e.lookup(ruleName)
	if err != nil {
		return nil, nil, err
	}
	return e.RunAlert(tx, cr, bind, e.now())
}

// MaterializeAsync produces the alert nodes (or runs the rule's Action) for
// the critical rows EvaluateAsync returned, inside the follow-up write
// transaction tx (see Materialize). The caller is expected to delete the
// pending-queue entry in the same transaction, making dequeue and
// materialization atomic.
func (e *Engine) MaterializeAsync(tx *graph.Tx, ruleName string, bind Binding,
	cols []string, rows [][]value.Value) ([]graph.NodeID, error) {
	cr, err := e.lookup(ruleName)
	if err != nil {
		return nil, err
	}
	return e.Materialize(tx, cr, bind, e.now(), cols, rows)
}

func (e *Engine) lookup(name string) (*Compiled, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	cr, ok := e.rules[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrRuleNotFound, name)
	}
	return cr, nil
}
