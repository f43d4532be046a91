package cypher

import (
	"fmt"
	"math"

	"repro/internal/value"
)

// aggregator accumulates values of one aggregate call within one group.
type aggregator interface {
	add(v value.Value) error
	result() value.Value
}

// newAggregator builds the accumulator of one aggregate call (resolved by
// the parser to its function-table row) for one group.
func newAggregator(call *FuncCall) aggregator {
	inner := call.def.agg()
	if call.Distinct {
		return &distinctAgg{inner: inner, seen: make(map[value.Key]bool)}
	}
	return inner
}

type distinctAgg struct {
	inner aggregator
	seen  map[value.Key]bool // by equivalence: 1 and 1.0 are one value
}

func (a *distinctAgg) add(v value.Value) error {
	if v.IsNull() {
		return a.inner.add(v) // inner aggregators skip nulls themselves
	}
	k := v.Key()
	if a.seen[k] {
		return nil
	}
	a.seen[k] = true
	return a.inner.add(v)
}

func (a *distinctAgg) result() value.Value { return a.inner.result() }

// countAgg counts non-NULL values; count(*) is fed TRUE once per row.
type countAgg struct {
	n int64
}

func (a *countAgg) add(v value.Value) error {
	if !v.IsNull() {
		a.n++
	}
	return nil
}

func (a *countAgg) result() value.Value { return value.Int(a.n) }

type sumAgg struct {
	isFloat bool
	i       int64
	f       float64
}

func (a *sumAgg) add(v value.Value) error {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt:
		iv, _ := v.AsInt()
		a.i += iv
		a.f += float64(iv)
		return nil
	case value.KindFloat:
		fv, _ := v.AsFloat()
		a.isFloat = true
		a.f += fv
		return nil
	default:
		return fmt.Errorf("cypher: sum() of %s", v.Kind())
	}
}

func (a *sumAgg) result() value.Value {
	if a.isFloat {
		return value.Float(a.f)
	}
	return value.Int(a.i)
}

type avgAgg struct {
	n   int64
	sum float64
}

func (a *avgAgg) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	f, ok := v.NumberAsFloat()
	if !ok {
		return fmt.Errorf("cypher: avg() of %s", v.Kind())
	}
	a.n++
	a.sum += f
	return nil
}

func (a *avgAgg) result() value.Value {
	if a.n == 0 {
		return value.Null
	}
	return value.Float(a.sum / float64(a.n))
}

type minMaxAgg struct {
	min  bool
	best value.Value
	set  bool
}

func (a *minMaxAgg) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	if !a.set {
		a.best = v
		a.set = true
		return nil
	}
	c := value.Compare(v, a.best)
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.best = v
	}
	return nil
}

func (a *minMaxAgg) result() value.Value {
	if !a.set {
		return value.Null
	}
	return a.best
}

type collectAgg struct {
	vals []value.Value
}

func (a *collectAgg) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	a.vals = append(a.vals, v)
	return nil
}

func (a *collectAgg) result() value.Value { return value.ListOf(a.vals) }

// stdevAgg computes the sample standard deviation with Welford's algorithm.
type stdevAgg struct {
	n    int64
	mean float64
	m2   float64
}

func (a *stdevAgg) add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	f, ok := v.NumberAsFloat()
	if !ok {
		return fmt.Errorf("cypher: stdev() of %s", v.Kind())
	}
	a.n++
	d := f - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (f - a.mean)
	return nil
}

func (a *stdevAgg) result() value.Value {
	if a.n < 2 {
		if a.n == 0 {
			return value.Null
		}
		return value.Float(0)
	}
	return value.Float(math.Sqrt(a.m2 / float64(a.n-1)))
}
