package cypher

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/value"
)

// funcDef is one row of the function table: the argument counts a function
// accepts, whether it takes f(*) and f(DISTINCT x), and its implementation —
// a scalar function of the evaluated arguments, or for an aggregate the
// constructor of its per-group accumulator. The parser resolves every call
// against the table, so an unknown name, a wrong argument count, or a * or
// DISTINCT the function does not take is a parse error with an offset.
type funcDef struct {
	arity    uint64 // bit n set: n arguments accepted (bit 63: 63 or more)
	star     bool
	distinct bool
	scalar   func(ctx *evalCtx, args []value.Value) (value.Value, error)
	agg      func() aggregator
	// keep is how a rule engine can maintain the aggregate as matches
	// arrive (see AggPart); keepNone when it cannot.
	keep keepRule
}

// keepRule is how a maintained aggregate combines two disjoint sets of
// matches: by adding their counts, or by keeping the larger or the smaller
// of their values.
type keepRule int8

const (
	keepNone keepRule = iota
	keepCount
	keepMax
	keepMin
)

// accepts reports whether the function takes n arguments.
func (d *funcDef) accepts(n int) bool { return d.arity&(1<<min(n, 63)) != 0 }

// counts is the arity of a function taking exactly one of ns arguments;
// atLeast(n) that of one taking n or more.
func counts(ns ...int) uint64 {
	var m uint64
	for _, n := range ns {
		m |= 1 << n
	}
	return m
}

func atLeast(n int) uint64 { return ^uint64(0) << n }

// functions is the function table, keyed by lower-cased name.
var functions = map[string]*funcDef{
	// Aggregates: the projection feeds each one argument value per row
	// (count(*) feeds TRUE).
	"count":   {arity: counts(1), star: true, distinct: true, agg: func() aggregator { return &countAgg{} }, keep: keepCount},
	"sum":     {arity: counts(1), distinct: true, agg: func() aggregator { return &sumAgg{} }},
	"avg":     {arity: counts(1), distinct: true, agg: func() aggregator { return &avgAgg{} }},
	"min":     {arity: counts(1), distinct: true, agg: func() aggregator { return &minMaxAgg{min: true} }, keep: keepMin},
	"max":     {arity: counts(1), distinct: true, agg: func() aggregator { return &minMaxAgg{} }, keep: keepMax},
	"collect": {arity: counts(1), distinct: true, agg: func() aggregator { return &collectAgg{} }},
	"stdev":   {arity: counts(1), distinct: true, agg: func() aggregator { return &stdevAgg{} }},

	// Entities.
	"id":         {arity: counts(1), scalar: nullIn(fnID)},
	"labels":     {arity: counts(1), scalar: nullIn(fnLabels)},
	"type":       {arity: counts(1), scalar: nullIn(fnType)},
	"startnode":  {arity: counts(1), scalar: nullIn(endpoint("startnode", true))},
	"endnode":    {arity: counts(1), scalar: nullIn(endpoint("endnode", false))},
	"properties": {arity: counts(1), scalar: fnProperties},
	"keys":       {arity: counts(1), scalar: keysOf},
	"degree":     {arity: counts(1, 2), scalar: nullIn(fnDegree)},
	"countnodes": {arity: counts(1, 3), scalar: fnCountNodes},

	// Lists and strings.
	"size":      {arity: counts(1), scalar: nullIn(sizeOf("size"))},
	"length":    {arity: counts(1), scalar: nullIn(sizeOf("length"))},
	"head":      {arity: counts(1), scalar: nullIn(listPick(0))},
	"last":      {arity: counts(1), scalar: nullIn(listPick(-1))},
	"tail":      {arity: counts(1), scalar: nullIn(fnTail)},
	"reverse":   {arity: counts(1), scalar: nullIn(fnReverse)},
	"range":     {arity: counts(2, 3), scalar: fnRange},
	"coalesce":  {arity: atLeast(1), scalar: fnCoalesce},
	"tolower":   {arity: counts(1), scalar: nullIn(strFn("tolower", strings.ToLower))},
	"toupper":   {arity: counts(1), scalar: nullIn(strFn("toupper", strings.ToUpper))},
	"trim":      {arity: counts(1), scalar: nullIn(strFn("trim", strings.TrimSpace))},
	"ltrim":     {arity: counts(1), scalar: nullIn(strFn("ltrim", func(s string) string { return strings.TrimLeft(s, " \t\r\n") }))},
	"rtrim":     {arity: counts(1), scalar: nullIn(strFn("rtrim", func(s string) string { return strings.TrimRight(s, " \t\r\n") }))},
	"substring": {arity: counts(2, 3), scalar: nullIn(fnSubstring)},
	"replace":   {arity: counts(3), scalar: fnReplace},
	"split":     {arity: counts(2), scalar: fnSplit},
	"left":      {arity: counts(2), scalar: nullIn(side("left", true))},
	"right":     {arity: counts(2), scalar: nullIn(side("right", false))},

	// Numbers and conversions.
	"abs":       {arity: counts(1), scalar: nullIn(fnAbs)},
	"ceil":      {arity: counts(1), scalar: nullIn(floatFn("ceil", math.Ceil))},
	"floor":     {arity: counts(1), scalar: nullIn(floatFn("floor", math.Floor))},
	"round":     {arity: counts(1), scalar: nullIn(floatFn("round", math.Round))},
	"sqrt":      {arity: counts(1), scalar: nullIn(floatFn("sqrt", math.Sqrt))},
	"sign":      {arity: counts(1), scalar: nullIn(fnSign)},
	"tofloat":   {arity: counts(1), scalar: conv(value.ToFloat)},
	"tointeger": {arity: counts(1), scalar: conv(value.ToInteger)},
	"toint":     {arity: counts(1), scalar: conv(value.ToInteger)},
	"tostring":  {arity: counts(1), scalar: conv(value.ToString)},
	"toboolean": {arity: counts(1), scalar: conv(value.ToBoolean)},

	// Time.
	"datetime":  {arity: counts(0, 1), scalar: nullIn(fnDateTime)},
	"timestamp": {arity: counts(0), scalar: fnTimestamp},
	"duration":  {arity: counts(1), scalar: nullIn(fnDuration)},
}

type scalarFn = func(ctx *evalCtx, args []value.Value) (value.Value, error)

// nullIn makes f return NULL when its first argument is NULL.
func nullIn(f scalarFn) scalarFn {
	return func(ctx *evalCtx, args []value.Value) (value.Value, error) {
		if len(args) > 0 && args[0].IsNull() {
			return value.Null, nil
		}
		return f(ctx, args)
	}
}

func conv(f func(value.Value) (value.Value, error)) scalarFn {
	return func(_ *evalCtx, args []value.Value) (value.Value, error) { return f(args[0]) }
}

func fnID(_ *evalCtx, args []value.Value) (value.Value, error) {
	id, ok := args[0].EntityID()
	if !ok {
		return value.Null, fmt.Errorf("cypher: id() requires a node or relationship")
	}
	return value.Int(id), nil
}

func fnLabels(ctx *evalCtx, args []value.Value) (value.Value, error) {
	if args[0].Kind() != value.KindNode {
		return value.Null, fmt.Errorf("cypher: labels() requires a node")
	}
	id, _ := args[0].EntityID()
	labels, ok := ctx.tx.NodeLabels(graph.NodeID(id))
	if !ok {
		return value.Null, nil
	}
	out := make([]value.Value, len(labels))
	for i, l := range labels {
		out[i] = value.Str(l)
	}
	return value.ListOf(out), nil
}

func fnType(ctx *evalCtx, args []value.Value) (value.Value, error) {
	if args[0].Kind() != value.KindRelationship {
		return value.Null, fmt.Errorf("cypher: type() requires a relationship")
	}
	id, _ := args[0].EntityID()
	typ, _, _, ok := ctx.tx.RelEndpoints(graph.RelID(id))
	if !ok {
		return value.Null, nil
	}
	return value.Str(typ), nil
}

// endpoint is startNode(r) (start set) or endNode(r).
func endpoint(name string, start bool) scalarFn {
	return func(ctx *evalCtx, args []value.Value) (value.Value, error) {
		if args[0].Kind() != value.KindRelationship {
			return value.Null, fmt.Errorf("cypher: %s() requires a relationship", name)
		}
		id, _ := args[0].EntityID()
		_, from, to, ok := ctx.tx.RelEndpoints(graph.RelID(id))
		if !ok {
			return value.Null, nil
		}
		if start {
			return value.Node(int64(from)), nil
		}
		return value.Node(int64(to)), nil
	}
}

// fnDegree is degree(node [, type]), an extension used by rule diagnostics.
func fnDegree(ctx *evalCtx, args []value.Value) (value.Value, error) {
	if args[0].Kind() != value.KindNode {
		return value.Null, fmt.Errorf("cypher: degree() requires a node")
	}
	id, _ := args[0].EntityID()
	if len(args) == 2 {
		typ, ok := args[1].AsString()
		if !ok {
			return value.Null, fmt.Errorf("cypher: degree() type must be a string")
		}
		return value.Int(int64(len(ctx.tx.RelsOf(graph.NodeID(id), graph.Both, []string{typ})))), nil
	}
	return value.Int(int64(ctx.tx.Degree(graph.NodeID(id), graph.Both))), nil
}

// fnCountNodes is countNodes(label) or countNodes(label, key, value) —
// count-store access: O(1) when a property index exists on (label, key), the
// analog of Neo4j's count store. Falls back to a label scan.
func fnCountNodes(ctx *evalCtx, args []value.Value) (value.Value, error) {
	label, ok := args[0].AsString()
	if !ok {
		return value.Null, fmt.Errorf("cypher: countNodes() label must be a string")
	}
	if len(args) == 1 {
		return value.Int(int64(ctx.tx.CountByLabel(label))), nil
	}
	key, ok := args[1].AsString()
	if !ok {
		return value.Null, fmt.Errorf("cypher: countNodes() key must be a string")
	}
	if n, indexed := ctx.tx.CountByProp(label, key, args[2]); indexed {
		return value.Int(int64(n)), nil
	}
	var n int64
	for _, id := range ctx.tx.NodesByLabel(label) {
		if v, has := ctx.tx.NodeProp(id, key); has {
			if eq, known := value.Equal(v, args[2]); known && eq {
				n++
			}
		}
	}
	return value.Int(n), nil
}

func sizeOf(name string) scalarFn {
	return func(_ *evalCtx, args []value.Value) (value.Value, error) {
		v := args[0]
		switch v.Kind() {
		case value.KindList:
			l, _ := v.AsList()
			return value.Int(int64(len(l))), nil
		case value.KindString:
			s, _ := v.AsString()
			return value.Int(int64(len([]rune(s)))), nil
		case value.KindMap:
			m, _ := v.AsMap()
			return value.Int(int64(len(m))), nil
		default:
			return value.Null, fmt.Errorf("cypher: %s() of %s", name, v.Kind())
		}
	}
}

func listPick(idx int) scalarFn {
	return func(_ *evalCtx, args []value.Value) (value.Value, error) {
		l, ok := args[0].AsList()
		if !ok {
			return value.Null, fmt.Errorf("cypher: head()/last() of %s", args[0].Kind())
		}
		if len(l) == 0 {
			return value.Null, nil
		}
		if idx < 0 {
			return l[len(l)-1], nil
		}
		return l[idx], nil
	}
}

func fnTail(_ *evalCtx, args []value.Value) (value.Value, error) {
	l, ok := args[0].AsList()
	if !ok {
		return value.Null, fmt.Errorf("cypher: tail() of %s", args[0].Kind())
	}
	if len(l) == 0 {
		return value.List(), nil
	}
	return value.ListOf(append([]value.Value(nil), l[1:]...)), nil
}

func fnReverse(_ *evalCtx, args []value.Value) (value.Value, error) {
	if s, ok := args[0].AsString(); ok {
		runes := []rune(s)
		for i, j := 0, len(runes)-1; i < j; i, j = i+1, j-1 {
			runes[i], runes[j] = runes[j], runes[i]
		}
		return value.Str(string(runes)), nil
	}
	l, ok := args[0].AsList()
	if !ok {
		return value.Null, fmt.Errorf("cypher: reverse() of %s", args[0].Kind())
	}
	out := make([]value.Value, len(l))
	for i, v := range l {
		out[len(l)-1-i] = v
	}
	return value.ListOf(out), nil
}

func fnRange(_ *evalCtx, args []value.Value) (value.Value, error) {
	start, ok1 := args[0].AsInt()
	end, ok2 := args[1].AsInt()
	if !ok1 || !ok2 {
		return value.Null, fmt.Errorf("cypher: range() requires integers")
	}
	step := int64(1)
	if len(args) == 3 {
		var ok bool
		step, ok = args[2].AsInt()
		if !ok || step == 0 {
			return value.Null, fmt.Errorf("cypher: range() step must be a non-zero integer")
		}
	}
	var out []value.Value
	if step > 0 {
		for i := start; i <= end; i += step {
			out = append(out, value.Int(i))
		}
	} else {
		for i := start; i >= end; i += step {
			out = append(out, value.Int(i))
		}
	}
	return value.ListOf(out), nil
}

func fnCoalesce(_ *evalCtx, args []value.Value) (value.Value, error) {
	for _, v := range args {
		if !v.IsNull() {
			return v, nil
		}
	}
	return value.Null, nil
}

func strFn(name string, f func(string) string) scalarFn {
	return func(_ *evalCtx, args []value.Value) (value.Value, error) {
		s, ok := args[0].AsString()
		if !ok {
			return value.Null, fmt.Errorf("cypher: %s() of %s", name, args[0].Kind())
		}
		return value.Str(f(s)), nil
	}
}

func fnSubstring(_ *evalCtx, args []value.Value) (value.Value, error) {
	s, ok := args[0].AsString()
	if !ok {
		return value.Null, fmt.Errorf("cypher: substring() of %s", args[0].Kind())
	}
	start, ok := args[1].AsInt()
	if !ok {
		return value.Null, fmt.Errorf("cypher: substring() start must be integer")
	}
	runes := []rune(s)
	if start < 0 || start > int64(len(runes)) {
		return value.Str(""), nil
	}
	end := int64(len(runes))
	if len(args) == 3 {
		n, ok := args[2].AsInt()
		if !ok {
			return value.Null, fmt.Errorf("cypher: substring() length must be integer")
		}
		if start+n < end {
			end = start + n
		}
	}
	if end < start {
		end = start
	}
	return value.Str(string(runes[start:end])), nil
}

func fnReplace(_ *evalCtx, args []value.Value) (value.Value, error) {
	if args[0].IsNull() || args[1].IsNull() || args[2].IsNull() {
		return value.Null, nil
	}
	s, ok1 := args[0].AsString()
	from, ok2 := args[1].AsString()
	to, ok3 := args[2].AsString()
	if !ok1 || !ok2 || !ok3 {
		return value.Null, fmt.Errorf("cypher: replace() requires strings")
	}
	return value.Str(strings.ReplaceAll(s, from, to)), nil
}

func fnSplit(_ *evalCtx, args []value.Value) (value.Value, error) {
	if args[0].IsNull() || args[1].IsNull() {
		return value.Null, nil
	}
	s, ok1 := args[0].AsString()
	sep, ok2 := args[1].AsString()
	if !ok1 || !ok2 {
		return value.Null, fmt.Errorf("cypher: split() requires strings")
	}
	parts := strings.Split(s, sep)
	out := make([]value.Value, len(parts))
	for i, p := range parts {
		out[i] = value.Str(p)
	}
	return value.ListOf(out), nil
}

// side is left(s, n) (left set) or right(s, n).
func side(name string, left bool) scalarFn {
	return func(_ *evalCtx, args []value.Value) (value.Value, error) {
		s, ok := args[0].AsString()
		if !ok {
			return value.Null, fmt.Errorf("cypher: %s() of %s", name, args[0].Kind())
		}
		n, ok := args[1].AsInt()
		if !ok || n < 0 {
			return value.Null, fmt.Errorf("cypher: %s() length must be a non-negative integer", name)
		}
		runes := []rune(s)
		if n > int64(len(runes)) {
			n = int64(len(runes))
		}
		if left {
			return value.Str(string(runes[:n])), nil
		}
		return value.Str(string(runes[len(runes)-int(n):])), nil
	}
}

func fnAbs(_ *evalCtx, args []value.Value) (value.Value, error) {
	if i, ok := args[0].AsInt(); ok {
		if i < 0 {
			i = -i
		}
		return value.Int(i), nil
	}
	f, ok := args[0].NumberAsFloat()
	if !ok {
		return value.Null, fmt.Errorf("cypher: abs() of %s", args[0].Kind())
	}
	return value.Float(math.Abs(f)), nil
}

func floatFn(name string, f func(float64) float64) scalarFn {
	return func(_ *evalCtx, args []value.Value) (value.Value, error) {
		x, ok := args[0].NumberAsFloat()
		if !ok {
			return value.Null, fmt.Errorf("cypher: %s() of %s", name, args[0].Kind())
		}
		return value.Float(f(x)), nil
	}
}

func fnSign(_ *evalCtx, args []value.Value) (value.Value, error) {
	f, ok := args[0].NumberAsFloat()
	if !ok {
		return value.Null, fmt.Errorf("cypher: sign() of %s", args[0].Kind())
	}
	switch {
	case f > 0:
		return value.Int(1), nil
	case f < 0:
		return value.Int(-1), nil
	default:
		return value.Int(0), nil
	}
}

func fnDateTime(ctx *evalCtx, args []value.Value) (value.Value, error) {
	if len(args) == 0 {
		return value.DateTime(ctx.timeNow()), nil
	}
	if args[0].Kind() == value.KindDateTime {
		return args[0], nil
	}
	s, ok := args[0].AsString()
	if !ok {
		return value.Null, fmt.Errorf("cypher: datetime() requires a string")
	}
	return value.ParseDateTime(s)
}

func fnTimestamp(ctx *evalCtx, _ []value.Value) (value.Value, error) {
	return value.Int(ctx.timeNow().UnixMilli()), nil
}

func fnDuration(_ *evalCtx, args []value.Value) (value.Value, error) {
	if args[0].Kind() == value.KindDuration {
		return args[0], nil
	}
	s, ok := args[0].AsString()
	if !ok {
		return value.Null, fmt.Errorf("cypher: duration() requires a string")
	}
	return value.ParseDuration(s)
}

func fnProperties(ctx *evalCtx, args []value.Value) (value.Value, error) {
	return propertiesOf(ctx, args[0])
}

func propertiesOf(ctx *evalCtx, v value.Value) (value.Value, error) {
	switch v.Kind() {
	case value.KindNull:
		return value.Null, nil
	case value.KindMap:
		return v, nil
	case value.KindNode:
		id, _ := v.EntityID()
		n, ok := ctx.tx.Node(graph.NodeID(id))
		if !ok {
			return value.Null, nil
		}
		return value.Map(n.Props), nil
	case value.KindRelationship:
		id, _ := v.EntityID()
		r, ok := ctx.tx.Rel(graph.RelID(id))
		if !ok {
			return value.Null, nil
		}
		return value.Map(r.Props), nil
	default:
		return value.Null, fmt.Errorf("cypher: properties() of %s", v.Kind())
	}
}

func keysOf(ctx *evalCtx, args []value.Value) (value.Value, error) {
	v := args[0]
	var keys []string
	switch v.Kind() {
	case value.KindNull:
		return value.Null, nil
	case value.KindMap:
		m, _ := v.AsMap()
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
	case value.KindNode:
		id, _ := v.EntityID()
		keys = ctx.tx.NodePropKeys(graph.NodeID(id))
	case value.KindRelationship:
		id, _ := v.EntityID()
		keys = ctx.tx.RelPropKeys(graph.RelID(id))
	default:
		return value.Null, fmt.Errorf("cypher: keys() of %s", v.Kind())
	}
	out := make([]value.Value, len(keys))
	for i, k := range keys {
		out[i] = value.Str(k)
	}
	return value.ListOf(out), nil
}
